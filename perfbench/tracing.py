"""In-memory spans around the benchmark's calls into each majpop layer.

A span records its id, name, start and end (``perf_counter_ns``), the id of
the enclosing span and the id of the operation it belongs to.  Spans stay in
memory until :meth:`Tracer.write` stores them as JSON lines, from which
:func:`self_times` recomputes every self time.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []

    def begin_op(self):
        self.op += 1

    def add(self, name, start_ns, end_ns):
        """Record a span timed elsewhere, e.g. inside a child process.

        ``perf_counter_ns`` reads the system-wide monotonic clock on Linux,
        so a child's timestamps line up with this process's spans.
        """
        record = {
            "id": len(self.spans),
            "name": name,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name):
        record = self.add(name, 0, 0)
        self._stack.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(spans):
    """Map span id to its duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start_ns"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, cursor), min(hi, s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = s["end_ns"] - s["start_ns"] - covered
    return out
