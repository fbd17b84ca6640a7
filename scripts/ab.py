#!/usr/bin/env python3
"""Paired A/B runs of ``perfbench/run.py``: a parent revision against the working tree.

    python scripts/ab.py --parent HEAD~1 --out BENCH_x.json --title "..." \\
        --seconds 25 cli-large:1-10 lib-medium:1-5 cli-large:1-3:trace

Each positional argument is ``WORKLOAD:SEEDS`` or ``WORKLOAD:SEEDS:trace``,
with SEEDS a number or an inclusive range ``a-b``.  For every seed the two
sides run one after the other on that seed, and the side that goes first
alternates from pair to pair.  The parent is exported with ``git archive``
into a temporary directory, so the repository's own metadata is never
touched; the change is the working tree at the repository root, copied
once into the same temporary directory when the session starts (without
``.git``, ``.perfbench`` and ``__pycache__``), so an edit made while the
session runs is not measured part way through, nor does it make a C file's
rebuild fall inside a timed run.  Each side runs its own
``perfbench/run.py`` from its own root.

The output file has the schema of the other ``BENCH_*.json`` files: title,
command, machine, parent_commit, change, method, summary and runs.  Every
run goes into ``runs``, a failed one with its exit code and the end of its
stderr.  The summary holds, per workload (traced runs apart), the number of
pairs, whether they are enough to cite (``resolved``: at least
``RESOLVED_PAIRS``), and each metric's median and quartiles on each side,
the number of pairs in which the change is better, and the ratio of the
medians.  The file is rewritten after every pair, so an interrupted session
keeps what it measured.

Each untraced ``cli-large`` run is followed, in its side's place in the
pair order, by ``BARE_STARTS`` timed starts of a bare interpreter
(``sys.executable -c pass``, spawned and reaped as ``perfbench/spawn.py``
times a ``majpop solve`` process); the run records their median as
``bare_interpreter_ms``.  That part of an operation is interpreter
start-up, which the library cannot change, so the summary shows it
beside the total: ``bare_interpreter_ms`` and ``library_ms``
(``op_median_ms`` less the run's baseline) get entries of their own,
with quartiles, wins and ratio like every metric.

A traced run leaves its spans and their summary in its side's
``.perfbench/``, which goes with the temporary directory; they are moved
to ``<out>.traces/pair<P>-<side>/`` beside the output file (``BENCH_x.traces``
for ``BENCH_x.json``), and the run's entry names that directory, relative
to the output file's, as ``traces``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Fewest pairs a summary entry rests on before its figures may be cited: three
# traced pairs have moved per-layer figures by 8-47% on unchanged code.
RESOLVED_PAIRS = 10

# Bare-interpreter starts timed after each untraced cli-large run.
BARE_STARTS = 20


def parse_spec(text):
    """``WORKLOAD:SEEDS[:trace]`` -> (workload, [seed, ...], trace)."""
    parts = text.split(":")
    if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "trace"):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS or WORKLOAD:SEEDS:trace, got {text!r}")
    first, _, last = parts[1].partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range in {text!r}")
    return parts[0], seeds, len(parts) == 3


def declared_better():
    """Metric name -> ``"lower"`` or ``"higher"``, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    return {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}


def export(rev, directory):
    """The files of ``rev`` under ``directory``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} exited with {archive.returncode}")
    return commit


def snapshot(directory):
    """The working tree at ``ROOT`` copied to ``directory``, which must not
    exist yet, without git metadata, benchmark output or bytecode caches
    (and so without a compiled library)."""
    shutil.copytree(ROOT, directory, symlinks=True,
                    ignore=shutil.ignore_patterns(".git", ".perfbench", "__pycache__"))


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy

        numpy_version = f", numpy {numpy.__version__}"
    except ImportError:
        numpy_version = ""
    cc = shutil.which("cc")
    if cc:
        cc = subprocess.run([cc, "--version"], capture_output=True, text=True).stdout.splitlines()[0]
    return (
        f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()} ({model}); "
        f"Python {platform.python_version()}{numpy_version}; cc: {cc or 'none'}"
    )


def run_once(root, side, workload, seed, trace, seconds, units):
    """One run of ``perfbench/run.py``; its metrics' units go into ``units``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    run = {"side": side, "workload": workload, "seed": seed, "trace": trace, "returncode": proc.returncode}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        run.update(
            correct=result["correct"],
            attempted=result["attempted"],
            failed=result["failed"],
            metrics={name: m["value"] for name, m in result["metrics"].items()},
        )
        units.update((name, m["unit"]) for name, m in result["metrics"].items())
    except (IndexError, ValueError, KeyError, TypeError):
        run["error"] = proc.stderr[-2000:]
        return run
    if not run["correct"] or run["failed"]:
        # run.py reports each distinct failure once, on a "perfbench:" line.
        run["stderr"] = proc.stderr[-2000:]
    return run


def bare_interpreter_ms(starts=BARE_STARTS):
    """Median wall time, in ms, of ``starts`` runs of ``sys.executable -c
    pass``, each timed from spawn until it is reaped."""
    argv = [sys.executable, "-c", "pass"]
    times = []
    for _ in range(starts):
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ)
        os.waitpid(pid, 0)
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return round(statistics.median(times), 3)


def keep_traces(root, run, out):
    """Move a traced run's ``trace-<workload>-seed<S>.spans.jsonl`` and
    ``.summary.json`` out of ``root``'s ``.perfbench/`` into the run's
    directory beside ``out``, so a later run of the same seed cannot leave
    them standing for its own; returns that directory relative to
    ``out``'s, or None when the run wrote neither."""
    stem = os.path.join(root, ".perfbench", f"trace-{run['workload']}-seed{run['seed']}")
    found = [stem + ext for ext in (".spans.jsonl", ".summary.json") if os.path.exists(stem + ext)]
    if not found:
        return None
    kept = os.path.join(os.path.splitext(out)[0] + ".traces", f"pair{run['pair']}-{run['side']}")
    os.makedirs(kept, exist_ok=True)
    for path in found:
        shutil.move(path, os.path.join(kept, os.path.basename(path)))
    return os.path.relpath(kept, os.path.dirname(os.path.abspath(out)))


def quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def compared(values, unit, lower):
    """One metric's entry from its values per side, pair by pair: the
    quartiles on each side, the pairs in which the change is better, and
    the ratio of the medians."""
    sides = ("parent", "change")
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    med = {s: statistics.median(values[s]) for s in sides}
    return {
        "unit": unit,
        "better": "lower" if lower else "higher",
        **{s: quartiles(values[s]) for s in sides},
        "change_better_in_pairs": wins,
        "change_over_parent": round(med["change"] / med["parent"], 3) if med["parent"] else None,
    }


def summarize(runs, better, units):
    groups = {}
    for run in runs:
        key = run["workload"] + (" traced" if run["trace"] else "")
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for key, pairs in groups.items():
        done = [p for p in pairs.values() if all("metrics" in p.get(s, {}) for s in ("parent", "change"))]
        sides = ("parent", "change")
        entry = {
            "pairs": len(done),
            "resolved": len(done) >= RESOLVED_PAIRS,
            "failed": {s: sum(p[s].get("failed", 0) for p in pairs.values() if s in p) for s in sides},
            "failed_runs": {s: sum("error" in p[s] for p in pairs.values() if s in p) for s in sides},
            "incorrect_runs": {s: sum(p[s].get("correct") is False for p in pairs.values() if s in p) for s in sides},
        }
        names = sorted({name for p in done for name in p["parent"]["metrics"]})
        for name in names:
            both = [p for p in done if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
            if not both:
                continue
            values = {s: [p[s]["metrics"][name] for p in both] for s in sides}
            entry[name] = compared(values, units[name], better.get(name, "lower") == "lower")
        based = [
            p for p in done
            if all("bare_interpreter_ms" in p[s] and "op_median_ms" in p[s]["metrics"] for s in sides)
        ]
        if based:
            bare = {s: [p[s]["bare_interpreter_ms"] for p in based] for s in sides}
            library = {s: [p[s]["metrics"]["op_median_ms"] - p[s]["bare_interpreter_ms"] for p in based] for s in sides}
            entry["bare_interpreter_ms"] = compared(bare, "ms", True)
            entry["library_ms"] = compared(library, "ms", True)
        summary[key] = entry
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("specs", nargs="+", type=parse_spec, metavar="WORKLOAD:SEEDS[:trace]")
    ap.add_argument("--parent", required=True, help="revision to compare against, e.g. HEAD or HEAD~1")
    ap.add_argument("--out", required=True, help="BENCH file to write")
    ap.add_argument("--title", required=True)
    ap.add_argument("--change", default="the commit that adds this file",
                    help="how the BENCH file names the change side")
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args(argv)

    better = declared_better()
    doc = {
        "title": args.title,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace T, "
                   "run from the root of each checkout",
        "machine": machine(),
        "parent_commit": None,
        "change": args.change,
        "method": (
            "scripts/ab.py: the parent exported with git archive into a temporary directory, the change "
            "a copy of the working tree made there when the session started; parent and change run in pairs on the same seed, one after the other, and "
            "the side that runs first alternates from pair to pair (even pairs: parent first); traced runs "
            "(--trace 1) are summarised apart; every untraced cli-large run is followed by "
            f"{BARE_STARTS} timed starts of a bare interpreter (sys.executable -c pass), whose median "
            "it records as bare_interpreter_ms; every run made is listed, failed ones included"
        ),
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="majpop-ab-") as tmp:
        roots = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        os.mkdir(roots["parent"])
        doc["parent_commit"] = export(args.parent, roots["parent"])
        snapshot(roots["change"])
        units = {}
        pair = 0
        for workload, seeds, trace in args.specs:
            for seed in seeds:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(roots[side], side, workload, seed, trace, args.seconds, units)
                    run["pair"] = pair
                    if workload == "cli-large" and not trace and "metrics" in run:
                        run["bare_interpreter_ms"] = bare_interpreter_ms()
                    if trace:
                        run["traces"] = keep_traces(roots[side], run, args.out)
                    doc["runs"].append(run)
                    shown = run.get("metrics") or run["error"][-200:]
                    print(f"pair {pair} {workload} seed {seed}{' traced' if trace else ''} {side}: {shown}",
                          file=sys.stderr)
                pair += 1
                doc["summary"] = summarize(doc["runs"], better, units)
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
