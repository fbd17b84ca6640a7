"""Run one command and report its wall time, peak resident set and exit code.

    python -S spawn.py REPORT_FILE PROGRAM [ARG ...]

A child's ``ru_maxrss`` keeps the high-water mark of the process it was
forked from, so a solve spawned straight from the benchmark would report
the benchmark's own footprint whenever that is larger.  This launcher is a
bare interpreter, small enough that the figure it reports is the solve's.
The child inherits stdin, stdout and stderr; the report is one line
``elapsed_ns maxrss_kib exit_code``, timed from spawn until the child is
reaped.
"""

import os
import sys
import time

report, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter_ns()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
elapsed = time.perf_counter_ns() - t0
with open(report, "w", encoding="utf-8") as fh:
    fh.write(f"{elapsed} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")
