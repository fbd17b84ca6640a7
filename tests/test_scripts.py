"""The scripts under ``scripts/`` run from any directory, with the
checkout's own ``src`` on the path and no PYTHONPATH."""

import csv
import io
import os
import subprocess
import sys

_SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def test_run_bench_runs_from_another_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join(_SCRIPTS, "run_bench.py")]
    cmd += ["--base", "20", "--doublings", "1", "--fixed", "20", "--repeats", "1"]
    run = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    rows = list(csv.reader(io.StringIO(run.stdout)))
    assert rows[0] == ["m", "n", "policy", "seed", "wall_time_ns", "feasible"]
    assert [(int(m), int(n)) for m, n, *_ in rows[1:]] == [(20, 20), (40, 20), (20, 20), (20, 40)]
    assert run.stderr.startswith("rows: 20 -> 40: mean ")
