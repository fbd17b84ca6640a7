"""Tests of the benchmark itself: smoke runs, and checks that reject bad output.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from majpop import lattice, solvers  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("env: python ")
    assert "kernel_available" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "desk":
        # The fixed certify instance fails once in every round, nothing else does.
        per_round = len(workloads.Desk(3, True, run.WORKDIR).round(0))
        assert result["failed"] * per_round == result["attempted"]
    else:
        assert result["failed"] == 0


def test_exits_nonzero_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "lib-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_table_matches_benchmark_json():
    assert list(run.PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]


def _small_solution():
    inst = solvers.Instance("min_remaining", (4, 4, 3, 1, 1), ceiling=(7, 6, 5, 4, 4))
    return inst, solvers.solve(inst)


def test_checks_accept_a_correct_solution():
    inst, res = _small_solution()
    workloads.check_result(inst, res)


def test_checks_reject_a_flipped_matrix_bit():
    inst, res = _small_solution()
    bad = res.matrix.copy()
    bad[0, 0] ^= 1
    with pytest.raises(ref.CheckFailed):
        workloads.check_result(inst, SimpleNamespace(**{**vars(res), "matrix": bad}))


def test_checks_reject_a_wrong_canonical_entry():
    inst, res = _small_solution()
    canonical = list(res.canonical_objective)
    canonical[-1] += 1
    with pytest.raises(ref.CheckFailed):
        workloads.check_result(inst, SimpleNamespace(**{**vars(res), "canonical_objective": tuple(canonical)}))


def test_checks_reject_a_canonical_objective_the_reference_sweep_does_not_reach():
    inst, res = _small_solution()
    with pytest.raises(ref.CheckFailed):
        workloads.check_result(inst, res, canonical=(3, 3, 3, 3, 1))


def test_checks_reject_a_wrong_join():
    a, b = (5, 2, 2, 2), (4, 3, 3, 1)
    good = lattice.join(a, b)
    assert good == (5, 3, 2, 1)
    ref.check_join(good, a, b)
    with pytest.raises(ref.CheckFailed):
        ref.check_join((5, 3, 3, 0), a, b)


def test_checks_reject_a_wrong_meet():
    a, b = (5, 2, 2, 2), (4, 3, 3, 1)
    ref.check_meet(lattice.meet(a, b), a, b)
    with pytest.raises(ref.CheckFailed):
        ref.check_meet((4, 3, 3, 1), a, b)


def test_flat_optima_count_closed_form():
    # Eight rows of 4 over 12 empty columns: C(12, 32 mod 12) = C(12, 8) = 495.
    assert ref.flat_optima_count(12, 32) == 495
    inst = solvers.Instance("min_combined", (4,) * 8, base=(0,) * 12)
    optima = solvers.enumerate_optima(inst)
    ref.check_flat_optima(optima, (0,) * 12, (4,) * 8, +1)
    obj = next(iter(optima))
    with pytest.raises(ref.CheckFailed):
        ref.check_flat_optima({k: v for k, v in optima.items() if k != obj}, (0,) * 12, (4,) * 8, +1)


def test_reference_sweep_agrees_with_the_documented_optimum():
    assert ref.sweep_canonical((7, 6, 5, 4, 4), (4, 4, 3, 1, 1), True) == (3, 3, 3, 2, 2)


def test_capped_instances_never_strand_a_row():
    rng = np.random.default_rng(0)
    for variant in ("general_min", "general_max"):
        for _ in range(20):
            inst = workloads.capped_instance(rng, variant, 40, 30, 10)
            res = solvers.solve(inst)
            workloads.check_result(inst, res)


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "name": "a", "start_ns": 0, "end_ns": 100, "parent": None, "op": 1},
        {"id": 1, "name": "b", "start_ns": 10, "end_ns": 40, "parent": 0, "op": 1},
        {"id": 2, "name": "c", "start_ns": 30, "end_ns": 60, "parent": 0, "op": 1},
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 30, 2: 30}
