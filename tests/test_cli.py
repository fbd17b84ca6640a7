import csv
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import majpop
from majpop import Instance, TiePolicy, solve
from majpop._commands import _MAX_CONJUGATE_DIM, _bench_instance
from majpop.cli import _POLICY_FLAGS, _emit, main
from majpop.completion import Cells
from majpop.errors import InternalInvariantError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


PEAK_INSTANCE = {"variant": "min_remaining", "row_sums": [4, 4, 3, 1, 1], "ceiling": [7, 6, 5, 4, 4]}
VALLEY_INSTANCE = {"variant": "min_combined", "row_sums": [4, 3, 3, 2, 1], "base": [8, 6, 5, 2, 2]}


def test_solve_golden(tmp_path, capsys):
    path = write_instance(tmp_path, "peak.json", PEAK_INSTANCE)
    code, out, err = run_cli(capsys, "solve", "--instance", path, "--tie-policy", "lowest-index")
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical_objective"] == [3, 3, 3, 2, 2]
    assert payload["feasible"] is True
    assert err == ""


def test_solve_deterministic_output(tmp_path, capsys):
    path = write_instance(tmp_path, "peak.json", PEAK_INSTANCE)
    runs = set()
    for _ in range(3):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", path, "--tie-policy", "random", "--seed", "42"
        )
        assert code == 0
        runs.add(out)
    assert len(runs) == 1


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = write_instance(
        tmp_path, "bad.json", {"variant": "min_remaining", "row_sums": [2, 2, 2, 2, 2, 2], "ceiling": [5, 5]}
    )
    code, out, _ = run_cli(capsys, "solve", "--instance", path)
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_feasible_exit_codes(tmp_path, capsys):
    good = write_instance(tmp_path, "good.json", PEAK_INSTANCE)
    code, out, _ = run_cli(capsys, "feasible", "--instance", good)
    assert code == 0 and json.loads(out) == {"feasible": True}
    bad = write_instance(
        tmp_path, "bad.json", {"variant": "min_remaining", "row_sums": [1], "ceiling": [0, 0]}
    )
    code, out, _ = run_cli(capsys, "feasible", "--instance", bad)
    assert code == 1 and json.loads(out) == {"feasible": False}


def test_malformed_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, "solve", "--instance", str(path))
    assert code == 2 and out == "" and "malformed JSON" in err

    missing = write_instance(tmp_path, "missing.json", {"variant": "min_remaining"})
    code, _, err = run_cli(capsys, "solve", "--instance", missing)
    assert code == 2 and "row_sums" in err

    negative = write_instance(
        tmp_path, "neg.json", {"variant": "min_combined", "row_sums": [1], "base": [-1, 0]}
    )
    code, _, err = run_cli(capsys, "solve", "--instance", negative)
    assert code == 2 and "base[0]" in err

    unknown = write_instance(tmp_path, "weird.json", dict(PEAK_INSTANCE, extra=[1]))
    code, _, err = run_cli(capsys, "solve", "--instance", unknown)
    assert code == 2 and "extra" in err

    badvariant = write_instance(tmp_path, "var.json", {"variant": "maximize", "row_sums": [1]})
    code, _, err = run_cli(capsys, "solve", "--instance", badvariant)
    assert code == 2 and "variant" in err


def test_unknown_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_conjugate_command(capsys):
    code, out, _ = run_cli(capsys, "conjugate", "--vector", "5,4,2,1", "--dim", "7")
    assert code == 0 and json.loads(out) == [4, 3, 2, 2, 1, 0, 0]
    code, out, _ = run_cli(capsys, "conjugate", "--vector", "5,4,2,1")
    assert code == 0 and json.loads(out) == [4, 3, 2, 2, 1]
    code, _, err = run_cli(capsys, "conjugate", "--vector", "5,4", "--dim", "3")
    assert code == 2 and "lossy" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--vector", "1000000000000"],
        ["--vector", "5,4,2,1", "--dim", "100000000000"],
        ["--vector", "5", "--dim", str(_MAX_CONJUGATE_DIM + 1)],
    ],
    ids=["vector", "dim", "cap-plus-one"],
)
def test_conjugate_past_the_output_cap_is_over_budget(capsys, argv):
    # Refused before the output is allocated: a 10**12-entry list would be
    # a MemoryError, exit 3.
    code, out, err = run_cli(capsys, "conjugate", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("budget exceeded: ") and f"output cap is {_MAX_CONJUGATE_DIM}" in err


def test_lattice_commands(capsys):
    code, out, _ = run_cli(capsys, "lattice", "meet", "--x", "5,2,2,2", "--y", "4,3,3,1")
    assert code == 0 and json.loads(out) == [4, 3, 2, 2]
    code, out, _ = run_cli(capsys, "lattice", "join", "--x", "5,2,2,2", "--y", "4,3,3,1")
    assert code == 0 and json.loads(out) == [5, 3, 2, 1]
    code, out, _ = run_cli(
        capsys, "lattice", "covers", "--x", "6,6,6,4,4,4,2", "--y", "7,6,5,4,4,4,2"
    )
    assert code == 0 and json.loads(out) == {"covers": True}


def test_geth_command(capsys):
    code, out, _ = run_cli(capsys, "geth", "--ceiling", "7,6,5,4,4", "--threshold", "5,3,3,2,0")
    assert code == 0 and json.loads(out) == [5, 3, 3, 2, 0]
    code, _, err = run_cli(capsys, "geth", "--ceiling", "1,0", "--threshold", "3,1")
    assert code == 1 and "infeasible" in err
    # Any ceiling order: the answer follows the ceiling's own order.
    code, out, err = run_cli(capsys, "geth", "--ceiling", "0,3,1", "--threshold", "1,1,0")
    assert (code, out, err) == (0, "[0,1,1]\n", "")


def test_construct_command(capsys):
    code, out, _ = run_cli(capsys, "construct", "--row-sums", "1", "--col-sums", "1,0,0")
    assert code == 0 and json.loads(out) == [[1, 0, 0]]
    code, _, err = run_cli(capsys, "construct", "--row-sums", "2,1,0", "--col-sums", "3,0")
    assert code == 1 and "prefix" in err


def test_enumerate_command(tmp_path, capsys):
    path = write_instance(tmp_path, "peak.json", PEAK_INSTANCE)
    code, out, _ = run_cli(capsys, "enumerate", "--instance", path)
    assert code == 0
    payload = json.loads(out)
    objectives = [tuple(rec["objective"]) for rec in payload["optima"]]
    assert (3, 3, 3, 2, 2) in objectives
    assert (2, 3, 2, 3, 3) in objectives
    assert payload["count"] == len(objectives)
    code, _, err = run_cli(capsys, "enumerate", "--instance", path, "--max-branches", "3")
    assert code == 2 and "budget" in err


def test_enumerate_over_budget_stops_early(tmp_path, capsys):
    path = write_instance(
        tmp_path, "wide.json", {"variant": "min_combined", "row_sums": [11, 11], "base": [0] * 22}
    )
    code, out, err = run_cli(capsys, "enumerate", "--instance", path, "--max-branches", "1000")
    assert (code, out) == (2, "")
    assert err == "budget exceeded: tie enumeration passed 1000 distinct states\n"


def test_oracle_certify_command(tmp_path, capsys):
    path = write_instance(
        tmp_path,
        "gap.json",
        {"variant": "min_remaining", "row_sums": [4, 2], "ceiling": [8, 6, 6, 6, 4, 4, 4]},
    )
    code, out, _ = run_cli(
        capsys, "oracle", "certify", "--instance", path, "--absent", "6,6,6,4,4,4,2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert any(rec["claim"] == "claimed_absent_vector" for rec in payload["checks"])


def test_huge_ceiling_is_feasible_and_certified(tmp_path, capsys):
    path = write_instance(
        tmp_path, "huge.json", {"variant": "min_remaining", "row_sums": [1, 1], "ceiling": [10**18, 3]}
    )
    code, out, err = run_cli(capsys, "feasible", "--instance", path)
    assert (code, json.loads(out), err) == (0, {"feasible": True}, "")
    code, out, err = run_cli(capsys, "oracle", "certify", "--instance", path)
    assert code == 0 and json.loads(out)["passed"] is True and err == ""


@pytest.mark.parametrize("exc", [MemoryError("no\nroom"), KeyError("x")])
def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("majpop.cli.solve", fail)
    path = write_instance(tmp_path, "peak.json", PEAK_INSTANCE)
    code, out, err = run_cli(capsys, "solve", "--instance", path)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, "peak.json", PEAK_INSTANCE)
    monkeypatch.setenv("MAJPOP_SEED", "77")
    code, out_env, _ = run_cli(capsys, "solve", "--instance", path, "--tie-policy", "random")
    monkeypatch.delenv("MAJPOP_SEED")
    code2, out_flag, _ = run_cli(
        capsys, "solve", "--instance", path, "--tie-policy", "random", "--seed", "77"
    )
    assert code == code2 == 0
    assert out_env == out_flag


def test_bench_record_count_and_format(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--rows", "4,8", "--cols", "6", "--repeats", "2", "--seed", "5"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4  # |rows| * |cols| * repeats
    assert set(rows[0]) == {"m", "n", "policy", "seed", "wall_time_ns", "feasible"}
    assert {r["m"] for r in rows} == {"4", "8"}

    code, out, _ = run_cli(
        capsys,
        "bench",
        "--rows",
        "4",
        "--cols",
        "6",
        "--repeats",
        "1",
        "--seed",
        "5",
        "--format",
        "json",
        "--variant",
        "min_combined",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1 and payload[0]["feasible"] is True


def test_bench_seed_env_fallback(tmp_path, capsys, monkeypatch):
    bench = ("bench", "--rows", "4", "--cols", "6", "--tie-policy", "random")
    for env, seed in (("41", "41"), ("", "0")):
        monkeypatch.setenv("MAJPOP_SEED", env)
        code, out, _ = run_cli(capsys, *bench)
        assert code == 0
        assert [r["seed"] for r in csv.DictReader(io.StringIO(out))] == [seed]
    monkeypatch.setenv("MAJPOP_SEED", "x")
    path = write_instance(tmp_path, "peak.json", PEAK_INSTANCE)
    for argv in (bench, ("solve", "--instance", path)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "invalid input: invalid literal for int() with base 10: 'x'\n"


def test_bench_rejects_bad_ranges(capsys):
    code, _, err = run_cli(capsys, "bench", "--rows", "0", "--cols", "5")
    assert code == 2 and "positive" in err


GOLDEN = Path(__file__).parent / "golden"
INSTANCES = Path(__file__).resolve().parents[1] / "instances"
POLICIES = ("lowest-index", "highest-index", "load-order", "random")

# Golden stdout file -> arguments of the run that wrote it.
GOLDEN_RUNS = {
    f"solve-{path.stem}-{policy}.json": [
        "solve", "--instance", str(path), "--tie-policy", policy, "--seed", "7"
    ]
    for path in sorted(INSTANCES.glob("*.json"))
    for policy in POLICIES
}
GOLDEN_RUNS["enumerate-peak_shave_demo.json"] = [
    "enumerate", "--instance", str(INSTANCES / "peak_shave_demo.json")
]
GOLDEN_RUNS["construct.json"] = ["construct", "--row-sums", "3,2,2,1,0", "--col-sums", "3,2,2,1"]


# Run as ``python -c``: imports the CLI, runs ``main`` on argv, and reports
# which of the modules that ``solve`` must not load were loaded after each.
_IMPORT_PROBE = """
import json, sys
watched = (
    "numpy", "majpop.oracle", "majpop.lattice", "dataclasses", "inspect", "csv",
    "majpop.completion", "majpop._commands", "ctypes", "array",
)
import majpop.cli
after_import = [m for m in watched if m in sys.modules]
code = majpop.cli.main(sys.argv[1:])
after_run = [m for m in watched if m in sys.modules]
print(json.dumps([code, after_import, after_run]), file=sys.stderr)
"""


def test_solve_path_loads_neither_numpy_nor_the_oracle():
    name = "solve-peak_shave_demo-random.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(majpop.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *GOLDEN_RUNS[name]], capture_output=True, env=env
    )
    assert json.loads(run.stderr) == [0, [], []]
    assert run.stdout == (GOLDEN / name).read_bytes()
    # The lazy exports still serve every public name, star import included.
    for export in majpop.__all__:
        assert getattr(majpop, export) is not None
    namespace = {}
    exec("from majpop import *", namespace)
    assert set(majpop.__all__) <= set(namespace)
    assert set(majpop.__all__) <= set(dir(majpop))
    with pytest.raises(AttributeError):
        majpop.no_such_name


@pytest.mark.parametrize(
    "argv",
    [
        GOLDEN_RUNS["enumerate-peak_shave_demo.json"],
        GOLDEN_RUNS["construct.json"],
        ["bench", "--rows", "3", "--cols", "4", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_other_commands_do_not_import_the_cli_twice(argv):
    # Under ``python -m majpop.cli`` the running module is ``__main__``; a
    # handler module that imported ``majpop.cli`` would load it once more.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(majpop.__file__)))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "majpop.cli", *argv], capture_output=True, env=env
    )
    assert run.returncode == 0, run.stderr
    lines = run.stderr.decode().splitlines()
    assert any(line.endswith("majpop._commands") for line in lines)
    assert not [line for line in lines if "majpop.cli" in line]


def test_public_names_keep_their_order():
    assert majpop.__all__ == [
        "AttainableSet", "BudgetExceededError", "CertificationReport", "HIGHEST_INDEX",
        "InfeasibleError", "Instance", "InternalInvariantError", "LengthMismatchError",
        "LOAD_ORDER", "LOWEST_INDEX", "SolveResult", "TiePolicy", "certify", "col_sums",
        "compare", "conjugate", "construct_matrix", "covers", "default_conjugate_dim",
        "enumerate_attainable", "enumerate_matrices", "enumerate_optima", "equivalent",
        "feasible_min_remaining", "gale_ryser_feasible", "geth_vector", "interchange", "join",
        "join_recursive", "majorized", "make_matrix", "matrix_rows", "maximal_elements", "meet",
        "min_combined_profile", "min_remaining_profile", "minimal_elements", "pad", "partitions",
        "peak_shave", "random_ties", "row_sums", "solve", "sort_asc", "sort_desc", "valley_fill",
        "weakly_submajorized", "weakly_supermajorized",
    ]
    assert sorted(majpop.__all__) == sorted(majpop._MODULE_OF)


def test_golden_files_match_runs():
    assert len(GOLDEN_RUNS) == 22
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(GOLDEN_RUNS)


def _cli_process(argv, **kwargs):
    """``python -m majpop.cli`` with ``argv``, the way the ``majpop`` command runs it."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(majpop.__file__)))
    env.update(kwargs.pop("env", {}))
    return subprocess.run([sys.executable, "-m", "majpop.cli", *argv], env=env, **kwargs)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_stdout_matches_golden(name):
    # Under PYTHONUNBUFFERED=1 stdout's buffer is a raw FileIO, which may
    # take fewer bytes per write than it is given.
    for unbuffered in ("", "1"):
        run = _cli_process(GOLDEN_RUNS[name], capture_output=True, env={"PYTHONUNBUFFERED": unbuffered})
        assert run.returncode == 0, run.stderr
        assert run.stdout == (GOLDEN / name).read_bytes(), unbuffered


@pytest.fixture(scope="module")
def large_instance(tmp_path_factory):
    """A 2000 x 2000 ``min_remaining`` instance file, as ``majpop bench`` draws it."""
    r, c, _ = _bench_instance(1, 2000, 2000, 0)
    path = tmp_path_factory.mktemp("large") / "large.json"
    path.write_text(json.dumps({"variant": "min_remaining", "row_sums": r, "ceiling": c}))
    return str(path)


def _assert_one_line(err, prefix):
    assert err.startswith(prefix) and err.count(b"\n") == 1 and b"Traceback" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["solve", "--instance", str(INSTANCES / "peak_shave_demo.json")],
    ["solve", "--instance", None],
    # Written through the text layer, so the failure comes at the flush after main.
    ["bench", "--rows", "4", "--cols", "5"],
], ids=["demo", "2000x2000", "bench-csv"])
def test_write_to_a_full_device_exits_2(argv, large_instance):
    argv = [large_instance if a is None else a for a in argv]
    for unbuffered in ("", "1"):
        with open("/dev/full", "wb") as full:
            run = _cli_process(argv, stdout=full, stderr=subprocess.PIPE, env={"PYTHONUNBUFFERED": unbuffered})
        assert run.returncode == 2
        _assert_one_line(run.stderr, b"invalid input: [Errno 28] ")


def test_solve_into_a_closed_pipe_exits_2(large_instance):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(majpop.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "majpop.cli", "solve", "--instance", large_instance],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    _assert_one_line(err, b"invalid input: [Errno 32] ")


@pytest.mark.parametrize("flag", sorted(_POLICY_FLAGS))
def test_solve_prints_json_dumps_of_the_lists(tmp_path, flag):
    r, c, _ = _bench_instance(3, 300, 300, 0)
    path = write_instance(tmp_path, "i.json", {"variant": "min_combined", "row_sums": r, "base": c})
    run = _cli_process(["solve", "--instance", path, "--tie-policy", flag, "--seed", "11"], capture_output=True)
    assert (run.returncode, run.stderr) == (0, b"")
    kind = _POLICY_FLAGS[flag]
    payload = solve(Instance("min_combined", r, base=c), TiePolicy(kind, 11 if kind == "uniform_random" else 0)).to_json()
    payload["matrix"] = payload["matrix"].tolist()
    assert run.stdout.decode() == _reference_text(payload)


def test_enumerate_of_a_feasible_instance_the_sweep_strands_exits_3(tmp_path, capsys):
    path = write_instance(tmp_path, "stranded.json", {
        "variant": "general_min", "row_sums": [1, 3], "reference": [0, 0, 100], "ceiling": [2, 1, 1]
    })
    code, out, _ = run_cli(capsys, "feasible", "--instance", path)
    assert (code, json.loads(out)) == (0, {"feasible": True})
    code, out, err = run_cli(capsys, "enumerate", "--instance", path)
    assert (code, out) == (3, "")
    assert err.startswith("internal invariant violated: ") and err.count("\n") == 1
    assert "greedy capped sweep" in err


def _reference_text(payload):
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def _emitted(capsys, payload):
    _emit(payload)
    return capsys.readouterr().out


def test_emit_matches_json_dumps_of_lists(capsys):
    rng = np.random.default_rng(2024)
    shapes = [(m, n) for m in range(13) for n in range(13)] + [(300, 300)]
    for m, n in shapes:
        a = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        a.setflags(write=False)
        payload = {"matrix": a, "objective": [n, m], "nested": [{"b": a, "a": (1, 2)}]}
        lists = {"matrix": a.tolist(), "objective": [n, m], "nested": [{"b": a.tolist(), "a": [1, 2]}]}
        assert _emitted(capsys, payload) == _reference_text(lists), (m, n)
        assert _emitted(capsys, a) == _reference_text(a.tolist()), (m, n)
        cells = Cells(bytearray(a.tobytes()), (m, n))
        assert _emitted(capsys, {"matrix": cells}) == _reference_text({"matrix": a.tolist()}), (m, n)


def _large_payload():
    """A payload whose text is larger than a default 64 KiB pipe."""
    a = np.random.default_rng(7).integers(0, 2, size=(300, 300), dtype=np.uint8)
    payload = {"matrix": Cells(bytearray(a.tobytes()), a.shape), "objective": [300, 300]}
    text = _reference_text({"matrix": a.tolist(), "objective": [300, 300]}).encode()
    assert len(text) > 1 << 16
    return payload, text


def test_emit_ignores_a_pipe_it_cannot_grow(tmp_path, monkeypatch):
    fcntl = pytest.importorskip("fcntl")
    asked = []

    def refuse(fd, cmd, *arg):
        asked.append(cmd)
        raise OSError(1, "Operation not permitted")

    monkeypatch.setattr(fcntl, "fcntl", refuse)
    payload, text = _large_payload()
    path = tmp_path / "out.json"
    with open(path, "w", encoding="ascii") as out:
        monkeypatch.setattr(sys, "stdout", out)
        _emit(payload)
    assert asked, "the pipe size was never asked for"
    assert path.read_bytes() == text


def test_emit_grows_the_pipe_it_writes_to(monkeypatch):
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        pytest.skip("no F_GETPIPE_SZ on this platform")
    payload, text = _large_payload()
    read_end, write_end = os.pipe()
    received = []

    def read_all():
        with os.fdopen(read_end, "rb") as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=read_all)
    reader.start()
    with os.fdopen(write_end, "w", encoding="ascii") as out:
        monkeypatch.setattr(sys, "stdout", out)
        _emit(payload)
        capacity = fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ)
    reader.join()
    assert received == [text]
    assert capacity >= len(text)


def test_zero_row_solve_prints_empty_matrix(tmp_path, capsys):
    path = write_instance(tmp_path, "empty.json", {"variant": "min_remaining", "row_sums": [], "ceiling": [3, 2]})
    code, out, err = run_cli(capsys, "solve", "--instance", path)
    assert (code, err) == (0, "")
    assert '"matrix":[]' in out
    assert out == _reference_text(json.loads(out))


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[0, 2]], dtype=np.uint8),
        np.array([[10, 1], [0, 0]], dtype=np.uint8),
        # 43, 45 and 252 added to the byte of "0" wrap to "[", "]" and ",",
        # and 44 is the byte of ",": entries that must not pass as JSON.
        np.array([[0, 43], [1, 1]], dtype=np.uint8),
        np.array([[1, 45]], dtype=np.uint8),
        np.array([[252]], dtype=np.uint8),
        np.array([[0, 1]], dtype=np.int64),
        Cells(bytearray([0, 1, 2, 0]), (2, 2)),
        Cells(bytearray([1, 0, 0, 44]), (2, 2)),
        np.array([0, 1], dtype=np.uint8),
    ],
    ids=["entry-2", "entry-10", "entry-43", "entry-45", "entry-252", "int64", "cells-entry-2",
         "cells-entry-44", "one-dimensional"],
)
def test_emit_rejects_non_binary_matrix(tmp_path, capsys, monkeypatch, matrix):
    with pytest.raises(InternalInvariantError):
        _emit({"matrix": matrix})
    assert capsys.readouterr().out == ""

    class Result:
        feasible = True

        def to_json(self):
            return {"feasible": True, "matrix": matrix}

    monkeypatch.setattr("majpop.cli.solve", lambda inst, policy: Result())
    path = write_instance(tmp_path, "peak.json", PEAK_INSTANCE)
    code, out, err = run_cli(capsys, "solve", "--instance", path)
    assert (code, out) == (3, "")
    assert err.startswith("internal invariant violated: ")


def test_emit_rejects_non_string_key_beside_matrix(capsys):
    with pytest.raises(InternalInvariantError):
        _emit({1: np.zeros((1, 1), dtype=np.uint8)})
    assert capsys.readouterr().out == ""


def test_lattice_join_at_huge_total(capsys):
    code, out, err = run_cli(
        capsys, "lattice", "join", "--x", "1000000000000,0", "--y", "500000000000,500000000000"
    )
    assert (code, out, err) == (0, "[1000000000000,0]\n", "")
