"""The compiled row sweep's loader and its argument checks."""

import ctypes
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import majpop
from majpop import _speedups


def _args(m=3, n=4):
    return [list(range(n)), [2] * m, True, -1, "lowest_index", 0, None]


BAD_ARGUMENTS = {
    "row count above n": (1, [2, 5, 1]),
    "negative row count": (1, [2, -1, 1]),
    "delta two": (3, 2),
    "policy code": (4, "first_fit"),
    "values at the int64 edge": (0, [0, 1, 2, 2**63 - 2]),
    "row count past int64": (1, [2, 2**64, 1]),
    "caps of the wrong length": (6, [3, 3, 3]),
    "negative cap": (6, [3, -1, 3, 3]),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_wrapper_rejects_what_the_c_code_cannot_take(case):
    pos, bad = BAD_ARGUMENTS[case]
    args = _args()
    args[pos] = bad
    with pytest.raises(ValueError):
        _speedups.sweep(*args)


def test_wrapper_accepts_its_own_example():
    values, matrix = _speedups.sweep(*_args())
    # Shave (0, 1, 2, 3) by two units per row; the lowest index wins ties.
    assert values == [0, 0, 0, 0]
    assert np.asarray(matrix).dtype == np.uint8
    assert matrix.tolist() == [[0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_c_source_compiles_without_warnings():
    cmd = ["cc", "-fsyntax-only", "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror"]
    proc = subprocess.run([*cmd, _speedups._SOURCE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Drives the library named by argv[1] through ``sweep``, capped and not, and
# through inputs the C code refuses before it writes anything.
_SANITIZED_CALLS = """
import ctypes, sys
import numpy as np
from majpop import InfeasibleError, _speedups

refused = 0
for start, rows, caps in (
    ([0, 1, 2, 3], [2, 5, 1], None),  # a row count above n
    ([0, 1, 2, 3], [2, -1, 1], [3, 3, 3, 3]),  # a negative row count
    ([0, 1, 2, 3], [2, 2, 1], [3, -1, 3, 3]),  # a negative cap
    ([0, 1, 2, 2**63 - 2], [2, 2, 1], None),  # values within m of the top
    ([-(2**63) + 1, 1, 2, 3], [2, 2, 1], [3, 3, 3, 3]),  # and of the bottom
):
    for policy in _speedups.POLICIES:
        try:
            _speedups.sweep(start, rows, True, -1, policy, 7, caps)
        except ValueError:
            refused += 1
print(refused, "refused")

_speedups._kernel = _speedups._bind(ctypes.CDLL(sys.argv[1]))
rng = np.random.default_rng(3)
calls = 0
for trial in range(500):
    # 400 narrow trials on a few levels, then wide ones whose blocks of equal
    # values sit far apart, so the carried column order merges across gaps.
    wide = trial >= 400
    n = int(rng.integers(1, 150 if wide else 40))
    m = int(rng.integers(0, 40))
    top = (10**6, 3 * m + 1, 2 * n + 1)[trial % 3] if wide else 9
    start = [int(v) for v in rng.integers(0, top, size=n)]
    rows = [int(v) for v in rng.integers(0, n + 1, size=m)]
    caps = None if trial % 3 == 0 else [int(v) for v in rng.integers(0, m + 2, size=n)]
    for policy in _speedups.POLICIES:
        for largest, delta in ((True, -1), (False, 1), (True, 1)):
            try:
                _speedups.sweep(start, rows, largest, delta, policy, trial, caps)
            except InfeasibleError:
                pass
            calls += 1
print(calls, "calls")
"""


def _libasan():
    if shutil.which("cc") is None:
        return None
    proc = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True, text=True)
    path = proc.stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


def test_sweep_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    libasan = _libasan()
    if libasan is None:
        pytest.skip("no cc or no libasan.so")
    library = tmp_path / "_sweep_sanitized.so"
    cmd = ["cc", "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    cmd += ["-shared", "-fPIC", "-o", str(library), _speedups._SOURCE]
    build = subprocess.run(cmd, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    package = os.path.dirname(os.path.dirname(majpop.__file__))
    env = dict(os.environ, PYTHONPATH=package, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0")
    run = subprocess.run(
        [sys.executable, "-c", _SANITIZED_CALLS, str(library)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.splitlines() == ["20 refused", "6000 calls"]


def _majpop_process(tmp_path, pythonpath, env_extra, command, *options):
    instance = tmp_path / "inst.json"
    instance.write_text(
        json.dumps({"variant": "min_remaining", "row_sums": [40] * 80, "ceiling": [50] * 80})
    )
    env = dict(os.environ, PYTHONPATH=str(pythonpath), **env_extra)
    cmd = [sys.executable, "-m", "majpop.cli", command, "--instance", str(instance), *options]
    return subprocess.run(cmd, capture_output=True, env=env, cwd=tmp_path)


@pytest.fixture(scope="module")
def without_cc(tmp_path_factory):
    """Runs ``majpop`` from a copy of the package with no cached library and
    no compiler on PATH: ``without_cc("solve", *options)``."""
    tmp_path = tmp_path_factory.mktemp("without_cc")
    src = os.path.dirname(majpop.__file__)
    copy = tmp_path / "pkg"
    shutil.copytree(src, copy / "majpop", ignore=shutil.ignore_patterns("__pycache__"))
    empty = tmp_path / "empty"
    empty.mkdir()
    env = {"PATH": str(empty), "TMPDIR": str(tmp_path)}
    return lambda *argv: _majpop_process(tmp_path, copy, env, *argv)


def test_failed_build_fails_a_solve_with_one_error(without_cc):
    run = without_cc("solve", "--tie-policy", "random", "--seed", "11")
    assert run.returncode == 3 and run.stdout == b""
    err = run.stderr.decode()
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith("internal error: BuildError(")
    assert "the compiled row sweep is unavailable: cannot run cc" in err


def test_failed_build_keeps_what_needs_no_sweep(without_cc, tmp_path):
    run = without_cc("feasible")
    normal = _majpop_process(tmp_path, os.path.dirname(os.path.dirname(majpop.__file__)), {}, "feasible")
    assert (run.returncode, run.stderr) == (normal.returncode, normal.stderr) == (0, b"")
    assert run.stdout == normal.stdout


def test_failed_build_fails_every_call_that_sweeps(monkeypatch):
    monkeypatch.setattr(_speedups, "_kernel", None)
    monkeypatch.setattr(_speedups, "BUILD_ERROR", "cannot run cc: not found")
    inst = majpop.Instance("min_remaining", (2, 1), ceiling=(3, 2, 1))
    sweeping = (
        lambda: majpop.solve(inst),
        lambda: majpop.peak_shave((3, 2, 1), (2, 1)),
        lambda: majpop.valley_fill((3, 2, 1), (2, 1)),
        lambda: majpop.min_remaining_profile((3, 2, 1), (2, 1)),
        lambda: majpop.min_combined_profile((3, 2, 1), (2, 1)),
        lambda: majpop.construct_matrix((2, 1), (1, 1, 1)),
        lambda: majpop.certify(inst),
    )
    for call in sweeping:
        with pytest.raises(_speedups.BuildError) as info:
            call()
        assert str(info.value) == "the compiled row sweep is unavailable: cannot run cc: not found"
    assert majpop.solvers.feasible(inst)
    assert majpop.conjugate((2, 1), 3) == (2, 1, 0)
    assert list(majpop.enumerate_optima(inst)) == [(1, 1, 1)]
    assert majpop.meet((2, 1, 0), (1, 1, 1)) == (1, 1, 1)


# The C signature of ``majpop_solve_rounds``: the values, row counts,
# matrix, caps and frame pointers, and the seed.
_SOLVE_ROUNDS = ctypes.CFUNCTYPE(ctypes.c_int, *[ctypes.c_void_p] * 5, ctypes.c_uint64)


class _Loader:
    """Runs ``_speedups._load`` on one cache directory, recording builds and loads."""

    def __init__(self, monkeypatch, directory, load_errors=0):
        self.built, self.loaded = [], []
        self._load_errors = load_errors

        def build(path):
            self.built.append(path)
            with open(path, "wb"):
                pass
            os.chmod(path, 0o755)

        def cdll(path):
            self.loaded.append(path)
            if len(self.loaded) <= self._load_errors:
                raise OSError(f"{path}: wrong ELF class")
            return types.SimpleNamespace(majpop_solve_rounds=_SOLVE_ROUNDS())

        monkeypatch.setattr(_speedups, "_cache_dirs", lambda: iter([str(directory)]))
        monkeypatch.setattr(_speedups, "_build", build)
        monkeypatch.setattr(_speedups.ctypes, "CDLL", cdll)

    def load(self):
        return _speedups._load()


def _plant(directory, dir_mode=0o700, file_mode=0o755):
    directory.mkdir()
    library = directory / _speedups._library_name()
    library.write_bytes(b"\x7fELF planted")
    os.chmod(library, file_mode)
    os.chmod(directory, dir_mode)
    return library


def test_loader_loads_a_private_library(tmp_path, monkeypatch):
    library = _plant(tmp_path / "cache")
    loader = _Loader(monkeypatch, tmp_path / "cache")
    assert tuple(loader.load().argtypes) == _SOLVE_ROUNDS._argtypes_
    assert loader.loaded == [str(library)] and loader.built == []


PLANTED = {
    "directory others can write": dict(dir_mode=0o777),
    "directory the group can write": dict(dir_mode=0o770),
    "library others can write": dict(file_mode=0o757),
    "library the group can write": dict(file_mode=0o775),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_loader_refuses_a_library_others_can_change(tmp_path, monkeypatch, case):
    _plant(tmp_path / "cache", **PLANTED[case])
    loader = _Loader(monkeypatch, tmp_path / "cache")
    with pytest.raises(_speedups.BuildError, match="can be changed by another user"):
        loader.load()
    assert loader.loaded == [] and loader.built == []


def test_loader_refuses_a_symlinked_library(tmp_path, monkeypatch):
    target = _plant(tmp_path / "elsewhere")
    (tmp_path / "cache").mkdir(mode=0o700)
    os.symlink(target, tmp_path / "cache" / target.name)
    loader = _Loader(monkeypatch, tmp_path / "cache")
    with pytest.raises(_speedups.BuildError, match="wrong file type"):
        loader.load()
    assert loader.loaded == [] and loader.built == []


@pytest.mark.skipif(os.getuid() != 0, reason="only root can give a file to another user")
@pytest.mark.parametrize("owned", ["directory", "library"])
def test_loader_refuses_what_another_user_owns(tmp_path, monkeypatch, owned):
    library = _plant(tmp_path / "cache")
    os.chown(library if owned == "library" else library.parent, 65534, -1)
    loader = _Loader(monkeypatch, tmp_path / "cache")
    with pytest.raises(_speedups.BuildError, match="can be changed by another user"):
        loader.load()
    assert loader.loaded == [] and loader.built == []


def test_loader_rebuilds_a_library_it_cannot_load_once(tmp_path, monkeypatch):
    library = _plant(tmp_path / "cache")
    loader = _Loader(monkeypatch, tmp_path / "cache", load_errors=1)
    loader.load()
    assert loader.built == [str(library)] and loader.loaded == [str(library)] * 2
