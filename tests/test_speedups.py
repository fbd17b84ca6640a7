"""The compiled row sweep's loader, its binding and its argument checks."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import majpop
from helpers import reference_sweep
from majpop import InfeasibleError, TiePolicy, _speedups


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
    assert values == (0, 0, 0, 0)
    assert np.asarray(matrix).dtype == np.uint8
    assert matrix.tolist() == [[0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_c_source_compiles_without_warnings():
    cmd = ["cc", "-fsyntax-only", "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror"]
    sweep, binding = _speedups._SOURCES
    # The sweep needs no Python headers; the binding is checked against them.
    for args in ([sweep], [*_speedups._include_flags(), binding]):
        proc = subprocess.run([*cmd, *args], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


# Drives the extension module built at argv[1] through ``sweep``: inputs the
# C code refuses before it writes anything, inputs the binding cannot
# convert, and sweeps capped and not.
_SANITIZED_CALLS = """
import sys
import numpy as np
from majpop import InfeasibleError, _speedups

_speedups._kernel = _speedups._import(sys.argv[1])
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

unconverted = 0
for start, rows, caps in (
    ([0, 2**63, 2, 3], [2, 2, 1], None),  # a value past int64
    ((0, 1, 2, 3), (2, -(2**64), 1), None),  # a row count past int64
    ([0, 1, 2, 3], [2, 2, 1], [3, 3, 3]),  # caps of the wrong length
    ((0, 1, 2, 3), [2, 2, 1], (3, -(2**63) - 1, 3, 3)),  # a cap below int64
):
    try:
        _speedups.sweep(start, rows, True, -1, "load_order", 7, caps)
    except ValueError:
        unconverted += 1
print(unconverted, "unconverted")

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
    if trial % 5 == 4 and caps is not None:
        caps[0] = 2**64  # a cap past int64, which never binds
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
    library = tmp_path / f"_sweep_sanitized{_speedups.EXTENSION_SUFFIXES[0]}"
    cmd = ["cc", "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    cmd += [*_speedups._include_flags(), "-shared", "-fPIC", "-o", str(library), *_speedups._SOURCES]
    build = subprocess.run(cmd, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    package = os.path.dirname(os.path.dirname(majpop.__file__))
    # PYTHONMALLOC=malloc puts the binding's buffers and the matrix in
    # memory the sanitizer watches, not in Python's own arenas.
    env = dict(
        os.environ,
        PYTHONPATH=package,
        PYTHONMALLOC="malloc",
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0",
    )
    run = subprocess.run(
        [sys.executable, "-c", _SANITIZED_CALLS, str(library)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.splitlines() == ["20 refused", "4 unconverted", "6000 calls"]


def _majpop_process(tmp_path, pythonpath, env_extra, command, *options, main=("-m", "majpop.cli")):
    instance = tmp_path / "inst.json"
    instance.write_text(
        json.dumps({"variant": "min_remaining", "row_sums": [40] * 80, "ceiling": [50] * 80})
    )
    env = dict(os.environ, PYTHONPATH=str(pythonpath), **env_extra)
    cmd = [sys.executable, *main, command, "--instance", str(instance), *options]
    return subprocess.run(cmd, capture_output=True, env=env, cwd=tmp_path)


def _package_copy(tmp_path):
    """A copy of the package with no cached library, and an empty directory."""
    copy = tmp_path / "pkg"
    source = os.path.dirname(majpop.__file__)
    shutil.copytree(source, copy / "majpop", ignore=shutil.ignore_patterns("__pycache__"))
    empty = tmp_path / "empty"
    empty.mkdir()
    return copy, empty


@pytest.fixture(scope="module")
def without_cc(tmp_path_factory):
    """Runs ``majpop`` from a copy of the package with no cached library and
    no compiler on PATH: ``without_cc("solve", *options)``."""
    tmp_path = tmp_path_factory.mktemp("without_cc")
    copy, empty = _package_copy(tmp_path)
    env = {"PATH": str(empty), "TMPDIR": str(tmp_path)}
    return lambda *argv: _majpop_process(tmp_path, copy, env, *argv)


def test_failed_build_fails_a_solve_with_one_error(without_cc):
    run = without_cc("solve", "--tie-policy", "random", "--seed", "11")
    assert run.returncode == 3 and run.stdout == b""
    err = run.stderr.decode()
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith("internal error: BuildError(")
    assert "the compiled row sweep is unavailable: cannot run cc" in err


# ``majpop``, with the Python include directories pointed at argv[1].
_WITHOUT_HEADERS = """
import sys, sysconfig
empty = sys.argv.pop(1)
get_path = sysconfig.get_path
sysconfig.get_path = lambda name, *args, **kw: (
    empty if name in ("include", "platinclude") else get_path(name, *args, **kw)
)
import majpop.cli
majpop.cli.run()
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_missing_python_headers_fail_the_build_with_the_compilers_text(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    planted = cache / f"_sweep-0badf00d{_speedups.EXTENSION_SUFFIXES[0]}"
    planted.write_bytes(b"\x7fELF planted")
    (tmp_path / "include").mkdir()
    monkeypatch.setattr(_speedups, "_include_flags", lambda: [f"-I{tmp_path / 'include'}"])
    with pytest.raises(_speedups.BuildError) as info:
        _speedups._build(str(cache / _speedups._library_name()))
    text = str(info.value)
    assert text.startswith("cc failed on _sweep.c _sweepmodule.c with status ")
    assert "Python.h" in text.split("\n", 2)[2]  # the compiler's own message
    # A failed build leaves no temporary file and removes nothing.
    assert os.listdir(cache) == [planted.name]

    copy, empty = _package_copy(tmp_path / "process")
    env = {"TMPDIR": str(tmp_path / "process")}
    run = _majpop_process(tmp_path, copy, env, "solve", main=("-c", _WITHOUT_HEADERS, str(empty)))
    assert run.returncode == 3 and run.stdout == b""
    err = run.stderr.decode()
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith("internal error: BuildError(")
    assert "the compiled row sweep is unavailable: cc failed on _sweep.c _sweepmodule.c" in err
    assert "Python.h" in err


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


class _Loader:
    """Runs ``_speedups._load`` on one cache directory, recording builds and
    the extension modules it loads, through a stand-in for
    ``importlib.machinery.ExtensionFileLoader``."""

    def __init__(self, monkeypatch, directory, load_errors=0):
        self.built, self.loaded = [], []
        self.module = types.SimpleNamespace(solve=lambda *args: None)
        loader = self

        def build(path):
            self.built.append(path)
            with open(path, "wb"):
                pass
            os.chmod(path, 0o755)

        class ExtensionFileLoader:
            def __init__(self, name, path):
                self.name, self.path = name, path

            def create_module(self, spec):
                assert (spec.name, spec.loader, spec.origin) == (self.name, self, self.path)
                loader.loaded.append(self.path)
                if len(loader.loaded) <= load_errors:
                    raise ImportError(f"{self.path}: wrong ELF class")
                return loader.module

            def exec_module(self, module):
                assert module is loader.module

        monkeypatch.setattr(_speedups, "_cache_dirs", lambda: iter([str(directory)]))
        monkeypatch.setattr(_speedups, "_build", build)
        monkeypatch.setattr(_speedups, "ExtensionFileLoader", ExtensionFileLoader)

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
    assert loader.load() is loader.module.solve
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


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_loader_rebuilds_a_library_python_cannot_import(tmp_path, monkeypatch):
    library = _plant(tmp_path / "cache")
    monkeypatch.setattr(_speedups, "_cache_dirs", lambda: iter([str(tmp_path / "cache")]))
    solve = _speedups._load()
    assert solve(*[[3, 1], [1], None, True, -1, 0, 0]) == (0, (2, 1), bytearray(b"\x01\x00"))
    assert os.listdir(tmp_path / "cache") == [library.name]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_a_build_removes_the_libraries_older_sources_left(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    suffix = _speedups.EXTENSION_SUFFIXES[0]
    stale = [f"_sweep-0badf00d{suffix}", f"_sweep-1278f199-{sys.platform}-{os.uname().machine}.so"]
    # Another ABI's library, other names, and a link, whatever it points to.
    kept = ["_sweep-0badf00d.cpython-0-other.so", "_sweep-notes.txt", "other.so", f"tmp1234{suffix}"]
    for name in stale + kept:
        (cache / name).write_bytes(b"\x7fELF planted")
    target = tmp_path / f"_sweep-5ca1ab1e{suffix}"
    target.write_bytes(b"\x7fELF planted")
    os.symlink(target, cache / target.name)
    name = _speedups._library_name()
    _speedups._build(str(cache / name))
    assert sorted(os.listdir(cache)) == sorted([name, target.name, *kept])
    assert target.exists()


B = 2**63

# Inputs the binding converts itself: each sweeps as the reference sweep does.
BINDING_INPUTS = {
    "lists": ([3, 1, 2], [2, 1], None),
    "tuples": ((3, 1, 2), (2, 1), (2, 2, 2)),
    "a list and tuples": ([3, 1, 2], (2, 1), (1, 2, 2)),
    "bool entries": ((True, False, 2), (True, 2), (True, 2, 1)),
    "caps past 2**63": ((3, 1, 2), (2, 1), (B, 2**64 - 1, 2**80)),
    "a stranded row": ((0, 0, 100), (1, 3), (2, 1, 1)),
    "a stranded row after a bool row": ((0, 0, 100), (True, 3), (2, True, True)),
    "no rows": ((3, 1, 2), (), (0, 0, 0)),
    "no columns": ((), (0, 0), ()),
    "no cells": ((), (), None),
}


def _outcome(sweep, *args):
    try:
        values, cells = sweep(*args)
    except InfeasibleError as exc:
        return str(exc)
    return list(values), cells.shape, bytes(cells.data)


@pytest.mark.parametrize("case", sorted(BINDING_INPUTS))
def test_binding_converts_what_sweep_accepts(case):
    start, rows, caps = BINDING_INPUTS[case]
    for kind in _speedups.POLICIES:
        for largest, delta in ((True, -1), (False, 1), (True, 1)):
            expected = _outcome(reference_sweep, start, rows, largest, delta, TiePolicy(kind, -5), caps)
            assert _outcome(_speedups.sweep, start, rows, largest, delta, kind, -5, caps) == expected
    if not isinstance(expected, str):
        values, _ = _speedups.sweep(start, rows, True, 1, "lowest_index", 0, caps)
        assert type(values) is tuple and all(type(v) is int for v in values)


# Inputs refused before the sweep writes anything, and the text of the
# ValueError: the first cause in the order profile, row counts, the caps'
# length, the caps, then the C code's own checks.
BINDING_REFUSALS = {
    "a value past 2**63": (([0, B, 1], [1], None), "values must lie within the int64 range"),
    "a value below -2**63": (([0, -B - 1, 1], [1], None), "values must lie within the int64 range"),
    "a row count past 2**63": (([0, 1, 2], (1, B), None), "row counts must lie within the int64 range"),
    "a row count below -2**63": (([0, 1, 2], [1, -B - 1], None), "row counts must lie within the int64 range"),
    "a cap below -2**63": (((0, 1, 2), [1, 1], [1, -B - 1, 1]), "caps must lie within the int64 range"),
    "a cap past 2**63 and a negative cap": (([0, 1, 2], [1, 1], (1, B, -1)), "caps must be nonnegative"),
    "a value past 2**63, caps of the wrong length": (
        ([0, B, 2], [1, 1], [1, 1]), "values must lie within the int64 range"
    ),
    "a row count past 2**63, caps of the wrong length": (
        ([0, 1, 2], [1, B], [1, 1]), "row counts must lie within the int64 range"
    ),
    "caps of the wrong length, a cap past 2**63": (([0, 1, 2], [1, 1], [B, 1]), "caps must have 3 entries, not 2"),
    "a cap below -2**63, a row count above n": (
        ([0, 1, 2], [1, 5], [1, -B - 1, 1]), "caps must lie within the int64 range"
    ),
    "a row count above n, a negative cap": (([0, 1, 2], [1, 5], [1, -1, 1]), "row counts must lie in [0, 3]"),
    "a row and no columns": (((), (1,), None), "row counts must lie in [0, 0]"),
}


@pytest.mark.parametrize("case", sorted(BINDING_REFUSALS))
def test_binding_refusals_keep_their_text_and_order(case):
    (start, rows, caps), text = BINDING_REFUSALS[case]
    for kind in _speedups.POLICIES:
        with pytest.raises(ValueError) as info:
            _speedups.sweep(start, rows, True, -1, kind, 0, caps)
        assert str(info.value) == text


def test_binding_raises_typeerror_for_an_entry_that_is_not_an_int():
    for start, rows, caps in (([0, 1, 2.5], [1], None), ([0, 1, 2], [1.0], None), ([0, 1, 2], [1], [1, 1, 2.5])):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            _speedups.sweep(start, rows, True, -1, "lowest_index", 0, caps)


class _Clearing:
    """An index that empties the list that holds it when it is converted."""

    def __init__(self, victim):
        self.victim = victim

    def __index__(self):
        self.victim.clear()
        return 1


def test_binding_survives_a_list_that_changes_while_it_converts():
    start = [0, 0, 0]
    start[0] = _Clearing(start)
    with pytest.raises(RuntimeError, match="changed size"):
        _speedups.sweep(start, [1], True, -1, "lowest_index", 0)


def test_binding_keeps_no_memory_across_calls():
    calls = (
        (list(range(9)), [4] * 12, None),
        ((5, 4, 3, 2), (1, 2, 3), (3, 3, 3, 3)),
        ((0, 0, 100), (1, 3), (2, 1, 1)),  # stranded
        ([0, B, 1], [1], None),  # refused by the binding
        ([0, 1, 2], [1, 1], [1, 2**64, -1]),  # refused by the C sweep
        ([0, 1, 2], [1, 1], [1, 1, 2.5]),  # TypeError
    )

    def run(rounds):
        for _ in range(rounds):
            for start, rows, caps in calls:
                try:
                    _speedups.sweep(start, rows, True, -1, "uniform_random", 3, caps)
                except (ValueError, TypeError, InfeasibleError):
                    pass

    run(100)
    tracemalloc.start()
    try:
        run(10)
        before = tracemalloc.get_traced_memory()[0]
        run(50_000 // len(calls))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024, grown
