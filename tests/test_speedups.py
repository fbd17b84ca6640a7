"""The compiled row sweep's loader, its binding and its argument checks."""

import ctypes
import json
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import majpop
from helpers import reference_sweep, swept
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
    values, matrix = swept(*_args())
    # Shave (0, 1, 2, 3) by two units per row; the lowest index wins ties.
    assert values == (0, 0, 0, 0)
    assert np.asarray(matrix).dtype == np.uint8
    assert matrix.tolist() == [[0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_c_source_compiles_without_warnings():
    cmd = ["cc", "-fsyntax-only", "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror"]
    cmd += [*_speedups._include_flags(), *_speedups._SOURCES]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Drives the extension module built at argv[1] through ``sweep``: inputs the
# C code refuses before it writes anything, inputs the binding cannot
# convert, and sweeps capped and not, each record they return read back.
_SANITIZED_CALLS = """
import sys
import numpy as np
from majpop import BudgetExceededError, InfeasibleError, _speedups

module = _speedups._import(sys.argv[1])
_speedups.sweep, _speedups.search_ties = module.sweep, module.search_ties
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
                result = _speedups.sweep(start, rows, largest, delta, policy, trial, caps)
            except InfeasibleError:
                pass
            else:
                # The record the C code assembled, read field by field.
                cells = vars(result)["matrix"]
                assert list(vars(result)) == ["matrix", "objective", "canonical_objective", "feasible"]
                assert result.canonical_objective == tuple(sorted(result.objective, reverse=True))
                assert result.feasible is (delta > 0 or min(result.objective) >= 0)
                assert (cells.shape, len(cells.data), cells._array) == ((m, n), m * n, None)
            calls += 1
print(calls, "calls")

# The tie search on the same kinds of input: refusals, budget stops at
# every cap from 1 to 50, and searches capped and not, with stranded
# branches among them.
refused = 0
for start, rows, caps in (
    ([0, 1, 2, 3], [2, 5, 1], None),
    ([0, 1, 2, 3], [2, 2, 1], [3, -1, 3, 3]),
    ([0, 1, 2, 2**63 - 2], [2, 2, 1], None),
    ([-(2**63) + 1, 1, 2, 3], [2, 2, 1], [3, 3, 3, 3]),
    ([0, 2**63, 2, 3], [2, 2, 1], None),
    ([0, 1, 2, 3], [2, 2, 1], [3, 3, 3]),
):
    try:
        _speedups.search_ties(start, rows, True, -1, caps, 1000)
    except ValueError:
        refused += 1
print(refused, "searches refused")

stops = found = stranded = 0
for trial in range(300):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 6))
    start = [int(v) for v in rng.integers(0, 4, size=n)]
    rows = [int(v) for v in rng.integers(0, n + 1, size=m)]
    caps = None if trial % 2 else [int(v) for v in rng.integers(0, m + 1, size=n)]
    for largest, delta in ((True, -1), (False, 1), (True, 1)):
        for budget in (1 + trial % 50, 10**6):
            try:
                keys, cells = _speedups.search_ties(start, rows, largest, delta, caps, budget)
            except BudgetExceededError:
                stops += 1
                continue
            found += 1
            stranded += not keys
            assert len(cells) == len(keys) * m * n
print(stops > 0, found > 0, stranded > 0, "searched")
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
    assert run.stdout.splitlines() == [
        "20 refused", "4 unconverted", "6000 calls", "6 searches refused", "True True True searched"
    ]


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


def _in_three_gigabytes():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_a_matrix_past_memory_fails_a_solve_with_one_error(tmp_path):
    # 10**10 cells do not fit in an address space of 3 GB, set in the child
    # only.  Each run, one at a time, must exit 3 with the MemoryError as
    # the one line on stderr, whatever the allocator did on its way out.
    instance = tmp_path / "huge.json"
    instance.write_text(json.dumps({"variant": "min_remaining", "row_sums": [1] * 10**5, "ceiling": [1] * 10**5}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(majpop.__file__)))
    cmd = [sys.executable, "-m", "majpop.cli", "solve", "--instance", str(instance)]
    for _ in range(20):
        run = subprocess.run(cmd, capture_output=True, env=env, preexec_fn=_in_three_gigabytes, timeout=120)
        assert (run.returncode, run.stdout, run.stderr) == (3, b"", b"internal error: MemoryError()\n")


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
    assert text.startswith("cc failed on _sweep.c with status ")
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
    assert "the compiled row sweep is unavailable: cc failed on _sweep.c with status" in err
    assert "Python.h" in err


def test_failed_build_keeps_what_needs_no_sweep(without_cc, tmp_path):
    run = without_cc("feasible")
    normal = _majpop_process(tmp_path, os.path.dirname(os.path.dirname(majpop.__file__)), {}, "feasible")
    assert (run.returncode, run.stderr) == (normal.returncode, normal.stderr) == (0, b"")
    assert run.stdout == normal.stdout


def test_failed_build_fails_every_call_that_sweeps(monkeypatch, without_cc):
    monkeypatch.setattr(_speedups, "sweep", _speedups._unavailable)
    monkeypatch.setattr(_speedups, "search_ties", _speedups._unavailable)
    monkeypatch.setattr(_speedups, "profile", _speedups._unavailable)
    monkeypatch.setattr(_speedups, "write_matrix", _speedups._unavailable)
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
        lambda: majpop.enumerate_optima(inst),
    )
    for call in sweeping:
        with pytest.raises(_speedups.BuildError) as info:
            call()
        assert str(info.value) == "the compiled row sweep is unavailable: cannot run cc: not found"
    assert majpop.solvers.feasible(inst)
    assert majpop.conjugate((2, 1), 3) == (2, 1, 0)
    assert majpop.meet((2, 1, 0), (1, 1, 1)) == (1, 1, 1)
    run = without_cc("enumerate")
    assert run.returncode == 3 and run.stdout == b""
    err = run.stderr.decode()
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith("internal error: BuildError(")
    assert "the compiled row sweep is unavailable: cannot run cc" in err


class _Loader:
    """Runs ``_speedups._load`` on one cache directory, recording builds and
    the extension modules it loads, through a stand-in for
    ``importlib.machinery.ExtensionFileLoader``."""

    def __init__(self, monkeypatch, directory, load_errors=0):
        self.built, self.loaded = [], []
        self.module = types.SimpleNamespace(sweep=lambda *args: None)
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
    assert loader.load() is loader.module
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
    module = _speedups._load()
    values, cells = swept([3, 1], [1], True, -1, "lowest_index", 0, sweep=module.sweep)
    assert (values, cells.shape, cells.data) == ((2, 1), (1, 2), bytearray(b"\x01\x00"))
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


def test_package_data_ships_the_sources_the_build_compiles():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")
    with open(pyproject, "rb") as fh:
        shipped = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["majpop"]
    assert shipped == [os.path.basename(source) for source in _speedups._SOURCES]


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
            assert _outcome(swept, start, rows, largest, delta, kind, -5, caps) == expected
    if not isinstance(expected, str):
        values, _ = swept(start, rows, True, 1, "lowest_index", 0, caps)
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
    with pytest.raises(ValueError) as info:
        _speedups.search_ties(start, rows, True, -1, caps, 1000)
    assert str(info.value) == text


def test_binding_raises_typeerror_for_an_entry_that_is_not_an_int():
    for start, rows, caps in (([0, 1, 2.5], [1], None), ([0, 1, 2], [1.0], None), ([0, 1, 2], [1], [1, 1, 2.5])):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            _speedups.sweep(start, rows, True, -1, "lowest_index", 0, caps)


# Calls refused with a TypeError before any entry converts: a wrong number
# of arguments, or a vector that is not a sequence.
BINDING_TYPE_REFUSALS = {
    "sweep with five arguments": (
        ("sweep", [0, 1], [1], True, -1, "lowest_index"), "sweep takes 6 or 7 arguments, not 5"
    ),
    "sweep with eight arguments": (
        ("sweep", [0, 1], [1], True, -1, "lowest_index", 0, None, 0), "sweep takes 6 or 7 arguments, not 8"
    ),
    "search_ties with five arguments": (
        ("search_ties", [0, 1], [1], True, -1, None), "search_ties takes 6 arguments, not 5"
    ),
    "profile with two arguments": (("profile", [0, 1], [1]), "profile takes 3 arguments, not 2"),
    "profile with four arguments": (("profile", [0, 1], [1], True, 0), "profile takes 3 arguments, not 4"),
    "sweep of a profile that is not a sequence": (
        ("sweep", 5, [1], True, -1, "lowest_index", 0), "the profile must be a sequence"
    ),
    "sweep of row counts that are not a sequence": (
        ("sweep", [0, 1], 5, True, -1, "lowest_index", 0), "the row counts must be a sequence"
    ),
    "sweep with caps that are not a sequence": (
        ("sweep", [0, 1], [1], True, -1, "lowest_index", 0, 5), "the caps must be a sequence"
    ),
    "search_ties of a profile that is not a sequence": (
        ("search_ties", 5, [1], True, -1, None, 10), "the profile must be a sequence"
    ),
    "search_ties with caps that are not a sequence": (
        ("search_ties", [0, 1], [1], True, -1, 5, 10), "the caps must be a sequence"
    ),
    "profile of a profile that is not a sequence": (("profile", 5, [1], True), "the profile must be a sequence"),
    "profile of row counts that are not a sequence": (
        ("profile", [0, 1], 5, True), "the row counts must be a sequence"
    ),
}


@pytest.mark.parametrize("case", sorted(BINDING_TYPE_REFUSALS))
def test_binding_refuses_a_wrong_call_with_a_typeerror(case):
    (name, *args), text = BINDING_TYPE_REFUSALS[case]
    with pytest.raises(TypeError) as info:
        getattr(_speedups, name)(*args)
    assert str(info.value) == text


def test_write_matrix_stops_before_the_chunk_of_a_bad_row():
    # Each 40 000-cell row is longer than a chunk, so it goes out alone.
    cells = bytearray(3 * 40_000)
    cells[-1] = 2
    chunks = []
    with pytest.raises(majpop.InternalInvariantError, match=r"the \(3, 40000\) matrix has an entry other"):
        _speedups.write_matrix(bytes(cells), 3, 40_000, lambda chunk: chunks.append(chunk) or len(chunk))
    row = "[" + ",".join("0" * 40_000) + "]"
    assert chunks == [("[" + row).encode(), ("," + row).encode()]
    refusals = (
        (b"\0" * 5, 2, 3),
        (np.zeros((2, 3), dtype=np.int64), 2, 3),
        (b"", -1, 0),
        (memoryview(np.zeros((2, 6), dtype=np.uint8)[:, ::2]), 2, 3),
        (memoryview(b"\0" * 12)[::2], 2, 3),
    )
    for refused in refusals:
        with pytest.raises(ValueError):
            _speedups.write_matrix(*refused, None)


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
    start = [0, 0, 0]
    start[0] = _Clearing(start)
    with pytest.raises(RuntimeError, match="changed size"):
        _speedups.profile(start, [1], True)


def test_binding_keeps_no_memory_across_calls():
    calls = (
        (list(range(9)), [4] * 12, None),
        ((5, 4, 3, 2), (1, 2, 3), (3, 3, 3, 3)),
        ((0, 0, 100), (1, 3), (2, 1, 1)),  # stranded
        ([0, B, 1], [1], None),  # refused by the binding
        ([0, 1, 2], [1, 1], [1, 2**64, -1]),  # refused by the C sweep
        ([0, 1, 2], [1, 1], [1, 1, 2.5]),  # TypeError
    )

    # Solves whose records the C code builds, capped and not, one it
    # strands, and one it refuses, whose record is rebuilt in Python.
    instances = (
        majpop.Instance("min_remaining", [4] * 12, ceiling=range(9)),
        majpop.Instance("general_max", (1, 2, 3), base=(5, 4, 3, 2), ceiling=(3, 1, 3, 3)),
        majpop.Instance("general_min", (1, 3), reference=(0, 0, 100), ceiling=(2, 1, 1)),
        majpop.Instance("min_combined", (2, 1), base=(2**64 - 1, 0, 2**63)),
    )
    policy = TiePolicy("uniform_random", 3)
    # Profiles shaved and filled, feasible and not, one rank compressed, and
    # ones the C code refuses or cannot convert.
    profile_calls = (
        (majpop.min_remaining_profile, (9, 7, 6, 5, 1), (3, 1, 2, 3, 0)),
        (majpop.min_remaining_profile, (0, 0, 1), (2, 1)),  # infeasible
        (majpop.min_remaining_profile, (5, 4), (1, 3)),  # a row above n
        (majpop.min_combined_profile, (2**64 - 1, 0, 2**63), (2, 1, 3)),  # fills past 2**64
        (majpop.min_combined_profile, (10**30, 0, 7), (2, 1)),  # rank compressed
        (_speedups.profile, [0, 2**64, 1], [1], True),  # refused
        (_speedups.profile, [0, 1, 2.5], [1], False),  # TypeError
    )

    def profiles(rounds):
        for _ in range(rounds):
            for call, *args in profile_calls:
                try:
                    call(*args)
                except (ValueError, TypeError, InfeasibleError):
                    pass

    def run(rounds):
        for _ in range(rounds):
            for start, rows, caps in calls:
                try:
                    _speedups.sweep(start, rows, True, -1, "uniform_random", 3, caps)
                except (ValueError, TypeError, InfeasibleError):
                    pass

    def solves(rounds):
        for _ in range(rounds):
            for inst in instances:
                try:
                    majpop.solve(inst, policy)
                except InfeasibleError:
                    pass

    run(100)
    solves(100)
    profiles(100)
    # Each record holds its class, and each Cells its own: a reference
    # tp_alloc took and nothing gave back would show here.
    held = sys.getrefcount(majpop.SolveResult), sys.getrefcount(majpop.completion.Cells)
    solves(10_000 // len(instances))
    assert (sys.getrefcount(majpop.SolveResult), sys.getrefcount(majpop.completion.Cells)) == held
    tracemalloc.start()
    try:
        run(10)
        solves(10)
        profiles(10)
        before = tracemalloc.get_traced_memory()[0]
        run(50_000 // len(calls))
        solves(50_000 // len(instances))
        profiles(50_000 // len(profile_calls))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024, grown


class _MallInfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")
    ]


def _malloc_in_use():
    """Bytes glibc's malloc has handed out and not taken back, or None
    without ``mallinfo2``.  The C search allocates with malloc, which
    ``tracemalloc`` does not see."""
    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is None:
        return None
    mallinfo2.restype = _MallInfo2
    info = mallinfo2()
    return info.uordblks + info.hblkhd


def test_search_keeps_no_memory_across_calls():
    calls = (
        ((3, 3, 3, 3), (2, 1, 2), None, 10**6),
        ((0, 1, 1, 1, 0), (2, 2), (1, 2, 1, 2, 1), 10**6),
        ((0, 0, 100), (1, 3), (2, 1, 1), 10**6),  # every branch stranded
        ((4, 4, 4, 4, 4, 4), (3, 3), None, 5),  # the budget passed
        ([0, B, 1], [1], None, 10),  # refused by the binding
        ([0, 1, 2**63 - 1], [1, 1], None, 10),  # refused by the C search
        ([0, 1, 2], [1, 1], [1, 1, 2.5], 10),  # TypeError
    )

    def run(rounds):
        for _ in range(rounds):
            for start, rows, caps, budget in calls:
                try:
                    _speedups.search_ties(start, rows, True, -1, caps, budget)
                except (ValueError, TypeError, majpop.BudgetExceededError):
                    pass

    run(100)
    tracemalloc.start()
    try:
        run(10)
        before = tracemalloc.get_traced_memory()[0], _malloc_in_use()
        run(20_000 // len(calls))
        after = tracemalloc.get_traced_memory()[0], _malloc_in_use()
    finally:
        tracemalloc.stop()
    assert after[0] - before[0] < 16 * 1024, after[0] - before[0]
    if before[1] is not None:
        assert after[1] - before[1] < 64 * 1024, after[1] - before[1]
