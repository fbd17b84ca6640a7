"""Compiled inner loop for the peak-shaving and valley-filling solvers.

The row loop is inherently sequential, so the whole sweep is compiled as one
C function (``_sweep.c``): per-row cost is a single in-place quickselect
plus two passes over the columns, keeping the total at O(m*n) with no
per-row interpreter overhead.  Column caps, for ``general_min`` and
``general_max``, are a mask the C code applies per row: each row selects
among the columns still below their caps.  Tie handling mirrors
``solvers._split_selection`` and ``solvers._pick_ties`` exactly, including
the splitmix64 stream, so the compiled and interpreted paths are
interchangeable and are tested for bit-identical output, capped or not.

``sweep`` is the one caller of the C function and the only module that
knows its calling convention.  It takes the profile, the row sums and any
caps as Python ints and the tie policy by name, builds the int64 and uint8
buffers itself, checks every value that comes from its caller, and returns
the final profile as a list together with the matrix; a row stranded below
the caps raises ``InfeasibleError``.

The first import compiles ``_sweep.c`` with the system ``cc`` into
``majpop/__pycache__/``, or into a private per-user directory under the
system temporary directory when that one is not writable, and loads it
with ctypes.  The library's file name carries a checksum of the source and
the compile command and the platform, so an edited source is rebuilt and
later imports only load it.  Each cache directory, and the library in it,
must be one that only this user or root can change, else it is skipped; a
cached library that fails to load is rebuilt once.

When the build or the load fails, ``KERNEL_AVAILABLE`` is False,
``BUILD_ERROR`` holds the reason (the compiler's own error text, say), one
``RuntimeWarning`` is emitted, and callers use the interpreted path.
"""

import ctypes
import os
import stat
import sys
import zlib

import numpy as np

from .errors import InfeasibleError

# Tie policy name (``solvers.TiePolicy.kind``) -> the code ``_sweep.c`` takes.
POLICIES = {"lowest_index": 0, "highest_index": 1, "load_order": 2, "uniform_random": 3}

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
# No flag that changes arithmetic: the output must match the interpreter.
_COMPILE = ("cc", "-O2", "-shared", "-fPIC")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_MASK64 = (1 << 64) - 1

# The stranded row's index and its open column count, written by the C code.
_Stranded = ctypes.c_int64 * 2


class BuildError(RuntimeError):
    """The compiler could not be run or rejected the source."""


def _cache_dirs():
    yield os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    import tempfile

    yield os.path.join(tempfile.gettempdir(), f"majpop-{os.getuid()}")


def _check_private(path: str, is_kind) -> None:
    """Raise PermissionError unless only this user (or root) can change ``path``.

    Whatever is loaded runs in this process, so another user must not be
    able to plant or replace the library or the directory that holds it.
    ``lstat`` keeps a symbolic link from passing for its target.
    """
    st = os.lstat(path)
    if not is_kind(st.st_mode):
        raise PermissionError(f"{path} has the wrong file type")
    if st.st_uid not in (os.getuid(), 0) or st.st_mode & 0o022:
        raise PermissionError(f"{path} can be changed by another user")


def _build(path: str) -> None:
    """Compile the source to ``path``, in a directory already checked private."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        cmd = [*_COMPILE, "-o", tmp, _SOURCE]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise BuildError(f"cannot run {cmd[0]}: {exc}") from None
        if proc.returncode != 0:
            raise BuildError(
                f"{cmd[0]} failed on {os.path.basename(_SOURCE)} with status {proc.returncode}\n"
                f"{' '.join(cmd)}\n{proc.stderr.strip()}"
            )
        # The linker may recreate the file under the umask; the loader
        # refuses a library that group or others can write.
        os.chmod(tmp, 0o755)
        # A concurrent first import builds under its own temporary name; the
        # rename is atomic, so a reader sees one whole library or none.
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library_name() -> str:
    with open(_SOURCE, "rb") as fh:
        key = zlib.crc32(" ".join(_COMPILE).encode() + b"\0" + fh.read())
    # A directory shared between machines keeps one library per platform.
    return f"_sweep-{key:08x}-{sys.platform}-{os.uname().machine}.so"


def _bind(lib):
    """The sweep function of a loaded library, with its C signature declared."""
    fn = lib.majpop_solve_rounds
    fn.argtypes = [
        ctypes.c_void_p,  # values
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # row_counts
        ctypes.c_int64,  # m
        ctypes.c_void_p,  # matrix
        ctypes.c_int,  # take_largest
        ctypes.c_int64,  # delta
        ctypes.c_int,  # policy
        ctypes.c_uint64,  # seed
        ctypes.c_void_p,  # caps, or None
        ctypes.POINTER(ctypes.c_int64),  # stranded
    ]
    fn.restype = ctypes.c_int
    return fn


def _load():
    name = _library_name()
    unusable = []
    for directory in _cache_dirs():
        path = os.path.join(directory, name)
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            _check_private(directory, stat.S_ISDIR)
            lib = None
            if os.path.lexists(path):
                _check_private(path, stat.S_ISREG)
                try:
                    lib = ctypes.CDLL(path)
                except OSError:
                    pass  # a library this machine cannot load: rebuild it once
            if lib is None:
                _build(path)
                _check_private(path, stat.S_ISREG)
                lib = ctypes.CDLL(path)
        except OSError as exc:
            unusable.append(f"{directory}: {exc}")
            continue
        return _bind(lib)
    raise BuildError("no usable cache directory: " + "; ".join(unusable))


BUILD_ERROR = None
try:
    _kernel = _load()
except Exception as exc:  # any failure leaves the interpreted sweep in charge
    _kernel = None
    BUILD_ERROR = str(exc) or repr(exc)
    import warnings

    warnings.warn(
        "majpop: the compiled row sweep is unavailable, so solves run the much slower "
        f"interpreted sweep ({BUILD_ERROR.splitlines()[0]}; full text in "
        "majpop._speedups.BUILD_ERROR)",
        RuntimeWarning,
    )
KERNEL_AVAILABLE = _kernel is not None


def fits(low: int, high: int, m: int) -> bool:
    """Whether values within [low, high] stay in the int64 range over m rows.

    Each row moves a value by at most one unit.  ``sweep`` refuses values
    for which this is false; callers route them elsewhere.
    """
    return _INT64_MIN + m <= low and high <= _INT64_MAX - m


def _int64s(values, what):
    """``values`` as an int64 array; ValueError if one lies outside int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what} must lie within the int64 range") from None


def sweep(start, row_counts, take_largest, delta, policy, seed, caps=None):
    """Run every row compiled; returns the final profile (a list) and the matrix.

    start: the starting profile, n Python ints within ``fits`` for m rows.
    row_counts: the m units to place per row, each in [0, n].
    take_largest: select columns holding the largest values (else smallest).
    delta: +1 or -1 applied to each selected column.
    policy: a ``POLICIES`` name; seed (taken mod 2**64) feeds the splitmix64
    stream for ``uniform_random``.
    caps: None, or n nonnegative ints; column j is taken in at most caps[j]
    rows, and each row selects among the columns still below their caps.
    Caps of m or more never bind, so any size is accepted.  A row that
    needs more columns than remain below their caps raises InfeasibleError
    with the same text as ``solvers._run_rounds_python``.

    The C code writes through raw pointers into buffers built here, so
    every value a caller supplies is checked first; a bad one raises
    ValueError.
    """
    if _kernel is None:
        raise RuntimeError(f"the compiled row sweep is unavailable: {BUILD_ERROR}")
    m, n = len(row_counts), len(start)
    if delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1, not {delta!r}")
    if policy not in POLICIES:
        raise ValueError(f"unknown tie policy {policy!r}")
    if n and not fits(min(start), max(start), m):
        raise ValueError("values too close to the int64 limits for this many rows")
    values = np.array(start, dtype=np.int64)
    rows = _int64s(row_counts, "row counts")
    # Read as unsigned, a negative count is 2**63 or more: one reduction
    # checks both bounds.
    if m and rows.view(np.uint64).max() > n:
        raise ValueError(f"row counts must lie in [0, {n}]")
    limits = None
    if caps is not None:
        if len(caps) != n:
            raise ValueError(f"caps must have {n} entries, not {len(caps)}")
        try:
            limits = np.array(caps, dtype=np.int64)
        except OverflowError:
            # A cap of m or more never binds, so clamping to m changes
            # nothing and brings caps past int64 into range.
            limits = _int64s([c if c < m else m for c in caps], "caps")
        if n and limits.min() < 0:
            raise ValueError("caps must be nonnegative")
    matrix = np.zeros((m, n), dtype=np.uint8)
    stranded = _Stranded()
    status = _kernel(
        values.ctypes.data,
        n,
        rows.ctypes.data,
        m,
        matrix.ctypes.data,
        bool(take_largest),
        delta,
        POLICIES[policy],
        seed & _MASK64,
        None if limits is None else limits.ctypes.data,
        stranded,
    )
    if status == 1:
        need = int(rows[stranded[0]])
        raise InfeasibleError(
            f"a row needs {need} columns but only {stranded[1]} remain below their caps"
        )
    if status != 0:
        raise MemoryError(f"no memory for the sweep's scratch buffers ({6 * n} int64)")
    return values.tolist(), matrix
