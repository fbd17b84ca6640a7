"""Compiled inner loop for the peak-shaving and valley-filling solvers.

The row loop is inherently sequential, so the whole sweep is compiled as one
C function (``_sweep.c``), with no per-row interpreter overhead.  It sorts
the columns once, by value and then by index, and carries that order from
row to row: each row reads its threshold at position r_i - 1, takes the
columns before the threshold block, picks among the block, and restores
the order by merging only the blocks at the threshold and one unit either
side of it.  The total is O(n log n + sum of r_i + t_i), with t_i the
columns in the blocks row i touches.  Column caps, for ``general_min`` and
``general_max``, take a column out of the order once it reaches its cap,
so each row selects among the columns still below their caps.  Each row
selects as ``solvers._split_selection`` does, and tie handling, including
the splitmix64 stream, is tested bit for bit, capped or not, against the
plain per-row reference sweep the test suite keeps.

``sweep`` is the one caller of the C function, ``majpop_solve_rounds``, and
the only module that knows its calling convention: six arguments, the
profile, the row counts, the matrix, the caps or NULL, one int64 frame
that carries n, m, the side, the step and the policy code in and a
stranded row out, and the seed.  ``sweep`` takes the profile, the row sums
and any caps as Python ints and the tie policy by name, builds the buffers
itself (``array.array`` int64 vectors and a zeroed ``bytearray`` matrix, so
no numpy is involved), and returns the final profile as a list together
with the matrix as ``completion.Cells``; a row stranded below the caps
raises ``InfeasibleError``.  The C code's first pass checks the row
counts, the caps and the profile's distance from the int64 limits, so
no Python pass over a vector repeats it; a refused input raises
ValueError.

The first import compiles ``_sweep.c`` with the system ``cc`` into
``majpop/__pycache__/``, or into a private per-user directory under the
system temporary directory when that one is not writable, and loads it
with ctypes.  The library's file name carries a checksum of the source and
the compile command and the platform, so an edited source is rebuilt and
later imports only load it.  Each cache directory, and the library in it,
must be one that only this user or root can change, else it is skipped; a
cached library that fails to load is rebuilt once.

When the build or the load fails, the import still succeeds:
``KERNEL_AVAILABLE`` is False, ``BUILD_ERROR`` holds the reason (the
compiler's own error text, say), and every call to ``sweep`` raises
``BuildError`` with that reason.  There is no other sweep to fall back on.
"""

import ctypes
import os
import stat
import sys
import zlib
from array import array

from ._cells import Cells
from .errors import InfeasibleError

# Tie policy name -> the code ``_sweep.c`` takes; ``solvers.TIE_KINDS`` is its keys.
POLICIES = {"lowest_index": 0, "highest_index": 1, "load_order": 2, "uniform_random": 3}

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
# No flag that changes arithmetic: the output must match the reference sweep.
_COMPILE = ("cc", "-O2", "-shared", "-fPIC")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
# Also the splitmix64 word mask in ``solvers`` and the largest entry the CLI accepts.
_MASK64 = (1 << 64) - 1

# The C code's statuses: a stranded row, and values it refuses before
# writing anything.
_STRANDED = 1
_BAD_ROW_COUNT = 2
_NEGATIVE_CAP = 3
_VALUE_RANGE = 4
# The frame slots the C code writes a stranded row's index and open column
# count to; slots 0-4 carry n, m, take_largest, delta and the policy code in.
_STRANDED_ROW = 5
_STRANDED_OPEN = 6


class BuildError(RuntimeError):
    """The compiled row sweep could not be built or loaded."""


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
        ctypes.c_void_p,  # row_counts
        ctypes.c_void_p,  # matrix
        ctypes.c_void_p,  # caps, or None
        ctypes.c_void_p,  # frame
        ctypes.c_uint64,  # seed
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
except Exception as exc:  # reported by ``sweep``, so what needs no sweep still works
    _kernel = None
    BUILD_ERROR = str(exc) or repr(exc)
KERNEL_AVAILABLE = _kernel is not None


def fits(low: int, high: int, m: int) -> bool:
    """Whether values within [low, high] stay in the int64 range over m rows.

    Each row moves a value by at most one unit.  ``sweep`` refuses values
    for which this is false; callers rank compress them first.
    """
    return _INT64_MIN + m <= low and high <= _INT64_MAX - m


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
    naming its need and its open column count.

    The matrix comes back as ``completion.Cells`` over the m*n bytes the C
    code wrote.  The C code writes through raw pointers into buffers built
    here, so every value a caller supplies is checked before anything is
    written; a bad one raises ValueError.  Delta, the policy and the caps'
    length are checked here; the row counts, the caps' signs and the start
    profile's distance from the int64 limits only by the C code's first
    pass, so no vector is walked in Python except to convert it.  Where the
    build failed, every call raises BuildError naming ``BUILD_ERROR``.
    """
    if _kernel is None:
        raise BuildError(f"the compiled row sweep is unavailable: {BUILD_ERROR}")
    if delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1, not {delta!r}")
    code = POLICIES.get(policy)
    if code is None:
        raise ValueError(f"unknown tie policy {policy!r}")
    m, n = len(row_counts), len(start)
    try:
        values = array("q", start)
    except OverflowError:
        raise ValueError("values must lie within the int64 range") from None
    try:
        rows = array("q", row_counts)
    except OverflowError:
        raise ValueError("row counts must lie within the int64 range") from None
    limits = None
    if caps is not None:
        if len(caps) != n:
            raise ValueError(f"caps must have {n} entries, not {len(caps)}")
        try:
            limits = array("q", caps)
        except OverflowError:
            # A cap of m or more never binds, so clamping to m changes
            # nothing and brings caps past int64 into range.
            try:
                limits = array("q", [c if c < m else m for c in caps])
            except OverflowError:
                raise ValueError("caps must lie within the int64 range") from None
    matrix = bytearray(m * n)
    frame = array("q", (n, m, 1 if take_largest else 0, delta, code, 0, 0))
    status = _kernel(
        values.buffer_info()[0],
        rows.buffer_info()[0],
        ctypes.addressof(ctypes.c_char.from_buffer(matrix)) if matrix else None,
        None if limits is None else limits.buffer_info()[0],
        frame.buffer_info()[0],
        seed & _MASK64,
    )
    if status:
        if status == _STRANDED:
            raise InfeasibleError(
                f"a row needs {rows[frame[_STRANDED_ROW]]} columns but only "
                f"{frame[_STRANDED_OPEN]} remain below their caps"
            )
        if status == _BAD_ROW_COUNT:
            raise ValueError(f"row counts must lie in [0, {n}]")
        if status == _NEGATIVE_CAP:
            raise ValueError("caps must be nonnegative")
        if status == _VALUE_RANGE:
            raise ValueError("values too close to the int64 limits for this many rows")
        raise MemoryError(f"no memory for the sweep's scratch buffers ({5 * n + 8} int64)")
    return values.tolist(), Cells(matrix, (m, n))
