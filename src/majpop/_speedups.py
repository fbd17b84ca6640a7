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

``sweep`` is the one caller of the C code, and the only module that knows
its calling convention.  The sweep, ``majpop_solve_rounds`` in
``_sweep.c``, is bound to Python by ``_sweepmodule.c``, built with it into
one extension module whose one function, ``solve``, takes the profile, the
row sums and any caps as lists or tuples of Python ints, the side, the
step, the policy code and the seed.  In one C call it converts the vectors
to int64, allocates the zeroed ``bytearray`` matrix, runs every row and
builds the final profile as a tuple; ``sweep`` takes the tie policy by
name and returns that tuple together with the matrix as
``completion.Cells``, so no numpy, ctypes or ``array`` is involved.  The C
code checks the row counts, the caps and the profile's distance from the
int64 limits in one pass each, so no Python pass over a vector repeats it.
What it refuses comes back as a status that ``sweep`` maps to its error:
ValueError for a refused input, InfeasibleError for a row stranded below
the caps, MemoryError when the sweep finds no scratch memory.

The first import compiles both C files with the system ``cc`` and the
Python headers (``sysconfig``'s include directories) into
``majpop/__pycache__/``, or into a private per-user directory under the
system temporary directory when that one is not writable, and loads the
result with ``importlib.machinery.ExtensionFileLoader``.  The library's
file name carries a checksum of the sources, the compile command and the
platform, and ends in the interpreter's extension suffix, which names its
ABI, so an edited source or another Python is rebuilt and later imports
only load it.  A build removes the libraries earlier sources left beside
it.  Each cache directory, and the library in it, must be one that only
this user or root can change, else it is skipped; a cached library that
fails to import is rebuilt once.

When the build or the load fails, the import still succeeds:
``KERNEL_AVAILABLE`` is False, ``BUILD_ERROR`` holds the reason (the
compiler's own error text, say), and every call to ``sweep`` raises
``BuildError`` with that reason.  There is no other sweep to fall back on.
"""

import os
import stat
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

from ._cells import Cells
from .errors import InfeasibleError

# Tie policy name -> the code ``_sweep.c`` takes; ``solvers.TIE_KINDS`` is its keys.
POLICIES = {"lowest_index": 0, "highest_index": 1, "load_order": 2, "uniform_random": 3}

_DIRECTORY = os.path.dirname(os.path.abspath(__file__))
# The sweep, and the binding that converts its inputs and builds its outputs.
_SOURCES = tuple(os.path.join(_DIRECTORY, name) for name in ("_sweep.c", "_sweepmodule.c"))
# No flag that changes arithmetic: the output must match the reference sweep.
# ``_build`` adds the Python include directories.
_COMPILE = ("cc", "-O2", "-shared", "-fPIC")
# The module's name; ``_sweepmodule.c`` defines ``PyInit__sweep`` to match.
_MODULE = "majpop._sweep"
_PREFIX = "_sweep-"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
# Also the splitmix64 word mask in ``solvers`` and the largest entry the CLI accepts.
_MASK64 = (1 << 64) - 1

# ``solve``'s statuses: a stranded row, the values ``_sweep.c`` refuses
# before writing anything, the entries ``_sweepmodule.c`` cannot convert,
# and no scratch memory.
_STRANDED = 1
_NO_MEMORY = -1
_REFUSED = {
    2: "row counts must lie in [0, {n}]",
    3: "caps must be nonnegative",
    4: "values too close to the int64 limits for this many rows",
    5: "values must lie within the int64 range",
    6: "row counts must lie within the int64 range",
    7: "caps must have {n} entries, not {caps}",
    8: "caps must lie within the int64 range",
}


class BuildError(RuntimeError):
    """The compiled row sweep could not be built or loaded."""


def _cache_dirs():
    yield os.path.join(_DIRECTORY, "__pycache__")
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


def _include_flags() -> list[str]:
    import sysconfig

    paths = (sysconfig.get_path("include"), sysconfig.get_path("platinclude"))
    return [f"-I{path}" for path in dict.fromkeys(paths)]


def _build(path: str) -> None:
    """Compile the sources to ``path``, in a directory already checked
    private, and remove the libraries older sources left there."""
    import subprocess
    import tempfile

    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        cmd = [*_COMPILE, *_include_flags(), "-o", tmp, *_SOURCES]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise BuildError(f"cannot run {cmd[0]}: {exc}") from None
        if proc.returncode != 0:
            sources = " ".join(os.path.basename(source) for source in _SOURCES)
            raise BuildError(
                f"{cmd[0]} failed on {sources} with status {proc.returncode}\n"
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
    _remove_stale(directory, name)


def _remove_stale(directory: str, keep: str) -> None:
    """Unlink the libraries other sources or compile commands left in
    ``directory``: regular files named ``_sweep-*`` other than ``keep``,
    built for this interpreter's ABI, or by the ctypes loader this module
    once had (``_sweep-<checksum>-<platform>-<machine>.so``).  Libraries of
    other ABIs, symbolic links and other names are left alone.
    """
    suffixes = (EXTENSION_SUFFIXES[0], f"-{sys.platform}-{os.uname().machine}.so")
    for entry in os.scandir(directory):
        name = entry.name
        if name == keep or not name.startswith(_PREFIX) or not name.endswith(suffixes):
            continue
        if entry.is_file(follow_symlinks=False):
            try:
                os.unlink(entry.path)
            except OSError:
                pass


def _library_name() -> str:
    # A directory shared between machines keeps one library per platform,
    # and the suffix, one per Python ABI.
    key = zlib.crc32(f"{' '.join(_COMPILE)}\0{sys.platform}-{os.uname().machine}".encode())
    for source in _SOURCES:
        with open(source, "rb") as fh:
            key = zlib.crc32(b"\0" + fh.read(), key)
    return f"{_PREFIX}{key:08x}{EXTENSION_SUFFIXES[0]}"


def _import(path: str):
    """The ``solve`` function of the extension module built at ``path``."""
    loader = ExtensionFileLoader(_MODULE, path)
    module = loader.create_module(ModuleSpec(_MODULE, loader, origin=path))
    loader.exec_module(module)
    return module.solve


def _load():
    name = _library_name()
    unusable = []
    for directory in _cache_dirs():
        path = os.path.join(directory, name)
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            _check_private(directory, stat.S_ISDIR)
            solve = None
            if os.path.lexists(path):
                _check_private(path, stat.S_ISREG)
                try:
                    solve = _import(path)
                except ImportError:
                    pass  # a library this interpreter cannot load: rebuild it once
            if solve is None:
                _build(path)
                _check_private(path, stat.S_ISREG)
                solve = _import(path)
        except (OSError, ImportError) as exc:
            unusable.append(f"{directory}: {exc}")
            continue
        return solve
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
    """Run every row compiled; returns the final profile (a tuple) and the matrix.

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

    start, row_counts and caps are lists or tuples.  The profile comes back
    as a tuple of ints and the matrix as ``completion.Cells`` over the m*n
    bytes the C code wrote, both built by the C call.  Delta and the policy
    are checked here; the C code converts each vector to int64 and checks
    the row counts, the caps' length and signs and the start profile's
    distance from the int64 limits before it writes anything, so no vector
    is walked in Python.  What it refuses raises ValueError here, naming
    the first cause in that order; an entry that is not an int raises
    TypeError.  Where the build failed, every call raises BuildError naming
    ``BUILD_ERROR``.
    """
    if _kernel is None:
        raise BuildError(f"the compiled row sweep is unavailable: {BUILD_ERROR}")
    if delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1, not {delta!r}")
    code = POLICIES.get(policy)
    if code is None:
        raise ValueError(f"unknown tie policy {policy!r}")
    status, values, matrix = _kernel(start, row_counts, caps, take_largest, delta, code, seed)
    if status:
        if status == _STRANDED:
            # The other two slots hold the stranded row's need and open count.
            raise InfeasibleError(
                f"a row needs {values} columns but only {matrix} remain below their caps"
            )
        n = len(start)
        if status == _NO_MEMORY:
            raise MemoryError(f"no memory for the sweep's scratch buffers ({5 * n + 8} int64)")
        raise ValueError(_REFUSED[status].format(n=n, caps=len(caps or ())))
    return values, Cells(matrix, (len(row_counts), len(start)))
