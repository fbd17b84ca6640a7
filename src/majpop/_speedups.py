"""Compiled inner loops: the row sweep of the peak-shaving and
valley-filling solvers, the tie search of ``solvers.enumerate_optima``,
the canonical profiles of ``solvers.min_remaining_profile`` and
``solvers.min_combined_profile``, and the JSON text of the 0/1 matrices
the CLI prints.

The row loop is inherently sequential, so the whole sweep is compiled as one
C function (``_sweep.c``), with no per-row interpreter overhead.  It sorts
the columns once, by value and then by index, and carries that order from
row to row: each row reads its threshold at position r_i - 1, takes the
columns before the threshold block, picks among the block, and restores
the order by merging only the blocks at the threshold and one unit either
side of it.  The total is O(n log n + sum of r_i + t_i), with t_i the
columns in the blocks row i touches.  Column caps, for ``general_min`` and
``general_max``, take a column out of the order once it reaches its cap,
so each row selects among the columns still below their caps.  Tie
handling, including the splitmix64 stream, is tested bit for bit, capped
or not, against the plain per-row reference sweep the test suite keeps.

The tie search is the second C function there.  Breadth first over the
rows, it expands every distinct running profile once per row, selecting
as the sweep does and branching over every choice among the columns at
the threshold; each level keeps its profiles in the order first reached,
in an open-addressing hash table, with the first path that reached each.
It is tested against the test suite's plain depth-first reference for
the same keys, key order, witnesses and errors.

The profile is the third C function.  It gives the nonincreasing final
profile that every uncapped sweep reaches, whatever its ties, without a
sweep or a matrix: sorted, the start profile's prefix sums less (when
shaving) those of the conjugate of the row sums bound the profile's
prefix sums, and the profile is read off the least concave majorant of
those points, one monotone stack pass, in O(m + n log n) time and O(n)
memory.  Filling is the shave of the negated profile.  It is tested
against the sweep under every tie policy and against the oracle.

The matrix text is the fourth.  It checks every cell of a 0/1 matrix and
streams the matrix's JSON text to a ``write`` callable in 64 KiB chunks,
so printing a 2000 x 2000 witness never holds its 8 MB text.

All four are compiled from one C source, ``_sweep.c``, which holds the
sweep, the search, the profile, the matrix text and their CPython
binding: one extension module whose four functions are ``sweep``,
``search_ties``, ``profile`` and ``write_matrix`` here, so a solve calls
into C with no Python frame between.  ``sweep(start, row_counts,
take_largest, delta, policy, seed, caps=None)`` takes the profile, the row
sums and any caps as lists or tuples of Python ints, ``take_largest`` to
select the columns holding the largest values (else the smallest), the
step delta (+1 or -1) each selected column moves by, a ``POLICIES`` name,
and the seed (taken mod 2**64) of the splitmix64 stream for
``uniform_random``.  Column j is taken in at most caps[j] rows, and each
row selects among the columns still below their caps; caps of m or more
never bind, so any size is accepted.  In one C call it converts the
vectors to int64, allocates the zeroed matrix as a ``bytes``, runs every
row, and returns the finished ``SolveResult`` (``majpop._cells``, which
``solvers`` re-exports): the final profile as the objective, its
nonincreasing form, read off the column order the sweep carries,
``feasible`` (``delta > 0`` or no entry below 0), and the matrix as
``Cells``.  The record and its ``Cells`` are allocated and filled in C,
with no Python code run, and no numpy, ctypes or ``array`` is involved.
``search_ties(start, row_counts, take_largest, delta, caps, budget)``
takes the same vectors and a budget on the distinct states, the start
profile and each row's distinct profiles; it searches with the
interpreter lock released, and returns the final profiles as a tuple of
tuples in the order first reached, and their witnesses, one m*n matrix
per profile, row-major, as one ``bytes``: the picks of the first path
that reached each profile.  ``profile(start, row_counts, take_largest)``
takes the profile, with entries in [0, 2**64), and the row sums, and
returns the canonical profile as a tuple of ints, which past 2**64 - 1
when a fill carries them there.  It has checks of its own: fewer than
2**32 columns, and, for a shave, the sign test (no entry below 0), which
``completion.feasible_min_remaining``, ``completion.gale_ryser_feasible``,
``completion.construct_matrix`` and ``solvers.feasible`` read as their
Gale-Ryser test (all four through ``completion._absorbs``), against the supermajorization
prefix test, and that against the clamped submajorization of the row
sums, on the sorted values it already holds; InternalInvariantError
reports a disagreement.  ``write_matrix(cells, m, n, write)`` takes the
cells of an m x n matrix as m * n one-byte items, row-major with unit
stride: a buffer of shape (m * n,), such as ``Cells.data``, or (m, n),
such as a C-order numpy ``uint8`` array; any other buffer raises
ValueError, and ``cli._matrix`` copies an array in another memory order
to C order first.  With ``write`` None it only checks
the cells; otherwise it writes the text ``json.dumps`` gives for the
nested lists, without spaces, into one reused buffer of 64 KiB, or of
one row where a row is longer, and passes each full buffer to ``write``
as a fresh ``bytes``.  A write that takes fewer bytes gets the rest, and
one that returns None raises ``BlockingIOError``.  Each row is checked as
its text is written, and a cell other than 0 or 1 raises
InternalInvariantError naming the shape before the chunk that holds it
goes out.

The C code checks the row counts, the caps and the profile's distance
from the int64 limits in one pass each, so no Python pass over a vector
repeats it, and raises every error itself.  ValueError names the first
cause, in the order delta, the policy name, the profile, the row counts,
the caps' length and the caps (for ``profile``, the column count, the
profile and the row counts); an entry that is not an int raises
TypeError.  A capped sweep's row that needs more columns than remain
below their caps raises InfeasibleError, naming its need and its open
column count.  A search past its budget raises BudgetExceededError,
whose ``draws`` counts the children drawn before the stop.  MemoryError
means the C code found no memory.

The first import compiles ``_sweep.c`` with the system ``cc`` and the
Python headers (``sysconfig``'s include directories) into
``majpop/__pycache__/``, or into a private per-user directory under the
system temporary directory when that one is not writable, and loads the
result with ``importlib.machinery.ExtensionFileLoader``.  The library's
file name carries a checksum of the source, the compile command and the
platform, and ends in the interpreter's extension suffix, which names its
ABI, so an edited source or another Python is rebuilt and later imports
only load it.  A build removes the libraries earlier sources left beside
it.  Each cache directory, and the library in it, must be one that only
this user or root can change, else it is skipped; a cached library that
fails to import is rebuilt once.

When the build or the load fails, the import still succeeds:
``KERNEL_AVAILABLE`` is False, ``BUILD_ERROR`` holds the reason (the
compiler's own error text, say), and ``sweep``, ``search_ties``,
``profile`` and ``write_matrix`` are all ``_unavailable``, which raises
``BuildError`` with that reason.  There is no other sweep, search,
profile or matrix text to fall back on.
"""

import os
import stat
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

# The tie policies, numbered for ``_sweep.c`` by their place here; also
# ``solvers.TIE_KINDS``.
POLICIES = ("lowest_index", "highest_index", "load_order", "uniform_random")

_DIRECTORY = os.path.dirname(os.path.abspath(__file__))
# The sweep, the tie search, the profile, the matrix text and their binding.
_SOURCES = (os.path.join(_DIRECTORY, "_sweep.c"),)
# No flag that changes arithmetic: the output must match the reference sweep.
# Functions start on a cache line.  That does not make the hot loops' speed
# independent of edits elsewhere in the file: deleting eight lines that never
# run, inside ``run_rows``, moved ``lowest_index`` sweeps of flat and
# near-flat ceilings by +11% and ``load_order`` sweeps by -5%, so a timing
# that follows an edit of ``_sweep.c`` may be the layout's.  ``_build`` adds
# the Python include directories.
_COMPILE = ("cc", "-O2", "-falign-functions=64", "-shared", "-fPIC")
# The module's name; ``_sweep.c`` defines ``PyInit__sweep`` to match.
_MODULE = "majpop._sweep"
_PREFIX = "_sweep-"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
# Also the splitmix64 word mask in ``solvers`` and the largest entry the CLI accepts.
_MASK64 = (1 << 64) - 1

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
    """The extension module built at ``path``."""
    loader = ExtensionFileLoader(_MODULE, path)
    module = loader.create_module(ModuleSpec(_MODULE, loader, origin=path))
    loader.exec_module(module)
    return module


def _load():
    name = _library_name()
    unusable = []
    for directory in _cache_dirs():
        path = os.path.join(directory, name)
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            _check_private(directory, stat.S_ISDIR)
            module = None
            if os.path.lexists(path):
                _check_private(path, stat.S_ISREG)
                try:
                    module = _import(path)
                except ImportError:
                    pass  # a library this interpreter cannot load: rebuild it once
            if module is None:
                _build(path)
                _check_private(path, stat.S_ISREG)
                module = _import(path)
        except (OSError, ImportError) as exc:
            unusable.append(f"{directory}: {exc}")
            continue
        return module
    raise BuildError("no usable cache directory: " + "; ".join(unusable))


def _unavailable(*args):
    """``sweep``, ``search_ties``, ``profile`` and ``write_matrix`` where the
    build failed."""
    raise BuildError(f"the compiled row sweep is unavailable: {BUILD_ERROR}")


BUILD_ERROR = None
try:
    _module = _load()
except Exception as exc:  # raised by every call, so what needs no sweep still works
    BUILD_ERROR = str(exc) or repr(exc)
    sweep = search_ties = profile = write_matrix = _unavailable
else:
    sweep, search_ties, profile = _module.sweep, _module.search_ties, _module.profile
    write_matrix = _module.write_matrix
    del _module
KERNEL_AVAILABLE = BUILD_ERROR is None


def fits(low: int, high: int, m: int) -> bool:
    """Whether values within [low, high] stay in the int64 range over m rows.

    Each row moves a value by at most one unit.  ``sweep`` refuses values
    for which this is false; callers rank compress them first.
    """
    return _INT64_MIN + m <= low and high <= _INT64_MAX - m
