"""Peak-shaving and valley-filling solvers with explicit tie policies.

Both solvers sweep the rows once.  Peak shaving subtracts one unit from the
columns currently holding the largest remaining values; valley filling adds
one unit to the columns holding the smallest running totals.  All optimal
objective values share a single nonincreasing rearrangement, so any tie
policy reaches an optimum; the policies below pick *which* optimum:

``lowest_index`` / ``highest_index``
    Deterministic index preference among tied columns.  With a nonincreasing
    input profile, ``highest_index`` peak shaving (and ``lowest_index``
    valley filling) emits the objective already sorted.
``load_order``
    Prefer the column with the larger count of units placed so far; the
    resulting column-sum vector tracks the order of the input profile.
``uniform_random(seed)``
    Tied columns drawn without replacement from a seeded splitmix64 stream,
    so traces reproduce exactly across platforms.

Every sweep, capped or not and whatever its size, runs through the compiled
C sweep (built from ``_sweep.c`` on first import): the solvers hand the
profile, the row sums, the policy's name and seed and any column caps to
``_speedups.sweep``, the extension's own function, with no Python frame
between.  One C call converts them, sweeps, and returns the finished
``SolveResult``: the objective, its nonincreasing form (read off the
column order the sweep carries), ``feasible`` and the matrix as ``Cells``,
all built in C.  The C code's first pass checks the row sums and the
profile's distance from the int64 limits, so the solvers make no pass of
their own; only when it refuses an input does ``_retried_sweep`` rerun
their checks, in their old order: a row above n raises the error that
names it, and a profile near the int64 limits is rank compressed, swept
again, and its record rebuilt from the objective moved back.  The C
sweep sorts the columns once and carries that order from row to row, so
each row sorts only its threshold block: O(n log n + sum of r_i + t_i),
with t_i the columns in the blocks row i touches.  There is no other
sweep: where the build failed, every call that sweeps raises
``_speedups.BuildError``.  The C code writes the matrix into a ``bytes``,
handed back as ``Cells``, so a solve imports no numpy:
``SolveResult.matrix`` builds the numpy array on first access.  Nor does a solve import
:mod:`majpop.completion`: only ``feasible`` needs it, and imports it when
it runs.  It imports the module, not a name from it: ``from .completion
import name`` in a function costs ≈2 µs a call, most of it the failed
lookup of ``__path__`` on a module that is not a package.

Resolving every row's ties in every way, row by row, enumerates the full
set of optimal objective vectors; see :func:`enumerate_optima`.  That
search runs compiled too, as the extension's second function,
``_speedups.search_ties``: like every sweep it raises
``_speedups.BuildError`` where the build failed.

The canonical profiles need no sweep at all: ``min_remaining_profile`` and
``min_combined_profile`` read the nonincreasing optimum off one hull of the
prefix sums of the sorted start profile and of the conjugate of the row
sums, in O(m + n log n) and with no matrix, through the extension's third
function, ``_speedups.profile``, which raises ``_speedups.BuildError`` too
where the build failed.
"""

from itertools import accumulate
from typing import Optional

from . import _speedups
from ._cells import Matrix, SolveResult, _frozen, _Record
from ._speedups import _MASK64
from .errors import BudgetExceededError, InfeasibleError
from .majorization import IntVector, as_vector, sort_desc

# Variant -> its row sweep: the field it starts from, the field that caps
# each column (None: uncapped), whether each row takes the largest values
# (else the smallest), and the step each pick applies.
_SWEEPS = {
    "min_remaining": ("ceiling", None, True, -1),
    "min_combined": ("base", None, False, +1),
    "general_min": ("reference", "ceiling", True, -1),
    "general_max": ("base", "ceiling", True, +1),
}

VARIANTS = tuple(_SWEEPS)

TIE_KINDS = _speedups.POLICIES


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (new_state, output). Matches the kernel."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


class _Value(_Record):
    """A record compared and hashed by the tuple of its ``_compared`` fields."""

    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class TiePolicy(_Value):
    """How a solver breaks ties among equally attractive columns."""

    _fields = _compared = __match_args__ = ("kind", "seed")

    def __init__(self, kind: str = "lowest_index", seed: int = 0):
        if kind not in TIE_KINDS:
            raise ValueError(f"unknown tie policy {kind!r}; expected one of {TIE_KINDS}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError("tie policy seed must be an int")
        d = self.__dict__
        d["kind"] = kind
        d["seed"] = seed


LOWEST_INDEX = TiePolicy("lowest_index")
HIGHEST_INDEX = TiePolicy("highest_index")
LOAD_ORDER = TiePolicy("load_order")


def random_ties(seed: int) -> TiePolicy:
    return TiePolicy("uniform_random", seed)


class Instance(_Value):
    """One problem setup: a variant tag plus the vectors it needs.

    ``min_remaining`` shaves a ceiling profile down; ``min_combined`` fills a
    base profile up.  ``general_min`` shaves a reference profile while column
    sums stay below a separate ceiling; ``general_max`` fills a base profile
    toward the most concentrated (majorization-greatest) combined load under
    the same column caps.  ``n``, the shared length of the vectors, is
    derived, and left out of comparisons and the hash.
    """

    _fields = ("variant", "row_sums", "ceiling", "base", "reference", "n")
    _compared = __match_args__ = _fields[:-1]

    def __init__(self, variant: str, row_sums, ceiling=None, base=None, reference=None):
        if variant not in VARIANTS:
            raise ValueError(f"variant: unknown value {variant!r}; expected one of {VARIANTS}")
        d = self.__dict__
        d["variant"] = variant
        d["row_sums"] = as_vector(row_sums, "row_sums", nonnegative=True)
        for name, v in (("ceiling", ceiling), ("base", base), ("reference", reference)):
            d[name] = v if v is None else as_vector(v, name, nonnegative=True)
        lengths = set()
        for name in _SWEEPS[variant][:2]:
            if name is None:
                continue
            v = d[name]
            if v is None:
                raise ValueError(f"{name}: required for variant {variant!r}")
            lengths.add(len(v))
        if len(lengths) != 1:
            raise ValueError(f"vectors for variant {variant!r} must share one length")
        n = lengths.pop()
        if n < 1:
            raise ValueError("instances need at least one column")
        d["n"] = n


def _check_rows(r: IntVector, n: int) -> None:
    # max() clears the rows at C speed; only a bad one takes the loop that names it.
    if not r or max(r) <= n:
        return
    for i, v in enumerate(r):
        if v > n:
            # from None: raised while handling a sweep the C code refused, or
            # a capped sweep's stranded row, it names the cause itself.
            raise InfeasibleError(
                f"row_sums[{i}] = {v} exceeds the number of columns {n}: no row can hold it"
            ) from None


def _rank_compressed(start: IntVector, m: int) -> list[int]:
    """``start`` ranked from 0, each gap between sorted distinct values cut to at most m + 1."""
    distinct = sorted(set(start))
    gaps = (min(b - a, m + 1) for a, b in zip(distinct, distinct[1:]))
    ranks = dict(zip(distinct, accumulate(gaps, initial=0)))
    return [ranks[s] for s in start]


def _retried(refusal: ValueError, call, start: IntVector, r: IntVector, *args) -> tuple:
    """``call(start, r, *args)`` again, after the compiled sweep, tie
    search or profile refused its inputs with ``refusal``; returns the
    call's result and the shift that moves the profiles it returns back,
    one offset per column.

    Nothing is checked before the first call, whose first pass checks the
    row sums and the profile.  Only when it refuses them do the checks run
    here, in their old order: a row above n raises the InfeasibleError that
    names it, and a profile within m of an int64 limit is passed rank
    compressed, since values m + 1 or more apart compare alike through m
    rows.  Any other refusal is raised again."""
    _check_rows(r, len(start))
    m = len(r)
    if _speedups.fits(min(start), max(start), m):
        raise refusal
    packed = _rank_compressed(start, m)
    return call(packed, r, *args), [s - p for s, p in zip(start, packed)]


def _shifted(profile: IntVector, shift: list[int]) -> IntVector:
    return tuple([v + d for v, d in zip(profile, shift)])


def _retried_sweep(
    refusal: ValueError,
    start: IntVector,
    r: IntVector,
    largest: bool,
    delta: int,
    policy: TiePolicy,
    caps: Optional[IntVector] = None,
) -> SolveResult:
    """The result of a sweep the compiled code refused with ``refusal``:
    ``_retried``'s checks, then the rank-compressed sweep, whose objective
    is moved back and whose record is rebuilt from it here.  Every other
    sweep's result comes from ``_speedups.sweep`` finished."""
    result, shift = _retried(refusal, _speedups.sweep, start, r, largest, delta, policy.kind, policy.seed, caps)
    objective = _shifted(result.objective, shift)
    canonical = sort_desc(objective)
    return SolveResult(vars(result)["matrix"], objective, canonical, delta > 0 or canonical[-1] >= 0)


def peak_shave(ceiling, row_sums, policy: TiePolicy = LOWEST_INDEX) -> SolveResult:
    """Shave a ceiling profile: each row subtracts from its largest entries.

    Always runs to completion; a negative entry in the final objective is
    the certificate that no valid completion exists, reported through
    ``feasible`` rather than an exception.  Without the compiled sweep it
    raises ``_speedups.BuildError``, as every sweeping function here does.
    """
    c = as_vector(ceiling, "ceiling", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    if not c:
        raise ValueError("ceiling must have at least one entry")
    try:
        return _speedups.sweep(c, r, True, -1, policy.kind, policy.seed)
    except ValueError as refusal:
        return _retried_sweep(refusal, c, r, True, -1, policy)


def valley_fill(base, row_sums, policy: TiePolicy = LOWEST_INDEX) -> SolveResult:
    """Fill a base profile: each row adds onto its smallest entries."""
    b = as_vector(base, "base", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    if not b:
        raise ValueError("base must have at least one entry")
    try:
        return _speedups.sweep(b, r, False, +1, policy.kind, policy.seed)
    except ValueError as refusal:
        return _retried_sweep(refusal, b, r, False, +1, policy)


def _canonical_profile(start: IntVector, r: IntVector, largest: bool) -> IntVector:
    """The nonincreasing final profile every uncapped sweep of ``start`` by
    ``r`` reaches, from ``_speedups.profile``, which builds no matrix.  A
    profile it refuses, one with an entry of 2**64 or more, goes through
    ``_retried``: the rank-compressed profile's result, plus the shift
    sorted alike, since the gaps wider than m that compression cuts split
    the columns into groups that no row mixes, and ranks keep the order."""
    try:
        return _speedups.profile(start, r, largest)
    except ValueError as refusal:
        packed, shift = _retried(refusal, _speedups.profile, start, r, largest)
        return tuple([v + d for v, d in zip(packed, sort_desc(shift))])


def min_remaining_profile(ceiling, row_sums) -> IntVector:
    """Canonical (nonincreasing) optimal remaining profile for a feasible setup.

    The profile is read off the least concave majorant of the prefix sums
    of the ceiling, sorted, less those of the conjugate of the row sums, in
    O(m + n log n) and with no matrix (``_speedups.profile``).  A negative
    entry means the ceiling cannot absorb the rows, and raises
    InfeasibleError; so does a row above n, which names itself.  The C code
    checks that sign test against the prefix test of
    ``completion.feasible_min_remaining`` and raises InternalInvariantError
    if the two disagree.
    """
    c = as_vector(ceiling, "ceiling", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    profile = _canonical_profile(c, r, True)
    if profile and profile[-1] < 0:
        raise InfeasibleError(f"ceiling {c} cannot absorb row sums {r}")
    return profile


def min_combined_profile(base, row_sums) -> IntVector:
    """Canonical (nonincreasing) optimal combined profile; always exists
    once every row fits in n columns.

    Read off the greatest convex minorant of the prefix sums of the base,
    sorted nondecreasing, plus those of the conjugate of the row sums, in
    O(m + n log n) and with no matrix (``_speedups.profile``).
    """
    b = as_vector(base, "base", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    return _canonical_profile(b, r, False)


def solve(inst: Instance, policy: TiePolicy = LOWEST_INDEX) -> SolveResult:
    """Dispatch an instance to its solver.

    The generalized variants run the same row sweep but exclude columns
    whose sums have reached their caps; a row left with fewer open columns
    than it needs raises with a diagnostic.  ``general_max`` selects the
    columns with the *largest* running totals, concentrating load toward a
    majorization-greatest combined profile.

    The capped sweeps always return a completion that satisfies the row
    sums and column caps, and with ``reference == ceiling`` they reproduce
    the plain peak shave exactly.  When caps bind mid-run they are greedy
    heuristics: on rare instances the result is not the extremal attainable
    value, and a sweep can stop on an instance that a different row order
    would complete.  The uncapped variants carry none of these caveats.
    """
    # ``_instance_rounds`` without its row check, which the C code makes:
    # the sweep is the only call on the way.
    field, cap, largest, delta = _SWEEPS[inst.variant]
    d = inst.__dict__
    start, r = d[field], d["row_sums"]
    caps = None if cap is None else d[cap]
    try:
        try:
            return _speedups.sweep(start, r, largest, delta, policy.kind, policy.seed, caps)
        except ValueError as refusal:
            return _retried_sweep(refusal, start, r, largest, delta, policy, caps)
    except InfeasibleError as exc:
        # A row above n is named as such; only a capped sweep can strand a
        # row that fits.
        _check_rows(r, inst.n)
        raise InfeasibleError(f"variant {inst.variant}: {exc}") from None


def _instance_rounds(inst: Instance) -> tuple[IntVector, bool, int, Optional[IntVector]]:
    """Start profile, side, step and caps of the instance's sweep, once the
    rows are checked."""
    _check_rows(inst.row_sums, inst.n)
    start, cap, largest, delta = _SWEEPS[inst.variant]
    return getattr(inst, start), largest, delta, None if cap is None else getattr(inst, cap)


def feasible(inst: Instance) -> bool:
    """Whether some completion exists: the row sums fit under the column caps.

    Every variant but ``min_combined`` caps column j at ``ceiling[j]``.  The
    capped sweeps are greedy and can still stop on an instance this accepts.
    """
    if inst.variant == "min_combined":
        return all(v <= inst.n for v in inst.row_sums)
    from . import completion

    return completion.feasible_min_remaining(inst.ceiling, inst.row_sums)


def enumerate_optima(inst: Instance, cap: int = 1_000_000) -> dict[IntVector, Matrix]:
    """Every objective vector reachable by some resolution of the ties.

    For the uncapped variants this is exactly the set of optimal objective
    vectors: every least element of the attainable set arises from some tie
    resolution, and nothing else does.  For the capped variants it is the
    reachable set of the greedy sweep, which can differ from the optimum
    set when caps bind.

    Row by row over all tie resolutions: each row maps every distinct
    running profile to the picks of the first path that reached it, so
    permuted choice orders are explored once.  Returns one witness matrix
    per distinct objective, read-only ``uint8`` arrays, keyed in the order
    the search first reached them.  Raises once the number of distinct
    states passes ``cap``.

    The search runs compiled (``_speedups.search_ties``), so without the
    build it raises ``_speedups.BuildError``.  A profile within m of an
    int64 limit is searched rank compressed and its keys moved back, as
    every sweep is (``_retried``).  A search stopped by ``cap`` raises
    ``BudgetExceededError`` with ``draws``, the children it drew.
    """
    start, largest, delta, caps = _instance_rounds(inst)
    r = inst.row_sums
    if inst.variant == "min_remaining" and not feasible(inst):
        raise InfeasibleError(f"ceiling {inst.ceiling} cannot absorb row sums {r}")
    if cap < 1:  # the start profile alone passes it
        raise BudgetExceededError(f"tie enumeration passed {cap} distinct states")
    try:
        keys, cells = _speedups.search_ties(start, r, largest, delta, caps, cap)
    except ValueError as refusal:
        (keys, cells), shift = _retried(refusal, _speedups.search_ties, start, r, largest, delta, caps, cap)
        keys = [_shifted(key, shift) for key in keys]
    import numpy as np

    witnesses = _frozen(np.frombuffer(cells, dtype=np.uint8).reshape(len(keys), len(r), inst.n))
    return dict(zip(keys, witnesses))
