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
C sweep (built from ``_sweep.c`` and its CPython binding on first import):
``_sweep_result`` hands the profile, the row sums, the policy's name and
seed and any column caps to ``_speedups.sweep``, which alone knows the C
calling convention.  One C call converts them, sweeps, and returns the
final profile as the tuple that becomes the objective.  The C code's first
pass checks the row sums and the profile's distance from the int64
limits, so the solvers make no pass of their own; only when it
refuses an input do they rerun their checks, in their old order: a row
above n raises the error that names it, and a profile near the int64
limits is rank compressed and swept again.  The C sweep sorts the
columns once and carries that order from row to row, so each row sorts
only its threshold block: O(n log n + sum of r_i + t_i), with t_i the
columns in the blocks row i touches.  There is no other sweep: where the
build failed, every call that sweeps raises ``_speedups.BuildError``.
The C code writes the matrix into a ``bytearray``, handed back as
``Cells``, so a solve imports no numpy: ``SolveResult.matrix`` builds the
numpy array on first access.  Nor does a solve import
:mod:`majpop.completion`: only ``feasible`` and ``min_remaining_profile``
need it, and they import it when they run.  They import the module, not
a name from it: ``from .completion import name`` in a function costs
≈2 µs a call, most of it the failed lookup of ``__path__`` on a module
that is not a package.

Resolving every row's ties in every way, row by row, enumerates the full
set of optimal objective vectors; see :func:`enumerate_optima`.
"""

from itertools import accumulate, combinations
from typing import Optional, Sequence

from . import _speedups
from ._cells import Cells, Matrix
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

TIE_KINDS = tuple(_speedups.POLICIES)


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (new_state, output). Matches the kernel."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


class _Record:
    """A frozen record with the behaviour of a frozen dataclass.

    ``__init__`` writes the fields straight into the instance ``__dict__``;
    any later assignment or deletion raises ``AttributeError``, and the repr
    lists ``_fields`` in order.  Written out rather than made with
    ``dataclasses``, whose import (with ``inspect``, ``ast`` and ``dis``)
    and class generation were the largest part of ``import majpop.cli``,
    which every ``majpop solve`` process pays.  So ``dataclasses.fields``,
    ``replace``, ``asdict`` and ``is_dataclass`` do not apply to these
    records; positional ``match`` does, through ``__match_args__``.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


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


class SolveResult(_Record):
    """Solver output: witness matrix, objective in input order, sorted form.

    ``matrix`` is the read-only numpy ``uint8`` array.  The solvers store the
    sweep's ``Cells`` and the array is built on first access, so a result
    whose matrix is only written out never loads numpy.  Results compare
    and hash by identity.
    """

    _fields = __match_args__ = ("matrix", "objective", "canonical_objective", "feasible")

    def __init__(self, matrix: Matrix, objective: IntVector, canonical_objective: IntVector, feasible: bool):
        d = self.__dict__
        d["matrix"] = matrix
        d["objective"] = objective
        d["canonical_objective"] = canonical_objective
        d["feasible"] = feasible

    @property
    def matrix(self) -> Matrix:
        # A property is read before the ``__dict__`` entry of its name, which
        # keeps what the record was given (array-like either way, as
        # ``vars(result)`` shows it); ``Cells`` read as their array.
        value = self.__dict__["matrix"]
        return value.array() if isinstance(value, Cells) else value

    def to_json(self) -> dict:
        """The CLI payload.  ``"matrix"`` is the stored 0/1 value itself, not
        nested lists: for a solver's result, ``Cells``, which has ``.shape``
        and ``.tolist()`` and needs no numpy (``numpy.asarray`` on it gives
        the array).  ``majpop.cli._emit`` writes it as JSON text straight
        from its bytes."""
        return {
            "feasible": self.feasible,
            "objective": list(self.objective),
            "canonical_objective": list(self.canonical_objective),
            "matrix": self.__dict__["matrix"],
        }


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


def _split_selection(
    values: Sequence[int], need: int, largest: bool, allowed: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Forced picks, tied candidates (index order), and how many ties to take."""
    if need == 0:
        return [], [], 0
    if need > len(allowed):
        raise InfeasibleError(
            f"a row needs {need} columns but only {len(allowed)} remain below their caps"
        )
    thr = sorted([values[j] for j in allowed], reverse=largest)[need - 1]
    forced = []
    ties = []
    for j in allowed:
        v = values[j]
        if v == thr:
            ties.append(j)
        elif (largest and v > thr) or (not largest and v < thr):
            forced.append(j)
    return forced, ties, need - len(forced)


def _rank_compressed(start: IntVector, m: int) -> list[int]:
    """``start`` ranked from 0, each gap between sorted distinct values cut to at most m + 1."""
    distinct = sorted(set(start))
    gaps = (min(b - a, m + 1) for a, b in zip(distinct, distinct[1:]))
    ranks = dict(zip(distinct, accumulate(gaps, initial=0)))
    return [ranks[s] for s in start]


def _sweep_result(
    start: IntVector,
    r: IntVector,
    largest: bool,
    delta: int,
    policy: TiePolicy,
    caps: Optional[IntVector] = None,
) -> SolveResult:
    """Sweep the rows; a negative entry certifies infeasibility.

    Nothing is checked before the compiled sweep, whose first pass checks
    the row sums and the profile.  Only when it refuses them do the checks
    run here, in their old order: a row above n raises the InfeasibleError
    that names it, and a profile within m of an int64 limit is swept rank
    compressed and moved back after, since values m + 1 or more apart
    compare alike through m rows.  Without the compiled sweep it raises
    ``_speedups.BuildError``."""
    try:
        objective, a = _speedups.sweep(start, r, largest, delta, policy.kind, policy.seed, caps)
    except ValueError:
        _check_rows(r, len(start))
        m = len(r)
        if _speedups.fits(min(start), max(start), m):
            raise
        packed = _rank_compressed(start, m)
        moved, a = _speedups.sweep(packed, r, largest, delta, policy.kind, policy.seed, caps)
        objective = tuple([s + v - p for s, v, p in zip(start, moved, packed)])
    canonical = sort_desc(objective)
    return SolveResult(a, objective, canonical, delta > 0 or canonical[-1] >= 0)


def peak_shave(ceiling, row_sums, policy: TiePolicy = LOWEST_INDEX) -> SolveResult:
    """Shave a ceiling profile: each row subtracts from its largest entries.

    Always runs to completion; a negative entry in the final objective is
    the certificate that no valid completion exists, reported through
    ``feasible`` rather than an exception.
    """
    c = as_vector(ceiling, "ceiling", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    if not c:
        raise ValueError("ceiling must have at least one entry")
    return _sweep_result(c, r, largest=True, delta=-1, policy=policy)


def valley_fill(base, row_sums, policy: TiePolicy = LOWEST_INDEX) -> SolveResult:
    """Fill a base profile: each row adds onto its smallest entries."""
    b = as_vector(base, "base", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    if not b:
        raise ValueError("base must have at least one entry")
    return _sweep_result(b, r, largest=False, delta=+1, policy=policy)


def min_remaining_profile(ceiling, row_sums) -> IntVector:
    """Canonical (nonincreasing) optimal remaining profile for a feasible setup."""
    from . import completion

    c = as_vector(ceiling, "ceiling", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    if not completion._feasible_min_remaining(c, r):
        raise InfeasibleError(f"ceiling {c} cannot absorb row sums {r}")
    if not c:
        return ()
    return _sweep_result(c, r, True, -1, LOWEST_INDEX).canonical_objective


def min_combined_profile(base, row_sums) -> IntVector:
    """Canonical (nonincreasing) optimal combined profile; always exists."""
    b = as_vector(base, "base", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    if not b:
        _check_rows(r, 0)
        return ()
    return _sweep_result(b, r, False, +1, LOWEST_INDEX).canonical_objective


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
    start, cap, largest, delta = _SWEEPS[inst.variant]
    caps = None if cap is None else getattr(inst, cap)
    try:
        return _sweep_result(getattr(inst, start), inst.row_sums, largest, delta, policy, caps)
    except InfeasibleError as exc:
        # A row above n is named as such; only a capped sweep can strand a
        # row that fits.
        _check_rows(inst.row_sums, inst.n)
        raise InfeasibleError(f"variant {inst.variant}: {exc}") from None


def _instance_rounds(inst: Instance) -> tuple[IntVector, bool, int, Optional[IntVector]]:
    """Start profile, side, step and caps of the instance's sweep; checks the rows."""
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
    per distinct objective.  Raises once the number of distinct states
    passes ``cap``.
    """
    start, largest, delta, caps = _instance_rounds(inst)
    r = inst.row_sums
    n = inst.n
    if inst.variant == "min_remaining" and not feasible(inst):
        raise InfeasibleError(f"ceiling {inst.ceiling} cannot absorb row sums {r}")
    over = f"tie enumeration passed {cap} distinct states"
    states = 1  # the start profile
    if states > cap:
        raise BudgetExceededError(over)
    level: dict[IntVector, tuple[tuple[int, ...], ...]] = {start: ()}
    for need in r:
        nxt: dict[IntVector, tuple[tuple[int, ...], ...]] = {}
        for values, rows in level.items():
            allowed = range(n)
            if caps is not None:
                # delta in {+1,-1} recovers per-column placements
                allowed = [j for j in allowed if (values[j] - start[j]) * delta < caps[j]]
            try:
                forced, ties, k = _split_selection(values, need, largest, allowed)
            except InfeasibleError:
                continue  # this branch painted itself into a corner
            taken = list(values)
            for j in forced + ties:
                taken[j] += delta
            # Each child leaves one combination of the ties out.  Complements
            # in lexicographic order are the picks in reverse lexicographic
            # order; that order, pinned by the tests, decides the key order
            # and which path's witness each profile keeps.
            for out in combinations(ties, len(ties) - k):
                child = taken.copy()
                for j in out:
                    child[j] -= delta
                child = tuple(child)
                if child not in nxt:
                    states += 1
                    if states > cap:
                        raise BudgetExceededError(over)
                    nxt[child] = rows + (tuple(forced + [j for j in ties if j not in out]),)
        level = nxt
    m = len(r)
    results: dict[IntVector, Matrix] = {}
    for values, rows in level.items():
        a = bytearray(m * n)
        for i, cols in enumerate(rows):
            for j in cols:
                a[i * n + j] = 1
        results[values] = Cells(a, (m, n)).array()
    return results
