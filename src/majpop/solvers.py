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
C sweep (built from ``_sweep.c`` on first import): ``_sweep_result`` hands
the profile, the row sums, the policy's name and seed and any column caps to
``_speedups.sweep``, which alone knows the C calling convention.  The
interpreted twin ``_run_rounds_python`` runs only values too close to the
int64 limits for the kernel and every sweep on a machine where the build
failed; it is also the reference the kernel is tested against bit for bit.
Both write the matrix into a ``bytearray`` and hand it back as
``completion.Cells``, so a solve imports no numpy: ``SolveResult.matrix``
builds the numpy array on first access.

Resolving every row's ties in every way, row by row, enumerates the full
set of optimal objective vectors; see :func:`enumerate_optima`.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from . import _speedups
from ._speedups import _MASK64
from .completion import Cells, Matrix, feasible_min_remaining
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


@dataclass(frozen=True)
class TiePolicy:
    """How a solver breaks ties among equally attractive columns."""

    kind: str = "lowest_index"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TIE_KINDS:
            raise ValueError(f"unknown tie policy {self.kind!r}; expected one of {TIE_KINDS}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("tie policy seed must be an int")


LOWEST_INDEX = TiePolicy("lowest_index")
HIGHEST_INDEX = TiePolicy("highest_index")
LOAD_ORDER = TiePolicy("load_order")


def random_ties(seed: int) -> TiePolicy:
    return TiePolicy("uniform_random", seed)


@dataclass(frozen=True)
class Instance:
    """One problem setup: a variant tag plus the vectors it needs.

    ``min_remaining`` shaves a ceiling profile down; ``min_combined`` fills a
    base profile up.  ``general_min`` shaves a reference profile while column
    sums stay below a separate ceiling; ``general_max`` fills a base profile
    toward the most concentrated (majorization-greatest) combined load under
    the same column caps.
    """

    variant: str
    row_sums: tuple[int, ...]
    ceiling: Optional[tuple[int, ...]] = None
    base: Optional[tuple[int, ...]] = None
    reference: Optional[tuple[int, ...]] = None
    n: int = field(init=False, default=0, compare=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant: unknown value {self.variant!r}; expected one of {VARIANTS}")
        object.__setattr__(self, "row_sums", as_vector(self.row_sums, "row_sums", nonnegative=True))
        for name in ("ceiling", "base", "reference"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, as_vector(v, name, nonnegative=True))
        lengths = set()
        for name in _SWEEPS[self.variant][:2]:
            if name is None:
                continue
            v = getattr(self, name)
            if v is None:
                raise ValueError(f"{name}: required for variant {self.variant!r}")
            lengths.add(len(v))
        if len(lengths) != 1:
            raise ValueError(f"vectors for variant {self.variant!r} must share one length")
        n = lengths.pop()
        if n < 1:
            raise ValueError("instances need at least one column")
        object.__setattr__(self, "n", n)


class _MatrixField:
    """``SolveResult.matrix``: holds the sweep's ``Cells``, reads as their array.

    The instance keeps what it was given under ``matrix`` in its ``__dict__``
    (array-like either way, as ``vars(result)`` shows it), and reading the
    attribute turns ``Cells`` into the read-only numpy array, built once.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        value = obj.__dict__[self.name]
        return value.array() if isinstance(value, Cells) else value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solver output: witness matrix, objective in input order, sorted form.

    ``matrix`` is the read-only numpy ``uint8`` array.  The solvers store the
    sweep's ``Cells`` and the array is built on first access, so a result
    whose matrix is only written out never loads numpy.
    """

    matrix: Matrix = _MatrixField()
    objective: IntVector
    canonical_objective: IntVector
    feasible: bool

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
    for i, v in enumerate(r):
        if v > n:
            raise InfeasibleError(
                f"row_sums[{i}] = {v} exceeds the number of columns {n}: no row can hold it"
            )


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


def _pick_ties(
    ties: list[int],
    k: int,
    policy: TiePolicy,
    placed: list[int],
    largest: bool,
    state: int,
) -> tuple[list[int], int]:
    """Choose k of the tied columns; mirrors the compiled kernel bit for bit."""
    if k >= len(ties):
        return list(ties), state
    kind = policy.kind
    if kind == "lowest_index":
        return ties[:k], state
    if kind == "highest_index":
        return ties[-k:], state
    if kind == "load_order":
        if largest:
            order = sorted(ties, key=lambda j: (-placed[j], j))
        else:
            order = sorted(ties, key=lambda j: (-placed[j], -j))
        return order[:k], state
    pool = list(ties)
    for u in range(k):
        state, z = _splitmix64(state)
        w = u + z % (len(pool) - u)
        pool[u], pool[w] = pool[w], pool[u]
    return pool[:k], state


def _run_rounds_python(
    start: IntVector,
    r: IntVector,
    largest: bool,
    delta: int,
    policy: TiePolicy,
    caps: Optional[IntVector],
) -> tuple[list[int], Cells]:
    n = len(start)
    m = len(r)
    values = list(start)
    placed = [0] * n
    a = bytearray(m * n)
    state = policy.seed & _MASK64
    everything = list(range(n))
    for i, need in enumerate(r):
        if caps is None:
            allowed = everything
        else:
            allowed = [j for j in everything if placed[j] < caps[j]]
        forced, ties, k = _split_selection(values, need, largest, allowed)
        chosen, state = _pick_ties(ties, k, policy, placed, largest, state) if k > 0 else ([], state)
        for j in forced + chosen:
            values[j] += delta
            placed[j] += 1
            a[i * n + j] = 1
    return values, Cells(a, (m, n))


def _sweep_result(
    start: IntVector,
    r: IntVector,
    largest: bool,
    delta: int,
    policy: TiePolicy,
    caps: Optional[IntVector] = None,
) -> SolveResult:
    """Sweep rows already checked to fit; a negative entry certifies infeasibility."""
    if _speedups.KERNEL_AVAILABLE and _speedups.fits(min(start), max(start), len(r)):
        values, a = _speedups.sweep(start, r, largest, delta, policy.kind, policy.seed, caps)
    else:
        values, a = _run_rounds_python(start, r, largest, delta, policy, caps)
    objective = tuple(values)
    return SolveResult(a, objective, sort_desc(objective), delta > 0 or min(objective) >= 0)


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
    _check_rows(r, len(c))
    return _sweep_result(c, r, largest=True, delta=-1, policy=policy)


def valley_fill(base, row_sums, policy: TiePolicy = LOWEST_INDEX) -> SolveResult:
    """Fill a base profile: each row adds onto its smallest entries."""
    b = as_vector(base, "base", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    if not b:
        raise ValueError("base must have at least one entry")
    _check_rows(r, len(b))
    return _sweep_result(b, r, largest=False, delta=+1, policy=policy)


def min_remaining_profile(ceiling, row_sums) -> IntVector:
    """Canonical (nonincreasing) optimal remaining profile for a feasible setup."""
    c = as_vector(ceiling, "ceiling", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    if not feasible_min_remaining(c, r):
        raise InfeasibleError(f"ceiling {c} cannot absorb row sums {r}")
    if not c:
        return ()
    return peak_shave(c, r).canonical_objective


def min_combined_profile(base, row_sums) -> IntVector:
    """Canonical (nonincreasing) optimal combined profile; always exists."""
    b = as_vector(base, "base", nonnegative=True)
    r = as_vector(row_sums, "row_sums", nonnegative=True)
    _check_rows(r, len(b))
    if not b:
        return ()
    return valley_fill(b, r).canonical_objective


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
    start, largest, delta, caps = _instance_rounds(inst)
    try:
        return _sweep_result(start, inst.row_sums, largest, delta, policy, caps)
    except InfeasibleError as exc:
        # Only a capped sweep can strand a row once the row sums fit.
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
    return feasible_min_remaining(inst.ceiling, inst.row_sums)


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
