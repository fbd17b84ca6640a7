"""Independent brute-force ground truth for desk-scale instances.

Everything here recomputes from first principles what the fast paths derive
from theory: the full set of attainable column-sum vectors and objective
values, minimal/maximal elements under majorization, exhaustive matrix
enumeration by backtracking, and lattice bounds by scanning all partitions.
:func:`certify` bundles the claims the solvers rely on into one
machine-checkable report.

Enumeration works over column-sum vectors rather than matrices: a vector is
realizable as column sums exactly when it is majorized by the conjugate row
sums, so the search space stays polynomial in the totals while the matrix
witnesses are materialized only on demand.

The public helpers here validate what they are given, like the rest of the
package.  Inside :func:`certify` the enumerated vectors are valid by
construction, so its hot loops call the unchecked lattice cores and decide
each majorization test once per sorted form.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import lattice
from .completion import Matrix, _frozen
from .errors import BudgetExceededError, InfeasibleError, LengthMismatchError
from .majorization import IntVector, as_vector, conjugate, majorized, sort_desc
from .solvers import Instance, SolveResult, enumerate_optima, feasible, solve

DEFAULT_MAX_COLS = 7
DEFAULT_MAX_TOTAL = 14


@dataclass(frozen=True)
class AttainableSet:
    """Exact feasible column-sum vectors and the objective values they induce."""

    variant: str
    column_sets: frozenset[IntVector]
    vectors: frozenset[IntVector]

    @cached_property
    def canonical_vectors(self) -> frozenset[IntVector]:
        return frozenset(sort_desc(v) for v in self.vectors)


@dataclass(frozen=True)
class CheckRecord:
    claim: str
    description: str
    passed: bool
    witness: str = ""

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "description": self.description,
            "passed": self.passed,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class CertificationReport:
    variant: str
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.records)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "passed": self.passed,
            "checks": [rec.to_json() for rec in self.records],
        }


def _column_vectors(
    n: int, total: int, upper: Sequence[int], threshold: IntVector
) -> list[IntVector]:
    """All x >= 0 with the given total, x <= upper, and x majorized by threshold.

    ``n`` is at least 1.  Majorization reads only the sorted form, so the
    leaf test is decided once per sorted form and looked up for its
    rearrangements.
    """
    out: list[IntVector] = []
    suffix_capacity = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_capacity[j] = suffix_capacity[j + 1] + upper[j]
    below: dict[IntVector, bool] = {}
    last = n - 1
    # Depth first on an explicit stack, larger entries first; a child whose
    # remainder the later columns cannot hold is never pushed.
    stack = [(0, total, ())] if total <= suffix_capacity[0] else []
    while stack:
        j, remaining, partial = stack.pop()
        if j == last:  # the last entry is whatever the total leaves
            x = partial + (remaining,)
            key = sort_desc(x)
            ok = below.get(key)
            if ok is None:
                ok = below[key] = majorized(key, threshold)
            if ok:
                out.append(x)
            continue
        # Pushed smallest first, so the largest value is popped first.
        for v in range(max(remaining - suffix_capacity[j + 1], 0), min(upper[j], remaining) + 1):
            stack.append((j + 1, remaining - v, partial + (v,)))
    return out


def enumerate_attainable(
    inst: Instance,
    max_cols: int = DEFAULT_MAX_COLS,
    max_total: int = DEFAULT_MAX_TOTAL,
) -> AttainableSet:
    """Exhaustively enumerate the feasible and attainable sets of an instance."""
    r = inst.row_sums
    n = inst.n
    total = sum(r)
    if n > max_cols or total > max_total:
        raise BudgetExceededError(
            f"instance with n={n}, total={total} exceeds the enumeration budget "
            f"(max_cols={max_cols}, max_total={max_total})"
        )
    if any(v > n for v in r):
        return AttainableSet(inst.variant, frozenset(), frozenset())
    t = conjugate(r, n)
    peak = t[0] if t else 0
    if inst.variant == "min_combined":
        upper = [peak] * n
    else:
        upper = [min(cj, peak) for cj in inst.ceiling]
    xs = _column_vectors(n, total, upper, t)
    if inst.variant == "min_remaining":
        vectors = frozenset(tuple(a - b for a, b in zip(inst.ceiling, x)) for x in xs)
    elif inst.variant == "general_min":
        vectors = frozenset(tuple(a - b for a, b in zip(inst.reference, x)) for x in xs)
    else:
        vectors = frozenset(tuple(a + b for a, b in zip(inst.base, x)) for x in xs)
    return AttainableSet(inst.variant, frozenset(xs), vectors)


def _extremal_elements(vectors: Iterable[Sequence[int]], name: str, lowest: bool) -> set[IntVector]:
    """Members whose sorted form has no other sorted form strictly below it
    (``lowest``) or strictly above it under majorization.

    Each distinct sorted form gets its prefix sums once; forms with unequal
    totals are incomparable.
    """
    vs = [tuple(v) for v in vectors]
    if not vs:
        raise ValueError(f"{name} needs a nonempty set")
    forms = [sort_desc(v) for v in vs]
    prefix = {key: tuple(accumulate(key)) for key in forms}
    first = forms[0]
    for key in prefix:
        if len(key) != len(first):
            raise LengthMismatchError(
                f"vectors have lengths {len(first)} and {len(key)}; pad the shorter one explicitly"
            )

    def dominated(pu: IntVector) -> bool:
        for pw in prefix.values():
            if pw is pu or pw[-1:] != pu[-1:]:
                continue
            lo, hi = (pw, pu) if lowest else (pu, pw)
            if all(a <= b for a, b in zip(lo, hi)):
                return True
        return False

    keep = {key for key, pu in prefix.items() if not dominated(pu)}
    return {v for v, key in zip(vs, forms) if key in keep}


def minimal_elements(vectors: Iterable[Sequence[int]]) -> set[IntVector]:
    """Members that no other member strictly majorizes from below."""
    return _extremal_elements(vectors, "minimal_elements", lowest=True)


def maximal_elements(vectors: Iterable[Sequence[int]]) -> set[IntVector]:
    """Members that no other member strictly majorizes from above."""
    return _extremal_elements(vectors, "maximal_elements", lowest=False)


def bruteforce_meet(x: Sequence[int], y: Sequence[int]) -> IntVector:
    """Greatest lower bound found by scanning every partition of the total."""
    a = as_vector(x, nonnegative=True)
    b = as_vector(y, nonnegative=True)
    below = [
        z for z in lattice.partitions(sum(a), len(a)) if majorized(z, a) and majorized(z, b)
    ]
    tops = [z for z in below if all(majorized(w, z) for w in below)]
    if len(tops) != 1:
        raise ValueError(f"no unique greatest lower bound for {a} and {b}")
    return tops[0]


def bruteforce_join(x: Sequence[int], y: Sequence[int]) -> IntVector:
    """Least upper bound found by scanning every partition of the total."""
    a = as_vector(x, nonnegative=True)
    b = as_vector(y, nonnegative=True)
    above = [
        z for z in lattice.partitions(sum(a), len(a)) if majorized(a, z) and majorized(b, z)
    ]
    bottoms = [z for z in above if all(majorized(z, w) for w in above)]
    if len(bottoms) != 1:
        raise ValueError(f"no unique least upper bound for {a} and {b}")
    return bottoms[0]


def _matrices(r: IntVector, x: IntVector) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every 0/1 matrix with line sums r and x, as a tuple of rows, by direct
    backtracking: row by row, each row's ones in ``combinations`` order.  The
    rows' ``combinations`` iterators sit on an explicit stack, so a tall
    instance does not recurse once per row."""
    m, n = len(r), len(x)
    if sum(r) != sum(x) or any(v > n for v in r) or any(v > m for v in x):
        return
    if m == 0:
        yield ()
        return
    remaining = list(x)

    def choices(i: int) -> Iterator[tuple[int, ...]]:
        return combinations([j for j in range(n) if remaining[j] > 0], r[i])

    picked: list[tuple[int, ...]] = []  # each placed row's ones
    rows: list[tuple[int, ...]] = []  # the same rows as 0/1 tuples
    trials = [choices(0)]
    while trials:
        if len(picked) == len(trials):  # undo this row's last choice
            for j in picked.pop():
                remaining[j] += 1
            rows.pop()
        cols = next(trials[-1], None)
        if cols is None:
            trials.pop()
            continue
        row = [0] * n
        for j in cols:
            row[j] = 1
            remaining[j] -= 1
        picked.append(cols)
        rows.append(tuple(row))
        i = len(rows)
        if i == m:
            if all(v == 0 for v in remaining):
                yield tuple(rows)
        # The m - i rows still to come can absorb at most m - i units per column.
        elif all(v <= m - i for v in remaining):
            trials.append(choices(i))


def all_matrices(r, x, cap: int = 200_000) -> list[Matrix]:
    """Every 0/1 matrix with the given line sums, by direct backtracking."""
    rv = as_vector(r, name="row_sums", nonnegative=True)
    xv = as_vector(x, name="col_sums", nonnegative=True)
    found: list[Matrix] = []
    for rows in _matrices(rv, xv):
        if len(found) >= cap:
            raise BudgetExceededError(f"more than {cap} matrices")
        found.append(_frozen(np.array(rows, dtype=np.uint8).reshape(len(rv), len(xv))))
    return found


def matrix_exists(r, x) -> bool:
    """Backtracking existence check, independent of the conjugate-based test."""
    rv = as_vector(r, name="row_sums", nonnegative=True)
    xv = as_vector(x, name="col_sums", nonnegative=True)
    return next(_matrices(rv, xv), None) is not None


# Claim name -> the description every report gives it.
_CLAIMS = {
    "essential_uniqueness": "all optimal objective values share one sorted rearrangement",
    "solver_output_attainable": "the capped greedy returns an attainable objective vector",
    "canonical_extremum_matches_solver": (
        "the shared sorted optimum bounds every attainable value and equals the solver output"
    ),
    "tie_branch_completeness": "branching over every tie reaches exactly the optimal objective vectors",
    "canonical_column_lattice_closed": "sorted feasible column-sum vectors are closed under meet and join",
    "feasibility_formula_matches_enumeration": (
        "the conjugate-based feasibility test agrees with exhaustive search"
    ),
    "solver_feasibility_certificate": "the solver's feasibility report matches exhaustive search",
    "sum_of_squares_scalarization": (
        "the canonical optimum optimizes the strictly order-preserving sum of squares"
    ),
    "claimed_absent_vector": "the supplied vector is missing from the canonical attainable set",
}
_VACUOUS = "vacuous: attainable set is empty"


def _sumsq(v: Sequence[int]) -> int:
    return sum(e * e for e in v)


def certify(
    inst: Instance,
    max_cols: int = DEFAULT_MAX_COLS,
    max_total: int = DEFAULT_MAX_TOTAL,
    branch_cap: int = 1_000_000,
    absent_canonical: Optional[Sequence[int]] = None,
) -> CertificationReport:
    """Check every solver-level claim against exhaustive enumeration.

    Records, in order: essential uniqueness of optimal objective values; the
    canonical optimum is the least element and matches the solver; tie
    branching reaches exactly the optimal vectors; the canonical feasible
    set is closed under lattice meet and join; the closed-form feasibility
    test agrees with enumeration; the solver's negativity certificate agrees
    with enumeration; the canonical optimum minimizes the sum of squares;
    and, when a candidate is supplied, that its sorted form is absent from
    the canonical attainable set.

    The solver-optimality and tie-completeness claims are guaranteed only
    for the uncapped variants; for ``general_min`` and ``general_max`` those
    records are replaced by an attainability check of the greedy output,
    since a binding cap can push the sweep off the extremal value.
    ``general_max`` gets no essential-uniqueness record: with binding caps
    its attainable set can have several incomparable maximal elements.
    (The least-majorized element that ``general_min`` needs exists on any
    M-convex set; Tamir 1995.)
    """
    exact_scope = inst.variant in ("min_remaining", "min_combined")
    aset = enumerate_attainable(inst, max_cols=max_cols, max_total=max_total)
    nonempty = bool(aset.column_sets)
    records: list[CheckRecord] = []

    def record(claim: str, ok: bool, witness: str = "") -> None:
        records.append(CheckRecord(claim, _CLAIMS[claim], ok, witness))

    result: Optional[SolveResult] = None
    solve_error = ""
    try:
        result = solve(inst)
    except InfeasibleError as exc:
        solve_error = str(exc)

    canonicals = sorted(aset.canonical_vectors)
    star: Optional[IntVector] = None
    if inst.variant == "general_max":
        pass  # several incomparable maximal elements are possible; see above
    elif nonempty:
        extremal = sorted({sort_desc(v) for v in minimal_elements(aset.vectors)})
        ok = len(extremal) == 1
        record("essential_uniqueness", ok, "" if ok else f"distinct sorted optima: {extremal}")
        if ok:
            star = extremal[0]
    else:
        record("essential_uniqueness", True, _VACUOUS)

    if not exact_scope:
        if nonempty and result is not None:
            ok = result.objective in aset.vectors
            record("solver_output_attainable", ok, "" if ok else f"{result.objective} not attainable")
        else:
            # A stopped sweep is the documented outcome when caps strand a
            # row, so there is no output to judge here.
            record("solver_output_attainable", True, solve_error or _VACUOUS)
    elif star is not None:
        bound_ok = all(majorized(star, u) for u in canonicals)
        if result is None:
            ok, witness = False, f"solver refused a nonempty instance: {solve_error}"
        else:
            ok = bound_ok and result.canonical_objective == star
            witness = "" if ok else (
                f"expected {star}, solver gave {result.canonical_objective}, bound_ok={bound_ok}"
            )
        record("canonical_extremum_matches_solver", ok, witness)
    else:
        record("canonical_extremum_matches_solver", True, _VACUOUS)

    if exact_scope:
        if star is not None:
            want = {v for v in aset.vectors if sort_desc(v) == star}
            got = set(enumerate_optima(inst, cap=branch_cap))
            ok = got == want
            record(
                "tie_branch_completeness",
                ok,
                "" if ok else f"missing: {sorted(want - got)}; extra: {sorted(got - want)}",
            )
        else:
            record("tie_branch_completeness", True, _VACUOUS)

    if nonempty:
        # Sorted feasible vectors share one length and total, so the
        # unchecked lattice cores apply.
        closed = {sort_desc(x) for x in aset.column_sets}
        bad = ""
        for a, b in combinations(sorted(closed), 2):
            lo = lattice._meet(a, b)
            hi = lattice._join(a, b)
            if lo not in closed or hi not in closed:
                bad = f"pair {a}, {b} gives meet {lo} join {hi}"
                break
        record("canonical_column_lattice_closed", bad == "", bad)
    else:
        record("canonical_column_lattice_closed", True, _VACUOUS)

    formula = feasible(inst)
    ok = formula == nonempty
    record(
        "feasibility_formula_matches_enumeration",
        ok,
        "" if ok else f"formula says {formula}, enumeration says {nonempty}",
    )

    if exact_scope:
        # Negativity of the final profile is the infeasibility certificate;
        # a reference vector distinct from the ceiling has no such reading.
        if result is not None:
            ok = result.feasible == nonempty
        else:
            ok = not nonempty  # the solver refused exactly when nothing is attainable
        record(
            "solver_feasibility_certificate",
            ok,
            "" if ok else f"solver: {result.feasible if result else solve_error!r}, enumeration: {nonempty}",
        )

    if star is not None and exact_scope:
        best = min(map(_sumsq, canonicals))
        ok = _sumsq(star) == best
        record(
            "sum_of_squares_scalarization",
            ok,
            "" if ok else f"sumsq(optimum)={_sumsq(star)} but best attainable is {best}",
        )
    elif exact_scope:
        record("sum_of_squares_scalarization", True, _VACUOUS)

    if absent_canonical is not None:
        key = sort_desc(absent_canonical)
        ok = key not in aset.canonical_vectors
        record("claimed_absent_vector", ok, "" if ok else f"{key} is attainable")

    return CertificationReport(inst.variant, tuple(records))
