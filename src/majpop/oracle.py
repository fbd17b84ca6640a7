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

The enumeration works on whole arrays: every vector in the box the caps
allow is generated column by column in numpy, each is tested by the prefix
sums of its sorted form, and the objective vectors are the profile plus or
minus those rows, in int64 or, where an entry could pass int64, as Python
ints in object arrays.  Every tuple that leaves this module holds Python
ints.  Nothing here comes from the solvers.

The public helpers here validate what they are given, like the rest of the
package.  Inside :func:`certify` the enumerated vectors are valid by
construction, so its claims read only the distinct sorted forms, as whole
arrays: the distinct rows come from one ``lexsort`` in tuple order, "a is
majorized by b" is one ``<=`` over rows of prefix sums, taken in blocks of
at most ``_BLOCK`` matrix entries, and the closure check sends the
incomparable pairs, in blocks, to one unchecked array core for their meets
and joins.  Object arrays take the same path, so entries past int64 stay
exact.
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


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    """Each row of ``a`` in nonincreasing order."""
    return np.sort(a, axis=1)[:, ::-1]


def _lex_groups(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows of a 2-D array lexicographically, which
    is the order of their tuples (an object array sorts its Python ints
    exactly), and which of the sorted rows differ from the row before."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    first = np.ones(len(s), dtype=bool)
    first[1:] = (s[1:] != s[:-1]).any(axis=1)
    return order, first


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in lexicographic order."""
    order, first = _lex_groups(a)
    return a[order[first]]


def _prefix_sums(forms: np.ndarray) -> np.ndarray:
    """Prefix sums of each sorted form, with the negated total appended, so
    that "a is majorized by b" reads as one elementwise ``<=`` of their rows:
    ``a``'s prefix sums stay at or below ``b``'s and the totals agree.

    An int64 entry need not leave room for a sum of n of them, so int64
    forms whose sums could pass it are summed as Python ints."""
    if forms.dtype != object and forms.size:
        if max(int(forms.max()), -int(forms.min())) * forms.shape[1] >= 2**63:
            forms = forms.astype(object)
    prefix = np.cumsum(forms, axis=1)
    return np.concatenate((prefix, -prefix[:, -1:]), axis=1)


# Entries of the majorization matrix, and pairs sent to the lattice core,
# per numpy pass: certify's claims hold O(_BLOCK) rows at any budget.
_BLOCK = 1 << 14


def _majorized_blocks(lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The matrix "row r of ``lo`` is majorized by row c of ``hi``", from
    rows of :func:`_prefix_sums`, as ``(start, block)`` for consecutive
    blocks of ``lo``'s rows; ``block[r, c]`` answers for row ``start + r``."""
    step = max(1, _BLOCK // max(1, len(hi)))
    for start in range(0, len(lo), step):
        yield start, (lo[start:start + step, None, :] <= hi[None, :, :]).all(axis=2)


def _extremal_mask(prefix: np.ndarray, lowest: bool) -> np.ndarray:
    """Which distinct forms, given by :func:`_prefix_sums`, have no other
    form strictly below them (``lowest``) or strictly above them."""
    if lowest:  # w is below u exactly when -u's row is below -w's
        prefix = -prefix
    keep = np.empty(len(prefix), dtype=bool)
    for start, below in _majorized_blocks(prefix, prefix):
        rows = np.arange(len(below))
        below[rows, start + rows] = False
        keep[start:start + len(below)] = ~below.any(axis=1)
    return keep


def _rows_equal(a: np.ndarray, v: Sequence[int]) -> np.ndarray:
    """Which rows of ``a`` equal ``v``; ``v`` is read in ``a``'s dtype, so an
    object array compares exact Python ints."""
    return (a == np.array(v, dtype=a.dtype)).all(axis=1)


def _column_array(
    n: int, total: int, upper: Sequence[int], threshold: IntVector
) -> tuple[np.ndarray, np.ndarray]:
    """Every x >= 0 with the given total, x <= upper and x majorized by
    threshold, one per row of an int64 array, and the sorted forms of those
    rows, row for row.

    ``n`` is at least 1.  The box is expanded column by column: each partial
    row takes every value its column admits that leaves a remainder the
    later columns can hold, and the last column takes the remainder.  Then
    every row is tested by the prefix sums of its sorted form; the totals are
    equal by construction.
    """
    suffix = [*accumulate(upper[::-1], initial=0)][::-1]  # suffix[j] = sum(upper[j:])
    if total > suffix[0]:
        return np.zeros((0, n), dtype=np.int64), np.zeros((0, n), dtype=np.int64)
    xs = np.zeros((1, n), dtype=np.int64)
    rem = np.array([total], dtype=np.int64)
    for j in range(n - 1):
        if not rem.any():  # the later columns stay 0
            break
        lo = np.maximum(rem - suffix[j + 1], 0)
        hi = np.minimum(rem, upper[j])
        values = np.arange(int(hi.max()) + 1)
        rows, v = np.nonzero((values >= lo[:, None]) & (values <= hi[:, None]))
        xs = xs[rows]
        xs[:, j] = v
        rem = rem[rows] - v
    xs[:, n - 1] = rem
    forms = _sorted_rows(xs)
    keep = (np.cumsum(forms, axis=1) <= np.cumsum(threshold)).all(axis=1)
    return xs[keep], forms[keep]


def _attainable_arrays(
    inst: Instance, max_cols: int, max_total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The feasible column-sum vectors of ``inst``, the objective vectors
    they induce, and the sorted forms of the column-sum vectors, row for
    row: int64 arrays, but the objective vectors are an array of Python ints
    when an entry could pass int64."""
    r = inst.row_sums
    n = inst.n
    total = sum(r)
    if n > max_cols or total > max_total:
        raise BudgetExceededError(
            f"instance with n={n}, total={total} exceeds the enumeration budget "
            f"(max_cols={max_cols}, max_total={max_total})"
        )
    if inst.variant == "min_remaining":
        profile, sign = inst.ceiling, -1
    elif inst.variant == "general_min":
        profile, sign = inst.reference, -1
    else:
        profile, sign = inst.base, 1
    if any(v > n for v in r):
        xs = forms = np.zeros((0, n), dtype=np.int64)
    else:
        t = conjugate(r, n)
        if inst.variant == "min_combined":
            upper = [t[0]] * n
        else:
            upper = [min(cj, t[0]) for cj in inst.ceiling]
        xs, forms = _column_array(n, total, upper, t)
    # Against an object profile the int64 rows are added as Python ints.
    dtype = np.int64 if max(profile) + total < 2**63 else object
    return xs, np.array(profile, dtype=dtype) + sign * xs, forms


def enumerate_attainable(
    inst: Instance,
    max_cols: int = DEFAULT_MAX_COLS,
    max_total: int = DEFAULT_MAX_TOTAL,
) -> AttainableSet:
    """Exhaustively enumerate the feasible and attainable sets of an instance."""
    xs, vectors, _ = _attainable_arrays(inst, max_cols, max_total)
    return AttainableSet(
        inst.variant, frozenset(map(tuple, xs.tolist())), frozenset(map(tuple, vectors.tolist()))
    )


def _extremal_elements(vectors: Iterable[Sequence[int]], name: str, lowest: bool) -> set[IntVector]:
    """Members whose sorted form has no other sorted form strictly below it
    (``lowest``) or strictly above it under majorization.

    The distinct sorted forms go into one array, in int64 where every entry
    fits and as Python ints otherwise; forms with unequal totals are
    incomparable.
    """
    vs = [tuple(v) for v in vectors]
    if not vs:
        raise ValueError(f"{name} needs a nonempty set")
    forms = [sort_desc(v) for v in vs]
    first = forms[0]
    for key in forms:
        if len(key) != len(first):
            raise LengthMismatchError(
                f"vectors have lengths {len(first)} and {len(key)}; pad the shorter one explicitly"
            )
    keys = list(dict.fromkeys(forms))
    arr = np.array(keys).reshape(len(keys), len(first))
    if arr.dtype != np.int64:  # numpy reads ints past int64 as floats or objects
        arr = np.array(keys, dtype=object).reshape(len(keys), len(first))
    keep = {key for key, ok in zip(keys, _extremal_mask(_prefix_sums(arr), lowest)) if ok}
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


def _closure_witness(forms: np.ndarray) -> str:
    """The closure record's witness for the distinct sorted feasible forms,
    in lexicographic order: empty when every meet and join of two forms is
    a form, else the text for the first pair in ``combinations`` order whose
    meet or join is not.

    Only the incomparable pairs reach ``lattice._meet_join_pairs`` (see
    :func:`certify`), at most ``_BLOCK`` at a time, and no block after a
    failing one is computed.  The forms share one length and total, as
    that core needs.
    """
    prefix = _prefix_sums(forms)
    index = np.arange(len(forms))
    for start, below in _majorized_blocks(prefix, prefix):
        later = index > (start + np.arange(len(below)))[:, None]
        rows, cols = np.nonzero(later & ~below)  # row-major: combinations order
        for at in range(0, len(rows), _BLOCK):
            i, j = rows[at:at + _BLOCK] + start, cols[at:at + _BLOCK]
            meets, joins = lattice._meet_join_pairs(forms, i, j)
            # Equal rows share an id; a meet or join is a form when its id is.
            every = np.concatenate((forms, meets, joins))
            order, first = _lex_groups(every)
            ids = np.empty(len(every), dtype=np.intp)
            ids[order] = np.cumsum(first)
            known = np.zeros(len(every) + 1, dtype=bool)
            known[ids[:len(forms)]] = True
            found = known[ids[len(forms):]].reshape(2, len(i)).all(axis=0)
            if not found.all():
                k = int(np.argmin(found))
                a, b, lo, hi = (tuple(v[k].tolist()) for v in (forms[i], forms[j], meets, joins))
                return f"pair {a}, {b} gives meet {lo} join {hi}"
    return ""


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

    The closure check sends only the incomparable pairs of distinct sorted
    column-sum forms to ``lattice._meet_join_pairs``, in ``combinations``
    order and in blocks of at most ``_BLOCK`` pairs, and tests every meet
    and join for membership in one pass of row ids per block; its witness
    is the first failing pair.  Sorted forms of one total that satisfy
    a ≼ b also satisfy a ≤ b lexicographically, so in sorted order the
    only comparable case is a ≼ b, whose meet is a and whose join is b:
    both are in the set, and such a pair cannot fail.
    """
    exact_scope = inst.variant in ("min_remaining", "min_combined")
    if absent_canonical is not None and len(absent_canonical) != inst.n:
        raise LengthMismatchError(
            f"absent vector has {len(absent_canonical)} entries but the instance has {inst.n} columns"
        )
    xs, vectors, forms = _attainable_arrays(inst, max_cols, max_total)
    nonempty = len(xs) > 0
    records: list[CheckRecord] = []

    def record(claim: str, ok: bool, witness: str = "") -> None:
        records.append(CheckRecord(claim, _CLAIMS[claim], ok, witness))

    result: Optional[SolveResult] = None
    solve_error = ""
    try:
        result = solve(inst)
    except InfeasibleError as exc:
        solve_error = str(exc)

    # The claims below read the distinct sorted forms, in lexicographic
    # order, and match whole rows of the arrays otherwise.  The objective
    # rows are sorted once, and ``general_max`` without an absent vector
    # reads no sorted objective row.
    if inst.variant != "general_max" or absent_canonical is not None:
        sorted_vectors = _sorted_rows(vectors)
    star: Optional[IntVector] = None
    if inst.variant == "general_max":
        pass  # several incomparable maximal elements are possible; see above
    elif nonempty:
        canonical = _distinct_rows(sorted_vectors)
        prefix = _prefix_sums(canonical)
        least = np.flatnonzero(_extremal_mask(prefix, lowest=True))
        ok = len(least) == 1
        witness = "" if ok else f"distinct sorted optima: {list(map(tuple, canonical[least].tolist()))}"
        record("essential_uniqueness", ok, witness)
        if ok:
            star = tuple(canonical[least[0]].tolist())
    else:
        record("essential_uniqueness", True, _VACUOUS)

    if not exact_scope:
        if nonempty and result is not None:
            ok = bool(_rows_equal(vectors, result.objective).any())
            record("solver_output_attainable", ok, "" if ok else f"{result.objective} not attainable")
        else:
            # A stopped sweep is the documented outcome when caps strand a
            # row, so there is no output to judge here.
            record("solver_output_attainable", True, solve_error or _VACUOUS)
    elif star is not None:
        bound_ok = all(below.all() for _, below in _majorized_blocks(prefix[least], prefix))
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
            want = set(map(tuple, vectors[_rows_equal(sorted_vectors, star)].tolist()))
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
        bad = _closure_witness(_distinct_rows(forms))
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
        best = min(map(_sumsq, canonical.tolist()))
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
        ok = key not in map(tuple, sorted_vectors.tolist())
        record("claimed_absent_vector", ok, "" if ok else f"{key} is attainable")

    return CertificationReport(inst.variant, tuple(records))
