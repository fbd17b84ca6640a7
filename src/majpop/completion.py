"""Feasibility tests and constructive machinery for 0/1 matrices with line sums.

Matrices are numpy ``uint8`` arrays with entries in {0, 1}.  The sweeps
write theirs as :class:`Cells` (defined in ``majpop._cells``, so that a
solve does not import this module, and re-exported here), row-major bytes
and a shape, and the numpy
array is built from those on first use, so a caller that never asks for it
never imports numpy; neither does importing this module.  The class of
interest is all m-by-n such matrices with row sums ``r`` and column sums
``x``; it is nonempty exactly when ``x`` is majorized by the conjugate of
``r`` taken at dimension n.  That Gale-Ryser test is decided in one place,
:func:`_absorbs`, in C on the hull of the solvers' canonical profile
(``_speedups.profile``), in O(m + n log n), for
:func:`feasible_min_remaining`, :func:`gale_ryser_feasible` and
:func:`construct_matrix` alike; the Python prefix loop of
:func:`_line_sum_violation` runs only after :func:`_absorbs` has said no,
to name the cause.  :func:`geth_vector` takes O(n log n), and
:func:`construct_matrix` is one row sweep of the solvers, O(mn) when
compiled; only :func:`enumerate_matrices` is desk-scale.
"""

from itertools import accumulate

from ._cells import Cells, Matrix, _frozen
from .errors import BudgetExceededError, InfeasibleError, InternalInvariantError, LengthMismatchError
from .majorization import (
    IntVector,
    as_vector,
    conjugate,
    is_nonincreasing,
    majorized,
    sort_desc,
    weakly_supermajorized,
)


def make_matrix(rows) -> Matrix:
    """Build a 0/1 matrix from nested row data, validating entries."""
    import numpy as np

    src = np.array(rows, dtype=np.int64)
    if src.ndim != 2:
        raise ValueError(f"matrix must be two-dimensional, got shape {src.shape}")
    if not np.isin(src, (0, 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return _frozen(src.astype(np.uint8))


def row_sums(a: Matrix) -> IntVector:
    return tuple(int(s) for s in a.sum(axis=1))


def col_sums(a: Matrix) -> IntVector:
    return tuple(int(s) for s in a.sum(axis=0))


def matrix_rows(a: Matrix) -> tuple[tuple[int, ...], ...]:
    """Hashable tuple-of-rows form, handy for set membership in tests."""
    return tuple(tuple(int(v) for v in row) for row in a)


def _absorbs(c: IntVector, r: IntVector) -> bool:
    """Whether capacities ``c`` admit a 0/1 matrix with row sums ``r`` and
    column sums at most ``c``, both already vectors of ints.

    Negative entries and rows wider than ``c`` make the class empty.  The
    rest is one C pass, ``_speedups.profile``: the peak shave of ``c`` by
    ``r`` leaves no entry below 0 exactly when ``c`` is weakly
    supermajorized by the conjugate of ``r``.  The same pass cross-checks
    that sign test against the supermajorization, and the supermajorization
    against the equivalent submajorization of ``r`` by the conjugate of
    ``c`` clamped to m; a disagreement raises InternalInvariantError, a bug
    rather than an input problem.  No column takes more than m units, so a
    ceiling of 2**64 or more is clamped to m first, which keeps the answer.
    Feasibility needs no sweep, so where the build failed the
    supermajorization is tested on the prefix sums in Python instead.
    When the totals are equal, no entry below 0 means every entry at 0, so
    this is also the Gale-Ryser test of row sums ``r`` and column sums ``c``.
    """
    from . import _speedups

    n, m = len(c), len(r)
    if min(c, default=0) < 0 or min(r, default=0) < 0 or max(r, default=0) > n:
        return False
    if not n:
        return True
    if max(c) > _speedups._MASK64:
        c = [min(v, m) for v in c]
    try:
        return _speedups.profile(c, r, True)[-1] >= 0
    except _speedups.BuildError:
        return weakly_supermajorized(c, conjugate(r, n))


def _line_sum_violation(r: IntVector, x: IntVector) -> str | None:
    """Reason the matrix class is empty, or None when :func:`_absorbs` finds
    it realizable; a refusal that no check below names is a bug, raised."""
    if sum(r) == sum(x) and _absorbs(x, r):
        return None
    m, n = len(r), len(x)
    if any(v < 0 for v in r):
        return "row sums contain a negative entry"
    if any(v < 0 for v in x):
        return "column sums contain a negative entry"
    for i, v in enumerate(r):
        if v > n:
            return f"row_sums[{i}] = {v} exceeds the number of columns {n}"
    for j, v in enumerate(x):
        if v > m:
            return f"col_sums[{j}] = {v} exceeds the number of rows {m}"
    if sum(r) != sum(x):
        return f"total row sum {sum(r)} differs from total column sum {sum(x)}"
    for k, (px, pt) in enumerate(zip(accumulate(sort_desc(x)), accumulate(conjugate(r, n))), start=1):
        if px > pt:
            return (
                f"prefix {k} of the sorted column sums is {px}, "
                f"exceeding the conjugate row-sum prefix {pt}"
            )
    raise InternalInvariantError(f"the prefix tests disagree on row sums {r}, column sums {x}")


def gale_ryser_feasible(r, x) -> bool:
    """Whether some 0/1 matrix has row sums ``r`` and column sums ``x``.

    Malformed line sums (negative entries, sums that cannot fit) make the
    class empty, so they return False rather than raising.
    """
    try:
        rv = as_vector(r, name="row_sums")
        xv = as_vector(x, name="col_sums")
    except ValueError:
        return False
    return _line_sum_violation(rv, xv) is None


def feasible_min_remaining(c, r) -> bool:
    """Whether capacities ``c`` admit a completion with row sums ``r``.

    Negative entries and rows wider than ``c`` make the class empty; the
    test itself is :func:`_absorbs`, one C pass where the build succeeded.
    """
    return _absorbs(as_vector(c, name="ceiling"), as_vector(r, name="row_sums"))


def construct_matrix(r, x) -> Matrix:
    """Build one matrix in the class: the lowest-index peak shave of ``x`` by ``r``.

    Each row places its ones in the columns with the largest remaining
    column-sum demand, lowest index first on ties, so the whole build is one
    row sweep.  Infeasible sums raise, naming the first violated condition
    (:func:`_line_sum_violation`, whose test is :func:`_absorbs`).
    """
    from . import _speedups  # here, so that importing this module builds no C sweep

    rv = as_vector(r, name="row_sums")
    xv = as_vector(x, name="col_sums")
    reason = _line_sum_violation(rv, xv)
    if reason is not None:
        raise InfeasibleError(f"no 0/1 matrix has these line sums: {reason}")
    if not xv:
        return Cells(b"", (len(rv), 0)).array()
    shaved = _speedups.sweep(xv, rv, True, -1, "lowest_index", 0)
    if any(shaved.objective):
        raise InternalInvariantError(f"greedy construction left demand {list(shaved.objective)}")
    return shaved.matrix


def interchange(a: Matrix, i: int, j: int, p: int, q: int) -> Matrix:
    """Flip the 2x2 pattern [[0,1],[1,0]] at rows i,j and columns p,q.

    Row and column sums are unchanged; the exact pattern must be present.
    """
    if not (a[i, p] == 0 and a[i, q] == 1 and a[j, p] == 1 and a[j, q] == 0):
        raise ValueError(
            f"rows ({i},{j}) x columns ({p},{q}) do not hold the 0/1 interchange pattern"
        )
    b = a.copy()
    b[i, p], b[i, q], b[j, p], b[j, q] = 1, 0, 0, 1
    return _frozen(b)


def enumerate_matrices(r, x, cap: int = 100_000) -> list[Matrix]:
    """All matrices in the class, as the interchange closure of one member.

    Any two members are connected by 2x2 interchanges, so a breadth-first
    closure from the greedy construction reaches every one.  Intended for
    small instances; raises once more than ``cap`` distinct matrices appear.
    Returns matrices sorted by their byte encoding for determinism.
    """
    seed = construct_matrix(r, x)
    seen: dict[bytes, Matrix] = {seed.tobytes(): seed}
    frontier = [seed]
    m, n = seed.shape
    while frontier:
        a = frontier.pop()
        for i in range(m):
            for j in range(i + 1, m):
                for p in range(n):
                    if a[i, p] == a[j, p]:
                        continue
                    for q in range(p + 1, n):
                        if a[i, q] == a[j, q] or a[i, p] == a[i, q]:
                            continue
                        b = a.copy()
                        b[i, p], b[i, q] = a[i, q], a[i, p]
                        b[j, p], b[j, q] = a[j, q], a[j, p]
                        key = b.tobytes()
                        if key not in seen:
                            if len(seen) >= cap:
                                raise BudgetExceededError(
                                    f"more than {cap} matrices in the class"
                                )
                            seen[key] = b
                            frontier.append(b)
    return [_frozen(seen[k]) for k in sorted(seen)]


def geth_vector(c, t) -> IntVector:
    """A vector majorized by ``t`` and elementwise at most ``c``.

    Requires ``c``, in any order, weakly supermajorized by ``t``.  Starting
    from ``x`` = ``c`` sorted nonincreasing (stably), repeatedly lower the
    entry at the current position until some suffix-sum inequality against
    ``t`` becomes tight, then jump left of the lowest tight suffix; O(n log n).
    The result goes back to ``c``'s order, so ``c[i] > c[j]`` implies
    ``out[i] >= out[j]``, and a nonincreasing ``c`` gives a nonincreasing output.
    """
    cv = as_vector(c, name="capacity", nonnegative=True)
    tv = as_vector(t, name="threshold", nonnegative=True)
    if len(cv) != len(tv):
        raise LengthMismatchError(f"capacity has length {len(cv)}, threshold {len(tv)}")
    if not is_nonincreasing(tv):
        raise ValueError("threshold vector must be nonincreasing")
    if not weakly_supermajorized(cv, tv):
        raise InfeasibleError(
            f"capacity {cv} is not weakly supermajorized by threshold {tv}: no such vector"
        )
    order = sorted(range(len(cv)), key=lambda i: -cv[i])
    x = [cv[i] for i in order]
    # slack[j]: suffix sum of x minus that of t from position j on.  Lowering
    # x[k] lowers every slack up to k alike, so the slacks are computed once;
    # first[k] is the first position of the least slack in 0..k.
    slack = list(accumulate(a - b for a, b in zip(reversed(x), reversed(tv))))[::-1]
    first = list(accumulate(range(len(x)), lambda p, j: j if slack[j] < slack[p] else p))
    lowered, k = 0, len(x) - 1
    while k >= 0:
        p = first[k]
        x[k] -= slack[p] - lowered
        lowered, k = slack[p], p - 1
    out = tuple(v for _, v in sorted(zip(order, x)))
    if not (majorized(out, tv) and all(a <= b for a, b in zip(out, cv))):
        raise InternalInvariantError(f"suffix tightening produced an invalid vector {out}")
    return out
