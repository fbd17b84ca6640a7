"""Meet, join, and covering relation of the dominance order on partitions.

A partition here is a nonincreasing tuple of nonnegative ints; two partitions
are comparable inside the fixed-sum, fixed-length family ordered by
majorization.  The meet comes from pairwise minima of prefix sums.  The join
is computed two independent ways: through conjugates of the meet, which costs
O(len + total), and through a direct recursive formula, which costs O(len^2)
whatever the total.  ``join`` takes the conjugate route while the total is at
most ``len**2`` and the recursive one above it, so a total such as 10^12 runs
in memory.  Both routes stay, and the test suite checks that they agree with
each other and with exhaustive scans.

The public functions validate their inputs and then call a private core
(``_meet``, ``_join``, ``_join_recursive``) that checks nothing.
``_meet_join_pairs`` is the array form of ``_meet`` and ``_join`` for many
pairs of partitions of one total and length at once, such as the oracle's
closure check holds: every pair takes the conjugate route, whose arrays
grow with the largest part.  The tuple cores stay beside it, because
``join`` serves single pairs whose total, up to 10^12, no array of
conjugates could hold.
"""

from itertools import accumulate
from typing import Iterator, Sequence

from .majorization import IntVector, _conjugate, as_vector, is_nonincreasing


def _check_pair(x: Sequence[int], y: Sequence[int]) -> tuple[IntVector, IntVector]:
    a = as_vector(x, name="x", nonnegative=True)
    b = as_vector(y, name="y", nonnegative=True)
    if not is_nonincreasing(a) or not is_nonincreasing(b):
        raise ValueError("lattice operations expect nonincreasing partitions; sort first")
    if len(a) != len(b):
        raise ValueError(f"partition lengths differ: {len(a)} vs {len(b)}")
    if sum(a) != sum(b):
        raise ValueError(f"partition sums differ: {sum(a)} vs {sum(b)}")
    return a, b


def meet(x: Sequence[int], y: Sequence[int]) -> IntVector:
    """Greatest lower bound: difference the pairwise minima of prefix sums."""
    return _meet(*_check_pair(x, y))


def _meet(a: IntVector, b: IntVector) -> IntVector:
    out = []
    prev = 0
    for pa, pb in zip(accumulate(a), accumulate(b)):
        cur = min(pa, pb)
        out.append(cur - prev)
        prev = cur
    return tuple(out)


def _meet_join_pairs(forms, i, j):
    """The meets and joins of the pairs ``(forms[i[k]], forms[j[k]])``, one
    row per pair: ``_meet`` and ``_join`` on whole arrays.

    ``forms`` is a 2-D int64 array of partitions, one per row, that share a
    length and a total; ``i`` and ``j`` index its rows.  The meet
    differences the pairwise minima of the prefix sums.  The join is the
    conjugate of the meet of the conjugates, and each form's conjugate is
    built once.
    """
    import numpy as np

    def prefix_sums(a):  # with a leading 0, so that a meet is one difference
        out = np.zeros((len(a), a.shape[1] + 1), dtype=a.dtype)
        np.cumsum(a, axis=1, out=out[:, 1:])
        return out

    prefix = prefix_sums(forms)
    dual = prefix_sums(_conjugates(forms, max(int(forms[:, 0].max(initial=0)), 1)))
    low = np.minimum(prefix[i], prefix[j])
    dual_low = np.minimum(dual[i], dual[j])
    return low[:, 1:] - low[:, :-1], _conjugates(dual_low[:, 1:] - dual_low[:, :-1], forms.shape[1])


def _conjugates(rows, dim: int):
    """``_conjugate`` of every row of a 2-D array of nonnegative ints, at one
    ``dim`` that is at least the largest entry."""
    import numpy as np

    width = dim + 1
    counts = np.bincount(
        (rows + width * np.arange(len(rows))[:, None]).ravel(), minlength=len(rows) * width
    ).reshape(len(rows), width)
    # As in _conjugate: running sums over thresholds dim, ..., 1.
    return np.cumsum(counts[:, :0:-1], axis=1)[:, ::-1]


def join(x: Sequence[int], y: Sequence[int]) -> IntVector:
    """Least upper bound via conjugates: dualize, meet, dualize back.

    Totals above ``len(x) ** 2`` go to ``join_recursive`` instead, whose cost
    does not grow with the total.
    """
    return _join(*_check_pair(x, y))


def _join(a: IntVector, b: IntVector) -> IntVector:
    if a == b:
        return a
    total = sum(a)
    if total > len(a) ** 2:
        return _join_recursive(a, b)
    # No part exceeds the total, so the total is always a safe conjugate dim.
    d = max(total, 1)
    return _conjugate(_meet(_conjugate(a, d), _conjugate(b, d)), len(a))


def join_recursive(x: Sequence[int], y: Sequence[int]) -> IntVector:
    """Least upper bound built left to right.

    Entry k is the smallest alpha such that the partial sum so far plus
    ``j * alpha`` covers every prefix max of the two inputs j steps ahead.
    Computed by direct ceiling arithmetic rather than incremental search.
    """
    return _join_recursive(*_check_pair(x, y))


def _join_recursive(a: IntVector, b: IntVector) -> IntVector:
    n = len(a)
    need = [max(pa, pb) for pa, pb in zip(accumulate(a), accumulate(b))]
    out = []
    acc = 0
    for k in range(n):
        alpha = 0
        for j in range(1, n - k + 1):
            shortfall = need[k - 1 + j] - acc
            if shortfall > 0:
                alpha = max(alpha, -(-shortfall // j))
        out.append(alpha)
        acc += alpha
    return tuple(out)


def covers(y: Sequence[int], x: Sequence[int]) -> bool:
    """True when y covers x: x sits directly below y with nothing between.

    Equivalently x arises from y by moving one unit from position i to a
    later position j with ``y[i] > y[j] + 1``, and the move is minimal:
    either the positions are adjacent, or the gap is exactly two and every
    part strictly between equals ``y[i] - 1``.
    """
    a, b = _check_pair(x, y)
    diff = [k for k in range(len(a)) if a[k] != b[k]]
    if len(diff) != 2:
        return False
    i, j = diff
    if a[i] != b[i] - 1 or a[j] != b[j] + 1:
        return False
    gap = b[i] - b[j]
    if gap < 2:
        return False
    if j == i + 1:
        return True
    return gap == 2 and all(b[k] == b[i] - 1 for k in range(i + 1, j))


def partitions(total: int, length: int) -> Iterator[IntVector]:
    """All nonincreasing tuples of ``length`` nonnegative ints summing to ``total``."""
    if total < 0 or length < 0:
        raise ValueError("total and length must be nonnegative")
    if length == 0:
        if total == 0:
            yield ()
        return

    # Depth first on an explicit stack: (left to place, parts to go, bound, parts).
    stack = [(total, length, total, ())]
    while stack:
        remaining, slots, bound, parts = stack.pop()
        if slots == 1:
            if remaining <= bound:
                yield parts + (remaining,)
            continue
        lowest = -(-remaining // slots)  # the next part is at least the average
        # Pushed smallest first, so the largest next part is popped first.
        for first in range(lowest, min(bound, remaining) + 1):
            stack.append((remaining - first, slots - 1, first, parts + (first,)))
