"""Integer-vector sorting, majorization-family comparisons, and conjugates.

Vectors are plain tuples of Python ints, so every operation here is a pure
function of immutable values.  The three order relations follow the textbook
definitions: ``x`` is weakly submajorized by ``y`` when every prefix sum of
the nonincreasing rearrangement of ``x`` is at most the matching prefix sum
for ``y``; weak supermajorization bounds the suffix sums from below instead;
plain majorization is both at once, which forces equal totals.

Comparisons never pad silently.  Callers comparing vectors of different
lengths must call :func:`pad` themselves, otherwise total sums can drift
without notice.
"""

from itertools import accumulate
from typing import Iterable, Sequence

from .errors import LengthMismatchError

IntVector = tuple[int, ...]

RELATIONS = ("submajorize_w", "supermajorize_w", "majorize")


def as_vector(values: Iterable[int], name: str = "vector", nonnegative: bool = False) -> IntVector:
    """Normalize an iterable of ints to a tuple, optionally requiring >= 0."""
    t = tuple(values)
    # Fast path for plain ints, checked at C speed; anything else (bools, int
    # subclasses, bad entries) takes the loop below, which names the entry.
    if set(map(type, t)) <= {int} and not (nonnegative and t and min(t) < 0):
        return t
    out = []
    for k, v in enumerate(t):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name}[{k}]: expected an integer, got {v!r}")
        if nonnegative and v < 0:
            raise ValueError(f"{name}[{k}]: negative value {v}")
        out.append(v)
    return tuple(out)


def sort_desc(v: Iterable[int]) -> IntVector:
    """Nonincreasing rearrangement of ``v``."""
    return tuple(sorted(v, reverse=True))


def sort_asc(v: Iterable[int]) -> IntVector:
    """Nondecreasing rearrangement; the reverse of :func:`sort_desc`."""
    return sort_desc(v)[::-1]


def is_nonincreasing(v: Sequence[int]) -> bool:
    return all(v[i] >= v[i + 1] for i in range(len(v) - 1))


def pad(v: Iterable[int], length: int, fill: int = 0) -> IntVector:
    """Extend ``v`` with ``fill`` up to ``length``; refuses to truncate."""
    t = tuple(v)
    if length < len(t):
        raise ValueError(f"cannot pad to length {length}: vector already has {len(t)} entries")
    return t + (fill,) * (length - len(t))


def _check_same_length(x: Sequence[int], y: Sequence[int]) -> None:
    if len(x) != len(y):
        raise LengthMismatchError(
            f"vectors have lengths {len(x)} and {len(y)}; pad the shorter one explicitly"
        )


def weakly_submajorized(x: Sequence[int], y: Sequence[int]) -> bool:
    """True when every prefix sum of x's sorted form is <= that of y's."""
    _check_same_length(x, y)
    px = accumulate(sorted(x, reverse=True))
    py = accumulate(sorted(y, reverse=True))
    return all(a <= b for a, b in zip(px, py))


def weakly_supermajorized(x: Sequence[int], y: Sequence[int]) -> bool:
    """True when every suffix sum of x's sorted form is >= that of y's."""
    _check_same_length(x, y)
    # Suffix sums of the nonincreasing rearrangement are prefix sums of the
    # nondecreasing one.
    px = accumulate(sorted(x))
    py = accumulate(sorted(y))
    return all(a >= b for a, b in zip(px, py))


def majorized(x: Sequence[int], y: Sequence[int]) -> bool:
    """True when x is majorized by y: weak submajorization plus equal totals."""
    _check_same_length(x, y)
    return sum(x) == sum(y) and weakly_submajorized(x, y)


def compare(x: Sequence[int], y: Sequence[int], relation: str) -> bool:
    """Dispatch on a relation name; see :data:`RELATIONS`."""
    if relation == "submajorize_w":
        return weakly_submajorized(x, y)
    if relation == "supermajorize_w":
        return weakly_supermajorized(x, y)
    if relation == "majorize":
        return majorized(x, y)
    raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")


def equivalent(x: Sequence[int], y: Sequence[int]) -> bool:
    """True when x and y are rearrangements of each other."""
    _check_same_length(x, y)
    return sorted(x) == sorted(y)


def default_conjugate_dim(x: Sequence[int]) -> int:
    """Smallest dimension that keeps the conjugate lossless and involutive."""
    return max(len(x), max(x, default=0), 1)


def conjugate(x: Sequence[int], dim: int) -> IntVector:
    """Partition conjugate: entry j counts how many elements of x are >= j.

    ``dim`` must be at least ``max(x)``; a smaller dimension would drop
    counts and is rejected rather than silently truncated.
    """
    v = as_vector(x, name="conjugate input", nonnegative=True)
    if dim < 1:
        raise ValueError(f"conjugate dimension must be positive, got {dim}")
    biggest = max(v, default=0)
    if dim < biggest:
        raise ValueError(
            f"conjugate dimension {dim} is lossy: largest element is {biggest}"
        )
    return _conjugate(v, dim)


def _conjugate(v: Sequence[int], dim: int) -> IntVector:
    """:func:`conjugate` without its checks.

    ``v`` must hold nonnegative ints, and ``dim`` must be positive and at
    least ``max(v)``; callers that cannot promise this use :func:`conjugate`.
    """
    counts = [0] * (dim + 1)
    for e in v:
        counts[e] += 1
    # Running sums over thresholds dim, dim - 1, ..., 1 give #{i : x_i >= j};
    # the zeros in counts[0] are never read.
    out = list(accumulate(counts[:0:-1]))
    out.reverse()
    return tuple(out)
