"""Shared generators and brute-force references for the test suite."""

import random
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from majpop import Instance, feasible_min_remaining, majorized, partitions, sort_desc
from majpop.completion import Cells
from majpop.errors import BudgetExceededError, InfeasibleError
from majpop.solvers import _instance_rounds, _split_selection, feasible


def int_vectors(min_len=1, max_len=8, max_value=9):
    return st.lists(
        st.integers(min_value=0, max_value=max_value), min_size=min_len, max_size=max_len
    ).map(tuple)


@st.composite
def same_length_pairs(draw, min_len=1, max_len=8, max_value=9):
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    elems = st.integers(min_value=0, max_value=max_value)
    x = tuple(draw(elems) for _ in range(n))
    y = tuple(draw(elems) for _ in range(n))
    return x, y


@st.composite
def majorized_pairs(draw, min_len=2, max_len=8, max_value=9):
    """(x, y) with x majorized by y, built by unit transfers from rich to poor."""
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    y = tuple(draw(st.integers(min_value=0, max_value=max_value)) for _ in range(n))
    x = list(y)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        p = draw(st.integers(min_value=0, max_value=n - 1))
        q = draw(st.integers(min_value=0, max_value=n - 1))
        if x[p] > x[q]:
            x[p] -= 1
            x[q] += 1
    return tuple(x), y


@st.composite
def distinct_index_pairs(draw, n, count):
    """Two strictly increasing index sequences p <= q elementwise, length count."""
    a = sorted(draw(st.permutations(range(n)))[:count])
    b = sorted(draw(st.permutations(range(n)))[:count])
    p = tuple(min(i, j) for i, j in zip(a, b))
    q = tuple(max(i, j) for i, j in zip(a, b))
    return p, q


def random_partition(rng: random.Random, total: int, length: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(length - 1))
    parts = []
    prev = 0
    for c in cuts + [total]:
        parts.append(c - prev)
        prev = c
    return sort_desc(parts)


def random_feasible_instance(
    rng: random.Random, variant: str, max_mn: int = 5, max_value: int = 4, max_total: int = 14
) -> Instance:
    while True:
        n = rng.randint(1, max_mn)
        m = rng.randint(1, max_mn)
        r = tuple(rng.randint(0, min(n, max_value)) for _ in range(m))
        if sum(r) > max_total:
            continue
        profile = tuple(rng.randint(0, max_value) for _ in range(n))
        if variant == "min_combined":
            return Instance("min_combined", r, base=profile)
        inst = Instance("min_remaining", r, ceiling=profile)
        if feasible_min_remaining(profile, r):
            return inst


class PartitionTable:
    """All partitions of one total at a fixed length, with prefix sums stacked
    for vectorized lower/upper-set scans."""

    def __init__(self, total: int, length: int):
        self.parts = list(partitions(total, length))
        self.index = {p: i for i, p in enumerate(self.parts)}
        arr = np.array(self.parts, dtype=np.int64).reshape(len(self.parts), length)
        self.prefix = np.cumsum(arr, axis=1)

    def _prefix_of(self, p) -> np.ndarray:
        return self.prefix[self.index[tuple(p)]]

    def glb(self, x, y) -> tuple[int, ...]:
        px, py = self._prefix_of(x), self._prefix_of(y)
        mask = (self.prefix <= px).all(axis=1) & (self.prefix <= py).all(axis=1)
        target = self.prefix[mask].max(axis=0)
        hits = np.flatnonzero(mask & (self.prefix == target).all(axis=1))
        assert len(hits) == 1, "lower set has no greatest element"
        return self.parts[hits[0]]

    def lub(self, x, y) -> tuple[int, ...]:
        px, py = self._prefix_of(x), self._prefix_of(y)
        mask = (self.prefix >= px).all(axis=1) & (self.prefix >= py).all(axis=1)
        target = self.prefix[mask].min(axis=0)
        hits = np.flatnonzero(mask & (self.prefix == target).all(axis=1))
        assert len(hits) == 1, "upper set has no least element"
        return self.parts[hits[0]]

    def strictly_between_count(self, x, y) -> int:
        """How many partitions z satisfy x majorized-by z majorized-by y, inclusive."""
        px, py = self._prefix_of(x), self._prefix_of(y)
        mask = (self.prefix >= px).all(axis=1) & (self.prefix <= py).all(axis=1)
        return int(mask.sum())

    def covers_reference(self, y, x) -> bool:
        """Covering relation straight from the definition: strict order, nothing between."""
        if tuple(x) == tuple(y) or not majorized(x, y):
            return False
        return self.strictly_between_count(x, y) == 2


def reference_enumerate_optima(inst: Instance, cap: int = 1_000_000) -> dict:
    """The plain depth-first stack search over tie resolutions, kept as the
    reference for :func:`majpop.enumerate_optima`: every child is pushed, and
    a state seen before is dropped when it is popped.  The row-by-row search
    must return the same objectives in the same key order with the same
    witness matrices, and raise the same error types with the same texts."""
    start, largest, delta, caps = _instance_rounds(inst)
    r = inst.row_sums
    n = inst.n
    if inst.variant == "min_remaining" and not feasible(inst):
        raise InfeasibleError(f"ceiling {inst.ceiling} cannot absorb row sums {r}")
    m = len(r)
    results = {}
    seen = set()
    stack = [(0, start, ())]
    while stack:
        i, values, rows = stack.pop()
        key = (i, values)
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > cap:
            raise BudgetExceededError(f"tie enumeration passed {cap} distinct states")
        if i == m:
            if values not in results:
                if len(results) >= cap:
                    raise BudgetExceededError(f"more than {cap} optimal objective vectors")
                a = bytearray(m * n)
                for ri, cols in enumerate(rows):
                    for j in cols:
                        a[ri * n + j] = 1
                results[values] = Cells(a, (m, n)).array()
            continue
        if caps is None:
            allowed = list(range(n))
        else:
            placed = [(values[j] - start[j]) * delta for j in range(n)]
            allowed = [j for j in range(n) if placed[j] < caps[j]]
        try:
            forced, ties, k = _split_selection(values, r[i], largest, allowed)
        except InfeasibleError:
            continue
        base_forced = tuple(forced)
        if k <= 0:
            nxt = list(values)
            for j in base_forced:
                nxt[j] += delta
            stack.append((i + 1, tuple(nxt), rows + (base_forced,)))
            continue
        for combo in combinations(ties, k):
            nxt = list(values)
            sel = base_forced + combo
            for j in sel:
                nxt[j] += delta
            stack.append((i + 1, tuple(nxt), rows + (sel,)))
    return results


def random_instance(rng: random.Random, variant: str, max_mn: int = 6, max_value: int = 5) -> Instance:
    """Any instance of the variant, feasible or not; caps may bind or strand rows."""
    n = rng.randint(1, max_mn)
    m = rng.randint(1, max_mn)
    r = tuple(rng.randint(0, n) for _ in range(m))
    profile = tuple(rng.randint(0, max_value) for _ in range(n))
    caps = tuple(rng.randint(0, m + 1) for _ in range(n))
    if variant == "min_remaining":
        return Instance(variant, r, ceiling=profile)
    if variant == "min_combined":
        return Instance(variant, r, base=profile)
    if variant == "general_min":
        return Instance(variant, r, reference=profile, ceiling=caps)
    return Instance(variant, r, base=profile, ceiling=caps)
