"""Shared generators and brute-force references for the test suite."""

import random
from itertools import combinations
from typing import Optional

import numpy as np
from hypothesis import strategies as st

from majpop import Instance, feasible_min_remaining, majorized, partitions, sort_desc
from majpop._speedups import _MASK64
from majpop.completion import Cells
from majpop.errors import BudgetExceededError, InfeasibleError
from majpop.majorization import IntVector
from majpop.solvers import TiePolicy, _instance_rounds, _splitmix64, _split_selection, feasible


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


def reference_sweep(
    start: IntVector,
    r: IntVector,
    largest: bool,
    delta: int,
    policy: TiePolicy,
    caps: Optional[IntVector],
) -> tuple[IntVector, Cells]:
    """The plain per-row sweep, kept as the reference for the compiled one,
    ``majpop._speedups.sweep``: each row sorts the open columns to find its
    threshold (``_split_selection``) and picks among the tied ones with
    :func:`_pick_ties`.  The compiled sweep must return the same final
    profile and the same cell bytes, or raise InfeasibleError with the same
    text where caps strand a row.  It takes the policy as a ``TiePolicy``
    and, unlike the solvers, does not name a row above n itself."""
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
    return tuple(values), Cells(a, (m, n))


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


def reference_lattice_closure(column_sets, cores) -> tuple[bool, str]:
    """The all-pairs closure loop, kept as the reference for the
    ``canonical_column_lattice_closed`` record of :func:`majpop.certify`:
    every pair of sorted feasible column-sum vectors, comparable or not,
    goes through ``cores._meet`` and ``cores._join`` (``majpop.lattice`` or
    a stand-in with the same two functions).  Returns the record's
    ``passed`` and ``witness``."""
    if not column_sets:
        return True, "vacuous: attainable set is empty"
    closed = {sort_desc(x) for x in column_sets}
    for a, b in combinations(sorted(closed), 2):
        lo = cores._meet(a, b)
        hi = cores._join(a, b)
        if lo not in closed or hi not in closed:
            return False, f"pair {a}, {b} gives meet {lo} join {hi}"
    return True, ""
