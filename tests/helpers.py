"""Shared generators and brute-force references for the test suite."""

import random
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
from hypothesis import strategies as st

from majpop import (
    Instance, _speedups, conjugate, feasible_min_remaining, majorized, partitions, sort_desc,
)
from majpop._speedups import _MASK64
from majpop.completion import Cells
from majpop.errors import BudgetExceededError, InfeasibleError
from majpop.majorization import IntVector
from majpop.solvers import TiePolicy, _instance_rounds, _splitmix64, feasible


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


def swept(*args, sweep=None) -> tuple[IntVector, Cells]:
    """``sweep(*args)``, by default ``majpop._speedups.sweep``, as the pair
    :func:`reference_sweep` returns: the final profile and the matrix's
    ``Cells``, read off the ``SolveResult`` the compiled sweep returns."""
    result = (sweep or _speedups.sweep)(*args)
    return result.objective, vars(result)["matrix"]


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


# The profile each variant's objective is measured from.
PROFILE_FIELD = {
    "min_remaining": "ceiling", "min_combined": "base", "general_min": "reference", "general_max": "base",
}


def raise_profile(profile: Sequence[int], past: bool) -> IntVector:
    """``profile`` with every entry raised by 2**63 (``past``), so that the
    objective vectors leave int64, or with its first three raised by 2**62,
    so that their entries fit int64 but sums of two or more need not."""
    if past:
        return tuple(v + 2**63 for v in profile)
    return tuple(v + 2**62 * (j < 3) for j, v in enumerate(profile))


def certify_sweep(count: int = 400, seed: int = 1973) -> list[tuple[Instance, Optional[IntVector]]]:
    """The draws of the golden certify sweep: ``(instance, absent)`` pairs
    from :func:`random_instance`, cycling through the four variants, within
    the oracle's default budget (7 columns, total 14).

    Every fifth profile is raised by :func:`raise_profile`, past int64 and
    near it in turn.  Every third draw names an absent vector: in turn
    a sorted attainable objective vector (the claim fails) and a random
    one."""
    rng = random.Random(seed)
    variants = ("min_remaining", "min_combined", "general_min", "general_max")
    draws = []
    for k in range(count):
        inst = random_instance(rng, variants[k % 4], max_mn=7)
        while sum(inst.row_sums) > 14:
            inst = random_instance(rng, variants[k % 4], max_mn=7)
        if k % 5 == 4:
            field = PROFILE_FIELD[inst.variant]
            fields = {f: getattr(inst, f) for f in ("ceiling", "base", "reference")}
            fields[field] = raise_profile(fields[field], k % 10 == 4)
            inst = Instance(inst.variant, inst.row_sums, **fields)
        absent = None
        if k % 3 == 2:
            attainable = sorted(reference_attainable(inst)[1])
            if k % 2 and attainable:
                absent = sort_desc(rng.choice(attainable))
            else:
                absent = tuple(rng.randint(0, 9) for _ in range(inst.n))
        draws.append((inst, absent))
    return draws


def reference_column_vectors(
    n: int, total: int, upper: Sequence[int], threshold: IntVector
) -> list[IntVector]:
    """The depth-first enumeration of feasible column-sum vectors, kept as
    the reference for :func:`majpop.enumerate_attainable`: every x >= 0 with
    the given total, x <= upper and x majorized by threshold.

    ``n`` is at least 1.  Majorization reads only the sorted form, so the
    leaf test is decided once per sorted form and looked up for its
    rearrangements."""
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


def reference_attainable(inst: Instance) -> tuple[set[IntVector], set[IntVector]]:
    """The feasible column-sum vectors of ``inst`` and the objective vectors
    they induce, from :func:`reference_column_vectors` with the bounds
    :func:`majpop.enumerate_attainable` derives (no budget check)."""
    r = inst.row_sums
    n = inst.n
    if any(v > n for v in r):
        return set(), set()
    t = conjugate(r, n)
    if inst.variant == "min_combined":
        upper = [t[0]] * n
    else:
        upper = [min(cj, t[0]) for cj in inst.ceiling]
    xs = reference_column_vectors(n, sum(r), upper, t)
    if inst.variant == "min_remaining":
        vectors = {tuple(a - b for a, b in zip(inst.ceiling, x)) for x in xs}
    elif inst.variant == "general_min":
        vectors = {tuple(a - b for a, b in zip(inst.reference, x)) for x in xs}
    else:
        vectors = {tuple(a + b for a, b in zip(inst.base, x)) for x in xs}
    return set(xs), vectors


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
