"""Acceptance suite: one test per criterion, timed where the criterion is.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed in the terminal summary.
"""

import random
import time

from majpop import (
    HIGHEST_INDEX,
    LOAD_ORDER,
    LOWEST_INDEX,
    Instance,
    certify,
    conjugate,
    covers,
    enumerate_attainable,
    enumerate_optima,
    equivalent,
    join,
    join_recursive,
    majorized,
    meet,
    min_combined_profile,
    min_remaining_profile,
    peak_shave,
    random_ties,
    sort_asc,
    sort_desc,
    valley_fill,
)
from majpop.completion import feasible_min_remaining

from helpers import PartitionTable, random_feasible_instance, random_partition

PEAK_C = (7, 6, 5, 4, 4)
PEAK_R = (4, 4, 3, 1, 1)
VALLEY_B = (8, 6, 5, 2, 2)
VALLEY_R = (4, 3, 3, 2, 1)


def test_c01_golden_conjugate():
    conjugate((5, 4, 2, 1), 7)  # warm the call path
    t0 = time.perf_counter()
    got = conjugate((5, 4, 2, 1), 7)
    elapsed = time.perf_counter() - t0
    assert got == (4, 3, 2, 2, 1, 0, 0)
    assert elapsed < 1e-3


def test_c02_peak_shave_uniqueness_all_policies():
    policies = [LOWEST_INDEX, HIGHEST_INDEX, LOAD_ORDER, random_ties(0)]
    policies += [random_ties(seed) for seed in range(1, 51)]
    peak_shave(PEAK_C, PEAK_R)  # warm up outside the timed region
    t0 = time.perf_counter()
    values = {peak_shave(PEAK_C, PEAK_R, p).canonical_objective for p in policies}
    elapsed = time.perf_counter() - t0
    assert values == {(3, 3, 3, 2, 2)}
    assert elapsed < 0.010, f"{len(policies)} solves took {elapsed * 1e3:.2f} ms"


def test_c03_row_reversal_and_trace_value():
    reversed_run = peak_shave(PEAK_C, tuple(reversed(PEAK_R)))
    assert equivalent(reversed_run.objective, (3, 3, 3, 2, 2))
    optima = set(enumerate_optima(Instance("min_remaining", PEAK_R, ceiling=PEAK_C)))
    assert (2, 3, 2, 3, 3) in optima


def test_c04_valley_fill_uniqueness_and_trace_values():
    policies = [LOWEST_INDEX, HIGHEST_INDEX, LOAD_ORDER] + [random_ties(s) for s in range(20)]
    values = {valley_fill(VALLEY_B, VALLEY_R, p).canonical_objective for p in policies}
    assert values == {(8, 8, 7, 7, 6)}
    optima = set(enumerate_optima(Instance("min_combined", VALLEY_R, base=VALLEY_B)))
    assert (8, 7, 8, 6, 7) in optima
    assert (8, 8, 7, 6, 7) in optima


def test_c05_lattice_join_golden_both_methods():
    assert join((5, 2, 2, 2), (4, 3, 3, 1)) == (5, 3, 2, 1)
    assert join_recursive((5, 2, 2, 2), (4, 3, 3, 1)) == (5, 3, 2, 1)


def test_c06_non_lattice_gap_instances():
    t0 = time.perf_counter()
    gap_min = Instance("min_remaining", (4, 2), ceiling=(8, 6, 6, 6, 4, 4, 4))
    canon = enumerate_attainable(gap_min).canonical_vectors
    common = (6, 6, 6, 4, 4, 4, 2)
    u, v = (7, 6, 5, 4, 4, 4, 2), (6, 6, 6, 5, 4, 3, 2)
    w, z = (6, 6, 6, 4, 4, 3, 3), (6, 6, 5, 5, 4, 4, 2)
    assert {u, v, w, z} <= canon
    assert covers(u, common) and covers(v, common)
    assert covers(common, w) and covers(common, z)
    assert common not in canon
    assert certify(gap_min, absent_canonical=common).passed
    assert time.perf_counter() - t0 < 5.0

    t0 = time.perf_counter()
    gap_max = Instance("min_combined", (4, 2), base=(4, 4, 4, 2, 2, 2, 0))
    canon = enumerate_attainable(gap_max).canonical_vectors
    common = (6, 4, 4, 4, 2, 2, 2)
    u, v = (6, 4, 4, 4, 3, 2, 1), (6, 5, 4, 3, 2, 2, 2)
    w, z = (6, 4, 4, 3, 3, 2, 2), (5, 5, 4, 4, 2, 2, 2)
    assert {u, v, w, z} <= canon
    assert covers(u, common) and covers(v, common)
    assert covers(common, w) and covers(common, z)
    assert common not in canon
    assert certify(gap_max, absent_canonical=common).passed
    assert time.perf_counter() - t0 < 5.0


def test_c07_oracle_sweep():
    t0 = time.perf_counter()
    rng = random.Random(20240917)
    failures = []
    for k in range(200):
        variant = "min_remaining" if k % 2 == 0 else "min_combined"
        inst = random_feasible_instance(rng, variant, max_mn=5, max_value=4, max_total=14)
        report = certify(inst)
        if not report.passed:
            failures.append((inst, report.to_json()))
    elapsed = time.perf_counter() - t0
    assert not failures, failures[:3]
    assert elapsed < 120.0, f"sweep took {elapsed:.1f} s"


def test_c08_property_suites_thousand_cases():
    cases = 1000

    # Sorting preserves elementwise domination.
    rng = random.Random(101)
    for _ in range(cases):
        n = rng.randint(1, 8)
        x = tuple(rng.randint(0, 9) for _ in range(n))
        y = tuple(rng.randint(0, v) for v in x)
        assert all(a <= b for a, b in zip(sort_desc(y), sort_desc(x)))

    # Aligning the second operand with the sorted first flattens the result.
    rng = random.Random(102)
    for _ in range(cases):
        n = rng.randint(1, 8)
        xd = sort_desc(tuple(rng.randint(0, 9) for _ in range(n)))
        y = tuple(rng.randint(0, 9) for _ in range(n))
        assert majorized(
            tuple(a - b for a, b in zip(xd, sort_desc(y))),
            tuple(a - b for a, b in zip(xd, y)),
        )
        assert majorized(
            tuple(a + b for a, b in zip(xd, sort_asc(y))),
            tuple(a + b for a, b in zip(xd, y)),
        )

    # Unit subtractions at earlier positions of the dominated vector keep it
    # dominated; unit additions dually at later positions.
    rng = random.Random(103)
    for _ in range(cases):
        n = rng.randint(2, 8)
        y = tuple(rng.randint(0, 9) for _ in range(n))
        x = list(y)
        for _ in range(rng.randint(0, 2 * n)):
            p, q = rng.randrange(n), rng.randrange(n)
            if x[p] > x[q]:
                x[p] -= 1
                x[q] += 1
        count = rng.randint(1, n)
        a = sorted(rng.sample(range(n), count))
        b = sorted(rng.sample(range(n), count))
        p = [min(i, j) for i, j in zip(a, b)]
        q = [max(i, j) for i, j in zip(a, b)]
        w = list(sort_desc(x))
        z = list(sort_desc(y))
        for i, j in zip(p, q):
            w[i] -= 1
            z[j] -= 1
        assert majorized(tuple(w), tuple(z))
        w = list(sort_desc(x))
        z = list(sort_desc(y))
        for i, j in zip(p, q):
            w[j] += 1
            z[i] += 1
        assert majorized(tuple(w), tuple(z))

    # Splitting the row sums does not change either optimal profile.
    rng = random.Random(104)
    done = 0
    while done < cases:
        n = rng.randint(1, 5)
        r = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 3)))
        s = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 3)))
        base = tuple(rng.randint(0, 6) for _ in range(n))
        combined = min_combined_profile(base, r + s)
        assert min_combined_profile(min_combined_profile(base, r), s) == combined
        assert min_combined_profile(min_combined_profile(base, s), r) == combined
        if feasible_min_remaining(base, r + s):
            target = min_remaining_profile(base, r + s)
            assert min_remaining_profile(min_remaining_profile(base, r), s) == target
            assert min_remaining_profile(min_remaining_profile(base, s), r) == target
        done += 1


def _scaling_instance(seed, m, n):
    """Random row demands against a flat, ample capacity profile.

    A flat profile stays within one unit of flat under peak shaving, so
    every row's threshold block and its neighbours span the columns and the
    per-row work grows with n alone, free of data-dependent phase changes:
    the measured growth isolates the per-cell linear law rather than the
    block sizes of one particular value distribution.
    """
    from majpop.solvers import _splitmix64

    state = seed & ((1 << 64) - 1)
    for salt in (m, n):
        state, _ = _splitmix64(state ^ salt)
    r = []
    for _ in range(m):
        state, z = _splitmix64(state)
        r.append(1 + z % n)
    return tuple(r), (3 * m,) * n


def _mean_solve_times(shapes, repeats=13, seed=1):
    """Trimmed-mean wall time per shape, with the repeats interleaved
    round-robin so machine drift cannot bias any single size."""
    prepared = {}
    for shape in shapes:
        r, c = _scaling_instance(seed, *shape)
        peak_shave(c, r)  # warm per-shape allocations
        prepared[shape] = (r, c)
    samples = {shape: [] for shape in shapes}
    for _ in range(repeats):
        for shape in shapes:
            r, c = prepared[shape]
            t0 = time.perf_counter()
            peak_shave(c, r)
            samples[shape].append(time.perf_counter() - t0)
    means = {}
    for shape, times in samples.items():
        times.sort()
        trimmed = times[2:-2] if len(times) > 6 else times
        means[shape] = sum(trimmed) / len(trimmed)
    return means


def test_c09_linear_scaling():
    # Warm the compiled kernel before timing anything.
    r, c = _scaling_instance(0, 300, 1100)
    peak_shave(c, r)

    t_m = _mean_solve_times([(m, 1000) for m in (250, 500, 1000, 2000)])
    for m in (250, 500, 1000):
        ratio = t_m[(2 * m, 1000)] / t_m[(m, 1000)]
        assert 1.5 <= ratio <= 2.8, f"row scaling at m={m}: ratio {ratio:.2f} ({t_m})"

    t_n = _mean_solve_times([(1000, n) for n in (250, 500, 1000, 2000)])
    for n in (250, 500, 1000):
        ratio = t_n[(1000, 2 * n)] / t_n[(1000, n)]
        assert 1.5 <= ratio <= 2.8, f"column scaling at n={n}: ratio {ratio:.2f} ({t_n})"

    assert _mean_solve_times([(2000, 2000)], repeats=5)[(2000, 2000)] < 1.0


def test_c10_lattice_methods_vs_bruteforce():
    t0 = time.perf_counter()
    for tau in range(1, 11):
        table = PartitionTable(tau, tau)
        parts = table.parts
        for i, x in enumerate(parts):
            for y in parts[i:]:
                assert join(x, y) == join_recursive(x, y)
                assert meet(x, y) == table.glb(x, y)
                assert join(x, y) == table.lub(x, y)

    rng = random.Random(31337)
    tables = {}
    for _ in range(500):
        tau = rng.randint(1, 30)
        n = rng.randint(1, tau)
        x = random_partition(rng, tau, n)
        y = random_partition(rng, tau, n)
        assert join(x, y) == join_recursive(x, y)
        if (tau, n) not in tables:
            tables[(tau, n)] = PartitionTable(tau, n)
        table = tables[(tau, n)]
        assert meet(x, y) == table.glb(x, y)
        assert join(x, y) == table.lub(x, y)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"lattice agreement checks took {elapsed:.1f} s"
