import collections
import copy
import os
import pickle
import random

import numpy as np
import pytest

from majpop import (
    HIGHEST_INDEX,
    LOAD_ORDER,
    LOWEST_INDEX,
    BudgetExceededError,
    InfeasibleError,
    Instance,
    TiePolicy,
    col_sums,
    enumerate_optima,
    equivalent,
    feasible_min_remaining,
    min_combined_profile,
    min_remaining_profile,
    peak_shave,
    random_ties,
    row_sums,
    solve,
    sort_asc,
    sort_desc,
    valley_fill,
)
from majpop import _speedups, cli, solvers
from majpop.completion import Cells
from majpop.oracle import enumerate_attainable, maximal_elements, minimal_elements
from majpop.solvers import TIE_KINDS

from helpers import random_feasible_instance, random_instance, reference_enumerate_optima, reference_sweep, swept

PEAK_C = (7, 6, 5, 4, 4)
PEAK_R = (4, 4, 3, 1, 1)
VALLEY_B = (8, 6, 5, 2, 2)
VALLEY_R = (4, 3, 3, 2, 1)

ALL_POLICIES = [LOWEST_INDEX, HIGHEST_INDEX, LOAD_ORDER, random_ties(0), random_ties(99)]


def test_peak_shave_canonical_value():
    for policy in ALL_POLICIES:
        res = peak_shave(PEAK_C, PEAK_R, policy)
        assert res.canonical_objective == (3, 3, 3, 2, 2)
        assert res.feasible
        assert row_sums(res.matrix) == PEAK_R
        assert tuple(c - x for c, x in zip(PEAK_C, col_sums(res.matrix))) == res.objective


def test_peak_shave_trace_values_reachable():
    objs = set(enumerate_optima(Instance("min_remaining", PEAK_R, ceiling=PEAK_C)))
    assert (3, 3, 2, 3, 2) in objs  # one specific run of the row sweep
    assert (2, 3, 2, 3, 3) in objs  # the reversed-row-order run
    # every optimum whose column sums are already nonincreasing
    assert {(3, 3, 2, 2, 3), (3, 2, 3, 2, 3), (2, 3, 3, 2, 3), (2, 3, 2, 3, 3)} <= objs


def test_peak_shave_infeasible_reports_negative_objective():
    res = peak_shave((5, 5), (2, 2, 2, 2, 2, 2))
    assert res.objective == (-1, -1)
    assert res.canonical_objective == (-1, -1)
    assert not res.feasible


def test_peak_shave_zero_rows():
    res = peak_shave((1, 1, 1), ())
    assert res.objective == (1, 1, 1)
    assert res.matrix.shape == (0, 3)


def test_solve_result_keeps_the_cells_and_builds_the_array_once():
    res = peak_shave(PEAK_C, PEAK_R)
    cells = res.to_json()["matrix"]
    assert isinstance(cells, Cells) and vars(res)["matrix"] is cells
    assert cells.shape == (len(PEAK_R), len(PEAK_C))
    a = res.matrix
    assert a is res.matrix and a.dtype == np.uint8 and not a.flags.writeable
    assert cells.tolist() == a.tolist()
    assert np.array_equal(np.asarray(cells), a)


def test_peak_shave_structural_error():
    with pytest.raises(InfeasibleError):
        peak_shave((1,), (2,))


def test_valley_fill_canonical_value():
    for policy in ALL_POLICIES:
        res = valley_fill(VALLEY_B, VALLEY_R, policy)
        assert res.canonical_objective == (8, 8, 7, 7, 6)
        assert res.feasible
        assert row_sums(res.matrix) == VALLEY_R
        assert tuple(b + x for b, x in zip(VALLEY_B, col_sums(res.matrix))) == res.objective


def test_valley_fill_trace_value_reachable():
    objs = set(enumerate_optima(Instance("min_combined", VALLEY_R, base=VALLEY_B)))
    assert (8, 7, 8, 7, 6) in objs
    assert (8, 7, 8, 6, 7) in objs
    assert (8, 8, 7, 6, 7) in objs


def test_valley_fill_single_unit():
    res = valley_fill((0, 0), (1,))
    assert equivalent(res.objective, (1, 0))


def test_profiles_examples():
    assert min_remaining_profile(PEAK_C, PEAK_R) == (3, 3, 3, 2, 2)
    assert min_remaining_profile((9, 2, 5), ()) == (9, 5, 2)
    assert min_remaining_profile((2, 2, 2), (3, 3)) == (0, 0, 0)
    assert min_combined_profile(VALLEY_B, VALLEY_R) == (8, 8, 7, 7, 6)
    assert min_combined_profile((4, 9, 1), ()) == (9, 4, 1)
    assert min_combined_profile((0, 0, 0), (3, 3)) == (2, 2, 2)
    with pytest.raises(InfeasibleError):
        min_remaining_profile((0, 0), (1,))


@pytest.mark.parametrize("profile", [min_remaining_profile, min_combined_profile])
def test_empty_profiles_still_check_the_rows(profile):
    assert profile((), ()) == ()
    assert profile((), (0, 0)) == ()
    for rows in ((1,), (2,), (0, 1)):
        with pytest.raises(InfeasibleError):
            profile((), rows)
        with pytest.raises(InfeasibleError):
            profile((0,), rows + (2,))


def test_essential_uniqueness_across_policies():
    rng = random.Random(555)
    for _ in range(60):
        inst = random_feasible_instance(rng, rng.choice(["min_remaining", "min_combined"]))
        canonicals = {solve(inst, p).canonical_objective for p in ALL_POLICIES}
        canonicals |= {solve(inst, random_ties(s)).canonical_objective for s in range(5)}
        assert len(canonicals) == 1, inst


def test_negativity_certificate_matches_feasibility():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        c = tuple(rng.randint(0, 4) for _ in range(n))
        r = tuple(rng.randint(0, min(n, 4)) for _ in range(m))
        assert peak_shave(c, r).feasible == feasible_min_remaining(c, r)


def test_row_order_invariance():
    base = peak_shave(PEAK_C, PEAK_R).canonical_objective
    assert peak_shave(PEAK_C, tuple(reversed(PEAK_R))).canonical_objective == base
    rng = random.Random(13)
    for _ in range(80):
        inst = random_feasible_instance(rng, rng.choice(["min_remaining", "min_combined"]))
        r = list(inst.row_sums)
        rng.shuffle(r)
        shuffled = (
            Instance(inst.variant, tuple(r), ceiling=inst.ceiling, base=inst.base)
        )
        assert solve(inst).canonical_objective == solve(shuffled).canonical_objective


def test_profile_composition_splits():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(1, 5)
        m1 = rng.randint(0, 4)
        m2 = rng.randint(0, 4)
        r = tuple(rng.randint(0, n) for _ in range(m1))
        s = tuple(rng.randint(0, n) for _ in range(m2))
        b = tuple(rng.randint(0, 5) for _ in range(n))
        combined = min_combined_profile(b, r + s)
        assert min_combined_profile(min_combined_profile(b, r), s) == combined
        assert min_combined_profile(min_combined_profile(b, s), r) == combined


def test_remaining_profile_composition_splits():
    rng = random.Random(5)
    done = 0
    while done < 80:
        n = rng.randint(1, 5)
        r = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 3)))
        s = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 3)))
        c = tuple(rng.randint(0, 6) for _ in range(n))
        if not feasible_min_remaining(c, r + s):
            continue
        combined = min_remaining_profile(c, r + s)
        assert min_remaining_profile(min_remaining_profile(c, r), s) == combined
        assert min_remaining_profile(min_remaining_profile(c, s), r) == combined
        done += 1


def test_sorted_inputs_have_sorted_objective_policies():
    # With a nonincreasing input, one deterministic policy emits the objective
    # already sorted: highest_index when shaving, lowest_index when filling.
    rng = random.Random(6)
    for _ in range(120):
        n = rng.randint(1, 6)
        m = rng.randint(0, 6)
        profile = sort_desc(tuple(rng.randint(0, 6) for _ in range(n)))
        r = tuple(rng.randint(0, n) for _ in range(m))
        shaved = peak_shave(profile, r, HIGHEST_INDEX).objective
        assert sort_desc(shaved) == shaved
        filled = valley_fill(profile, r, LOWEST_INDEX).objective
        assert sort_desc(filled) == filled


def test_load_order_aligns_column_sums_with_input():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 6)
        m = rng.randint(0, 6)
        profile = sort_desc(tuple(rng.randint(0, 6) for _ in range(n)))
        r = tuple(rng.randint(0, n) for _ in range(m))
        peak_cols = col_sums(peak_shave(profile, r, LOAD_ORDER).matrix)
        assert sort_desc(peak_cols) == peak_cols
        valley_cols = col_sums(valley_fill(profile, r, LOAD_ORDER).matrix)
        assert sort_asc(valley_cols) == valley_cols


def test_load_order_particular_values():
    assert peak_shave(PEAK_C, PEAK_R, LOAD_ORDER).objective == (2, 3, 2, 3, 3)
    assert valley_fill(VALLEY_B, VALLEY_R, LOAD_ORDER).objective == (8, 7, 8, 6, 7)


def test_solver_matches_oracle_minimal_elements():
    rng = random.Random(888)
    for _ in range(60):
        variant = rng.choice(["min_remaining", "min_combined"])
        inst = random_feasible_instance(rng, variant)
        attainable = enumerate_attainable(inst)
        mins = {sort_desc(v) for v in minimal_elements(attainable.vectors)}
        assert mins == {solve(inst).canonical_objective}, inst


def test_scalarization_consistency():
    rng = random.Random(999)
    for _ in range(40):
        inst = random_feasible_instance(rng, rng.choice(["min_remaining", "min_combined"]))
        vectors = enumerate_attainable(inst).vectors
        best = min(sum(e * e for e in v) for v in vectors)
        got = solve(inst).canonical_objective
        assert sum(e * e for e in got) == best


def test_kernel_matches_interpreter():
    assert _speedups.KERNEL_AVAILABLE
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, 30))
        start = tuple(int(v) for v in rng.integers(0, 9, size=n))
        r = tuple(int(v) for v in rng.integers(0, n + 1, size=m))
        for kind in ("lowest_index", "highest_index", "load_order", "uniform_random"):
            seed = int(rng.integers(0, 2**63))
            policy = TiePolicy(kind, seed)
            for largest, delta in ((True, -1), (False, 1)):
                vals_py, a_py = reference_sweep(start, r, largest, delta, policy, None)
                vals_nb, a_nb = swept(start, r, largest, delta, kind, seed)
                assert vals_py == vals_nb
                assert np.array_equal(a_py, a_nb)


def _outcome(sweep, *args):
    """A sweep's profile, matrix shape and cell bytes, or the text of the
    InfeasibleError it raised."""
    try:
        values, cells = sweep(*args)
    except InfeasibleError as exc:
        return str(exc)
    return list(values), cells.shape, bytes(cells.data)


def test_capped_kernel_matches_interpreter():
    assert _speedups.KERNEL_AVAILABLE
    rng = np.random.default_rng(5)
    sides = ((True, -1), (False, 1), (True, 1))  # shave, fill, general_max
    stranded = completed = 0
    for trial in range(160):
        n = int(rng.integers(1, 16))
        m = int(rng.integers(0, 16))
        start = tuple(int(v) for v in rng.integers(0, 9, size=n))
        r = tuple(int(v) for v in rng.integers(0, n + 1, size=m))
        caps = (
            (0,) * n,
            (m,) * n,
            tuple(int(v) for v in rng.integers(0, m + 1, size=n)),
            tuple(2**63 + int(v) for v in rng.integers(0, 2**62, size=n)),
        )[trial % 4]
        for kind in ("lowest_index", "highest_index", "load_order", "uniform_random"):
            seed = int(rng.integers(0, 2**63))
            for largest, delta in sides:
                policy = TiePolicy(kind, seed)
                py = _outcome(reference_sweep, start, r, largest, delta, policy, caps)
                kernel = _outcome(swept, start, r, largest, delta, kind, seed, caps)
                assert py == kernel, (start, r, caps, kind, largest, delta)
                stranded += isinstance(py, str)
                completed += not isinstance(py, str)
    assert stranded > 100 and completed > 100


def test_kernel_matches_interpreter_on_wide_tie_heavy_profiles():
    # Flat ceilings and 0/1 bases hundreds of columns wide: nearly every
    # row ends on a block of hundreds of ties.
    rng = random.Random(24)
    sides = ((True, -1), (False, 1), (True, 1))  # shave, fill, general_max
    for trial in range(12):
        n = rng.randint(200, 500)
        m = rng.randint(5, 30)
        r = tuple(rng.randint(0, rng.choice((n // 2, n))) for _ in range(m))
        flat = (rng.randint(m, 2 * m),) * n
        base = tuple(rng.randint(0, 1) for _ in range(n))
        caps = (None, tuple(rng.randint(0, m) for _ in range(n)))[trial % 2]
        for start, (largest, delta) in zip((flat, base, base), sides):
            for kind in TIE_KINDS:
                seed = rng.randrange(2**64)
                py = _outcome(reference_sweep, start, r, largest, delta, TiePolicy(kind, seed), caps)
                kernel = _outcome(swept, start, r, largest, delta, kind, seed, caps)
                assert py == kernel, (trial, kind, largest, delta)


def _load_order_labels(inst):
    """The columns in the order load_order prefers them among ties: most
    placements first, which within a block of equal values is start
    descending for shaves and ascending for fills and general_max, then low
    index when the sweep takes the largest values and high index otherwise."""
    field, _, largest, delta = solvers._SWEEPS[inst.variant]
    start = getattr(inst, field)
    return sorted(range(inst.n), key=lambda j: (start[j] * delta, j if largest else -j))


def _solved(inst, policy, label=None):
    """solve's objective, its sorted form, feasible and cell bytes, with the
    columns moved from position l to label[l]; or the stranding text."""
    try:
        result = solve(inst, policy)
    except InfeasibleError as exc:
        return str(exc)
    objective, matrix = result.objective, result.matrix
    if label is not None:
        moved = [0] * inst.n
        for l, j in enumerate(label):
            moved[j] = objective[l]
        objective = tuple(moved)
        matrix = np.empty_like(matrix)
        matrix[:, label] = result.matrix
    return objective, result.canonical_objective, result.feasible, matrix.tobytes()


def _relabelled(inst, label):
    vectors = {name: getattr(inst, name) for name in ("ceiling", "base", "reference")}
    return Instance(inst.variant, inst.row_sums, **{
        name: None if v is None else tuple(v[j] for j in label) for name, v in vectors.items()
    })


def test_load_order_is_lowest_index_on_relabelled_columns():
    rng = random.Random(2024)
    seen = collections.Counter()
    for trial in range(2400):
        variant = solvers.VARIANTS[trial % 4]
        inst = random_instance(rng, variant, max_mn=rng.choice((4, 9)), max_value=rng.choice((2, 6)))
        if trial % 8 >= 6:
            # Profiles within m of the int64 limits and past them: the sweep
            # refuses them and solve rank compresses.
            field = solvers._SWEEPS[variant][0]
            top = rng.choice((2**63 - 1, 2**63 + 3, 2**64 - 1, 10**30))
            profile = tuple(top - rng.randint(0, 3) if rng.random() < 0.7 else v for v in getattr(inst, field))
            inst = Instance(variant, inst.row_sums, **{
                name: profile if name == field else getattr(inst, name) for name in ("ceiling", "base", "reference")
            })
            seen["int64 edge"] += 1
        label = _load_order_labels(inst)
        got = _solved(inst, LOAD_ORDER)
        assert got == _solved(_relabelled(inst, label), LOWEST_INDEX, label), (inst, label)
        if isinstance(got, str):
            seen["stranded"] += 1
        elif variant.startswith("general"):
            placed = np.frombuffer(got[3], dtype=np.uint8).reshape(len(inst.row_sums), inst.n).sum(axis=0)
            seen["binding" if any(0 < c == p for p, c in zip(placed, inst.ceiling)) else "slack"] += 1
    assert min(seen[k] for k in ("int64 edge", "stranded", "binding", "slack")) > 100, seen


# Start profiles whose blocks of equal values sit far apart, in runs, or in
# order, so the compiled sweep's carried column order merges across gaps.
CARRIED_PROFILES = {
    "distinct": lambda rng, n, m: tuple(rng.sample(range(3 * n + 5), n)),
    "staircase": lambda rng, n, m: tuple(j // 3 for j in range(n)),
    "sorted": lambda rng, n, m: tuple(sorted(rng.randint(0, 3 * m) for _ in range(n))),
    "reversed": lambda rng, n, m: tuple(sorted((rng.randint(0, 3 * m) for _ in range(n)), reverse=True)),
    "spread-3m": lambda rng, n, m: tuple(rng.randint(0, 3 * m) for _ in range(n)),
    "spread-1e6": lambda rng, n, m: tuple(rng.randint(0, 10**6) for _ in range(n)),
}


@pytest.mark.parametrize("profile", sorted(CARRIED_PROFILES))
def test_carried_order_matches_interpreter(profile):
    rng = random.Random(sorted(CARRIED_PROFILES).index(profile))
    sides = ((True, -1), (False, 1), (True, 1))  # shave, fill, general_max
    outcomes = {"completed": 0, "stranded": 0, "negative": 0}
    for n in (1, 2, 7, 31, 90, 200) * 2:
        m = rng.randint(n // 4, 60)
        start = CARRIED_PROFILES[profile](rng, n, m)
        # Rows that take nothing and rows that take every column, among others.
        r = tuple(rng.choice((0, n, rng.randint(0, n), rng.randint(0, n))) for _ in range(m))
        # Caps of 0, caps that close columns partway through, and no caps.
        for caps in (None, tuple(rng.choice((0, rng.randint(1, m + 1), m + 1)) for _ in range(n))):
            for kind in TIE_KINDS:
                seed = rng.getrandbits(64)
                for largest, delta in sides:
                    args = (start, r, largest, delta)
                    py = _outcome(reference_sweep, *args, TiePolicy(kind, seed), caps)
                    kernel = _outcome(swept, *args, kind, seed, caps)
                    assert py == kernel, (profile, n, m, caps is not None, kind, largest, delta)
                    if isinstance(py, str):
                        outcomes["stranded"] += 1
                    else:
                        outcomes["completed"] += 1
                        outcomes["negative"] += min(py[0]) < 0
    assert outcomes["completed"] and outcomes["stranded"], outcomes
    # Values up to 10**6 cannot reach 0 in 60 rows; the others go below it.
    assert outcomes["negative"] or profile == "spread-1e6", outcomes


def _layout_shapes():
    rng = random.Random(40)
    return [(0, 0), (0, 3), (3, 0), (1, 1)] + [(rng.randint(0, 40), rng.randint(1, 40)) for _ in range(30)]


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
def test_sweeps_write_the_same_cells(capped):
    # Both sweeps write the matrix into ``Cells.data``; the bytes, and every
    # view derived from them, must agree.
    rng = random.Random(41 + capped)
    sides = ((True, -1), (False, 1), (True, 1))
    completed = 0
    for m, n in _layout_shapes():
        start = tuple(rng.randint(0, 9) for _ in range(n))
        r = tuple(rng.randint(0, n) for _ in range(m))
        caps = tuple(rng.randint(m // 2, m + 1) for _ in range(n)) if capped else None
        for kind in TIE_KINDS:
            seed = rng.getrandbits(64)
            for largest, delta in sides:
                try:
                    py = reference_sweep(start, r, largest, delta, TiePolicy(kind, seed), caps)[1]
                except InfeasibleError:
                    continue
                compiled = swept(start, r, largest, delta, kind, seed, caps)[1]
                assert compiled.data == py.data and compiled.shape == py.shape == (m, n)
                rows = compiled.tolist()
                a = compiled.array()
                assert a.dtype == np.uint8 and a.shape == (m, n) and not a.flags.writeable
                assert a.tolist() == rows == py.tolist()
                assert np.array_equal(np.asarray(compiled), a) and np.array_equal(py.array(), a)
                assert [sum(row) for row in rows] == list(r)
                completed += 1
    assert completed > 200


def test_capped_solves_run_compiled():
    low = solve(Instance("general_min", (2, 1), reference=(3, 1, 2), ceiling=(1, 2, 2)))
    assert low.objective == (2, 0, 1) and row_sums(low.matrix) == (2, 1)
    high = solve(Instance("general_max", (2, 2), base=(0, 5, 1), ceiling=(2, 1, 2)))
    assert high.objective == (1, 6, 3) and col_sums(high.matrix) == (1, 1, 2)
    stuck = Instance("general_min", (1, 3), reference=(0, 0, 100), ceiling=(2, 1, 1))
    with pytest.raises(InfeasibleError, match=r"^variant general_min: a row needs 3 columns"):
        solve(stuck)


def test_small_uncapped_solves_run_compiled():
    assert peak_shave((2, 1), (1, 1)).objective == (0, 1)
    assert valley_fill((0, 1), (1, 2)).objective == (2, 2)
    assert solve(Instance("min_remaining", (1, 1), ceiling=(2, 1))).feasible


def test_int64_edge_solves_run_compiled():
    # Profiles mixing 2**64 - 1 - k, 2**63 and small values: the solvers'
    # outputs against the reference sweep's, run on the same Python ints.
    r = (3, 2, 2, 1)
    top = (2**64 - 1, 2**64 - 2, 2**63, 5, 2**64 - 1, 2**63, 0, 2**64 - 4)
    caps = (2, 3, 1, 4, 2, 0, 2, 3)
    runs = []  # (solver result, step, reference profile and cells)
    for policy in ALL_POLICIES:
        for inst in _instances(r, top, caps):
            _, cap, largest, delta = solvers._SWEEPS[inst.variant]
            runs.append((solve(inst, policy), delta, reference_sweep(top, r, largest, delta, policy, cap and caps)))
        runs.append((peak_shave(top, r, policy), -1, reference_sweep(top, r, True, -1, policy, None)))
        runs.append((valley_fill(top, r, policy), 1, reference_sweep(top, r, False, 1, policy, None)))
    outcomes = [(res.objective, res.canonical_objective, res.feasible, res.matrix.tobytes()) for res, _, _ in runs]
    expected = [
        (tuple(values), sort_desc(values), delta > 0 or min(values) >= 0, bytes(cells.data))
        for _, delta, (values, cells) in runs
    ]
    assert outcomes + [min_remaining_profile(top, r)] == expected + [
        sort_desc(reference_sweep(top, r, True, -1, LOWEST_INDEX, None)[0])
    ]


def _sweep_result_cells(start, r, largest, delta, policy, caps):
    # The solvers' route: the compiled sweep, then the retry where it refuses.
    try:
        result = _speedups.sweep(start, r, largest, delta, policy.kind, policy.seed, caps)
    except ValueError as refusal:
        result = solvers._retried_sweep(refusal, start, r, largest, delta, policy, caps)
    return result.objective, vars(result)["matrix"]


def test_sweep_matches_interpreter_at_the_int64_edges():
    rng = random.Random(64)
    sides = ((True, -1), (False, 1), (True, 1))  # shave, fill, general_max
    bases = (0, 2**62, 2**63 - 5, 2**64 - 21, 2**64 - 41)
    outside = stranded = completed = 0
    for trial in range(300):
        n = rng.randint(1, 12)
        m = rng.randint(0, 12)
        base = bases[trial % len(bases)]
        step = rng.choice((1, 2, 7, 10**9))
        start = tuple(
            min(max(base + step * rng.randint(-8, 8), 0), 2**64 - 1) for _ in range(n)
        )
        r = tuple(rng.randint(0, n) for _ in range(m))
        caps = None
        if trial % 2:
            caps = tuple(rng.choice((rng.randint(0, m + 1), 2**64 - 1)) for _ in range(n))
        outside += not _speedups.fits(min(start), max(start), m)
        for kind in TIE_KINDS:
            policy = TiePolicy(kind, rng.getrandbits(64))
            for largest, delta in sides:
                args = (start, r, largest, delta, policy, caps)
                py = _outcome(reference_sweep, *args)
                assert _outcome(_sweep_result_cells, *args) == py, args
                stranded += isinstance(py, str)
                completed += not isinstance(py, str)
    assert outside > 100 and stranded > 100 and completed > 1000


def _raised(call):
    """The type and text of the exception ``call`` raises; it must not show
    another exception it was raised while handling."""
    with pytest.raises(Exception) as info:
        call()
    exc = info.value
    assert exc.__cause__ is None and (exc.__context__ is None or exc.__suppress_context__)
    return type(exc), str(exc)


def _instances(r, start, caps):
    """One instance per variant, each sweeping ``start``, capped by ``caps``."""
    return (
        Instance("min_remaining", r, ceiling=start),
        Instance("min_combined", r, base=start),
        Instance("general_min", r, reference=start, ceiling=caps),
        Instance("general_max", r, base=start, ceiling=caps),
    )


# Row sums with row 1 above n = 2: what it is, and what ``_speedups.sweep`` says.
ROWS_ABOVE_N = {
    "above n": ((1, 3, 4), "row counts must lie in [0, 2]"),
    "past int64": ((1, 2**63, 4), "row counts must lie within the int64 range"),
}


@pytest.mark.parametrize("case", sorted(ROWS_ABOVE_N))
def test_a_row_above_n_keeps_its_error(case):
    r, refused = ROWS_ABOVE_N[case]
    named = (InfeasibleError, f"row_sums[1] = {r[1]} exceeds the number of columns 2: no row can hold it")
    for policy in ALL_POLICIES:
        for inst in _instances(r, (5, 4), (1, 1)):
            # No ``variant ...:`` prefix: the row, not the sweep, is at fault.
            assert _raised(lambda: solve(inst, policy)) == named, inst.variant
        assert _raised(lambda: peak_shave((5, 4), r, policy)) == named
        assert _raised(lambda: valley_fill((5, 4), r, policy)) == named
    assert _raised(lambda: min_combined_profile((5, 4), r)) == named
    assert _raised(lambda: min_combined_profile((), r)) == (
        InfeasibleError, "row_sums[0] = 1 exceeds the number of columns 0: no row can hold it"
    )
    for kind in TIE_KINDS:
        for caps in (None, (1, 1)):
            assert _raised(lambda: _speedups.sweep((5, 4), r, True, -1, kind, 0, caps)) == (
                ValueError, refused
            )


# Profiles the C code cannot take over m = 3 rows, and what ``_speedups.sweep`` says.
EDGE_PROFILES = {
    "past int64": ((2**64 - 1, 5, 2**63, 0), "values must lie within the int64 range"),
    "within m of the top": ((2**63 - 2, 5, 2**63 - 4, 0), "values too close to the int64 limits for this many rows"),
}


@pytest.mark.parametrize("case", sorted(EDGE_PROFILES))
def test_profiles_at_the_int64_edge_are_rank_compressed(case):
    start, refused = EDGE_PROFILES[case]
    r, caps = (2, 1, 3), (3, 2, 3, 1)
    for policy in ALL_POLICIES:
        for inst in _instances(r, start, caps):
            _, cap, largest, delta = solvers._SWEEPS[inst.variant]
            values, cells = reference_sweep(start, r, largest, delta, policy, cap and caps)
            res = solve(inst, policy)
            assert (res.objective, res.matrix.tobytes()) == (tuple(values), cells.data), inst.variant
        for sweep, largest, delta in ((peak_shave, True, -1), (valley_fill, False, 1)):
            values, cells = reference_sweep(start, r, largest, delta, policy, None)
            res = sweep(start, r, policy)
            assert (res.objective, res.matrix.tobytes()) == (tuple(values), cells.data)
    for kind in TIE_KINDS:
        for caps in (None, (3, 2, 3, 1)):
            assert _raised(lambda: _speedups.sweep(start, r, True, -1, kind, 0, caps)) == (
                ValueError, refused
            )
    # Within m of the bottom: only ``_speedups.sweep`` takes negative values.
    low = (-(2**63) + 2, 5, 0, 0)
    assert _raised(lambda: _speedups.sweep(low, r, False, 1, "lowest_index", 0)) == (
        ValueError, "values too close to the int64 limits for this many rows"
    )


@pytest.mark.parametrize("top", [100, 2**64 - 1], ids=["small", "past-int64"])
def test_a_stranded_row_keeps_its_variant_prefix(top):
    # The first row takes column 2, which reaches its cap; the second needs
    # all three columns.
    stranded = "a row needs 3 columns but only 2 remain below their caps"
    for variant, field in (("general_min", "reference"), ("general_max", "base")):
        inst = Instance(variant, (1, 3), ceiling=(2, 1, 1), **{field: (0, 0, top)})
        for policy in ALL_POLICIES:
            assert _raised(lambda: solve(inst, policy)) == (
                InfeasibleError, f"variant {variant}: {stranded}"
            )
    for kind in TIE_KINDS:
        assert _raised(lambda: _speedups.sweep((0, 0, 100), (1, 3), True, -1, kind, 0, (2, 1, 1))) == (
            InfeasibleError, stranded
        )


def test_valid_solves_run_no_check_before_the_sweep(monkeypatch):
    r = (3, 1, 2, 3, 0)
    start, caps = (4, 6, 1, 3), (4, 2, 4, 3)  # binding caps that strand no row

    def outputs():
        results = [solve(inst, policy) for inst in _instances(r, start, caps) for policy in ALL_POLICIES]
        results += [peak_shave(start, r, policy) for policy in ALL_POLICIES]
        results += [valley_fill(start, r, policy) for policy in ALL_POLICIES]
        return [
            (res.objective, res.canonical_objective, res.feasible, res.matrix.tobytes()) for res in results
        ] + [min_remaining_profile((9, 7, 6, 5), r), min_combined_profile(start, r)]

    expected = outputs()

    def pre_pass(*args):
        raise AssertionError("a check ran before the sweep")

    monkeypatch.setattr(solvers, "_check_rows", pre_pass)
    monkeypatch.setattr(_speedups, "fits", pre_pass)
    assert outputs() == expected


def test_random_policy_reproducible():
    a = peak_shave(PEAK_C, PEAK_R, random_ties(314))
    b = peak_shave(PEAK_C, PEAK_R, random_ties(314))
    c = peak_shave(PEAK_C, PEAK_R, random_ties(315))
    assert a.objective == b.objective and np.array_equal(a.matrix, b.matrix)
    assert a.canonical_objective == c.canonical_objective


def test_enumerate_optima_trivial():
    inst = Instance("min_combined", (1,), base=(0,))
    assert set(enumerate_optima(inst)) == {(1,)}


def test_enumerate_optima_witnesses_are_valid():
    inst = Instance("min_remaining", PEAK_R, ceiling=PEAK_C)
    for obj, a in enumerate_optima(inst).items():
        assert row_sums(a) == PEAK_R
        assert tuple(c - x for c, x in zip(PEAK_C, col_sums(a))) == obj
        assert min(obj) >= 0


def test_enumerate_optima_objectives_all_equivalent():
    inst = Instance("min_combined", VALLEY_R, base=VALLEY_B)
    objs = set(enumerate_optima(inst))
    assert all(sort_desc(o) == (8, 8, 7, 7, 6) for o in objs)


def test_enumerate_optima_budget():
    inst = Instance("min_combined", (1,) * 6, base=(0,) * 6)
    with pytest.raises(BudgetExceededError):
        enumerate_optima(inst, cap=10)


def test_enumerate_optima_cap_bounds_the_draws():
    # 705 432 ways to fill the first row; the cap stops the search long before.
    inst = Instance("min_combined", (11, 11), base=(0,) * 22)
    with pytest.raises(BudgetExceededError) as info:
        enumerate_optima(inst, cap=1000)
    assert str(info.value) == "tie enumeration passed 1000 distinct states"
    # The compiled search's budget stop, with the children it drew.
    assert info.value.draws <= 1000


def test_enumerate_optima_infeasible():
    with pytest.raises(InfeasibleError):
        enumerate_optima(Instance("min_remaining", (1,), ceiling=(0, 0)))


def _enumeration_outcome(enumerate_fn, inst, cap):
    """Objectives in insertion order with each witness's bytes, or the error text."""
    try:
        found = enumerate_fn(inst, cap=cap)
    except (BudgetExceededError, InfeasibleError) as exc:
        return type(exc).__name__, str(exc)
    return [(obj, a.shape, a.tobytes()) for obj, a in found.items()]


def test_enumerate_optima_matches_reference_order_and_witnesses():
    rng = random.Random(4242)
    variants = ("min_remaining", "min_combined", "general_min", "general_max")
    insts = [random_instance(rng, variants[k % 4]) for k in range(520)]
    # Flat profiles, where most children repeat a state already visited; the
    # first two have 495 and 120 optima.
    rows = [5, 5, 4, 4, 3, 3, 2, 2]
    rng.shuffle(rows)
    insts.append(Instance("min_combined", tuple(rows), base=(11,) * 12))
    rows = [5, 4, 4, 3, 3, 2, 2]
    rng.shuffle(rows)
    insts.append(Instance("min_remaining", tuple(rows), ceiling=(9,) * 10))
    for k in range(8):
        rows = tuple(rng.randint(1, 4) for _ in range(rng.randint(3, 5)))
        level = rng.randint(len(rows), 2 * len(rows))
        n = rng.randint(5, 8)
        if k % 2:
            insts.append(Instance("min_remaining", rows, ceiling=(level,) * n))
        else:
            insts.append(Instance("min_combined", rows, base=(level,) * n))
    kinds = set()
    for inst in insts:
        for cap in (1, 3, 50, 1_000_000):
            want = _enumeration_outcome(reference_enumerate_optima, inst, cap)
            assert _enumeration_outcome(enumerate_optima, inst, cap) == want, (inst, cap)
            kinds.add(want[0] if isinstance(want, tuple) else "found")
    assert kinds == {"found", "BudgetExceededError", "InfeasibleError"}

    B, top = 2**63, 2**64 - 1
    edges = [
        # Profiles past 2**63 and near 0, searched rank compressed; caps
        # past 2**63, which never bind.
        Instance("min_remaining", (2, 2), ceiling=(B + 5, 1, B + 5, 0, B + 5, 2)),
        Instance("min_combined", (2, 1, 0), base=(top, 0, top, 1, 0)),
        Instance("general_min", (1, 2), reference=(B, B, 3), ceiling=(top, 1, B)),
        Instance("general_max", (2, 1, 1), base=(top - 3, 0, 0, top - 3), ceiling=(B, top, 1, 1)),
        # Zero row sums.
        Instance("min_combined", (0, 0, 2, 0), base=(1, 1, 1)),
        Instance("general_min", (0, 0), reference=(3, 3), ceiling=(0, 0)),
        # No rows.
        Instance("min_remaining", (), ceiling=(4, 4)),
        Instance("general_max", (), base=(B, 0), ceiling=(0, 0)),
        insts[520],
    ]
    for inst in edges:
        for cap in (1, 3, 50, 1_000_000, B, 2**64 + 7):
            want = _enumeration_outcome(reference_enumerate_optima, inst, cap)
            assert _enumeration_outcome(enumerate_optima, inst, cap) == want, (inst, cap)
    assert min(len(enumerate_optima(inst)) for inst in edges[:2]) > 1
    assert len(enumerate_optima(edges[-3])) == 1


def test_general_min_reduces_to_peak_shave():
    rng = random.Random(21)
    for _ in range(60):
        inst = random_feasible_instance(rng, "min_remaining")
        gen = Instance(
            "general_min", inst.row_sums, ceiling=inst.ceiling, reference=inst.ceiling
        )
        for policy in ALL_POLICIES:
            a = solve(inst, policy)
            b = solve(gen, policy)
            assert a.objective == b.objective
            assert np.array_equal(a.matrix, b.matrix)


def test_general_min_respects_caps():
    inst = Instance("general_min", (2,), reference=(5, 5, 5), ceiling=(1, 1, 1))
    res = solve(inst)
    assert sorted(res.objective) == [4, 4, 5]
    assert all(x <= c for x, c in zip(col_sums(res.matrix), inst.ceiling))


def test_general_variants_structural_contract():
    # Whatever the caps do to optimality, the output always satisfies the
    # row sums, the column caps, and the objective arithmetic, and the
    # objective is attainable.
    rng = random.Random(31)
    done = 0
    while done < 120:
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        r = tuple(rng.randint(0, min(n, 3)) for _ in range(m))
        c = tuple(rng.randint(0, 4) for _ in range(n))
        other = tuple(rng.randint(0, 6) for _ in range(n))
        variant = "general_min" if done % 2 == 0 else "general_max"
        if variant == "general_min":
            inst = Instance("general_min", r, ceiling=c, reference=other)
        else:
            inst = Instance("general_max", r, ceiling=c, base=other)
        try:
            res = solve(inst)
        except InfeasibleError:
            continue
        done += 1
        cols = col_sums(res.matrix)
        assert row_sums(res.matrix) == r
        assert all(x <= cap for x, cap in zip(cols, c))
        if variant == "general_min":
            assert res.objective == tuple(a - b for a, b in zip(other, cols))
        else:
            assert res.objective == tuple(a + b for a, b in zip(other, cols))
        assert res.objective in enumerate_attainable(inst).vectors


def test_general_max_forced_by_caps():
    inst = Instance("general_max", (1, 1), base=(0, 0), ceiling=(2, 0))
    res = solve(inst)
    assert res.objective == (2, 0)
    assert col_sums(res.matrix) == (2, 0)


def test_general_max_concentrates_without_binding_caps():
    # With slack caps the sweep lands on the unique greatest value.
    from majpop.oracle import maximal_elements

    rng = random.Random(41)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        r = tuple(rng.randint(0, min(n, 3)) for _ in range(m))
        b = tuple(rng.randint(0, 4) for _ in range(n))
        inst = Instance("general_max", r, ceiling=(m,) * n, base=b)
        res = solve(inst)
        vectors = enumerate_attainable(inst).vectors
        maxs = {sort_desc(v) for v in maximal_elements(vectors)}
        assert maxs == {res.canonical_objective}, inst
        done += 1


def test_capped_sweeps_are_heuristics_when_caps_bind():
    # Documented limitation: a binding cap can push the greedy off the
    # extremal attainable value.  These two instances pin the behavior.
    inst = Instance("general_min", (1, 1, 3, 1), ceiling=(1, 2, 4, 1), reference=(4, 4, 5, 2))
    res = solve(inst)
    vectors = enumerate_attainable(inst).vectors
    least = {sort_desc(v) for v in minimal_elements(vectors)}
    assert least == {(3, 2, 2, 2)}
    assert res.canonical_objective == (3, 3, 2, 1)  # attainable but not least
    assert res.objective in vectors

    inst = Instance("general_max", (1, 1, 1, 1), ceiling=(4, 1), base=(3, 4))
    res = solve(inst)
    vectors = enumerate_attainable(inst).vectors
    greatest = {sort_desc(v) for v in maximal_elements(vectors)}
    assert greatest == {(7, 4)}
    assert res.canonical_objective == (6, 5)  # attainable but not greatest
    assert res.objective in vectors


def test_general_solve_reports_stuck_rows():
    inst = Instance("general_min", (1, 3), reference=(0, 0, 100), ceiling=(2, 1, 1))
    with pytest.raises(InfeasibleError):
        solve(inst)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance("nope", (1,), ceiling=(1,))
    with pytest.raises(ValueError):
        Instance("min_remaining", (1,))
    with pytest.raises(ValueError):
        Instance("general_min", (1,), ceiling=(1,))
    with pytest.raises(ValueError):
        Instance("general_min", (1,), ceiling=(1,), reference=(1, 2))
    with pytest.raises(ValueError):
        Instance("min_combined", (1,), base=(-1,))


def test_tie_policy_validation():
    with pytest.raises(ValueError):
        TiePolicy("sideways")
    assert random_ties(3).seed == 3


def test_variant_and_policy_names_keep_their_order():
    assert solvers.VARIANTS == ("min_remaining", "min_combined", "general_min", "general_max")
    assert solvers.TIE_KINDS == ("lowest_index", "highest_index", "load_order", "uniform_random")


def test_instance_rounds_per_variant():
    r, c, b, ref = (2, 1), (3, 2, 2), (1, 0, 4), (4, 3, 2)
    cases = {
        Instance("min_remaining", r, ceiling=c): (c, True, -1, None),
        Instance("min_combined", r, base=b): (b, False, 1, None),
        Instance("general_min", r, reference=ref, ceiling=c): (ref, True, -1, c),
        Instance("general_max", r, base=b, ceiling=c): (b, True, 1, c),
    }
    for inst, want in cases.items():
        assert solvers._instance_rounds(inst) == want, inst.variant
    with pytest.raises(InfeasibleError, match="exceeds the number of columns 3"):
        solvers._instance_rounds(Instance("min_combined", (4,), base=b))


def _error_text(make):
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


def test_instance_and_policy_error_texts():
    variants = "('min_remaining', 'min_combined', 'general_min', 'general_max')"
    kinds = "('lowest_index', 'highest_index', 'load_order', 'uniform_random')"
    cases = [
        (lambda: Instance("max_remaining", (1,), ceiling=(1,)),
         f"variant: unknown value 'max_remaining'; expected one of {variants}"),
        (lambda: Instance("min_remaining", (1,), base=(1,)),
         "ceiling: required for variant 'min_remaining'"),
        (lambda: Instance("min_combined", (1,), ceiling=(1,)),
         "base: required for variant 'min_combined'"),
        (lambda: Instance("general_min", (1,)),
         "reference: required for variant 'general_min'"),
        (lambda: Instance("general_min", (1,), reference=(1,)),
         "ceiling: required for variant 'general_min'"),
        (lambda: Instance("general_max", (1,), ceiling=(1,)),
         "base: required for variant 'general_max'"),
        (lambda: Instance("general_max", (1,), base=(1,)),
         "ceiling: required for variant 'general_max'"),
        (lambda: Instance("general_max", (1,), base=(1,), ceiling=(1, 2)),
         "vectors for variant 'general_max' must share one length"),
        (lambda: Instance("min_remaining", (0,), ceiling=()),
         "instances need at least one column"),
        (lambda: TiePolicy("random"), f"unknown tie policy 'random'; expected one of {kinds}"),
        (lambda: TiePolicy("uniform_random", 1.5), "tie policy seed must be an int"),
    ]
    for make, text in cases:
        assert _error_text(make) == text


def test_records_compare_hash_and_stay_frozen():
    policy = TiePolicy("uniform_random", 5)
    inst = Instance("general_min", [1, 2], reference=[3, 4], ceiling=[2, 2])
    same = Instance("general_min", (1, 2), reference=(3, 4), ceiling=(2, 2))
    assert repr(policy) == "TiePolicy(kind='uniform_random', seed=5)"
    assert repr(TiePolicy()) == "TiePolicy(kind='lowest_index', seed=0)"
    assert repr(inst) == (
        "Instance(variant='general_min', row_sums=(1, 2), ceiling=(2, 2), base=None, "
        "reference=(3, 4), n=2)"
    )
    assert policy == random_ties(5) and policy != random_ties(6) and policy != ("uniform_random", 5)
    assert hash(policy) == hash(("uniform_random", 5))
    assert inst == same and hash(inst) == hash(same)
    assert hash(inst) == hash(("general_min", (1, 2), (2, 2), None, (3, 4)))
    res = peak_shave((3, 2), (1, 1))
    assert res == res and res != peak_shave((3, 2), (1, 1))
    assert sorted(vars(res)) == ["canonical_objective", "feasible", "matrix", "objective"]
    assert repr(res).startswith("SolveResult(matrix=array([[1, 0],")
    for record, name in ((policy, "seed"), (inst, "n"), (res, "feasible"), (policy, "other")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
    with pytest.raises(AttributeError, match="cannot delete field 'matrix'"):
        del res.matrix
    assert pickle.loads(pickle.dumps(inst)) == inst and copy.deepcopy(policy) == policy
    assert copy.copy(res).objective == res.objective


def _python_record(start, r, largest, delta, policy, caps=None):
    """The record the solvers built in Python before the C code built it:
    ``Cells.__init__`` and ``SolveResult.__init__`` on the reference
    sweep's output."""
    values, cells = reference_sweep(start, r, largest, delta, policy, caps)
    canonical = sort_desc(values)
    return solvers.SolveResult(
        Cells(bytes(cells.data), cells.shape), values, canonical, delta > 0 or canonical[-1] >= 0
    )


def _shown(result):
    """Everything a record shows, read in an order that leaves the array of
    its ``Cells`` unbuilt until their slots are read."""
    fields = vars(result)
    cells = fields["matrix"]
    slots = (type(cells.data), cells.data, type(cells.shape), cells.shape, cells._array is None)
    copied = pickle.loads(pickle.dumps(result))
    return (
        list(fields),
        [type(v) for v in fields.values()],
        {type(v) for v in result.objective + result.canonical_objective},
        slots,
        cells.tolist(),
        (result.objective, result.canonical_objective, result.feasible),
        repr(result),
        (list(vars(copied)), vars(copied)["matrix"].data, vars(copied)["matrix"].shape, repr(copied)),
        result == result and result != copied and hash(result) == object.__hash__(result),
    )


def test_c_built_records_match_the_records_python_builds():
    rng = random.Random(21)
    verdicts = []
    for variant in solvers.VARIANTS:
        for _ in range(10):
            inst = random_instance(rng, variant)
            field, cap, largest, delta = solvers._SWEEPS[variant]
            start, r, caps = getattr(inst, field), inst.row_sums, cap and getattr(inst, cap)
            for kind in TIE_KINDS:
                policy = TiePolicy(kind, rng.getrandbits(64))
                try:
                    expected = _python_record(start, r, largest, delta, policy, caps)
                except InfeasibleError:
                    continue
                assert _shown(solve(inst, policy)) == _shown(expected), (inst, policy)
                verdicts.append(expected.feasible)
                if caps is None:
                    shaved = peak_shave(start, r, policy)
                    assert _shown(shaved) == _shown(_python_record(start, r, True, -1, policy))
                    filled = valley_fill(start, r, policy)
                    assert _shown(filled) == _shown(_python_record(start, r, False, 1, policy))
            if variant == "min_remaining" and feasible_min_remaining(start, r):
                profile = min_remaining_profile(start, r)
                assert profile == _python_record(start, r, True, -1, LOWEST_INDEX).canonical_objective
                assert type(profile) is tuple and {type(v) for v in profile} == {int}
            if variant == "min_combined":
                profile = min_combined_profile(start, r)
                assert profile == _python_record(start, r, False, 1, LOWEST_INDEX).canonical_objective
                assert type(profile) is tuple and {type(v) for v in profile} == {int}
    assert len(verdicts) > 100 and True in verdicts and False in verdicts
    # The rank-compression retry rebuilds the record in Python from the
    # objective moved back; its ``Cells`` come from the C code.
    instances = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "instances")
    edge = cli.load_instance(os.path.join(instances, "int64_edge_demo.json"))
    for policy in ALL_POLICIES:
        expected = _shown(_python_record(edge.ceiling, edge.row_sums, True, -1, policy))
        assert _shown(solve(edge, policy)) == expected
        assert _shown(peak_shave(edge.ceiling, edge.row_sums, policy)) == expected
    assert min_remaining_profile(edge.ceiling, edge.row_sums) == expected[5][1]


def _positional_fields(record):
    match record:
        case TiePolicy(kind, seed):
            return kind, seed
        case Instance(variant, rows, ceiling, base, reference):
            return variant, rows, ceiling, base, reference
        case solvers.SolveResult(matrix, objective, canonical, ok):
            return matrix, objective, canonical, ok
    return None


def test_records_match_positionally_and_are_not_dataclasses():
    import dataclasses

    inst = Instance("general_min", [1, 2], reference=[3, 4], ceiling=[2, 2])
    res = peak_shave((3, 2), (1, 1))
    assert _positional_fields(random_ties(5)) == ("uniform_random", 5)
    assert _positional_fields(inst) == ("general_min", (1, 2), (2, 2), None, (3, 4))
    matrix, *rest = _positional_fields(res)
    assert matrix is res.matrix and rest == [(1, 2), (2, 1), True]
    # A stated break: the records are plain classes, so that the solve path
    # does not import ``dataclasses``.
    for record in (LOWEST_INDEX, inst, res):
        assert not dataclasses.is_dataclass(record)
