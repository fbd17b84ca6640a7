import random
from itertools import combinations

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
from majpop import _speedups, solvers
from majpop.completion import Cells
from majpop.oracle import enumerate_attainable, maximal_elements, minimal_elements
from majpop.solvers import _run_rounds_python

from helpers import random_feasible_instance, random_instance, reference_enumerate_optima

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
                vals_py, a_py = _run_rounds_python(start, r, largest, delta, policy, None)
                vals_nb, a_nb = _speedups.sweep(start, r, largest, delta, kind, seed)
                assert vals_py == vals_nb
                assert np.array_equal(a_py, a_nb)


def _capped_sweep(sweep, *args):
    """A sweep's profile and matrix, or the text of the InfeasibleError it raised."""
    try:
        values, a = sweep(*args)
    except InfeasibleError as exc:
        return str(exc)
    return list(values), a.tolist()


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
                py = _capped_sweep(_run_rounds_python, start, r, largest, delta, policy, caps)
                kernel = _capped_sweep(_speedups.sweep, start, r, largest, delta, kind, seed, caps)
                assert py == kernel, (start, r, caps, kind, largest, delta)
                stranded += isinstance(py, str)
                completed += not isinstance(py, str)
    assert stranded > 100 and completed > 100


@pytest.mark.skipif(not _speedups.KERNEL_AVAILABLE, reason="compiled sweep unavailable")
def test_capped_solves_run_compiled(monkeypatch):
    def interpreted(*args):
        raise AssertionError("a capped sweep ran interpreted")

    monkeypatch.setattr(solvers, "_run_rounds_python", interpreted)
    low = solve(Instance("general_min", (2, 1), reference=(3, 1, 2), ceiling=(1, 2, 2)))
    assert low.objective == (2, 0, 1) and row_sums(low.matrix) == (2, 1)
    high = solve(Instance("general_max", (2, 2), base=(0, 5, 1), ceiling=(2, 1, 2)))
    assert high.objective == (1, 6, 3) and col_sums(high.matrix) == (1, 1, 2)
    stuck = Instance("general_min", (1, 3), reference=(0, 0, 100), ceiling=(2, 1, 1))
    with pytest.raises(InfeasibleError, match=r"^variant general_min: a row needs 3 columns"):
        solve(stuck)


@pytest.mark.skipif(not _speedups.KERNEL_AVAILABLE, reason="compiled sweep unavailable")
def test_small_uncapped_solves_run_compiled(monkeypatch):
    def interpreted(*args):
        raise AssertionError("an uncapped sweep ran interpreted")

    monkeypatch.setattr(solvers, "_run_rounds_python", interpreted)
    assert peak_shave((2, 1), (1, 1)).objective == (0, 1)
    assert valley_fill((0, 1), (1, 2)).objective == (2, 2)
    assert solve(Instance("min_remaining", (1, 1), ceiling=(2, 1))).feasible


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


def test_enumerate_optima_cap_bounds_the_draws(monkeypatch):
    # 705 432 ways to fill the first row; the cap stops the search long before.
    draws = 0

    def counting(iterable, k):
        nonlocal draws
        for combo in combinations(iterable, k):
            draws += 1
            yield combo

    monkeypatch.setattr(solvers, "combinations", counting)
    inst = Instance("min_combined", (11, 11), base=(0,) * 22)
    with pytest.raises(BudgetExceededError) as info:
        enumerate_optima(inst, cap=1000)
    assert str(info.value) == "tie enumeration passed 1000 distinct states"
    assert draws <= 1000


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
