import itertools
import random

import pytest

from majpop import (
    BudgetExceededError,
    Instance,
    LengthMismatchError,
    certify,
    enumerate_attainable,
    majorized,
    maximal_elements,
    minimal_elements,
    sort_desc,
)
from majpop.oracle import all_matrices, matrix_exists
from majpop import col_sums, enumerate_matrices, matrix_rows, row_sums

from helpers import random_feasible_instance

GAP_MIN = Instance("min_remaining", (4, 2), ceiling=(8, 6, 6, 6, 4, 4, 4))
GAP_MAX = Instance("min_combined", (4, 2), base=(4, 4, 4, 2, 2, 2, 0))


def test_enumerate_attainable_lists_known_fill_vectors():
    got = enumerate_attainable(GAP_MIN).column_sets
    assert (1, 0, 1, 2, 0, 0, 2) in got
    assert (2, 0, 0, 1, 0, 1, 2) in got
    assert (2, 0, 0, 2, 0, 1, 1) in got
    assert (2, 0, 1, 1, 0, 0, 2) in got
    got = enumerate_attainable(GAP_MAX).column_sets
    assert (2, 0, 0, 2, 1, 0, 1) in got
    assert (2, 1, 0, 1, 0, 0, 2) in got
    assert (2, 0, 0, 1, 1, 0, 2) in got
    assert (1, 1, 0, 2, 0, 0, 2) in got


def test_enumerate_attainable_trivial():
    inst = Instance("min_combined", (1,), base=(0,))
    aset = enumerate_attainable(inst)
    assert aset.column_sets == {(1,)}
    assert aset.vectors == {(1,)}


def test_enumerate_attainable_includes_rearranged_optima():
    inst = Instance("min_remaining", (4, 4, 3, 1, 1), ceiling=(7, 6, 5, 4, 4))
    vectors = enumerate_attainable(inst).vectors
    assert (3, 3, 3, 2, 2) in vectors
    assert (2, 3, 2, 3, 3) in vectors


def test_enumeration_matches_unpruned_scan():
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        variant = rng.choice(["min_remaining", "min_combined"])
        profile = tuple(rng.randint(0, 3) for _ in range(n))
        r = tuple(rng.randint(0, n) for _ in range(m))
        if variant == "min_remaining":
            inst = Instance("min_remaining", r, ceiling=profile)
        else:
            inst = Instance("min_combined", r, base=profile)
        got = enumerate_attainable(inst).column_sets
        total = sum(r)
        naive = set()
        if all(v <= n for v in r):
            from majpop import conjugate

            t = conjugate(r, n)
            for x in itertools.product(range(total + 1), repeat=n):
                if sum(x) != total or not majorized(x, t):
                    continue
                if variant == "min_remaining" and any(a > b for a, b in zip(x, profile)):
                    continue
                naive.add(x)
        assert got == naive, inst


def test_minimal_elements_examples():
    assert minimal_elements({(2, 0), (1, 1)}) == {(1, 1)}
    assert minimal_elements({(3, 0), (2, 1), (0, 3)}) == {(2, 1)}
    shave = Instance("min_remaining", (4, 4, 3, 1, 1), ceiling=(7, 6, 5, 4, 4))
    mins = minimal_elements(enumerate_attainable(shave).vectors)
    assert all(sort_desc(v) == (3, 3, 3, 2, 2) for v in mins)


def test_minimal_elements_properties():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 4)
        vs = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 12))}
        mins = minimal_elements(vs)
        assert mins == minimal_elements(mins)  # idempotent
        for a in mins:  # members are pairwise equivalent or incomparable
            for b in mins:
                if sort_desc(a) != sort_desc(b):
                    assert not majorized(a, b) and not majorized(b, a)
        maxs = maximal_elements(vs)
        assert maxs == maximal_elements(maxs)


def test_minimal_elements_empty_input():
    with pytest.raises(ValueError, match="^minimal_elements needs a nonempty set$"):
        minimal_elements(set())
    with pytest.raises(ValueError, match="^maximal_elements needs a nonempty set$"):
        maximal_elements([])


def _naive_extremal(vs, lowest):
    """Members no other member strictly majorizes from below (or above), pairwise."""
    def strictly(w, v):
        return sort_desc(w) != sort_desc(v) and (majorized(w, v) if lowest else majorized(v, w))

    return {v for v in vs if not any(strictly(w, v) for w in vs)}


def test_extremal_elements_match_naive_scan():
    rng = random.Random(8)
    for trial in range(300):
        n = rng.randint(1, 5)
        # Every other set draws vectors of one total; the rest mix totals,
        # which majorization leaves incomparable.
        total = rng.randint(0, 8)
        vs = set()
        for _ in range(rng.randint(1, 15)):
            if trial % 2:
                v = [rng.randint(0, 4) for _ in range(n)]
            else:
                v = [0] * n
                for _ in range(total):
                    v[rng.randrange(n)] += 1
            vs.add(tuple(v))
        assert minimal_elements(vs) == _naive_extremal(vs, lowest=True), vs
        assert maximal_elements(list(vs)) == _naive_extremal(vs, lowest=False), vs
    assert minimal_elements([(3, 0), (0, 2)]) == {(3, 0), (0, 2)}


def test_extremal_elements_reject_mixed_lengths():
    for fn in (minimal_elements, maximal_elements):
        with pytest.raises(LengthMismatchError):
            fn([(1, 1), (2,)])
        with pytest.raises(LengthMismatchError):
            fn([(3,), (2, 0, 1), (1, 2)])


def test_canonical_vectors_are_built_once():
    aset = enumerate_attainable(GAP_MIN)
    assert aset.canonical_vectors is aset.canonical_vectors
    assert aset.canonical_vectors == {sort_desc(v) for v in aset.vectors}


def test_certify_worked_examples():
    shave = Instance("min_remaining", (4, 4, 3, 1, 1), ceiling=(7, 6, 5, 4, 4))
    report = certify(shave)
    assert report.passed, report.to_json()
    assert {r.claim for r in report.records} == {
        "essential_uniqueness",
        "canonical_extremum_matches_solver",
        "tie_branch_completeness",
        "canonical_column_lattice_closed",
        "feasibility_formula_matches_enumeration",
        "solver_feasibility_certificate",
        "sum_of_squares_scalarization",
    }
    fill = Instance("min_combined", (4, 3, 3, 2, 1), base=(8, 6, 5, 2, 2))
    assert certify(fill).passed


def test_certify_gap_instances():
    report = certify(GAP_MIN, absent_canonical=(6, 6, 6, 4, 4, 4, 2))
    assert report.passed, report.to_json()
    assert any(r.claim == "claimed_absent_vector" for r in report.records)
    report = certify(GAP_MAX, absent_canonical=(6, 4, 4, 4, 2, 2, 2))
    assert report.passed, report.to_json()


def test_certify_general_max_claims_no_unique_maximum():
    # Binding caps leave two incomparable maximal profiles here.
    inst = Instance("general_max", (2, 1, 3, 1, 3, 2), base=(4, 1, 2, 4, 3, 3), ceiling=(6, 6, 6, 2, 2, 2))
    tops = {sort_desc(v) for v in maximal_elements(enumerate_attainable(inst).vectors)}
    assert tops == {(10, 6, 5, 5, 2, 1), (10, 6, 6, 3, 3, 1)}
    report = certify(inst)
    assert report.passed, report.to_json()
    assert "essential_uniqueness" not in {r.claim for r in report.records}


def test_certify_absent_check_fails_on_attainable_vector():
    shave = Instance("min_remaining", (4, 4, 3, 1, 1), ceiling=(7, 6, 5, 4, 4))
    report = certify(shave, absent_canonical=(3, 3, 3, 2, 2))
    rec = next(r for r in report.records if r.claim == "claimed_absent_vector")
    assert not rec.passed


def test_certify_infeasible_instance_is_vacuous_but_checked():
    inst = Instance("min_remaining", (1,), ceiling=(0, 0))
    report = certify(inst)
    assert report.passed
    rec = next(r for r in report.records if r.claim == "feasibility_formula_matches_enumeration")
    assert rec.passed


def test_sorted_column_vectors_stay_feasible_and_flatten():
    # For a nonincreasing profile, sorting any feasible column-sum vector
    # keeps it feasible, and the aligned objective is flatter: shaving
    # prefers the nonincreasing arrangement, filling the nondecreasing one.
    rng = random.Random(77)
    for _ in range(40):
        variant = rng.choice(["min_remaining", "min_combined"])
        inst = random_feasible_instance(rng, variant)
        profile = inst.ceiling if variant == "min_remaining" else inst.base
        profile_sorted = sort_desc(profile)
        if variant == "min_remaining":
            inst = Instance(variant, inst.row_sums, ceiling=profile_sorted)
        else:
            inst = Instance(variant, inst.row_sums, base=profile_sorted)
        xs = enumerate_attainable(inst).column_sets
        for x in xs:
            if variant == "min_remaining":
                xd = sort_desc(x)
                assert xd in xs
                assert majorized(
                    tuple(a - b for a, b in zip(profile_sorted, xd)),
                    tuple(a - b for a, b in zip(profile_sorted, x)),
                )
            else:
                xu = tuple(sorted(x))
                assert xu in xs
                assert majorized(
                    tuple(a + b for a, b in zip(profile_sorted, xu)),
                    tuple(a + b for a, b in zip(profile_sorted, x)),
                )


def test_certify_random_sweep_smoke():
    rng = random.Random(2025)
    for _ in range(30):
        variant = rng.choice(["min_remaining", "min_combined"])
        inst = random_feasible_instance(rng, variant)
        report = certify(inst)
        assert report.passed, (inst, report.to_json())


def test_budget_guard():
    big = Instance("min_combined", (5,) * 10, base=(0,) * 8)
    with pytest.raises(BudgetExceededError):
        enumerate_attainable(big)


def test_all_matrices_counts():
    assert len(all_matrices((1, 1), (1, 1))) == 2
    assert len(all_matrices((2, 1), (1, 1, 1))) == 3
    assert all_matrices((2, 1), (3, 0)) == []
    for a in all_matrices((2, 2, 1), (2, 2, 1)):
        assert row_sums(a) == (2, 2, 1)
        assert col_sums(a) == (2, 2, 1)


def test_all_matrices_matches_interchange_closure():
    closure = {a.tobytes() for a in enumerate_matrices((2, 2, 1), (2, 2, 1))}
    direct = {a.tobytes() for a in all_matrices((2, 2, 1), (2, 2, 1))}
    assert closure == direct


def _product_matrices(r, x):
    """Every 0/1 matrix with line sums r and x, as row tuples, from the full
    product of each row's column choices: the order backtracking visits."""
    n = len(x)
    out = []
    for picks in itertools.product(*(itertools.combinations(range(n), v) for v in r)):
        rows = tuple(tuple(int(j in cols) for j in range(n)) for cols in picks)
        if tuple(sum(row[j] for row in rows) for j in range(n)) == tuple(x):
            out.append(rows)
    return out


def test_all_matrices_and_matrix_exists_match_product_scan():
    rng = random.Random(41)
    nonempty = 0
    for _ in range(300):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        r = tuple(rng.randint(0, n) for _ in range(m))
        x = [0] * n
        for _ in range(sum(r) if n and rng.random() < 0.8 else rng.randint(0, 4)):
            if n:
                x[rng.randrange(n)] += 1
        x = tuple(x)
        want = _product_matrices(r, x)
        got = all_matrices(r, x)
        assert [matrix_rows(a) for a in got] == want, (r, x)
        assert all(a.shape == (m, n) for a in got)
        assert matrix_exists(r, x) == bool(want), (r, x)
        if len(want) > 1:
            with pytest.raises(BudgetExceededError, match=f"more than {len(want) - 1} matrices"):
                all_matrices(r, x, cap=len(want) - 1)
        nonempty += bool(want)
    assert nonempty > 100


def test_tall_matrices_without_deep_recursion():
    # One generator frame per row would once recurse 1500 and 1200 deep.
    assert [matrix_rows(a) for a in all_matrices((0,) * 1500, (0,))] == [((0,),) * 1500]
    assert matrix_exists((1,) * 1200, (1200,))


def test_certify_wide_instance_without_deep_recursion():
    # One column vector per width entry would once recurse 1500 deep.
    inst = Instance("min_remaining", (0,), ceiling=(1,) * 1500)
    report = certify(inst, max_cols=2000, max_total=5)
    assert report.passed
    assert enumerate_attainable(inst, max_cols=2000, max_total=5).column_sets == {(0,) * 1500}
