import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from majpop import (
    InfeasibleError,
    col_sums,
    conjugate,
    construct_matrix,
    enumerate_matrices,
    feasible_min_remaining,
    gale_ryser_feasible,
    geth_vector,
    interchange,
    majorized,
    make_matrix,
    row_sums,
    sort_desc,
    weakly_supermajorized,
)
from majpop import _speedups
from majpop.errors import InternalInvariantError
from majpop.oracle import all_matrices, enumerate_attainable, matrix_exists
from majpop.solvers import Instance

from helpers import random_partition


def test_gale_ryser_examples():
    assert gale_ryser_feasible((4, 4, 3, 1, 1), (4, 3, 3, 2, 1))
    assert gale_ryser_feasible((2,), (1, 1))
    assert not gale_ryser_feasible((2,), (2, 0))


def test_gale_ryser_malformed_sums_are_infeasible():
    assert not gale_ryser_feasible((3,), (1, 1))  # row longer than column count
    assert not gale_ryser_feasible((1, 1), (3, 0))  # column demand exceeds rows
    assert not gale_ryser_feasible((2, 1), (1, 1))  # totals differ
    assert not gale_ryser_feasible((-1,), (0,))


def test_gale_ryser_agrees_with_backtracking():
    rng = random.Random(99)
    seen_true = seen_false = 0
    for _ in range(500):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        r = tuple(rng.randint(0, min(n, 4)) for _ in range(m))
        x = tuple(rng.randint(0, min(m, 4)) for _ in range(n))
        expected = matrix_exists(r, x)
        assert gale_ryser_feasible(r, x) == expected, (r, x)
        seen_true += expected
        seen_false += not expected
    assert seen_true > 50 and seen_false > 50


def test_gale_ryser_answers_alike_without_the_build(monkeypatch):
    # The draws of test_gale_ryser_agrees_with_backtracking.
    rng = random.Random(99)
    draws = []
    for _ in range(500):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        r = tuple(rng.randint(0, min(n, 4)) for _ in range(m))
        draws.append((r, tuple(rng.randint(0, min(m, 4)) for _ in range(n))))
    expected = [matrix_exists(r, x) for r, x in draws]
    assert [gale_ryser_feasible(r, x) for r, x in draws] == expected
    # With equal totals, the capacity test is the Gale-Ryser test.
    assert [sum(r) == sum(x) and feasible_min_remaining(x, r) for r, x in draws] == expected
    monkeypatch.setattr(_speedups, "profile", _speedups._unavailable)
    assert [gale_ryser_feasible(r, x) for r, x in draws] == expected


def test_a_hull_that_disagrees_with_the_prefix_test_is_a_bug(monkeypatch):
    r, x = (2, 2, 1), (2, 2, 1)
    assert gale_ryser_feasible(r, x)
    profile = _speedups.profile
    monkeypatch.setattr(_speedups, "profile", lambda *args: (*profile(*args)[:-1], -1))
    text = "the prefix tests disagree on row sums (2, 2, 1), column sums (2, 2, 1)"
    with pytest.raises(InternalInvariantError) as info:
        construct_matrix(r, x)
    assert str(info.value) == text
    with pytest.raises(InternalInvariantError) as info:
        gale_ryser_feasible(r, x)
    assert str(info.value) == text
    assert not feasible_min_remaining(x, r)  # the sign alone, with no prefix test to disagree


def test_feasible_min_remaining_examples():
    assert feasible_min_remaining((7, 6, 5, 4, 4), (4, 4, 3, 1, 1))
    assert not feasible_min_remaining((0, 0), (1,))
    assert not feasible_min_remaining((1,), (2,))


@pytest.mark.parametrize(
    "c, r, expected",
    [
        # Ceilings of 2**64 and more: no column takes more than m units.
        ((2**64, 0), (1,), True),
        ((2**64, 2**64 + 5, 0), (2, 2, 2), True),
        ((2**64, 0, 0), (2,), False),
        ((2**70,), (2,), False),
        ((10**30, 1, 1), (3, 1), True),
        ((10**30, 1, 0), (3, 1), False),
        ((2**64 - 1, 2**63), (2, 2, 1), True),
        # No columns: only rows that take nothing fit.
        ((), (), True),
        ((), (0, 0), True),
        ((), (1,), False),
        ((), (0, 1), False),
        # No rows: every ceiling fits.
        ((0, 0), (), True),
        ((3,), (), True),
        ((2**65, 0), (), True),
        # Negative entries make the class empty rather than raising.
        ((-1, 2), (1,), False),
        ((2, 2), (-1,), False),
        ((-1,), (), False),
        ((), (-1,), False),
        # A row wider than the instance.
        ((5, 5), (3,), False),
        ((5, 5), (2, 3, 0), False),
        ((2**64, 2**64), (3,), False),
    ],
)
def test_feasible_min_remaining_edges(c, r, expected):
    assert feasible_min_remaining(c, r) is expected


def test_feasible_min_remaining_matches_the_supermajorization_form():
    rng = random.Random(808)
    seen = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(0, 40)
        m = rng.randint(0, 40)
        r = tuple(rng.randint(0, n) for _ in range(m))
        scale = rng.choice((2, m + 2, 2 * m + 2, 2**64 + m))
        c = tuple(rng.randint(0, scale) if rng.random() < 0.9 else rng.randint(0, 2) for _ in range(n))
        expected = weakly_supermajorized(c, conjugate(r, n)) if n else sum(r) == 0
        assert feasible_min_remaining(c, r) is expected, (c, r)
        seen[expected] += 1
    assert min(seen.values()) > 100


def test_feasible_min_remaining_answers_alike_without_the_build(monkeypatch):
    rng = random.Random(909)
    draws = []
    for _ in range(300):
        n, m = rng.randint(0, 12), rng.randint(0, 12)
        r = tuple(rng.randint(0, n) for _ in range(m))
        c = tuple(rng.choice((rng.randint(0, m + 1), 2**64 + rng.randint(0, 3))) for _ in range(n))
        draws.append((c, r))
    compiled = [feasible_min_remaining(c, r) for c, r in draws]
    assert 50 < sum(compiled) < 250
    monkeypatch.setattr(_speedups, "profile", _speedups._unavailable)
    assert [feasible_min_remaining(c, r) for c, r in draws] == compiled


def test_feasible_min_remaining_matches_enumerated_fill_vectors():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        c = tuple(rng.randint(0, 4) for _ in range(n))
        r = tuple(rng.randint(0, min(n, 4)) for _ in range(m))
        inst = Instance("min_remaining", r, ceiling=c)
        brute = bool(enumerate_attainable(inst, max_total=20).column_sets)
        assert feasible_min_remaining(c, r) == brute, (c, r)


def test_construct_matrix_forced():
    a = construct_matrix((1,), (1, 0, 0))
    assert a.tolist() == [[1, 0, 0]]


def test_construct_matrix_examples():
    a = construct_matrix((2, 2, 1, 1), (2, 2, 1, 1))
    assert row_sums(a) == (2, 2, 1, 1) and col_sums(a) == (2, 2, 1, 1)
    b = construct_matrix((4, 4, 3, 1, 1), (3, 3, 3, 2, 2))
    assert row_sums(b) == (4, 4, 3, 1, 1) and col_sums(b) == (3, 3, 3, 2, 2)


def test_construct_matrix_random_sums_roundtrip():
    rng = random.Random(17)
    count = 0
    while count < 100:
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        r = tuple(rng.randint(0, n) for _ in range(m))
        x_raw = [0] * n
        for i in range(m):  # realize sums from an actual random matrix
            for j in rng.sample(range(n), r[i]):
                x_raw[j] += 1
        x = tuple(x_raw)
        a = construct_matrix(r, x)
        assert row_sums(a) == r and col_sums(a) == x
        count += 1


def test_construct_matrix_names_violated_prefix():
    with pytest.raises(InfeasibleError, match="prefix"):
        construct_matrix((2, 1, 0), (3, 0))
    with pytest.raises(InfeasibleError, match="total"):
        construct_matrix((2, 1), (1, 1))
    with pytest.raises(InfeasibleError, match="exceeds the number of columns"):
        construct_matrix((3,), (1, 1))


# Each of the six reasons _line_sum_violation gives, in full, and which one
# wins when several hold: the first in the order listed here.
LINE_SUM_VIOLATIONS = [
    ((2, -1), (1, 0), "row sums contain a negative entry"),
    ((-1,), (-1, 5), "row sums contain a negative entry"),
    ((1, 1), (3, -1), "column sums contain a negative entry"),
    ((5, 1), (1, -2), "column sums contain a negative entry"),
    ((1, 3), (2, 2), "row_sums[1] = 3 exceeds the number of columns 2"),
    ((4, 3), (9, 1, 0), "row_sums[0] = 4 exceeds the number of columns 3"),
    ((1, 1), (0, 3), "col_sums[1] = 3 exceeds the number of rows 2"),
    ((0,), (2, 5), "col_sums[0] = 2 exceeds the number of rows 1"),
    ((2, 1), (1, 1), "total row sum 3 differs from total column sum 2"),
    ((), (0, 0), None),
    ((0, 0), (), None),
    ((1,), (), "row_sums[0] = 1 exceeds the number of columns 0"),
    ((), (1,), "col_sums[0] = 1 exceeds the number of rows 0"),
    ((2, 1, 0), (3, 0), "prefix 1 of the sorted column sums is 3, exceeding the conjugate row-sum prefix 2"),
    ((3, 1, 1, 1), (3, 3, 0, 0), "prefix 2 of the sorted column sums is 6, exceeding the conjugate row-sum prefix 5"),
    ((3, 3, 3, 1), (4, 4, 1, 1), "prefix 2 of the sorted column sums is 8, exceeding the conjugate row-sum prefix 7"),
    ((4, 2), (0, 2, 2, 2), "prefix 3 of the sorted column sums is 6, exceeding the conjugate row-sum prefix 5"),
    ((2, 2, 0, 0), (0, 2, 2, 0), None),
    ((2, 2, 2), (3, 3, 0), None),
    ((3, 3, 1), (3, 1, 1, 2), None),
]


@pytest.mark.parametrize("r, x, reason", LINE_SUM_VIOLATIONS)
def test_construct_matrix_names_each_violation_in_full(r, x, reason):
    if reason is None:
        a = construct_matrix(r, x)
        assert a.shape == (len(r), len(x))
        assert row_sums(a) == r and col_sums(a) == x
        assert gale_ryser_feasible(r, x)
        return
    with pytest.raises(InfeasibleError) as exc:
        construct_matrix(r, x)
    assert str(exc.value) == f"no 0/1 matrix has these line sums: {reason}"
    assert not gale_ryser_feasible(r, x)


def test_interchange_example():
    a = make_matrix([[0, 1], [1, 0]])
    b = interchange(a, 0, 1, 0, 1)
    assert b.tolist() == [[1, 0], [0, 1]]
    assert interchange(b, 0, 1, 1, 0).tolist() == a.tolist()
    with pytest.raises(ValueError):
        interchange(a, 0, 1, 1, 0)


def test_interchange_preserves_sums_and_is_involutive():
    rng = random.Random(23)
    for _ in range(50):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        a = make_matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
        spots = [
            (i, j, p, q)
            for i in range(m)
            for j in range(m)
            if i != j
            for p in range(n)
            for q in range(n)
            if p != q and a[i, p] == 0 and a[i, q] == 1 and a[j, p] == 1 and a[j, q] == 0
        ]
        for i, j, p, q in spots[:5]:
            b = interchange(a, i, j, p, q)
            assert row_sums(b) == row_sums(a) and col_sums(b) == col_sums(a)
            back = interchange(b, i, j, q, p)
            assert np.array_equal(back, a)


@pytest.mark.parametrize("m, n", [(0, 0), (1, 0), (3, 0), (0, 2)])
def test_empty_shapes(m, n):
    zeros = ((0,) * m, (0,) * n)
    for r, x in (zeros, ((1,) * m, (0,) * n), ((0,) * m, (1,) * n)):
        assert gale_ryser_feasible(r, x) == matrix_exists(r, x), (r, x)
    assert gale_ryser_feasible(*zeros)
    assert construct_matrix(*zeros).shape == (m, n)
    assert [a.shape for a in enumerate_matrices(*zeros)] == [(m, n)]


def test_enumerate_matrices_small_counts():
    assert len(enumerate_matrices((1, 1), (1, 1))) == 2
    assert len(enumerate_matrices((1,), (1, 0))) == 1
    assert len(enumerate_matrices((2, 1), (1, 1, 1))) == 3


def test_interchange_closure_equals_backtracking():
    rng = random.Random(31)
    done = 0
    while done < 60:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = tuple(rng.randint(0, n) for _ in range(m))
        x_raw = [0] * n
        for i in range(m):
            for j in rng.sample(range(n), r[i]):
                x_raw[j] += 1
        x = tuple(x_raw)
        closure = {a.tobytes() for a in enumerate_matrices(r, x)}
        direct = {a.tobytes() for a in all_matrices(r, x)}
        assert closure == direct, (r, x)
        done += 1


def test_geth_examples():
    assert geth_vector((7, 6, 5, 4, 4), (5, 3, 3, 2, 0)) == (5, 3, 3, 2, 0)
    assert geth_vector((3, 2, 1), (3, 2, 1)) == (3, 2, 1)
    assert geth_vector((2, 2, 2), (4, 2, 0)) == (2, 2, 2)
    assert geth_vector((0, 3, 1), (1, 1, 0)) == (0, 1, 1)  # any ceiling order
    assert geth_vector((1, 3, 0), (1, 1, 0)) == (1, 1, 0)


def test_geth_rejects_infeasible():
    with pytest.raises(InfeasibleError):
        geth_vector((1, 0), (3, 1))
    with pytest.raises(ValueError):
        geth_vector((3, 3), (1, 2))  # threshold not sorted


@given(st.data())
def test_geth_output_properties(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
    n = rng.randint(1, 7)
    tau = rng.randint(0, 16)
    t = random_partition(rng, tau, n)
    bumps = tuple(rng.randint(0, 3) for _ in range(n))
    c = sort_desc(tuple(a + b for a, b in zip(t, bumps)))
    x = geth_vector(c, t)
    assert majorized(x, t)
    assert all(a <= b for a, b in zip(x, c))
    assert sort_desc(x) == x  # nonincreasing capacities give a sorted answer


def test_geth_brute_force_agreement_tiny():
    # Any output is fine as long as it meets both conditions; cross-check the
    # conditions against an exhaustive scan for witnesses.
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 4)
        tau = rng.randint(0, 8)
        t = random_partition(rng, tau, n)
        c = sort_desc(tuple(v + rng.randint(0, 2) for v in t))
        x = geth_vector(c, t)
        witnesses = [
            w
            for w in _all_vectors_below(c, sum(t))
            if majorized(w, t)
        ]
        assert tuple(x) in witnesses


def _all_vectors_below(c, total):
    out = []

    def rec(j, remaining, partial):
        if j == len(c):
            if remaining == 0:
                out.append(tuple(partial))
            return
        for v in range(min(c[j], remaining) + 1):
            rec(j + 1, remaining - v, partial + [v])

    rec(0, total, [])
    return out


def test_conjugate_in_feasibility_gate():
    # conjugate at the column count underpins the feasibility test
    assert conjugate((4, 4, 3, 1, 1), 5) == (5, 3, 3, 2, 0)


@given(st.data())
def test_geth_any_ceiling_order(data):
    # c is a shuffled, bumped rearrangement of a vector majorized by t, so
    # t weakly supermajorizes it whatever its order.
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
    n = rng.randint(1, 8)
    t = random_partition(rng, rng.randint(0, 20), n)
    y = list(t)
    for _ in range(rng.randint(0, 2 * n)):
        p, q = rng.randrange(n), rng.randrange(n)
        if y[p] > y[q] + 1:
            y[p] -= 1
            y[q] += 1
    c = [v + rng.randint(0, 3) for v in y]
    rng.shuffle(c)
    x = geth_vector(c, t)
    assert majorized(x, t)
    assert all(a <= b for a, b in zip(x, c))
    assert all(x[i] >= x[j] for i in range(n) for j in range(n) if c[i] > c[j])
    assert sort_desc(x) == geth_vector(sort_desc(c), t)
