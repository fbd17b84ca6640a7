import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from majpop import (
    LengthMismatchError,
    compare,
    conjugate,
    default_conjugate_dim,
    equivalent,
    majorized,
    pad,
    partitions,
    sort_asc,
    sort_desc,
    weakly_submajorized,
    weakly_supermajorized,
)

from helpers import distinct_index_pairs, int_vectors, majorized_pairs, same_length_pairs


def test_sort_desc_examples():
    assert sort_desc((3, 1, 2)) == (3, 2, 1)
    assert sort_desc((7, 6, 5, 4, 4)) == (7, 6, 5, 4, 4)
    assert sort_desc(()) == ()
    assert sort_asc((3, 1, 2)) == (1, 2, 3)


def test_compare_examples():
    assert compare((1, 1, 1), (3, 0, 0), "majorize")
    assert compare((6, 6, 6, 4, 4, 4, 2), (7, 6, 5, 4, 4, 4, 2), "majorize")
    assert not compare((2, 2), (3, 0), "majorize")
    assert compare((5, 1, 4), (5, 1, 4), "majorize")


def test_compare_rejects_length_mismatch():
    with pytest.raises(LengthMismatchError):
        compare((1, 2), (1, 2, 0), "majorize")
    with pytest.raises(LengthMismatchError):
        weakly_submajorized((1,), (1, 0))
    with pytest.raises(LengthMismatchError):
        weakly_supermajorized((1,), (1, 0))
    assert compare(pad((1, 2), 3), (1, 2, 0), "majorize")


def test_compare_rejects_unknown_relation():
    with pytest.raises(ValueError):
        compare((1,), (1,), "bogus")


def test_equivalent_examples():
    assert equivalent((3, 3, 2, 3, 2), (3, 3, 3, 2, 2))
    assert equivalent((2, 3, 2, 3, 3), (3, 3, 3, 2, 2))
    assert not equivalent((1, 2), (1, 1))


def test_conjugate_examples():
    assert conjugate((5, 4, 2, 1), 7) == (4, 3, 2, 2, 1, 0, 0)
    assert conjugate((2, 2, 1, 1), 4) == (4, 2, 0, 0)
    assert conjugate((0, 0), 3) == (0, 0, 0)


def test_conjugate_rejects_lossy_dim():
    with pytest.raises(ValueError):
        conjugate((5, 4, 2, 1), 4)
    with pytest.raises(ValueError):
        conjugate((1,), 0)
    with pytest.raises(ValueError):
        conjugate((-1,), 3)


def test_conjugate_error_messages():
    with pytest.raises(ValueError, match=r"^conjugate dimension 4 is lossy: largest element is 5$"):
        conjugate((5, 4, 2, 1), 4)
    with pytest.raises(ValueError, match=r"^conjugate dimension must be positive, got 0$"):
        conjugate((1,), 0)
    with pytest.raises(ValueError, match=r"^conjugate input\[0\]: negative value -1$"):
        conjugate((-1,), 3)
    with pytest.raises(ValueError, match=r"^conjugate input\[1\]: expected an integer, got True$"):
        conjugate((1, True), 3)


def test_default_conjugate_dim():
    assert default_conjugate_dim((5, 4, 2, 1)) == 5
    assert default_conjugate_dim((9, 1)) == 9
    assert default_conjugate_dim((0, 0)) == 2


def test_pad_refuses_truncation():
    assert pad((1, 2), 4) == (1, 2, 0, 0)
    with pytest.raises(ValueError):
        pad((1, 2, 3), 2)


@given(int_vectors())
def test_relations_reflexive(x):
    for rel in ("submajorize_w", "supermajorize_w", "majorize"):
        assert compare(x, x, rel)


@given(majorized_pairs(), st.integers(min_value=0, max_value=3))
def test_relations_transitive_on_chains(pair, extra):
    x, y = pair
    z = list(y)
    # push z further up by moving units onto its largest entry
    top = z.index(max(z))
    for k in range(len(z)):
        if k != top and z[k] >= 1 and extra:
            z[k] -= 1
            z[top] += 1
    z = tuple(z)
    assert majorized(x, y) and majorized(y, z)
    assert majorized(x, z)
    assert weakly_submajorized(x, y) and weakly_submajorized(y, z) and weakly_submajorized(x, z)
    assert weakly_supermajorized(x, y) and weakly_supermajorized(y, z) and weakly_supermajorized(x, z)


@given(same_length_pairs())
def test_antisymmetry_up_to_rearrangement(pair):
    x, y = pair
    if majorized(x, y) and majorized(y, x):
        assert equivalent(x, y)


@given(int_vectors(min_len=1))
def test_permutations_mutually_majorize(x):
    rng = random.Random(sum(x) + len(x))
    y = list(x)
    rng.shuffle(y)
    assert majorized(x, tuple(y)) and majorized(tuple(y), x)
    assert equivalent(x, tuple(y))


@given(majorized_pairs())
def test_majorize_implies_both_weak_orders(pair):
    x, y = pair
    assert weakly_submajorized(x, y)
    assert weakly_supermajorized(x, y)


@given(int_vectors(min_len=1, max_len=7, max_value=6))
def test_conjugate_involution(v):
    p = sort_desc(v)
    for dim in (default_conjugate_dim(p), default_conjugate_dim(p) + 3):
        assert conjugate(conjugate(p, dim), len(p)) == p


def test_conjugate_antitone_exhaustive_small_totals():
    # Conjugation reverses the majorization order on equal-sum partitions.
    for tau in range(1, 13):
        parts = list(partitions(tau, tau))
        for x in parts:
            for y in parts:
                assert majorized(x, y) == majorized(conjugate(y, tau), conjugate(x, tau))


def test_conjugate_preserves_total():
    rng = random.Random(5)
    for _ in range(200):
        v = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 8)))
        c = conjugate(v, default_conjugate_dim(v))
        assert sum(c) == sum(v)
        assert sort_desc(c) == c


# Sorting keeps elementwise domination.
@given(same_length_pairs(max_value=12))
def test_sorting_preserves_elementwise_order(pair):
    x, base = pair
    y = tuple(min(a, b) for a, b in zip(base, x))
    assert all(a <= b for a, b in zip(y, x))
    assert all(a <= b for a, b in zip(sort_desc(y), sort_desc(x)))
    assert all(a <= b for a, b in zip(sort_asc(y), sort_asc(x)))


# Aligning the subtrahend (or addend) with the sorted minuend flattens the result.
@given(same_length_pairs(max_value=12))
def test_sorted_difference_is_flattest(pair):
    x, y = pair
    xd = sort_desc(x)
    diff_aligned = tuple(a - b for a, b in zip(xd, sort_desc(y)))
    diff_raw = tuple(a - b for a, b in zip(xd, y))
    assert majorized(diff_aligned, diff_raw)
    sum_aligned = tuple(a + b for a, b in zip(xd, sort_asc(y)))
    sum_raw = tuple(a + b for a, b in zip(xd, y))
    assert majorized(sum_aligned, sum_raw)


# Subtracting units at earlier sorted positions of the smaller vector keeps it
# below; dually for additions at later positions.
@given(st.data())
def test_unit_transfers_respect_order(data):
    x, y = data.draw(majorized_pairs(min_len=2, max_len=7, max_value=8))
    n = len(x)
    count = data.draw(st.integers(min_value=1, max_value=n))
    p, q = data.draw(distinct_index_pairs(n=n, count=count))

    xd = list(sort_desc(x))
    yd = list(sort_desc(y))
    w = list(xd)
    z = list(yd)
    for a, b in zip(p, q):
        w[a] -= 1
        z[b] -= 1
    assert majorized(tuple(w), tuple(z))

    w = list(xd)
    z = list(yd)
    for a, b in zip(p, q):
        w[b] += 1  # additions go to the later-or-equal position on the smaller side
        z[a] += 1
    assert majorized(tuple(w), tuple(z))
