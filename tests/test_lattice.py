import itertools
import random

import numpy as np
import pytest

from majpop import (
    conjugate,
    covers,
    equivalent,
    join,
    join_recursive,
    majorized,
    meet,
    partitions,
    sort_desc,
)
from majpop import lattice
from majpop.majorization import _conjugate
from majpop.oracle import bruteforce_join, bruteforce_meet

from helpers import PartitionTable, random_partition


def test_meet_examples():
    assert meet((5, 2, 2, 2), (4, 3, 3, 1)) == (4, 3, 2, 2)
    assert meet((3, 2, 1), (3, 2, 1)) == (3, 2, 1)
    for y in partitions(6, 4):
        assert meet((6, 0, 0, 0), y) == y


def test_join_examples():
    assert join((5, 2, 2, 2), (4, 3, 3, 1)) == (5, 3, 2, 1)
    assert join_recursive((5, 2, 2, 2), (4, 3, 3, 1)) == (5, 3, 2, 1)
    assert join((4, 2, 1), (4, 2, 1)) == (4, 2, 1)
    u = (7, 6, 5, 4, 4, 4, 2)
    v = (6, 6, 6, 5, 4, 3, 2)
    top = join(u, v)
    assert majorized(u, top) and majorized(v, top)
    assert top == join_recursive(u, v)


def test_meet_join_validate_inputs():
    with pytest.raises(ValueError):
        meet((1, 2), (2, 1))  # not nonincreasing
    with pytest.raises(ValueError):
        meet((2, 1), (2, 2))  # sums differ
    with pytest.raises(ValueError):
        join((2, 1), (3,))  # lengths differ


def test_meet_join_error_messages():
    with pytest.raises(ValueError, match=r"^x\[1\]: expected an integer, got 'a'$"):
        meet((1, "a"), (1, 1))
    with pytest.raises(ValueError, match=r"^y\[0\]: negative value -1$"):
        join((1, 0), (-1, 2))
    with pytest.raises(ValueError, match="^lattice operations expect nonincreasing partitions; sort first$"):
        join_recursive((1, 2), (2, 1))
    with pytest.raises(ValueError, match="^partition lengths differ: 2 vs 1$"):
        join((2, 1), (3,))
    with pytest.raises(ValueError, match="^partition sums differ: 3 vs 4$"):
        meet((2, 1), (2, 2))


def test_cores_match_public_functions_on_small_totals():
    # Every pair of partitions with total <= 10, at every length up to the
    # total; lengths below sqrt(total) take join's recursive route.
    for total in range(11):
        for length in range(1, max(total, 1) + 1):
            parts = list(partitions(total, length))
            for x in parts:
                for y in parts:
                    assert lattice._meet(x, y) == meet(x, y)
                    assert lattice._join(x, y) == join(x, y)
                    assert lattice._join_recursive(x, y) == join_recursive(x, y)


def test_cores_match_public_functions_above_len_squared():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 8)
        total = rng.randint(n * n + 1, 10**6)
        x = random_partition(rng, total, n)
        y = random_partition(rng, total, n)
        assert lattice._join(x, y) == join(x, y) == join_recursive(x, y)
        assert lattice._meet(x, y) == meet(x, y)


def _batched(forms, i, j):
    """``lattice._meet_join_pairs`` on tuples, its rows back as tuples."""
    arr = np.array(forms, dtype=np.int64).reshape(len(forms), len(forms[0]))
    meets, joins = lattice._meet_join_pairs(arr, np.array(i, dtype=np.intp), np.array(j, dtype=np.intp))
    return [tuple(r) for r in meets.tolist()], [tuple(r) for r in joins.tolist()]


def test_batched_cores_match_the_tuple_cores():
    # Every ordered pair of partitions with total <= 12 and length <= 6.
    for total in range(13):
        for length in range(1, 7):
            parts = list(partitions(total, length))
            i, j = zip(*itertools.product(range(len(parts)), repeat=2))
            meets, joins = _batched(parts, i, j)
            for p, q, lo, hi in zip(i, j, meets, joins):
                x, y = parts[p], parts[q]
                assert lo == lattice._meet(x, y), (x, y)
                assert hi == lattice._join(x, y) == lattice._join_recursive(x, y), (x, y)


def test_batched_cores_match_the_tuple_cores_above_len_squared():
    # Totals above length**2, where _join takes the recursive route; the
    # batched core builds conjugates as long as the largest part.
    rng = random.Random(1973)
    for _ in range(100):
        n = rng.randint(1, 6)
        total = rng.randint(n * n + 1, 3000)
        forms = [random_partition(rng, total, n) for _ in range(4)]
        i, j = zip(*itertools.combinations(range(4), 2))
        meets, joins = _batched(forms, i, j)
        for p, q, lo, hi in zip(i, j, meets, joins):
            x, y = forms[p], forms[q]
            assert lo == lattice._meet(x, y)
            assert hi == lattice._join(x, y) == lattice._join_recursive(x, y)
    # No pairs: empty rows of the forms' length.
    meets, joins = lattice._meet_join_pairs(np.array([[2, 1]]), np.array([], dtype=np.intp), np.array([], dtype=np.intp))
    assert meets.shape == joins.shape == (0, 2)


def test_join_above_len_squared_checks_its_inputs_once(monkeypatch):
    calls = []
    check = lattice._check_pair

    def counting(x, y):
        calls.append((x, y))
        return check(x, y)

    monkeypatch.setattr(lattice, "_check_pair", counting)
    assert join((9, 1), (6, 4)) == (9, 1)
    assert len(calls) == 1


def test_unchecked_conjugate_matches_conjugate():
    rng = random.Random(31)
    for total in range(11):
        for p in partitions(total, total + 1):
            for dim in range(max(max(p), 1), max(p) + 3):
                assert _conjugate(p, dim) == conjugate(p, dim)
    for _ in range(300):
        v = tuple(rng.randint(0, 20) for _ in range(rng.randint(0, 9)))
        dim = max(max(v, default=0), 1) + rng.randint(0, 4)
        assert _conjugate(v, dim) == conjugate(v, dim)


def test_covers_examples():
    assert covers((7, 6, 5, 4, 4, 4, 2), (6, 6, 6, 4, 4, 4, 2))
    assert covers((6, 6, 6, 4, 4, 4, 2), (6, 6, 6, 4, 4, 3, 3))
    assert not covers((3, 2, 1), (3, 2, 1))
    # a long transfer is not minimal when something fits strictly between
    assert not covers((4, 2, 0), (3, 2, 1))
    assert covers((4, 2, 0), (4, 1, 1))


def test_covers_matches_definition_exhaustively():
    for tau in range(2, 11):
        table = PartitionTable(tau, tau)
        for y in table.parts:
            for x in table.parts:
                expected = table.covers_reference(y, x)
                assert covers(y, x) == expected, (y, x)


def test_cover_implies_strict_order():
    rng = random.Random(3)
    for _ in range(200):
        tau = rng.randint(2, 18)
        n = rng.randint(2, 8)
        y = random_partition(rng, tau, n)
        x = random_partition(rng, tau, n)
        if covers(y, x):
            assert majorized(x, y) and not equivalent(x, y)


def test_lattice_axioms_random_triples():
    rng = random.Random(11)
    for _ in range(300):
        tau = rng.randint(1, 24)
        n = rng.randint(1, 7)
        x = random_partition(rng, tau, n)
        y = random_partition(rng, tau, n)
        z = random_partition(rng, tau, n)
        assert meet(x, y) == meet(y, x)
        assert join(x, y) == join(y, x)
        assert meet(x, x) == x and join(x, x) == x
        assert meet(x, join(x, y)) == x
        assert join(x, meet(x, y)) == x
        assert meet(meet(x, y), z) == meet(x, meet(y, z))
        assert join(join(x, y), z) == join(x, join(y, z))
        lo, hi = meet(x, y), join(x, y)
        assert majorized(lo, x) and majorized(lo, y)
        assert majorized(x, hi) and majorized(y, hi)


def test_meet_join_are_tight_bounds_exhaustive():
    # Ground truth from scanning every partition of the total.
    for tau in range(1, 13):
        table = PartitionTable(tau, tau)
        parts = table.parts
        for i, x in enumerate(parts):
            for y in parts[i:]:
                assert meet(x, y) == table.glb(x, y)
                assert join(x, y) == table.lub(x, y)


def test_two_join_methods_agree_on_random_pairs():
    rng = random.Random(2718)
    for _ in range(500):
        tau = rng.randint(1, 30)
        n = rng.randint(1, 10)
        x = random_partition(rng, tau, n)
        y = random_partition(rng, tau, n)
        assert join(x, y) == join_recursive(x, y)


def test_naive_bruteforce_matches_formulas_small():
    rng = random.Random(7)
    for _ in range(60):
        tau = rng.randint(1, 8)
        n = rng.randint(1, min(tau, 5)) if tau else 1
        x = random_partition(rng, tau, n)
        y = random_partition(rng, tau, n)
        assert bruteforce_meet(x, y) == meet(x, y)
        assert bruteforce_join(x, y) == join(x, y)


def test_partitions_generator():
    assert list(partitions(0, 0)) == [()]
    assert list(partitions(3, 2)) == [(3, 0), (2, 1)]
    assert sorted(partitions(4, 4), reverse=True) == [
        (4, 0, 0, 0),
        (3, 1, 0, 0),
        (2, 2, 0, 0),
        (2, 1, 1, 0),
        (1, 1, 1, 1),
    ]
    for p in partitions(9, 4):
        assert sum(p) == 9 and sort_desc(p) == p

    # Any length: the generator keeps its own stack, not the interpreter's.
    wide = list(partitions(3, 1500))
    assert [p[:4] for p in wide] == [(3, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0)]
    assert all(len(p) == 1500 and not any(p[4:]) for p in wide)
    assert list(partitions(0, 1500)) == [(0,) * 1500]
