"""The oracle's cap-ordered box and the objective claims read from one column
minimum, against product scans and pinned witness texts."""

import collections
import itertools
import random

import numpy as np
import pytest

from majpop import Instance, certify, conjugate, majorized, sort_desc
from majpop import oracle


def _random_partition(rng, total, n):
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return sort_desc(b - a for a, b in zip([0, *cuts], [*cuts, total]))


def _product_rows(total, upper, threshold):
    """Every x >= 0 with the given total, x <= upper and x majorized by
    threshold, by a scan of the whole product of the ranges."""
    ranges = [range(min(u, total) + 1) for u in upper]
    return {x for x in itertools.product(*ranges) if sum(x) == total and majorized(x, threshold)}


def test_column_array_matches_a_product_scan():
    rng = random.Random(29)
    seen = collections.Counter()
    checked = 0
    while checked < 600:
        n = rng.randint(1, 7)
        total = rng.randint(0, 14)
        upper = [rng.choice((0, rng.randint(0, total + 3), rng.randint(0, 4))) for _ in range(n)]
        if rng.random() < 0.3:  # ties
            upper = [rng.choice(upper[:2]) for _ in range(n)]
        sizes = [min(u, total) + 1 for u in upper]
        if np.prod(sizes, dtype=float) > 20_000:
            continue
        threshold = _random_partition(rng, total, n)
        if rng.random() < 0.5:  # the oracle's threshold: conjugate row sums
            rows = [rng.randint(0, n) for _ in range(rng.randint(1, 7))]
            total, threshold = sum(rows), conjugate(rows, n)
            if total > 14 or np.prod([min(u, total) + 1 for u in upper], dtype=float) > 20_000:
                continue
        xs, forms = oracle._column_array(n, total, upper, threshold)
        want = _product_rows(total, upper, threshold)
        assert xs.shape == (len(want), n) and xs.dtype == np.int64
        assert set(map(tuple, xs.tolist())) == want
        assert forms.dtype == np.int64 and forms.shape == (len({sort_desc(x) for x in want}), n)
        assert forms.tolist() == oracle._distinct_rows(oracle._sorted_rows(xs)).tolist()
        assert list(map(tuple, forms.tolist())) == sorted({sort_desc(x) for x in want})
        checked += 1
        seen[f"n={n}"] += 1
        seen["empty"] += not want
        seen["zero cap"] += 0 in upper
        seen["tied caps"] += len(set(upper)) < n
        seen["unsorted caps"] += list(upper) != sorted(upper, reverse=True)
        seen["cap above total"] += max(upper) > total
        seen["total above caps"] += total > sum(upper)
        seen["total 0"] += total == 0
    keys = [f"n={n}" for n in range(1, 8)]
    keys += ["empty", "zero cap", "tied caps", "unsorted caps", "cap above total", "total above caps", "total 0"]
    assert min(seen[k] for k in keys) >= 5, seen


# Objective rows whose sorted forms have two incomparable minimal elements,
# (3, 1, 1, 1) and (2, 2, 2, 0), both below (3, 2, 1, 0) and (4, 1, 1, 0).
_TWO_MINIMA = [(1, 1, 3, 1), (2, 0, 2, 2), (3, 1, 1, 1), (3, 2, 1, 0), (0, 2, 2, 2), (1, 4, 1, 0)]


@pytest.mark.parametrize("inst", [
    Instance("min_remaining", (2, 2, 1, 1), ceiling=(3, 3, 2, 2)),
    Instance("general_min", (2, 2, 1, 1), reference=(3, 3, 2, 2), ceiling=(4, 4, 4, 4)),
])
@pytest.mark.parametrize("offset, witness", [
    (0, "distinct sorted optima: [(2, 2, 2, 0), (3, 1, 1, 1)]"),
    (2**63, (
        "distinct sorted optima: [(9223372036854775810, 9223372036854775810, 9223372036854775810, "
        "9223372036854775808), (9223372036854775811, 9223372036854775809, 9223372036854775809, "
        "9223372036854775809)]"
    )),
])
def test_essential_uniqueness_fails_with_the_distinct_sorted_optima(monkeypatch, inst, offset, witness):
    # The witness texts are those the lexsort over the distinct sorted
    # objectives and the full majorization matrix printed for these rows.
    real = oracle._attainable_arrays

    def two_minima(inst, max_cols, max_total):
        xs, _, forms = real(inst, max_cols, max_total)
        dtype = object if offset else np.int64
        return xs, np.array([[v + offset for v in row] for row in _TWO_MINIMA], dtype=dtype), forms

    monkeypatch.setattr(oracle, "_attainable_arrays", two_minima)
    records = {rec.claim: rec for rec in certify(inst).records}
    assert not records["essential_uniqueness"].passed
    assert records["essential_uniqueness"].witness == witness
    if inst.variant == "min_remaining":  # no least element, so nothing to match
        for claim in (
            "canonical_extremum_matches_solver", "tie_branch_completeness", "sum_of_squares_scalarization"
        ):
            assert records[claim].passed and records[claim].witness == oracle._VACUOUS


def test_certify_sums_squares_past_int64_exactly():
    # Every objective entry fits int64, and so does every prefix sum, but a
    # sum of four squares near 9 * 10**18 does not.
    ceiling = (3 * 10**9 + 7, 3 * 10**9 + 5, 3 * 10**9 + 2, 3 * 10**9)
    inst = Instance("min_remaining", (2, 2, 1, 1), ceiling=ceiling)
    vectors = oracle._attainable_arrays(inst, 7, 14)[1]
    assert vectors.dtype == np.int64
    assert sum(v * v for v in vectors[0].tolist()) >= 2**63
    report = certify(inst)
    assert report.passed, report.to_json()
    rec = next(r for r in report.records if r.claim == "sum_of_squares_scalarization")
    assert rec.witness == ""


@pytest.mark.parametrize("absent, message", [
    (("x", 1), r"absent_canonical\[0\]: expected an integer, got 'x'"),
    ((1, -1), r"absent_canonical\[1\]: negative value -1"),
    ((True, 0), r"absent_canonical\[0\]: expected an integer, got True"),
    ((1.0, 1), r"absent_canonical\[0\]: expected an integer, got 1.0"),
])
def test_certify_validates_the_absent_vector(absent, message):
    inst = Instance("min_remaining", (1, 1), ceiling=(2, 2))
    with pytest.raises(ValueError, match=message):
        certify(inst, absent_canonical=absent)

