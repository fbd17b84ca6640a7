import collections
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
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
from majpop import conjugate, lattice, oracle
from majpop.oracle import DEFAULT_MAX_COLS, DEFAULT_MAX_TOTAL, all_matrices, matrix_exists
from majpop import col_sums, enumerate_matrices, matrix_rows, row_sums

from helpers import (
    PROFILE_FIELD, certify_sweep, raise_profile, random_feasible_instance, random_instance,
    reference_attainable, reference_lattice_closure,
)

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


def _assert_matches_reference(inst):
    """``enumerate_attainable`` equals the depth-first reference, and every
    entry it returns is a Python int."""
    aset = enumerate_attainable(inst)
    column_sets, vectors = reference_attainable(inst)
    assert aset.column_sets == column_sets, inst
    assert aset.vectors == vectors, inst
    assert aset.canonical_vectors == {sort_desc(v) for v in vectors}, inst
    for found in (aset.column_sets, aset.vectors, aset.canonical_vectors):
        assert all(type(e) is int for v in found for e in v), inst
    return aset


def test_enumeration_matches_depth_first_reference():
    rng = random.Random(2222)
    variants = ("min_remaining", "min_combined", "general_min", "general_max")
    seen = collections.Counter()
    checked = 0
    while checked < 400:
        variant = variants[checked % 4]
        inst = random_instance(rng, variant, max_mn=7, max_value=5)
        if sum(inst.row_sums) > DEFAULT_MAX_TOTAL:
            continue
        aset = _assert_matches_reference(inst)
        checked += 1
        seen[f"n={inst.n}"] += 1
        seen["infeasible"] += not aset.column_sets
        if variant != "min_combined":
            peak = conjugate(inst.row_sums, inst.n)[0]
            seen["binding" if min(inst.ceiling) < peak else "slack"] += 1
    keys = [f"n={n}" for n in range(1, 8)] + ["infeasible", "binding", "slack"]
    assert min(seen[k] for k in keys) >= 10, seen


@pytest.mark.parametrize("top", [2**63 - 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("variant", ["min_remaining", "min_combined", "general_min", "general_max"])
def test_enumeration_matches_reference_at_the_int64_edges(variant, top):
    r = (3, 2, 2, 1)
    total = sum(r)
    caps = (4, 4, 1, 2)
    # One entry at ``top``, and one where the largest objective entry is
    # exactly 2**63 - 1, the last value the int64 arrays hold.
    for profile in ((top, 0, 5, top), (2**63 - 1 - total, 3, 0, 1)):
        if variant == "min_remaining":
            inst = Instance(variant, r, ceiling=profile)
        elif variant == "min_combined":
            inst = Instance(variant, r, base=profile)
        elif variant == "general_min":
            inst = Instance(variant, r, reference=profile, ceiling=caps)
        else:
            inst = Instance(variant, r, base=profile, ceiling=caps)
        assert _assert_matches_reference(inst).vectors
        dtype = oracle._attainable_arrays(inst, DEFAULT_MAX_COLS, DEFAULT_MAX_TOTAL)[1].dtype
        assert dtype == (object if max(profile) > 2**63 - 1 - total else np.int64)


def test_enumeration_matches_reference_with_negative_and_empty_objectives():
    # A zero reference drives the shaved entries negative.
    aset = _assert_matches_reference(
        Instance("general_min", (3, 3, 2, 1), reference=(0, 0, 0, 0), ceiling=(4, 4, 4, 1))
    )
    assert min(min(v) for v in aset.vectors) == -4
    # A row longer than the instance is wide, and caps that cannot hold the total.
    for inst in (
        Instance("min_combined", (3,), base=(1, 2)),
        Instance("general_max", (2, 2), base=(1, 2, 0), ceiling=(1, 1, 1)),
    ):
        assert not _assert_matches_reference(inst).vectors


CERTIFY_SWEEP = Path(__file__).parent / "golden" / "certify-sweep.json"


def _certify_sweep_text() -> str:
    """The golden sweep's text: one line per draw of ``certify_sweep()``,
    holding the instance, the absent vector and the report, as a JSON list."""
    lines = []
    for inst, absent in certify_sweep():
        fields = {f: getattr(inst, f) for f in ("variant", "row_sums", "ceiling", "base", "reference")}
        entry = {
            "instance": {k: v for k, v in fields.items() if v is not None},
            "absent": absent,
            "report": certify(inst, absent_canonical=absent).to_json(),
        }
        lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_certify_reproduces_the_golden_sweep():
    assert _certify_sweep_text() == CERTIFY_SWEEP.read_text()


def test_certify_sums_int64_entries_exactly():
    # Objective entries near 2**62 fit int64, but the prefix sums that
    # decide majorization between their sorted forms need not.
    report = certify(Instance("min_remaining", (2, 2, 1), ceiling=(2**62, 2**62, 2**62, 3)))
    assert report.passed, report.to_json()
    rng = random.Random(62)
    variants = ("min_remaining", "min_combined", "general_min", "general_max")
    checked = 0
    while checked < 300:
        inst = random_instance(rng, variants[checked % 4], max_mn=7)
        if sum(inst.row_sums) > DEFAULT_MAX_TOTAL:
            continue
        fields = {f: getattr(inst, f) for f in ("ceiling", "base", "reference")}
        field = PROFILE_FIELD[inst.variant]
        fields[field] = raise_profile(fields[field], past=False)
        raised = Instance(inst.variant, inst.row_sums, **fields)
        report = certify(raised)
        assert report.passed, (raised, report.to_json())
        checked += 1


def test_certify_refuses_an_absent_vector_of_the_wrong_length():
    shave = Instance("min_remaining", (4, 4, 3, 1, 1), ceiling=(7, 6, 5, 4, 4))
    for absent in ((1, 2), (3, 3, 3, 2, 2, 0)):
        with pytest.raises(
            LengthMismatchError,
            match=f"absent vector has {len(absent)} entries but the instance has 5 columns",
        ):
            certify(shave, absent_canonical=absent)


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


def _closure_record(report):
    return next(r for r in report.records if r.claim == "canonical_column_lattice_closed")


def _incomparable(a, b):
    return not majorized(a, b) and not majorized(b, a)


class _Cores:
    """A stand-in for the lattice module as certify calls it.  Each call of
    ``_meet_join_pairs`` logs its pairs as one block, and when ``faulty``
    picks an incomparable pair, its meet and join are a vector outside every
    feasible set.  Comparable pairs always get the true meet and join.
    ``_meet`` and ``_join`` answer the same way, one pair at a time, for
    ``reference_lattice_closure``."""

    def __init__(self, faulty=lambda a, b: False):
        self.faulty = faulty
        self.blocks = []

    def _wrong(self, a, b):
        return _incomparable(a, b) and self.faulty(a, b)

    def _meet_join_pairs(self, forms, i, j):
        meets, joins = lattice._meet_join_pairs(forms, i, j)
        pairs = [(tuple(forms[p].tolist()), tuple(forms[q].tolist())) for p, q in zip(i, j)]
        self.blocks.append(pairs)
        for k, (a, b) in enumerate(pairs):
            if self._wrong(a, b):
                meets[k] = joins[k] = -1
        return meets, joins

    def _meet(self, a, b):
        return (-1,) * len(a) if self._wrong(a, b) else lattice._meet(a, b)

    def _join(self, a, b):
        return (-1,) * len(a) if self._wrong(a, b) else lattice._join(a, b)

    @property
    def pairs(self):
        return [p for block in self.blocks for p in block]


CLOSURE_CASES = [
    Instance("min_remaining", (4, 4, 3, 1, 1), ceiling=(7, 6, 5, 4, 4)),
    Instance("min_combined", (4, 3, 3, 2, 1), base=(8, 6, 5, 2, 2)),
    Instance("general_min", (3, 3, 2, 2, 1, 1), reference=(4, 1, 0, 3, 2), ceiling=(6, 6, 6, 2, 1)),
]


@pytest.mark.parametrize("inst", CLOSURE_CASES)
def test_closure_check_calls_the_cores_only_for_incomparable_pairs(monkeypatch, inst):
    forms = sorted({sort_desc(x) for x in enumerate_attainable(inst).column_sets})
    pairs = list(itertools.combinations(forms, 2))
    incomparable = [p for p in pairs if _incomparable(*p)]
    assert len(incomparable) > 1 and len(incomparable) < len(pairs)

    honest = _Cores()
    monkeypatch.setattr(oracle, "lattice", honest)
    assert _closure_record(certify(inst)).passed
    assert honest.pairs == incomparable
    assert max(map(len, honest.blocks)) <= oracle._BLOCK

    # Wrong answers on every incomparable pair: the first one in sorted order
    # fails the record, with the witness the all-pairs loop gives, and no
    # block after its own reaches the core.
    faulty = _Cores(faulty=lambda a, b: True)
    monkeypatch.setattr(oracle, "lattice", faulty)
    rec = _closure_record(certify(inst))
    (a, b), outside = incomparable[0], (-1,) * inst.n
    assert not rec.passed
    assert rec.witness == f"pair {a}, {b} gives meet {outside} join {outside}"
    assert (rec.passed, rec.witness) == reference_lattice_closure(
        enumerate_attainable(inst).column_sets, _Cores(faulty=lambda a, b: True)
    )
    assert len(faulty.blocks) == 1 and faulty.pairs == incomparable[:len(faulty.pairs)]


def _every_third(a, b):
    return sum(i * (u + v) for i, (u, v) in enumerate(zip(a, b))) % 3 == 0


def test_closure_record_matches_all_pairs_reference(monkeypatch):
    # Cores that are wrong on about a third of the incomparable pairs make
    # the witness depend on which pair fails first.
    rng = random.Random(1973)
    variants = ("min_remaining", "min_combined", "general_min", "general_max")
    seen = collections.Counter()
    checked = 0
    while checked < 400:
        variant = variants[checked % 4]
        inst = random_instance(rng, variant, max_mn=6, max_value=5)
        if sum(inst.row_sums) > DEFAULT_MAX_TOTAL:
            continue
        column_sets = enumerate_attainable(inst).column_sets
        for faulty in (lambda a, b: False, _every_third):
            monkeypatch.setattr(oracle, "lattice", _Cores(faulty))
            rec = _closure_record(certify(inst))
            want = reference_lattice_closure(column_sets, _Cores(faulty))
            assert (rec.passed, rec.witness) == want, inst
            seen["failed"] += not rec.passed
        checked += 1
        seen["infeasible"] += not column_sets
        seen["n=6"] += inst.n == 6
        seen["m=6"] += len(inst.row_sums) == 6
        if variant.startswith("general"):
            peak = conjugate(inst.row_sums, inst.n)[0]
            seen["binding" if min(inst.ceiling) < peak else "slack"] += 1
    assert min(seen[k] for k in ("failed", "infeasible", "n=6", "m=6", "binding", "slack")) >= 10, seen


@pytest.mark.parametrize("block", [1, 2, 7])
def test_certify_is_the_same_at_every_block_size(monkeypatch, block):
    faulty_cases = CLOSURE_CASES + [inst for inst, _ in certify_sweep()[:40]]
    want = [
        _closure_record(_certify_with(monkeypatch, inst, _Cores(_every_third))) for inst in faulty_cases
    ]
    assert sum(not rec.passed for rec in want) >= 5
    monkeypatch.setattr(oracle, "_BLOCK", block)
    shapes = []
    blocks = oracle._majorized_blocks

    def recording(lo, hi):
        for start, below in blocks(lo, hi):
            shapes.append(below.shape)
            yield start, below

    monkeypatch.setattr(oracle, "_majorized_blocks", recording)
    assert _certify_sweep_text() == CERTIFY_SWEEP.read_text()
    # Each pass over the majorization matrix holds at most one row or
    # _BLOCK entries, and each batch of pairs at most _BLOCK pairs.
    assert all(rows == 1 or rows * cols <= block for rows, cols in shapes)
    for inst, rec in zip(faulty_cases, want):
        cores = _Cores(_every_third)
        assert _closure_record(_certify_with(monkeypatch, inst, cores)) == rec
        assert max(map(len, cores.blocks), default=0) <= block
        if not rec.passed:  # no block after the failing pair's is computed
            a, b = next(p for p in cores.pairs if _every_third(*p))
            assert rec.witness.startswith(f"pair {a}, {b} gives")
            assert (a, b) in cores.blocks[-1]


def _certify_with(monkeypatch, inst, cores):
    monkeypatch.setattr(oracle, "lattice", cores)
    try:
        return certify(inst)
    finally:
        monkeypatch.setattr(oracle, "lattice", lattice)


# Run in a child under a 1 GiB address-space limit: certify of an instance
# whose 1 849 distinct objective forms give a 1 849 x 1 849 majorization
# matrix, at a raised total.
_LIMITED_CERTIFY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from majpop import Instance, certify
from majpop.oracle import _attainable_arrays, _distinct_rows, _sorted_rows
inst = Instance("min_combined", (4, 4, 3, 3, 2, 2, 2), base=(0, 1, 2, 3, 4, 5, 6))
assert len(_distinct_rows(_sorted_rows(_attainable_arrays(inst, 7, 20)[1]))) == 1849
sys.exit(0 if certify(inst, max_total=20).passed else 1)
"""


def test_certify_at_a_raised_total_fits_in_one_gib():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _LIMITED_CERTIFY], capture_output=True, env=env)
    assert run.returncode == 0, run.stderr
