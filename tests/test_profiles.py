"""The canonical profiles, read off one hull with no sweep and no matrix,
against answers found without the hull: the sweep under every tie policy,
the oracle's least attainable element, the feasibility test, and the
plain reference sweep on Python ints."""

import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

import majpop
from helpers import reference_sweep
from majpop import (
    InfeasibleError,
    Instance,
    _speedups,
    cli,
    feasible_min_remaining,
    min_combined_profile,
    min_remaining_profile,
    solve,
    solvers,
    sort_desc,
)
from majpop.oracle import enumerate_attainable, minimal_elements
from majpop.solvers import HIGHEST_INDEX, LOAD_ORDER, LOWEST_INDEX, random_ties
from test_speedups import _libasan

POLICIES = (LOWEST_INDEX, HIGHEST_INDEX, LOAD_ORDER, random_ties(9))

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "instances")


def _draw(rng, n, m):
    """Row sums and a start profile over n columns, drawn to make ties, slack
    or shortfalls, and flat or spread profiles alike."""
    r = tuple(rng.randint(0, n) for _ in range(m))
    top = rng.choice((1, 3, m, 2 * m + 1, 10**6))
    low = rng.choice((0, 0, top // 2))
    return r, tuple(rng.randint(low, max(low, top)) for _ in range(n))


def _sizes(rng):
    for _ in range(300):
        yield rng.randint(1, 12), rng.randint(0, 12)
    for _ in range(40):
        yield rng.randint(1, 300), rng.randint(0, 300)
    for n, m in ((2000, 2000), (2000, 37), (41, 2000), (1, 2000), (2000, 1)):
        yield n, m


def test_profiles_match_the_sweep_under_every_policy():
    rng = random.Random(23)
    infeasible = 0
    for n, m in _sizes(rng):
        r, start = _draw(rng, n, m)
        for variant, field, largest in (("min_remaining", "ceiling", True), ("min_combined", "base", False)):
            inst = Instance(variant, r, **{field: start})
            swept = {sort_desc(solve(inst, policy).objective) for policy in POLICIES}
            assert len(swept) == 1, inst
            expected = swept.pop()
            assert solvers._canonical_profile(start, r, largest) == expected, inst
            if largest and expected[-1] < 0:
                infeasible += 1
                with pytest.raises(InfeasibleError):
                    min_remaining_profile(start, r)
            elif largest:
                assert min_remaining_profile(start, r) == expected
            else:
                assert min_combined_profile(start, r) == expected
    assert infeasible > 50


def test_profiles_are_the_least_attainable_elements():
    rng = random.Random(31)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 5)
        r = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 4)))
        start = tuple(rng.randint(0, 4) for _ in range(n))
        if sum(r) > 12:
            continue
        for variant, field, profile in (
            ("min_remaining", "ceiling", min_remaining_profile),
            ("min_combined", "base", min_combined_profile),
        ):
            if variant == "min_remaining" and not feasible_min_remaining(start, r):
                continue
            attainable = enumerate_attainable(Instance(variant, r, **{field: start}))
            assert minimal_elements(attainable.canonical_vectors) == {profile(start, r)}, (variant, start, r)
            checked += 1


def test_min_remaining_profile_raises_exactly_when_infeasible():
    rng = random.Random(47)
    verdicts = {True: 0, False: 0}
    above_n = 0
    for trial in range(3000):
        n = rng.randint(0, 7)
        # Rows up to n + 1, so some exceed n, and with n = 0 the ceiling is empty.
        r = tuple(rng.randint(0, n + 1 if trial % 4 == 0 else n) for _ in range(rng.randint(0, 6)))
        c = tuple(rng.randint(0, 6) for _ in range(n))
        fits = feasible_min_remaining(c, r)
        verdicts[fits] += 1
        above_n += any(v > n for v in r)
        if fits:
            profile = min_remaining_profile(c, r)
            assert len(profile) == n and (not profile or profile[-1] >= 0)
        else:
            with pytest.raises(InfeasibleError):
                min_remaining_profile(c, r)
    assert min(verdicts.values()) > 500 and above_n > 200
    assert min_remaining_profile((), (0, 0)) == ()
    with pytest.raises(InfeasibleError, match="exceeds the number of columns 0"):
        min_remaining_profile((), (1,))


# Profiles past the int64 range: at 2**63, at 2**64 - 1, whose fills pass
# 2**64 - 1, and at 10**30, which the C code refuses and the solvers rank
# compress.
EDGES = {
    "2**63": (2**63, 2**63 - 1, 2**63, 5, 2**63 + 2, 0),
    "2**64 - 1": (2**64 - 1, 2**64 - 2, 2**64 - 1, 2**64 - 1, 3, 2**63),
    "10**30": (10**30, 10**30 - 1, 10**30 + 10**20, 2**64, 2**64 - 1, 7),
}


@pytest.mark.parametrize("case", sorted(EDGES))
def test_profiles_past_int64_match_the_reference_sweep(case):
    start = EDGES[case]
    rng = random.Random(case)
    past = 0
    for _ in range(40):
        r = tuple(rng.randint(0, len(start)) for _ in range(rng.randint(0, 9)))
        shaved = sort_desc(reference_sweep(start, r, True, -1, LOWEST_INDEX, None)[0])
        filled = sort_desc(reference_sweep(start, r, False, 1, LOWEST_INDEX, None)[0])
        assert min_combined_profile(start, r) == filled
        assert {type(v) for v in filled} == {int}
        past += filled[0] > 2**64 - 1
        if shaved[-1] >= 0:
            assert min_remaining_profile(start, r) == shaved
        else:
            with pytest.raises(InfeasibleError):
                min_remaining_profile(start, r)
    assert past > 0 or case == "2**63"


def test_int64_edge_demo_profiles():
    edge = cli.load_instance(os.path.join(INSTANCES, "int64_edge_demo.json"))
    c, r = edge.ceiling, edge.row_sums
    for policy in POLICIES:
        assert min_remaining_profile(c, r) == solve(edge, policy).canonical_objective
    filled = reference_sweep(c, r, False, 1, LOWEST_INDEX, None)[0]
    assert min_combined_profile(c, r) == sort_desc(filled)
    assert max(filled) == 2**64


def test_profiles_at_scale_build_no_matrix():
    rng = random.Random(5)
    n = m = 10**5
    r = [rng.randint(0, n) for _ in range(m)]
    c = [rng.randint(n * m // 2, n * m) for _ in range(n)]
    b = [rng.randint(0, m) for _ in range(n)]
    for profile, start, step in ((min_remaining_profile, c, -1), (min_combined_profile, b, 1)):
        t0 = time.perf_counter()
        out = profile(start, r)
        assert time.perf_counter() - t0 < 1.0
        assert len(out) == n and sum(out) == sum(start) + step * sum(r)
        tracemalloc.start()
        try:
            profile(start, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * n // 1000, peak


_SANITIZED_PROFILES = """
import random
import sys
from majpop import _speedups

module = _speedups._import(sys.argv[1])
refused = 0
for start, rows in (
    ([0, 1, 2, 3], [2, 5, 1]),  # a row count above n
    ([0, 1, 2, 3], [2, -1, 1]),  # a negative row count
    ([0, 2**64, 2, 3], [2, 2, 1]),  # a value past 2**64 - 1
    ([0, -1, 2, 3], [2, 2, 1]),  # a negative value
    ([0, 1, 2, 3], [2, 2**63, 1]),  # a row count past int64
):
    for largest in (True, False):
        try:
            module.profile(start, rows, largest)
        except ValueError:
            refused += 1
print(refused, "refused")

rng = random.Random(3)
calls = 0
for trial in range(2000):
    n = rng.randint(0, 60)
    m = rng.randint(0, 60)
    top = rng.choice((2, 3 * m + 1, 2**64 - 1))
    start = [rng.randint(max(0, top - 3 * m - 5), top) for _ in range(n)]
    rows = [rng.randint(0, n) for _ in range(m)]
    for largest, delta in ((True, -1), (False, 1)):
        got = module.profile(start, rows, largest)
        if top < 2**62:
            assert got == module.sweep(start, rows, largest, delta, "lowest_index", 0).canonical_objective
        assert len(got) == n and list(got) == sorted(got, reverse=True)
        calls += 1
print(calls, "calls")
"""


def test_profile_is_clean_under_address_and_undefined_sanitizers(tmp_path):
    # Built and run as test_speedups builds and runs the sanitized sweep;
    # the undefined-behaviour sanitizer also traps a 128-bit overflow.
    libasan = _libasan()
    if libasan is None:
        pytest.skip("no cc or no libasan.so")
    library = tmp_path / f"_sweep_sanitized{_speedups.EXTENSION_SUFFIXES[0]}"
    cmd = ["cc", "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    cmd += [*_speedups._include_flags(), "-shared", "-fPIC", "-o", str(library), *_speedups._SOURCES]
    build = subprocess.run(cmd, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    package = os.path.dirname(os.path.dirname(majpop.__file__))
    env = dict(
        os.environ, PYTHONPATH=package, PYTHONMALLOC="malloc", LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0"
    )
    run = subprocess.run(
        [sys.executable, "-c", _SANITIZED_PROFILES, str(library)], capture_output=True, text=True, env=env, timeout=300
    )
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.splitlines() == ["10 refused", "4000 calls"]
