"""Independent reference computations and output checks.

Nothing here imports majpop: every expected value is derived from the
inputs with numpy or closed forms, so a fault shared by the library's own
code paths still shows.  Each ``check_*`` function raises
:class:`CheckFailed` naming the first property that does not hold.
"""

from math import comb

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program does not have a property it must have."""


class OperationFailed(Exception):
    """The program reported that the operation itself failed."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def sweep_canonical(start, rows, largest):
    """Canonical objective by a plain numpy row sweep.

    ``largest`` True shaves one unit off the ``r[i]`` largest entries
    (peak shaving); False adds one unit to the ``r[i]`` smallest (valley
    filling).  Every tie resolution gives the same sorted result, so the
    sweep breaks ties however ``argpartition`` does.
    """
    v = np.array(start, dtype=np.int64)
    delta = -1 if largest else 1
    for need in rows:
        need = int(need)
        if need == 0:
            continue
        key = -v if largest else v
        idx = np.argpartition(key, need - 1)[:need]
        v[idx] += delta
    return tuple(sorted(v.tolist(), reverse=True))


def conjugate(x, dim):
    """Entry j-1 counts the entries of x that are at least j, for j = 1..dim."""
    xs = np.sort(np.asarray(x, dtype=np.int64))
    at_least = len(xs) - np.searchsorted(xs, np.arange(1, dim + 1), side="left")
    return tuple(int(v) for v in at_least)


def meet(a, b):
    pa = np.cumsum(np.asarray(a, dtype=np.int64))
    pb = np.cumsum(np.asarray(b, dtype=np.int64))
    return tuple(int(v) for v in np.diff(np.minimum(pa, pb), prepend=0))


def join(a, b):
    """Dominance-order join: conjugate, meet, conjugate back."""
    d = max(a[0], b[0], 1)
    return conjugate(meet(conjugate(a, d), conjugate(b, d)), len(a))


def majorized(x, y):
    """x is majorized by y: equal totals and sorted prefix sums of x at most y's."""
    if len(x) != len(y) or sum(x) != sum(y):
        return False
    px = np.cumsum(np.sort(np.asarray(x, dtype=np.int64))[::-1])
    py = np.cumsum(np.sort(np.asarray(y, dtype=np.int64))[::-1])
    return bool(np.all(px <= py))


def flat_optima_count(n, total):
    """Distinct rearrangements of the flattest vector of ``n`` entries summing to ``total``."""
    return comb(n, total % n)


def check_matrix(matrix, rows, caps=None):
    """0/1 entries, the requested row sums and, if given, column caps; returns column sums."""
    a = np.asarray(matrix)
    _require(a.ndim == 2 and a.shape[0] == len(rows), f"matrix shape {a.shape} for {len(rows)} rows")
    _require(bool(np.all((a == 0) | (a == 1))), "matrix has an entry other than 0 or 1")
    _require(
        np.array_equal(a.sum(axis=1, dtype=np.int64), np.asarray(rows, dtype=np.int64)),
        "matrix row sums differ from the requested row sums",
    )
    x = a.sum(axis=0, dtype=np.int64)
    if caps is not None:
        _require(bool(np.all(x <= np.asarray(caps, dtype=np.int64))), "a column sum exceeds its cap")
    return x


def check_solution(profile, rows, delta, matrix, objective, canonical, feasible, caps=None):
    """Structural checks shared by every solver output.

    The objective must equal ``profile + delta * column_sums``, the canonical
    objective its nonincreasing rearrangement, and ``feasible`` must equal
    ``min(objective) >= 0`` for the shaving variants (``delta = -1``).
    """
    x = check_matrix(matrix, rows, caps)
    _require(len(objective) == len(profile), "objective length differs from the profile length")
    want = np.asarray(profile, dtype=np.int64) + delta * x
    _require(np.array_equal(np.asarray(objective, dtype=np.int64), want), "objective differs from profile -/+ column sums")
    _require(tuple(canonical) == tuple(sorted(objective, reverse=True)), "canonical objective is not the sorted objective")
    expected = min(objective) >= 0 if delta < 0 else True
    _require(bool(feasible) == expected, f"feasible is {feasible}, expected {expected}")


def check_equal(got, expected, what="canonical objective"):
    _require(tuple(got) == tuple(expected), f"{what} differs from the reference: {tuple(got)} != {tuple(expected)}"[:300])


def check_flat_optima(optima, profile, rows, delta):
    """Every optimum of a flat profile, counted by the closed form, each with a valid witness."""
    n = len(profile)
    total = int(sum(rows))
    _require(len(set(profile)) == 1, "flat-profile check needs a constant profile")
    _require(len(optima) == flat_optima_count(n, total), f"{len(optima)} optima, closed form gives {flat_optima_count(n, total)}")
    q, rem = divmod(total, n)
    canonical = sorted([profile[0] + delta * (q + 1)] * rem + [profile[0] + delta * q] * (n - rem), reverse=True)
    for objective, matrix in optima.items():
        x = check_matrix(matrix, rows)
        _require(np.array_equal(np.asarray(objective), np.asarray(profile) + delta * x), "a witness matrix does not give its objective")
        _require(sorted(objective, reverse=True) == canonical, "an optimum is not a rearrangement of the flat canonical vector")


def check_meet(result, a, b):
    pa, pb, pm = (np.cumsum(np.asarray(v, dtype=np.int64)) for v in (a, b, result))
    _require(len(result) == len(a) and np.array_equal(pm, np.minimum(pa, pb)), "meet prefix sums differ from the pairwise minima")


def check_join(result, a, b):
    _require(tuple(result) == join(a, b), "join differs from the conjugate-meet-conjugate reference")
