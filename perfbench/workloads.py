"""The four workloads: inputs drawn from the seed, the calls made, the checks.

Each workload hands the runner one round of operations at a time.  Round
``k`` draws fresh values from ``numpy.random.default_rng([seed, k])`` while
the shapes, the mix of calls and the policies stay fixed, so every round
does comparable work and a run's figures depend little on the seed.  An
operation is one call into majpop (one ``majpop solve`` process in
``cli-large``); its check runs after it, outside the timed interval.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import reference as ref

from majpop import cli, lattice, majorization, oracle, solvers
from majpop import completion

POLICIES = ("lowest_index", "highest_index", "load_order", "uniform_random")
VARIANTS = ("min_remaining", "min_combined", "general_min", "general_max")


@dataclass
class Op:
    layer: str                      # span name of the call, e.g. "solvers.tie_solve"
    call: Callable[[], object]
    check: Callable[[object], None]


def _ints(a):
    return tuple(int(v) for v in a)


def random_rows(rng, m, lo, hi):
    return _ints(rng.integers(lo, hi + 1, size=m))


def random_col_sums(rng, rows, n):
    """Column sums of a random 0/1 matrix with the given row sums."""
    order = np.argsort(rng.random((len(rows), n)), axis=1)
    picked = np.arange(n)[None, :] < np.asarray(rows)[:, None]
    return _ints(np.bincount(order[picked], minlength=n))


def feasible_ceiling(rng, rows, n, slack):
    """A ceiling that a completion fits under: realizable column sums plus slack."""
    return _ints(np.asarray(random_col_sums(rng, rows, n)) + rng.integers(0, slack + 1, size=n))


def capped_instance(rng, variant, m, n, rmax):
    """Caps that bind on most columns but can never strand a row.

    A random set of at least ``rmax`` columns has cap ``m``, which no column
    sum can exceed, so every row always finds ``r[i] <= rmax`` open columns.
    The other columns get small caps and the largest start values, so the
    sweep reaches for them first and their caps bind.
    """
    rows = random_rows(rng, m, 1, rmax)
    free = rng.permutation(n)[: max(rmax, n // 3)]
    caps = rng.integers(1, max(m // 6, 1) + 1, size=n)
    caps[free] = m
    profile = rng.integers(m, 2 * m + 1, size=n)
    profile[free] = rng.integers(0, m + 1, size=len(free))
    key = "reference" if variant == "general_min" else "base"
    return solvers.Instance(variant, rows, ceiling=_ints(caps), **{key: _ints(profile)})


def policy(kind, rng):
    seed = int(rng.integers(0, 2**63)) if kind == "uniform_random" else 0
    return solvers.TiePolicy(kind, seed)


def _profile_and_delta(inst):
    """Start profile, sign of the column-sum term, and whether the sweep takes the largest."""
    if inst.variant == "min_remaining":
        return inst.ceiling, -1, True
    if inst.variant == "min_combined":
        return inst.base, +1, False
    if inst.variant == "general_min":
        return inst.reference, -1, True
    return inst.base, +1, True


def check_result(inst, result, canonical=None):
    """Structural checks on a SolveResult; the uncapped variants also match the reference sweep."""
    profile, delta, largest = _profile_and_delta(inst)
    capped = inst.variant in ("general_min", "general_max")
    ref.check_solution(
        profile, inst.row_sums, delta, result.matrix, result.objective,
        result.canonical_objective, result.feasible, inst.ceiling if capped else None,
    )
    if not capped:
        want = canonical if canonical is not None else ref.sweep_canonical(profile, inst.row_sums, largest)
        ref.check_equal(result.canonical_objective, want)


class Workload:
    """A closed loop with one caller: the runner asks for a round, runs it, checks it."""

    name = ""

    def __init__(self, seed, smoke, workdir, tracer=None):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer

    def rng(self, k):
        return np.random.default_rng([self.seed, k])

    def round(self, k):
        raise NotImplementedError

    def peak_rss_mib(self):
        """Peak resident set of this process: in-process calls hold their data here."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _solve_op(layer, inst, pol, canonical=None):
    return Op(layer, lambda: solvers.solve(inst, pol), lambda res: check_result(inst, res, canonical))


class LibMedium(Workload):
    name = "lib-medium"

    def round(self, k):
        rng = self.rng(k)
        s = 8 if self.smoke else 1
        ops = []

        # (a) Flat and near-flat profiles: every row ends on a tie.
        m, n = 500 // s, 400 // s
        flat = solvers.Instance("min_remaining", random_rows(rng, m, 1, n // 2), ceiling=(m,) * n)
        m, n = 400 // s, 500 // s
        near = solvers.Instance("min_combined", random_rows(rng, m, 1, n // 2), base=_ints(rng.integers(0, 2, size=n)))
        for inst in (flat, near):
            profile, _, largest = _profile_and_delta(inst)
            canonical = ref.sweep_canonical(profile, inst.row_sums, largest)
            for kind in ("uniform_random", "load_order"):
                ops.append(_solve_op("solvers.tie_solve", inst, policy(kind, rng), canonical))

        # Tall and narrow: thousands of rows, tens of columns.
        m, n = 5000 // s, 24
        rows = random_rows(rng, m, 1, n)
        tall = solvers.Instance("min_remaining", rows, ceiling=feasible_ceiling(rng, rows, n, m // 4))
        ops.append(_solve_op("solvers.tall_solve", tall, solvers.LOWEST_INDEX))
        m, n = 2500 // s, 48
        tall = solvers.Instance("min_combined", random_rows(rng, m, 1, n), base=_ints(rng.integers(0, m // 2 + 1, size=n)))
        ops.append(_solve_op("solvers.tall_solve", tall, solvers.LOWEST_INDEX))

        # (b) Capped sweeps with binding caps.
        ops.append(_solve_op("solvers.capped_solve", capped_instance(rng, "general_min", 400 // s, 300 // s, 60 // s), solvers.LOWEST_INDEX))
        ops.append(_solve_op("solvers.capped_solve", capped_instance(rng, "general_max", 300 // s, 400 // s, 80 // s), solvers.HIGHEST_INDEX))

        # (c) The feasibility test and the shave that min_remaining_profile
        # runs, on ceilings offset by 10**6.
        for m, n in ((200 // s, 150 // s), (100 // s, 300 // s)):
            rows = random_rows(rng, m, 1, n)
            ceiling = _ints(10**6 + np.asarray(feasible_ceiling(rng, rows, n, m)))
            verdict = {}

            def feasible(ceiling=ceiling, rows=rows, verdict=verdict):
                verdict["feasible"] = completion.feasible_min_remaining(ceiling, rows)
                return verdict["feasible"]

            def check_shave(res, ceiling=ceiling, rows=rows, verdict=verdict):
                check_result(solvers.Instance("min_remaining", rows, ceiling=ceiling), res)
                if verdict.get("feasible") != res.feasible:
                    raise ref.CheckFailed("feasible_min_remaining differs from peak_shave(...).feasible")

            ops.append(Op("completion.feasible", feasible, lambda ok: ref.check_equal((ok,), (True,), "feasibility of a ceiling built to fit")))
            ops.append(Op("solvers.peak_shave", lambda c=ceiling, r=rows: solvers.peak_shave(c, r), check_shave))

        # (d) construct_matrix round trip on realizable column sums.
        for m, n in ((1000 // s, 200 // s), (4000 // s, 30)):
            rows = random_rows(rng, m, 1, n)
            x = random_col_sums(rng, rows, n)

            def check_construct(a, rows=rows, x=x):
                if tuple(ref.check_matrix(a, rows).tolist()) != x:
                    raise ref.CheckFailed("construct_matrix column sums differ from the request")

            ops.append(Op("completion.construct", lambda r=rows, x=x: completion.construct_matrix(r, x), check_construct))
        return ops


class LibSmall(Workload):
    name = "lib-small"

    # Cell counts spaced evenly in log from 16 to 3969, cycling through tall,
    # wide and square; a fixed grid keeps the mix of sizes the same in every
    # round, so figures do not depend on which sizes a seed happens to draw.
    SHAPES = (
        (8, 2), (4, 6), (11, 4), (6, 12), (22, 6), (14, 14),
        (9, 36), (46, 12), (30, 30), (19, 77), (98, 25), (63, 63),
    )

    def round(self, k):
        rng = self.rng(k)
        ops = []
        for m, n in self.SHAPES[::4] if self.smoke else self.SHAPES:
            rows = random_rows(rng, m, 0, n)
            instances = (
                solvers.Instance("min_remaining", rows, ceiling=feasible_ceiling(rng, rows, n, m)),
                solvers.Instance("min_combined", rows, base=_ints(rng.integers(0, m + 1, size=n))),
                capped_instance(rng, "general_min", m, n, max(1, n // 3)),
                capped_instance(rng, "general_max", m, n, max(1, n // 3)),
            )
            for inst in instances:
                canonical = None
                if inst.variant in ("min_remaining", "min_combined"):
                    profile, _, largest = _profile_and_delta(inst)
                    canonical = ref.sweep_canonical(profile, inst.row_sums, largest)
                for kind in POLICIES:
                    ops.append(_solve_op("solvers.small_solve", inst, policy(kind, rng), canonical))
            c, b = instances[0].ceiling, instances[1].base
            ops.append(Op(
                "solvers.profile",
                lambda c=c, r=rows: solvers.min_remaining_profile(c, r),
                lambda got, c=c, r=rows: ref.check_equal(got, ref.sweep_canonical(c, r, True)),
            ))
            ops.append(Op(
                "solvers.profile",
                lambda b=b, r=rows: solvers.min_combined_profile(b, r),
                lambda got, b=b, r=rows: ref.check_equal(got, ref.sweep_canonical(b, r, False)),
            ))
            for _ in range(2):
                length = int(rng.integers(2, 17))
                x = _ints(rng.integers(0, 30, size=length))
                dim = max(max(x), length)
                ops.append(Op(
                    "majorization.call",
                    lambda x=x, dim=dim: majorization.conjugate(x, dim),
                    lambda got, x=x, dim=dim: ref.check_equal(got, ref.conjugate(x, dim), "conjugate"),
                ))
                y = list(x)
                for _ in range(length):  # unit transfers from rich to poor keep y majorized by x
                    p, q = rng.integers(0, length, size=2)
                    if y[p] > y[q] + 1:
                        y[p] -= 1
                        y[q] += 1
                if rng.random() < 0.5:
                    x, y = y, x
                ops.append(Op(
                    "majorization.call",
                    lambda x=x, y=tuple(y): majorization.majorized(y, x),
                    lambda got, x=x, y=tuple(y): ref.check_equal((got,), (ref.majorized(y, x),), "majorized"),
                ))
        return ops


def random_partition(rng, total, length):
    """Nonincreasing parts between sorted uniform cut points of [0, total]."""
    cuts = np.sort(rng.integers(0, total + 1, size=length - 1))
    return tuple(sorted(np.diff(cuts, prepend=0, append=total).tolist(), reverse=True))


def desk_instance(rng, variant, n, rows):
    """A shuffled fixed row multiset over ``n`` columns, with seeded profiles.

    Fixing the multiset keeps the oracle's work, which grows steeply with
    the rows, alike from round to round.  ``general_min`` gets binding caps
    on all but three columns.  Random ``general_max`` instances get caps no
    column sum can reach, because with binding caps certify fails on some
    of them; the fixed :data:`CERTIFY_FAILS` keeps that failure in every
    round instead.
    """
    rows = _ints(rng.permutation(rows))
    m = len(rows)
    profile = _ints(rng.integers(0, 5, size=n))
    if variant == "min_remaining":
        return solvers.Instance(variant, rows, ceiling=_ints(rng.integers(m // 2, m + 1, size=n)))
    if variant == "min_combined":
        return solvers.Instance(variant, rows, base=profile)
    if variant == "general_min":
        caps = _ints(np.concatenate(([m] * 3, rng.integers(1, 3, size=n - 3))))
        return solvers.Instance(variant, rows, reference=profile, ceiling=caps)
    return solvers.Instance(variant, rows, base=profile, ceiling=(m,) * n)


# With binding caps general_max can have several incomparable maximal
# profiles, and certify still asserts essential uniqueness for it: this
# instance fails certification on every call (see CHANGES.md, FOUND).
CERTIFY_FAILS = solvers.Instance(
    "general_max", (2, 1, 3, 1, 3, 2), base=(4, 1, 2, 4, 3, 3), ceiling=(6, 6, 6, 2, 2, 2)
)


def check_report(report):
    if not report.passed:
        failed = [c.claim for c in report.records if not c.passed]
        raise ref.OperationFailed(f"certify failed {failed} on {report.variant}")


class Desk(Workload):
    name = "desk"

    # (columns, row multiset) of the certified instances; the oracle budget
    # is 7 columns and a total of 14.
    CERTIFY = (5, (3, 3, 2, 2, 1, 1))
    # (variant, columns, row multiset) of the flat-profile enumerations.
    FLAT = (("min_combined", 12, (5, 5, 4, 4, 3, 3, 2, 2)), ("min_remaining", 10, (5, 4, 4, 3, 3, 2, 2)))
    LATTICE_TOTALS = (10**2, 10**3, 10**4, 10**5)
    LATTICE_LENGTH = 24

    def round(self, k):
        rng = self.rng(k)
        ops = []
        n, rows = (4, (2, 2, 1, 1)) if self.smoke else self.CERTIFY
        for variant in VARIANTS:
            for _ in range(3):
                inst = desk_instance(rng, variant, n, rows)
                ops.append(Op("oracle.certify", lambda inst=inst: oracle.certify(inst), check_report))
        ops.append(Op("oracle.certify", lambda: oracle.certify(CERTIFY_FAILS), check_report))

        # Flat profiles: every rearrangement of the flattest vector is optimal.
        flat = (("min_combined", 8, (3, 3, 2, 2)), ("min_remaining", 6, (3, 2, 2))) if self.smoke else self.FLAT
        for variant, n, rows in flat:
            rows = _ints(rng.permutation(rows))
            level = int(rng.integers(len(rows), 2 * len(rows) + 1))
            key = "base" if variant == "min_combined" else "ceiling"
            inst = solvers.Instance(variant, rows, **{key: (level,) * n})
            delta = 1 if variant == "min_combined" else -1
            ops.append(Op(
                "solvers.enumerate_optima",
                lambda inst=inst: solvers.enumerate_optima(inst),
                lambda got, level=level, n=n, rows=rows, delta=delta: ref.check_flat_optima(got, (level,) * n, rows, delta),
            ))

        totals = self.LATTICE_TOTALS[:2] if self.smoke else self.LATTICE_TOTALS
        for total in totals:
            a = random_partition(rng, total, self.LATTICE_LENGTH)
            b = random_partition(rng, total, self.LATTICE_LENGTH)
            ops.append(Op("lattice.meet", lambda a=a, b=b: lattice.meet(a, b), lambda got, a=a, b=b: ref.check_meet(got, a, b)))
            ops.append(Op("lattice.join", lambda a=a, b=b: lattice.join(a, b), lambda got, a=a, b=b: ref.check_join(got, a, b)))
            ops.append(Op("lattice.join_recursive", lambda a=a, b=b: lattice.join_recursive(a, b), lambda got, a=a, b=b: ref.check_join(got, a, b)))
        return ops


@dataclass
class CliRun:
    code: int
    stdout: bytes
    elapsed_ns: int     # spawn to exit, as the launcher timed it


SPAWN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")


class CliLarge(Workload):
    """``majpop solve`` as a user runs it: one fresh process per solve.

    The instance files are written once at set-up; every round solves the
    same files, so later outputs are also checked to be byte-identical to
    the first one, which is checked in full.
    """

    name = "cli-large"

    def __init__(self, seed, smoke, workdir, tracer=None):
        super().__init__(seed, smoke, workdir, tracer)
        size = 200 if smoke else 2000
        rng = self.rng(0)
        self.instances = []
        self.rss = []
        for variant, key in (("min_remaining", "ceiling"), ("min_combined", "base")):
            rows = random_rows(rng, size, 1, size)
            profile = _ints(rng.integers(size // 2, size + 1, size=size))
            path = os.path.join(workdir, f"cli-{variant}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"variant": variant, "row_sums": list(rows), key: list(profile)}, fh)
            inst = solvers.Instance(variant, rows, **{key: profile})
            self.instances.append((path, inst, ref.sweep_canonical(profile, rows, variant == "min_remaining")))
        self.first_stdout = {}

    def _argv(self, path):
        return ["solve", "--instance", path, "--tie-policy", "lowest-index"]

    def _run(self, path):
        report = os.path.join(self.workdir, "cli-spawn.txt")
        with open(os.path.join(self.workdir, "cli-stderr.txt"), "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-S", SPAWN, report, sys.executable, "-m", "majpop.cli", *self._argv(path)],
                stdout=subprocess.PIPE, stderr=err, env=child_env(),
            )
            out = proc.stdout.read()
            proc.stdout.close()
            if proc.wait() != 0:
                raise RuntimeError(f"launcher exited with {proc.returncode}")
        with open(report, encoding="utf-8") as fh:
            elapsed_ns, maxrss_kib, code = (int(v) for v in fh.read().split())
        self.rss.append(maxrss_kib)
        return CliRun(code, out, elapsed_ns)

    def _check(self, path, inst, canonical, run):
        if run.code != 0:
            raise ref.CheckFailed(f"majpop solve exited with {run.code}")
        if path in self.first_stdout:
            if run.stdout != self.first_stdout[path]:
                raise ref.CheckFailed("majpop solve output differs between identical invocations")
            return
        payload = json.loads(run.stdout)
        res = SimpleNamespace(
            matrix=np.array(payload["matrix"], dtype=np.int64),
            objective=tuple(payload["objective"]),
            canonical_objective=tuple(payload["canonical_objective"]),
            feasible=payload["feasible"],
        )
        check_result(inst, res, canonical)
        self.first_stdout[path] = run.stdout

    def round(self, k):
        if self.tracer is not None:
            return [Op("cli-large.replay", lambda p=p: self._replay(p), lambda res, i=i, c=c: check_result(i, res, c)) for p, i, c in self.instances]
        return [Op("cli.solve_process", lambda p=p: self._run(p), lambda run, p=p, i=i, c=c: self._check(p, i, c, run)) for p, i, c in self.instances]

    def _replay(self, path):
        """``majpop solve`` in-process: the import in a fresh process, then ``cli.main``.

        While ``cli.main`` runs, the three steps it calls are wrapped in
        spans of their own, so the self time of ``cli.main`` is what it
        spends beyond them: argument parsing, JSON encoding and the write.
        """
        t = self.tracer
        with t.span("cli.import_process"):
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE, env=child_env(), check=True
            ).stdout.split()
            t.add("cli.import", int(out[0]), int(out[1]))
        results = []
        sink = ByteCounter()
        real = sys.stdout
        sys.stdout = sink
        try:
            with t.span("cli.main") as main, _spans_around_steps(t, results):
                code = cli.main(self._argv(path))
        finally:
            sys.stdout = real
        main["attrs"] = {"stdout_bytes": sink.count}
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        steps = sorted(s["name"] for s in t.spans if s["parent"] == main["id"])
        if steps != sorted(CLI_STEPS.values()):
            raise RuntimeError(f"cli.main no longer calls its steps through {sorted(CLI_STEPS)}: saw {steps}")
        return results[0]

    def peak_rss_mib(self):
        """Median over solve processes of each one's own peak resident set."""
        return statistics.median(self.rss) / 1024.0


# Name under which cli.main looks each step up -> span name.
CLI_STEPS = {
    "load_instance": "cli.load_instance",
    "solve": "solvers.solve",
    "to_json": "solvers.to_json",
}


@contextmanager
def _spans_around_steps(tracer, results):
    """Wrap ``cli.load_instance``, ``cli.solve`` and ``SolveResult.to_json`` in spans.

    The originals come back on exit.  Each SolveResult is appended to
    ``results`` so that the solve can be checked afterwards.
    """
    owners = {"load_instance": cli, "solve": cli, "to_json": solvers.SolveResult}
    originals = {name: getattr(owner, name) for name, owner in owners.items()}

    def wrapped(name):
        def call(*args, **kwargs):
            with tracer.span(CLI_STEPS[name]):
                out = originals[name](*args, **kwargs)
            if name == "solve":
                results.append(out)
            return out
        return call

    for name, owner in owners.items():
        setattr(owner, name, wrapped(name))
    try:
        yield
    finally:
        for name, owner in owners.items():
            setattr(owner, name, originals[name])


IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter_ns()\n"
    "import majpop.cli\n"
    "print(t0, time.perf_counter_ns())\n"
)


class ByteCounter:
    """A text sink standing in for stdout that counts what is written.

    The CLI writes ASCII-only JSON, so characters and bytes agree.
    """

    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return len(text)

    def flush(self):
        pass


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (CliLarge, LibMedium, LibSmall, Desk)}
