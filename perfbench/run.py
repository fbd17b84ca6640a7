#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of majpop.

Run from the repository root:

    python3 perfbench/run.py --workload lib-small --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric, and
the raw spans and a summary are written under ``.perfbench/``.  ``--smoke``
shrinks every workload so that a run takes seconds.  See README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

from reference import CheckFailed, OperationFailed

ROOT = os.getcwd()
WORKDIR = os.path.join(ROOT, ".perfbench")

# Per-layer metric -> span name it summarises; its unit is the name's suffix.
PER_LAYER = {
    "cli.import_ms": "cli.import",
    "cli.load_instance_ms": "cli.load_instance",
    "solvers.solve_ms": "solvers.solve",
    "solvers.to_json_ms": "solvers.to_json",
    "cli.emit_ms": "cli.main",
    "cli.stdout_bytes": "cli.main",
    "solvers.tie_solve_ms": "solvers.tie_solve",
    "solvers.capped_solve_ms": "solvers.capped_solve",
    "solvers.tall_solve_ms": "solvers.tall_solve",
    "completion.feasible_ms": "completion.feasible",
    "solvers.peak_shave_ms": "solvers.peak_shave",
    "completion.construct_ms": "completion.construct",
    "solvers.small_solve_us": "solvers.small_solve",
    "solvers.profile_us": "solvers.profile",
    "majorization.call_us": "majorization.call",
    "oracle.certify_ms": "oracle.certify",
    "solvers.enumerate_optima_ms": "solvers.enumerate_optima",
    "lattice.join_ms": "lattice.join",
    "lattice.join_recursive_ms": "lattice.join_recursive",
    "lattice.meet_ms": "lattice.meet",
}
UNIT_SCALE = {"ms": 1e6, "us": 1e3}


class Phase:
    """Operation times and outcomes of one timed phase."""

    def __init__(self):
        self.times_ns = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self._reported = set()

    def _report(self, message):
        if message not in self._reported:
            self._reported.add(message)
            print(f"perfbench: {message}", file=sys.stderr)

    def run(self, ops, tracer=None):
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    out = op.call()
                else:
                    with tracer.span(op.layer):
                        out = op.call()
            except Exception:  # a failed operation is counted and the run goes on
                self.failed += 1
                self._report(f"{op.layer} raised:\n{traceback.format_exc()}")
                continue
            elapsed = time.perf_counter_ns() - t0
            # A process launched through spawn.py carries its own exact time.
            self.times_ns.append(getattr(out, "elapsed_ns", elapsed))
            try:
                op.check(out)
            except OperationFailed as exc:
                self.failed += 1
                self._report(f"{op.layer} failed: {exc}")
            except CheckFailed as exc:
                self.wrong += 1
                self._report(f"wrong output from {op.layer}: {exc}")


def run_rounds(seconds, *lanes, setup=None):
    """Whole rounds of every ``(phase, workload, tracer)`` lane in turn until ``seconds`` have passed.

    Between rounds, ``setup`` (a :class:`SetupSampler`) catches up on its
    share of the elapsed time, so its samples spread over the whole phase.
    """
    start = time.perf_counter()
    while True:
        for phase, workload, tracer in lanes:
            phase.run(workload.round(phase.rounds), tracer)
            phase.rounds += 1
        if setup is not None:
            setup.catch_up(start)
        if time.perf_counter() - start >= seconds:
            return


def environment_line():
    import numpy
    from majpop import _speedups

    return (
        f"env: python {platform.python_version()} numpy {numpy.__version__} "
        f"interpreter {sys.executable} cpus {os.cpu_count()} "
        f"kernel_available {_speedups.KERNEL_AVAILABLE}"
    )


class SetupSampler:
    """Wall times of fresh ``majpop solve`` processes on a 64x64 instance.

    Each sample is an interpreter that imports majpop and finishes one first
    solve.  One untimed process first fills any one-time cache (bytecode,
    compiled kernels); the timed ones then pay what every later invocation
    pays.  The samples run between rounds of the timed phase, outside every
    operation's interval, and take :attr:`SHARE` of its time, so they meet
    the same machine speed as the operations; ``setup_s`` is their median.
    """

    SHARE = 0.2
    MIN_SAMPLES = 3

    def __init__(self, seed, child_env):
        import numpy as np
        from workloads import feasible_ceiling, random_rows

        rng = np.random.default_rng([seed, 1 << 32])
        rows = random_rows(rng, 64, 1, 64)
        path = os.path.join(WORKDIR, "setup.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"variant": "min_remaining", "row_sums": list(rows), "ceiling": list(feasible_ceiling(rng, rows, 64, 32))}, fh)
        self.argv = [sys.executable, "-m", "majpop.cli", "solve", "--instance", path]
        self.env = child_env
        self.times = []
        self._solve()

    def _solve(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, stdout=subprocess.PIPE, env=self.env)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not json.loads(proc.stdout)["feasible"]:
            raise RuntimeError(f"set-up solve failed with exit code {proc.returncode}")
        return elapsed

    def catch_up(self, start):
        """Sample until the samples fill their share of the time since ``start``."""
        while sum(self.times) < self.SHARE * (time.perf_counter() - start):
            self.times.append(self._solve())

    def median(self):
        while len(self.times) < self.MIN_SAMPLES:
            self.times.append(self._solve())
        print(f"setup: {len(self.times)} samples")
        return statistics.median(self.times)


def tail(times):
    """The 99th percentile, where at least ten samples lie beyond it.

    With fewer samples it is the highest percentile that still has ten
    beyond it, and below forty samples, where no percentile is a tail, the
    median.  Returns the value and a description of what it is.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 40:
        return statistics.median(ordered), f"the median of {n} samples"
    k = min(int(0.99 * n), n - 11)
    return ordered[k], f"the {100 * (k + 1) / n:.2f}th percentile of {n} samples, {n - 1 - k} beyond it"


def end_to_end(workload, phase, setup_s):
    times = phase.times_ns
    p99, what = tail(times)
    print(f"samples: {len(times)} operations in {phase.rounds} rounds; op_p99_ms is {what}")
    return {
        "setup_s": (setup_s, "s"),
        "op_median_ms": (statistics.median(times) / 1e6, "ms"),
        "op_p99_ms": (p99 / 1e6, "ms"),
        "ops_per_s": (len(times) / (sum(times) / 1e9), "1/s"),
        "peak_rss_mib": (workload.peak_rss_mib(), "MiB"),
    }


def per_layer(spans):
    """Median per call of each layer metric, with its call count."""
    from tracing import self_times

    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out = {}
    for metric, span_name in PER_LAYER.items():
        unit = metric.rsplit("_", 1)[1]
        if metric == "cli.stdout_bytes":
            values = [s["attrs"]["stdout_bytes"] for s in by_name.get(span_name, ())]
        else:
            values = [own[s["id"]] for s in by_name.get(span_name, ())]
        if not values:
            raise RuntimeError(f"no {span_name} spans were recorded for {metric}")
        out[metric] = (statistics.median(values) / UNIT_SCALE.get(unit, 1), unit, len(values))
    return out


def traced_run(args, workload_cls, others, env_line):
    """Untraced and traced rounds in turn, then one traced call into each other workload's layers."""
    from tracing import Tracer

    # Rounds alternate between an untraced and a traced copy of the same
    # inputs, so drift over the run does not count as tracing overhead.
    tracer = Tracer()
    workload = workload_cls(args.seed, args.smoke, WORKDIR, tracer)
    plain, traced = Phase(), Phase()
    run_rounds(args.seconds, (plain, workload_cls(args.seed, args.smoke, WORKDIR), None), (traced, workload, tracer))

    # Every traced run reports every layer metric, so it also traces the
    # first call into each layer of the other workloads.  These calls stay
    # out of the operation counts, which cover whole rounds only, and any
    # failure among them marks the run incorrect.
    extra = Phase()
    for cls in others:
        other = cls(args.seed, args.smoke, WORKDIR, tracer)
        seen = set()
        extra.run([op for op in other.round(0) if not (op.layer in seen or seen.add(op.layer))], tracer)
    traced.wrong += extra.wrong + extra.failed

    metrics = per_layer(tracer.spans)
    base = statistics.fmean(plain.times_ns)
    with_spans = statistics.fmean(traced.times_ns)
    overhead = with_spans / base - 1
    print(f"tracing overhead: {overhead:+.2%} (mean operation {with_spans / 1e6:.3f} ms traced, {base / 1e6:.3f} ms untraced)")
    for metric, (value, unit, count) in metrics.items():
        print(f"layer {metric}: {value:.6g} {unit} over {count} calls")

    stem = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}")
    tracer.write(stem + ".spans.jsonl")
    with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "environment": env_line,
            "tracing_overhead": overhead,
            "mean_op_ms": {"untraced": base / 1e6, "traced": with_spans / 1e6},
            "metrics": {m: {"value": v, "unit": u, "calls": c} for m, (v, u, c) in metrics.items()},
        }, fh, indent=1)
    print(f"spans: {stem}.spans.jsonl")
    phases = (plain, traced)
    return {m: (v, u) for m, (v, u, _) in metrics.items()}, phases


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["cli-large", "lib-medium", "lib-small", "desk"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload at reduced size")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "majpop", "__init__.py")):
        print(f"perfbench: no majpop sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(WORKDIR, exist_ok=True)

    from workloads import WORKLOADS, child_env

    env_line = environment_line()
    print(env_line)
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        others = [cls for name, cls in WORKLOADS.items() if name != args.workload]
        metrics, phases = traced_run(args, workload_cls, others, env_line)
    else:
        setup = SetupSampler(args.seed, child_env())
        workload = workload_cls(args.seed, args.smoke, WORKDIR)
        phase = Phase()
        run_rounds(args.seconds, (phase, workload, None), setup=setup)
        metrics = end_to_end(workload, phase, setup.median())
        phases = (phase,)
    result = {
        "correct": all(p.wrong == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
