#!/usr/bin/env python3
"""Time the peak-shaving solver over doubling size grids.

Writes the raw records as CSV to stdout (same schema as ``majpop bench``)
and a mean-time/ratio summary to stderr, so the CSV can be piped onward.

    python scripts/run_bench.py --base 250 --doublings 3 --fixed 1000 --repeats 5
"""

import argparse
import csv
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from majpop._commands import _bench_instance
from majpop.solvers import peak_shave


def measure(m, n, repeats, seed):
    r, c, _ = _bench_instance(seed, m, n, 0)
    times = []
    feasible = True
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        result = peak_shave(c, r)
        times.append(time.perf_counter_ns() - t0)
        feasible = result.feasible
    return times, feasible


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", type=int, default=250, help="smallest size in the doubling grid")
    ap.add_argument("--doublings", type=int, default=3)
    ap.add_argument("--fixed", type=int, default=1000, help="size of the non-varying dimension")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    sizes = [args.base * (1 << k) for k in range(args.doublings + 1)]
    # Warm the compiled kernel before any timed run.
    warm_r, warm_c, _ = _bench_instance(args.seed, sizes[0], args.fixed, 0)
    peak_shave(warm_c, warm_r)

    writer = csv.writer(sys.stdout)
    writer.writerow(["m", "n", "policy", "seed", "wall_time_ns", "feasible"])
    summary = []
    for axis in ("rows", "cols"):
        means = {}
        for size in sizes:
            m, n = (size, args.fixed) if axis == "rows" else (args.fixed, size)
            times, feasible = measure(m, n, args.repeats, args.seed)
            for t in times:
                writer.writerow([m, n, "lowest-index", args.seed, t, feasible])
            means[size] = statistics.mean(times)
        for small, big in zip(sizes, sizes[1:]):
            summary.append(
                f"{axis}: {small} -> {big}: mean {means[small] / 1e6:.2f} ms -> "
                f"{means[big] / 1e6:.2f} ms, ratio {means[big] / means[small]:.2f}"
            )
    print("\n".join(summary), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
