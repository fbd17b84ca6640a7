#!/usr/bin/env python3
"""Certify the bundled demo instances plus a seeded random sweep.

The sweep cycles through all four variants.  Its instances are drawn by
``tests/helpers.random_instance`` (feasible or not, caps binding or slack,
up to 7 columns) within the oracle's default total of 14.  Prints one line
per check per instance; exits nonzero on any failure.

    python scripts/run_certification.py --sweep 50 --seed 7
"""

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from majpop import Instance, certify
from majpop.cli import load_instance
from majpop.oracle import DEFAULT_MAX_COLS, DEFAULT_MAX_TOTAL

from helpers import random_instance

VARIANTS = ("min_remaining", "min_combined", "general_min", "general_max")

GAP_ABSENT = {
    "non_lattice_gap.json": (6, 6, 6, 4, 4, 4, 2),
}


def run_one(label: str, inst: Instance, absent=None) -> bool:
    report = certify(inst, absent_canonical=absent)
    for rec in report.records:
        mark = "ok " if rec.passed else "FAIL"
        print(f"[{mark}] {label}: {rec.claim}" + (f" ({rec.witness})" if rec.witness else ""))
    return report.passed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sweep", type=int, default=50, help="number of random instances")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    ok = True
    instance_dir = ROOT / "instances"
    for path in sorted(instance_dir.glob("*.json")):
        inst = load_instance(str(path))
        ok &= run_one(path.name, inst, absent=GAP_ABSENT.get(path.name))

    rng = random.Random(args.seed)
    failures = 0
    for k in range(args.sweep):
        inst = random_instance(rng, VARIANTS[k % 4], max_mn=DEFAULT_MAX_COLS)
        while sum(inst.row_sums) > DEFAULT_MAX_TOTAL:
            inst = random_instance(rng, VARIANTS[k % 4], max_mn=DEFAULT_MAX_COLS)
        report = certify(inst)
        if not report.passed:
            failures += 1
            run_one(f"sweep[{k}]", inst)
    print(f"random sweep: {args.sweep - failures}/{args.sweep} instances certified")
    ok &= failures == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
