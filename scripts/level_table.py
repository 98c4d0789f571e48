"""Empirical-level table for the block-diagonal test.

Runs every combination of distribution x scenario x (n, p) under the null
and writes one CSV row per cell.  With default settings this reproduces
the nominal-level portion of the package's simulation study (about two
minutes on a laptop).
"""

import argparse
import csv
import itertools
import sys
import time

# hdlrt.cli first: it sets the CLI's one-thread BLAS default before numpy loads.
from hdlrt.cli import _threads_arg
from hdlrt import DistributionSpec, InvalidPlan, SimulationPlan, run_level

SIZES = [(100, 60), (120, 90), (180, 120)]
DISTS = ["normal", "t15", "exp1"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=201_000)
    parser.add_argument("--threads", type=_threads_arg, default=1)
    parser.add_argument("--out", default="level_table.csv")
    args = parser.parse_args(argv)

    rows = []
    start = time.perf_counter()
    for (di, dist), scenario, (n, p) in itertools.product(
            enumerate(DISTS), (1, 2), SIZES):
        try:
            plan = SimulationPlan(
                test="block", n=n, p=p, scenario=scenario,
                dist=DistributionSpec.parse(dist), reps=args.reps,
                alpha=args.alpha, seed=args.seed + scenario * 10_000 + n + di * 131,
            )
            res = run_level(plan, threads=args.threads)
        except InvalidPlan as exc:
            parser.error(str(exc))
        rows.append([dist, scenario, n, p, args.reps, res.rejections,
                     res.rejection_rate, res.standard_error])
        print(f"{dist:7s} scenario {scenario} (n={n:3d}, p={p:3d}): "
              f"rate={res.rejection_rate:.4f} (se={res.standard_error:.4f})")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dist", "scenario", "n", "p", "reps", "rejections", "rate", "se"])
        writer.writerows(rows)
    print(f"wrote {args.out} [{time.perf_counter() - start:.0f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
