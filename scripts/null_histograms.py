"""Null-distribution histograms of the standardized block statistic.

For each entry distribution, simulates the reference regime (n=100, p=60,
thirty blocks of two) and writes the raw standardized statistics plus the
binned histogram to CSV, one pair of files per distribution.  The printed
KS distances quantify how close each histogram is to the standard normal.
"""

import argparse
import csv
import sys

# hdlrt.cli first: it sets the CLI's one-thread BLAS default before numpy loads.
from hdlrt.cli import _threads_arg
from hdlrt import BlockPartition, DistributionSpec, InvalidPlan, SimulationPlan, run_histogram

DISTS = ["normal", "t15", "exp1"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--p", type=int, default=60)
    parser.add_argument("--blocks", type=int, default=30, help="number of equal blocks")
    parser.add_argument("--reps", type=int, default=10_000)
    parser.add_argument("--bins", type=int, default=40)
    parser.add_argument("--seed", type=int, default=20_240_802)
    parser.add_argument("--threads", type=_threads_arg, default=1)
    parser.add_argument("--out-prefix", default="null_hist")
    args = parser.parse_args(argv)

    if args.blocks < 1 or args.p % args.blocks:
        parser.error(f"--blocks must be a positive divisor of p={args.p}, got {args.blocks}")
    part = BlockPartition.uniform(args.blocks, args.p // args.blocks)
    for dist in DISTS:
        try:
            plan = SimulationPlan(
                test="block", n=args.n, p=args.p, partition=part,
                dist=DistributionSpec.parse(dist), reps=args.reps, seed=args.seed,
            )
            res = run_histogram(plan, bins=args.bins, threads=args.threads)
        except InvalidPlan as exc:
            parser.error(str(exc))
        z_path = f"{args.out_prefix}_{dist}_z.csv"
        with open(z_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rep", "z"])
            writer.writerows((i, repr(float(z))) for i, z in enumerate(res.z_samples))
        edges, counts = res.histogram
        hist_path = f"{args.out_prefix}_{dist}_bins.csv"
        with open(hist_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lower", "upper", "count"])
            writer.writerow(["-inf", repr(float(edges[0])), int(counts[0])])
            for lo, hi, c in zip(edges[:-1], edges[1:], counts[1:-1]):
                writer.writerow([repr(float(lo)), repr(float(hi)), int(c)])
            writer.writerow([repr(float(edges[-1])), "inf", int(counts[-1])])
        print(f"{dist:7s}: ks={res.ks_statistic:.4f} rate={res.rejection_rate:.4f} "
              f"-> {z_path}, {hist_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
