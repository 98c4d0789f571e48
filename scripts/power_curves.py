"""Power curves of the block test against the compound-symmetry
alternative (1 - delta) I + delta * ones.

Sweeps delta for every distribution x scenario x (n, p) combination and
writes a single long-format CSV.  The default grid extends to delta = 0.12
because the rejection rate at (n, p) = (100, 60) crosses 0.9 only around
delta = 0.1; pass --deltas to change it.
"""

import argparse
import csv
import itertools
import sys
import time

# hdlrt.cli first: it sets the CLI's one-thread BLAS default before numpy loads.
from hdlrt.cli import _list_arg, _threads_arg
from hdlrt import DistributionSpec, InvalidPlan, SimulationPlan, run_power_curve

SIZES = [(100, 60), (120, 90), (180, 120)]
DISTS = ["normal", "t15", "exp1"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=103_000)
    parser.add_argument("--threads", type=_threads_arg, default=1)
    parser.add_argument("--deltas", type=_list_arg("delta", float),
                        default="0,0.02,0.04,0.06,0.08,0.10,0.12",
                        help="comma list of deltas")
    parser.add_argument("--out", default="power_curves.csv")
    args = parser.parse_args(argv)

    rows = []
    start = time.perf_counter()
    for dist, scenario, (n, p) in itertools.product(DISTS, (1, 2), SIZES):
        try:
            plan = SimulationPlan(
                test="block", n=n, p=p, scenario=scenario,
                dist=DistributionSpec.parse(dist), reps=args.reps,
                alpha=args.alpha, seed=args.seed,
            )
            curve = run_power_curve(plan, deltas=args.deltas, threads=args.threads)
        except InvalidPlan as exc:
            parser.error(str(exc))
        for delta, res in curve:
            rows.append([dist, scenario, n, p, delta, args.reps,
                         res.rejections, res.rejection_rate, res.standard_error])
        top = curve[-1][1].rejection_rate
        print(f"{dist:7s} scenario {scenario} (n={n:3d}, p={p:3d}): "
              f"rate at delta={args.deltas[-1]:g} is {top:.3f}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dist", "scenario", "n", "p", "delta", "reps",
                         "rejections", "rate", "se"])
        writer.writerows(rows)
    print(f"wrote {args.out} [{time.perf_counter() - start:.0f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
