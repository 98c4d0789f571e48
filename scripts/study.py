"""The simulation study of the block-diagonal test: one table of cells, three modes.

    python scripts/study.py level   # empirical level, 18 cells -> level_table.csv
    python scripts/study.py power   # power curves, 18 cells x 7 deltas -> power_curves.csv
    python scripts/study.py hist    # null histograms and KS, 3 cells
                                    # -> null_hist_<dist>_z.csv, null_hist_<dist>_bins.csv

The level and power cells cross the entry distributions normal, t15 and
exp1 with scenarios 1 and 2 and the sizes (n, p) = (100, 60), (120, 90),
(180, 120).  The hist cells are the reference regime (n=100, p=60, thirty
blocks of two) under each distribution.  The acceptance gates
(tests/test_acceptance.py, criteria 1-3) run their cells from this table
through ``run_cell``.  The histograms are binned as ``run_histogram`` bins
every run.  For one cell with another seed, alpha, delta grid or shape,
use ``hdlrt simulate level|power|hist``.
"""

import argparse
import csv
import itertools
import sys
import time
from dataclasses import replace

# hdlrt.cli first: it sets the CLI's one-thread BLAS default before numpy loads.
import hdlrt.cli
from hdlrt import (BlockPartition, DistributionSpec, InvalidPlan, SimulationPlan,
                   run_histogram, run_level, run_power_curve)

DISTS = ("normal", "t15", "exp1")
SIZES = ((100, 60), (120, 90), (180, 120))
# The rejection rate at (n, p) = (100, 60) crosses 0.9 only near delta = 0.1,
# so the grid runs past the library's DEFAULT_DELTA_GRID, which stops at 0.02.
DELTAS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12)


def _cell(dist: str, **fields) -> SimulationPlan:
    return SimulationPlan(test="block", dist=DistributionSpec.parse(dist), alpha=0.05, **fields)


# mode -> the plans of its cells, in the order of the output rows
CELLS = {
    "level": tuple(_cell(dist, n=n, p=p, scenario=scenario, reps=2000,
                         seed=201_000 + scenario * 10_000 + n + di * 131)
                   for (di, dist), scenario, (n, p)
                   in itertools.product(enumerate(DISTS), (1, 2), SIZES)),
    "power": tuple(_cell(dist, n=n, p=p, scenario=scenario, reps=2000, seed=103_000)
                   for dist, scenario, (n, p) in itertools.product(DISTS, (1, 2), SIZES)),
    "hist": tuple(_cell(dist, n=100, p=60, partition=BlockPartition.uniform(30, 2),
                        reps=10_000, seed=20_240_802)
                  for dist in DISTS),
}
DEFAULT_OUT = {"level": "level_table.csv", "power": "power_curves.csv", "hist": "null_hist"}
HEADERS = {
    "level": ["dist", "scenario", "n", "p", "reps", "rejections", "rate", "se"],
    "power": ["dist", "scenario", "n", "p", "delta", "reps", "rejections", "rate", "se"],
}


def run_cell(mode: str, plan: SimulationPlan, threads: int = 1):
    """Run one cell of ``mode`` on ``threads`` workers.  Level and hist
    return a ``SimulationResult`` (hist with its histogram and KS distance);
    power returns the ``(delta, SimulationResult)`` pairs over DELTAS."""
    if mode == "power":
        return run_power_curve(plan, deltas=DELTAS, threads=threads)
    if mode == "hist":
        return run_histogram(plan, threads=threads)
    return run_level(plan, threads=threads)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=CELLS)
    parser.add_argument("--reps", type=int, help="replications per cell (default: the table's)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", help="output file, a file prefix for hist "
                                      "(default: level_table.csv, power_curves.csv, null_hist)")
    args = parser.parse_args(argv)
    out = args.out or DEFAULT_OUT[args.mode]
    try:
        plans = [plan if args.reps is None else replace(plan, reps=args.reps)
                 for plan in CELLS[args.mode]]
    except InvalidPlan as exc:
        parser.error(str(exc))

    rows, written = [], []
    start = time.perf_counter()
    for plan in plans:
        try:
            result = run_cell(args.mode, plan, args.threads)
        except InvalidPlan as exc:  # the engine's threads rule, before any draw
            parser.error(str(exc))
        label = plan.dist.label
        cell = [label, plan.scenario, plan.n, plan.p]
        name = f"{label:7s} scenario {plan.scenario} (n={plan.n:3d}, p={plan.p:3d})"
        if args.mode == "level":
            rows.append(cell + [plan.reps, result.rejections, result.rejection_rate,
                                result.standard_error])
            print(f"{name}: rate={result.rejection_rate:.4f} (se={result.standard_error:.4f})")
        elif args.mode == "power":
            rows += [cell + [delta, plan.reps, res.rejections, res.rejection_rate,
                             res.standard_error] for delta, res in result]
            print(f"{name}: rate at delta={DELTAS[-1]:g} is {result[-1][1].rejection_rate:.3f}")
        else:
            z_path, bins_path = f"{out}_{label}_z.csv", f"{out}_{label}_bins.csv"
            _write_csv(z_path, ["rep", "z"],
                       ((i, repr(float(z))) for i, z in enumerate(result.z_samples)))
            edges, counts = result.histogram
            bounds = ["-inf", *(repr(float(edge)) for edge in edges), "inf"]
            _write_csv(bins_path, ["lower", "upper", "count"],
                       zip(bounds[:-1], bounds[1:], (int(c) for c in counts)))
            written += [z_path, bins_path]
            print(f"{label:7s}: ks={result.ks_statistic:.4f} rate={result.rejection_rate:.4f}")
    if args.mode != "hist":
        _write_csv(out, HEADERS[args.mode], rows)
        written.append(out)
    print(f"wrote {', '.join(written)} [{time.perf_counter() - start:.0f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
