"""Command-line front end.

Subcommands
-----------
``test block|corr|eqcov``
    Run a test on CSV data (rows = observations, columns = variables;
    a single non-numeric header row is auto-detected and skipped).
``simulate level|power|hist``
    Monte Carlo runs; deterministic given ``--seed`` regardless of
    ``--threads``.

Exit codes: 0 success, 1 input-file errors, 2 invalid designs or violated
preconditions (e.g. p >= n).  Numeric output uses 17 significant digits in
CSV and shortest round-trip floats in JSON, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from array import array
from collections.abc import Iterator

# The CLI's parallelism is its --threads worker processes, which fork from
# this one; a BLAS thread pool in each of them only oversubscribes the
# cores.  OpenBLAS reads its thread count once, when numpy loads it, so the
# default is set here, before any numpy import, and a count the user set
# is kept.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .blocktest import (
    block_constants,
    block_test,
    correlation_constants,
    correlation_test,
)
from .eqcov import GroupedSample, eqcov_constants, eqcov_test
from .errors import HdlrtError, InputFileError, InvalidPlan, ParseError, RaggedRows
from .linalg import BlockPartition
from .montecarlo import (
    DEFAULT_DELTA_GRID,
    SimulationPlan,
    run_histogram,
    run_level,
    run_power_curve,
)
from .sampling import DistributionSpec


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _is_filled(row: list[str]) -> bool:
    return any(cell.strip() != "" for cell in row)


def parse_csv(path: str) -> np.ndarray:
    """Read a rectangular numeric CSV as an observations-by-variables array.

    A leading UTF-8 byte order mark and blank rows are skipped, and the
    first remaining row is a header when none of its cells reads as a
    number.  The data rows below it are read in one ``np.loadtxt`` pass.
    When that pass raises, finds no rows or yields a non-finite value, the
    file is re-read cell by cell with ``float`` (``_parse_csv_rows``),
    which also accepts what ``loadtxt`` does not, such as quoted numbers,
    ``,,`` blank rows and ``1_0``.  Both reads give the same array on
    every file the exact one accepts.

    Raises RaggedRows (with the 1-based file row) on width mismatches and
    ParseError on non-numeric or non-finite cells and on records the CSV
    reader refuses.
    """
    data = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        # readline, not iteration, so that tell() marks the end of the header.
        rows = filter(_is_filled, csv.reader(iter(fh.readline, "")))
        try:
            first = next(rows, None)
            if first is not None and not any(_is_number(cell) for cell in first):
                # A header: look for a row below it, so that loadtxt never
                # warns about an empty input; the exact read words that error.
                start = fh.tell()
                first = next(rows, None)
                fh.seek(start)
            else:
                fh.seek(0)
            if first is not None:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                  dtype=np.float64)
        except (ValueError, csv.Error):
            pass
    if data is None or data.shape[0] == 0 or not np.isfinite(data).all():
        return _parse_csv_rows(path)
    return data


def _csv_records(path: str, reader) -> Iterator[tuple[int, list[str]]]:
    """(1-based row, cells) of each filled record of ``reader``.  A record
    the reader refuses, such as one with a field over ``csv``'s size limit,
    raises ParseError with its row."""
    for idx in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"{path}: row {idx}: {exc}", row=idx) from None
        if _is_filled(row):
            yield idx, row


def _parse_csv_rows(path: str) -> np.ndarray:
    """Exact reference read behind ``parse_csv``: one ``float`` per cell.

    The only place that words ParseError/RaggedRows with a file row and
    column, or a byte that is not UTF-8 with its offset in the file.  Rows
    are parsed as the CSV reader yields them, into one flat array of
    doubles, so no row outlives its parse.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        # Decoded whole first, so that a bad byte anywhere wins over a bad cell.
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte offset {exc.start}: not valid UTF-8") from None
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    rows = _csv_records(path, csv.reader(text))
    first = next(rows, None)
    if first is None:
        raise ParseError(f"{path}: no data rows")
    # Row 1 is a header only when none of its cells reads as a number, so a
    # first data row with one bad cell fails instead of being dropped.
    if not any(_is_number(cell) for cell in first[1]):
        first = next(rows, None)
        if first is None:
            raise ParseError(f"{path}: no data rows below the header")
    width = len(first[1])
    values = array("d")
    for idx, row in itertools.chain([first], rows):
        if len(row) != width:
            raise RaggedRows(
                f"{path}: row {idx} has {len(row)} fields, expected {width}",
                row=idx,
            )
        for col, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {idx}, column {col}: {cell.strip()!r} is not a number",
                    row=idx, col=col,
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: row {idx}, column {col}: non-finite value {cell.strip()!r}",
                    row=idx, col=col,
                )
            values.append(value)
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


def parse_partition(text: str) -> BlockPartition:
    """Partition syntax: comma list "2,2,3" or shorthand "30x2"."""
    t = text.strip().lower()
    try:
        if "x" in t:
            count, size = t.split("x")
            return BlockPartition.uniform(int(count), int(size))
        return BlockPartition(tuple(int(tok) for tok in t.split(",")))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}") from exc


def _dist_arg(text: str) -> DistributionSpec:
    try:
        return DistributionSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _list_arg(kind: str, convert):
    """An argparse type for a comma list of ``convert`` values, e.g. "0,0.1"."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(tok) for tok in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {kind} list {text!r}") from exc
    return parse


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2) + "\n", out)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_TEST_NAMES = {"block": "block", "corr": "correlation", "eqcov": "eqcov"}


def _cmd_test(args) -> int:
    if args.kind == "eqcov":
        sample = GroupedSample(tuple(parse_csv(path) for path in args.input))
        report = eqcov_test(sample, args.alpha)
        const = eqcov_constants(sample.n_sizes, sample.p)
        shape = {"n_sizes": list(sample.n_sizes), "p": sample.p}
    else:
        data = parse_csv(args.input)
        n, p = data.shape
        shape = {"n": n, "p": p}
        if args.kind == "block":
            report = block_test(data, args.partition, args.alpha)
            const = block_constants(n, args.partition)
            shape["partition"] = list(args.partition.sizes)
        else:
            report = correlation_test(data, args.alpha)
            const = correlation_constants(n, p)
    head = {"test": _TEST_NAMES[args.kind], **shape}
    stats = {key: getattr(report, key) for key in
             ("log_statistic", "mu", "sigma", "z", "p_value", "alpha", "reject")}
    warnings = list(report.assumption_warnings)
    constants = {"mu_n": const.mu_n, "sigma_n": const.sigma_n}
    if args.format == "json":
        _emit_json({**head, **stats, "assumption_warnings": warnings,
                    "constants": constants}, args.out)
    else:
        # One flat row: the list fields |-joined, the warnings quoted.
        head = {k: "|".join(map(str, v)) if isinstance(v, list) else v
                for k, v in head.items()}
        row = {**head, **stats, "assumption_warnings": '"' + "; ".join(warnings) + '"',
               **constants}
        _write(_csv_text(list(row), [list(row.values())]), args.out)
    return 0


def _build_plan(args) -> SimulationPlan:
    if args.test != "block" and (args.blocks is not None or args.scenario is not None):
        raise InvalidPlan(f"--blocks/--scenario apply to the block test, not {args.test}")
    if args.test == "eqcov":
        if args.n is not None:
            raise InvalidPlan("the eqcov test takes --n-sizes, not --n")
        if args.n_sizes is None:
            raise InvalidPlan("the eqcov test requires --n-sizes")
    else:
        if args.n_sizes is not None:
            raise InvalidPlan(f"--n-sizes applies to the eqcov test, not {args.test}")
        if args.n is None:
            raise InvalidPlan(f"the {args.test} test requires --n")
    return SimulationPlan(
        test=_TEST_NAMES[args.test], n=args.n, n_sizes=args.n_sizes, p=args.p,
        partition=args.blocks, scenario=args.scenario, dist=args.dist,
        reps=args.reps, alpha=args.alpha, seed=args.seed,
    )


_SIM_HEADER = ["delta", "reps", "rejections", "rate", "se", "seed"]


def _cmd_sim_rates(args) -> int:
    """``simulate level`` (the one-row curve at delta 0) and ``simulate power``."""
    plan = _build_plan(args)
    if args.kind == "level":
        curve = [(0.0, run_level(plan, threads=args.threads))]
    else:
        curve = run_power_curve(plan, deltas=args.deltas, threads=args.threads)
    rows = [[delta, result.reps, result.rejections, result.rejection_rate,
             result.standard_error, plan.seed] for delta, result in curve]
    if args.format == "csv":
        _write(_csv_text(_SIM_HEADER, rows), args.out)
    else:
        _emit_json({"plan": _plan_payload(plan),
                    "rows": [dict(zip(_SIM_HEADER, row)) for row in rows]}, args.out)
    if args.kind == "level":
        result = curve[0][1]
        print(f"level: rate={result.rejection_rate:.4f} (se={result.standard_error:.4f})",
              file=sys.stderr)
    return 0


def _cmd_sim_hist(args) -> int:
    plan = _build_plan(args)
    result = run_histogram(plan, bins=args.bins, threads=args.threads)
    if args.format == "csv":
        rows = [[rep, float(z)] for rep, z in enumerate(result.z_samples)]
        _write(_csv_text(["rep", "z"], rows), args.out)
    else:
        edges, counts = result.histogram
        payload = {
            "plan": _plan_payload(plan),
            "rate": result.rejection_rate,
            "se": result.standard_error,
            "rejections": result.rejections,
            "ks_statistic": result.ks_statistic,
            "bin_edges": [float(v) for v in edges],
            "counts": [int(v) for v in counts],
            "z_samples": [float(v) for v in result.z_samples],
        }
        _emit_json(payload, args.out)
    print(f"hist: ks={result.ks_statistic:.4f} rate={result.rejection_rate:.4f}",
          file=sys.stderr)
    return 0


def _plan_payload(plan: SimulationPlan) -> dict:
    payload = {
        "test": plan.test,
        "p": plan.p,
        "delta": plan.delta,
        "dist": plan.dist.label,
        "reps": plan.reps,
        "alpha": plan.alpha,
        "seed": plan.seed,
    }
    if plan.test == "eqcov":
        payload["n_sizes"] = list(plan.n_sizes)
    else:
        payload["n"] = plan.n
        if plan.partition is not None:
            payload["partition"] = list(plan.partition.sizes)
    return payload


def _threads_arg(text: str) -> int:
    try:
        threads = int(text)
        if threads >= 1:
            return threads
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _default_threads() -> int:
    env = os.environ.get("HDLRT_THREADS")
    try:
        return _threads_arg(env) if env else 1
    except argparse.ArgumentTypeError:
        print(f"hdlrt: warning: ignoring HDLRT_THREADS={env!r}, not a positive integer; "
              "using 1 worker", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdlrt",
        description="High-dimensional likelihood-ratio tests for covariance structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report_opts = argparse.ArgumentParser(add_help=False)
    report_opts.add_argument("--alpha", type=float, default=0.05)
    report_opts.add_argument("--out")
    report_opts.add_argument("--format", choices=["json", "csv"], default="json")

    test = sub.add_parser("test", help="run a test on CSV data")
    test_sub = test.add_subparsers(dest="kind", required=True)

    tb = test_sub.add_parser("block", parents=[report_opts],
                             help="block-diagonal covariance test")
    tb.add_argument("--input", required=True, help="CSV file, rows = observations")
    tb.add_argument("--partition", type=parse_partition, required=True,
                    help='block sizes, e.g. "2,2,3" or "30x2"')

    tc = test_sub.add_parser("corr", parents=[report_opts],
                             help="diagonal covariance (correlation determinant) test")
    tc.add_argument("--input", required=True)

    te = test_sub.add_parser("eqcov", parents=[report_opts],
                             help="equality of group covariances test")
    te.add_argument("--input", required=True, action="append",
                    help="one CSV per group (repeat the flag)")
    test.set_defaults(func=_cmd_test)

    sim_opts = argparse.ArgumentParser(add_help=False)
    sim_opts.add_argument("--test", choices=list(_TEST_NAMES), default="block")
    sim_opts.add_argument("--n", type=int, help="sample size (block/corr)")
    sim_opts.add_argument("--n-sizes", type=_list_arg("size", int), dest="n_sizes",
                          help="comma list of group sizes (eqcov)")
    sim_opts.add_argument("--p", type=int, required=True, help="dimension")
    sim_opts.add_argument("--blocks", type=parse_partition,
                          help='partition, e.g. "30x2" or "20,20,20" (block test)')
    sim_opts.add_argument("--scenario", type=int, choices=[1, 2],
                          help="stock partition layout computed from p")
    sim_opts.add_argument("--dist", type=_dist_arg, default=DistributionSpec.normal(),
                          help="normal | t15 | exp1 (default normal)")
    sim_opts.add_argument("--reps", type=int, default=2000)
    sim_opts.add_argument("--alpha", type=float, default=0.05)
    sim_opts.add_argument("--seed", type=int, default=0)
    sim_opts.add_argument("--threads", type=_threads_arg,
                          help="worker processes, at least 1 (default HDLRT_THREADS, "
                               "else 1); never affects results")
    sim_opts.add_argument("--out", help="output path (default stdout)")
    sim_opts.add_argument("--format", choices=["json", "csv"], default="csv")

    sim = sub.add_parser("simulate", help="Monte Carlo level/power/histogram runs")
    sim_sub = sim.add_subparsers(dest="kind", required=True)

    sl = sim_sub.add_parser("level", parents=[sim_opts], help="empirical level under the null")
    sl.set_defaults(func=_cmd_sim_rates)

    sp = sim_sub.add_parser("power", parents=[sim_opts], help="power over a delta grid")
    sp.add_argument("--deltas", type=_list_arg("delta", float), default=DEFAULT_DELTA_GRID,
                    help="comma list of deltas (default 0,0.002,...,0.02)")
    sp.set_defaults(func=_cmd_sim_rates)

    sh = sim_sub.add_parser("hist", parents=[sim_opts],
                            help="null histogram of the standardized statistic")
    sh.add_argument("--bins", type=int, default=40)
    sh.set_defaults(func=_cmd_sim_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 0) is None:
        args.threads = _default_threads()
    try:
        return args.func(args)
    except (InputFileError, OSError) as exc:
        print(f"hdlrt: error: {exc}", file=sys.stderr)
        return 1
    except HdlrtError as exc:
        print(f"hdlrt: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
