"""Command-line front end.

Subcommands
-----------
``test block|corr|eqcov``
    Run a test on CSV data (rows = observations, columns = variables;
    a single non-numeric header row is auto-detected and skipped).
``simulate level|power|hist``
    Monte Carlo runs; deterministic given ``--seed`` regardless of
    ``--threads``.
``debug trace``
    Projection diagnostics as CSV (inspection aid, hidden from help).

Exit codes: 0 success, 1 input-file errors, 2 invalid designs or violated
preconditions (e.g. p >= n).  Numeric output uses 17 significant digits in
CSV and shortest round-trip floats in JSON, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .blocktest import (
    TestReport,
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
from .oracle import martingale_trace
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

    Blank rows are skipped, and the first remaining row is a header when
    none of its cells reads as a number.  The data rows below it are read
    in one ``np.loadtxt`` pass.  When that pass raises, finds no rows or
    yields a non-finite value, the file is re-read cell by cell with
    ``float`` (``_parse_csv_rows``), which also accepts what ``loadtxt``
    does not, such as quoted numbers, ``,,`` blank rows and ``1_0``.  Both
    reads give the same array on every file the exact one accepts.

    Raises RaggedRows (with the 1-based file row) on width mismatches and
    ParseError on non-numeric or non-finite cells.
    """
    data = None
    with open(path, newline="") as fh:
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
        except ValueError:
            pass
    if data is None or data.shape[0] == 0 or not np.isfinite(data).all():
        return _parse_csv_rows(path)
    return data


def _parse_csv_rows(path: str) -> np.ndarray:
    """Exact reference read behind ``parse_csv``: one ``float`` per cell.

    The only place that words ParseError/RaggedRows with a file row and
    column.
    """
    with open(path, newline="") as fh:
        rows = [(idx, row) for idx, row in enumerate(csv.reader(fh), start=1)
                if _is_filled(row)]
    if not rows:
        raise ParseError(f"{path}: no data rows")

    def parse_row(idx: int, row: list[str]) -> list[float]:
        values = []
        for col, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {idx}, column {col}: {cell.strip()!r} is not a number",
                    row=idx, col=col,
                ) from None
            if not np.isfinite(value):
                raise ParseError(
                    f"{path}: row {idx}, column {col}: non-finite value {cell.strip()!r}",
                    row=idx, col=col,
                )
            values.append(value)
        return values

    # Row 1 is a header only when none of its cells reads as a number, so a
    # first data row with one bad cell fails instead of being dropped.
    start = 0 if any(_is_number(cell) for cell in rows[0][1]) else 1
    if start == len(rows):
        raise ParseError(f"{path}: no data rows below the header")
    width = len(rows[start][1])
    data = []
    for idx, row in rows[start:]:
        if len(row) != width:
            raise RaggedRows(
                f"{path}: row {idx} has {len(row)} fields, expected {width}",
                row=idx,
            )
        data.append(parse_row(idx, row))
    return np.array(data, dtype=np.float64)


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


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc


def _deltas_arg(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad delta list {text!r}") from exc


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


def _report_payload(kind: str, report: TestReport, constants: dict, extra: dict) -> dict:
    payload = {"test": kind}
    payload.update(extra)
    payload.update(
        log_statistic=report.log_statistic,
        mu=report.mu,
        sigma=report.sigma,
        z=report.z,
        p_value=report.p_value,
        alpha=report.alpha,
        reject=report.reject,
        assumption_warnings=list(report.assumption_warnings),
        constants=constants,
    )
    return payload


def _emit_report(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _emit_json(payload, out)
        return
    header, row = [], []
    for key, value in payload.items():
        if key == "constants":
            for ckey, cval in value.items():
                header.append(ckey)
                row.append(cval)
        elif key == "assumption_warnings":
            header.append(key)
            row.append('"' + "; ".join(value) + '"')
        elif key in ("partition", "n_sizes"):
            header.append(key)
            row.append("|".join(str(v) for v in value))
        else:
            header.append(key)
            row.append(value)
    _write(_csv_text(header, [row]), out)


def _cmd_test_block(args) -> int:
    data = parse_csv(args.input)
    report = block_test(data, args.partition, args.alpha)
    const = block_constants(data.shape[0], args.partition)
    payload = _report_payload(
        "block", report,
        {"mu_n": const.mu_n, "sigma_n": const.sigma_n},
        {"n": data.shape[0], "p": data.shape[1], "partition": list(args.partition.sizes)},
    )
    _emit_report(payload, args.format, args.out)
    return 0


def _cmd_test_corr(args) -> int:
    data = parse_csv(args.input)
    report = correlation_test(data, args.alpha)
    const = correlation_constants(data.shape[0], data.shape[1])
    payload = _report_payload(
        "correlation", report,
        {"mu_n": const.mu_n, "sigma_n": const.sigma_n},
        {"n": data.shape[0], "p": data.shape[1]},
    )
    _emit_report(payload, args.format, args.out)
    return 0


def _cmd_test_eqcov(args) -> int:
    groups = tuple(parse_csv(path) for path in args.input)
    sample = GroupedSample(groups)
    report = eqcov_test(sample, args.alpha)
    const = eqcov_constants(sample.n_sizes, sample.p)
    payload = _report_payload(
        "eqcov", report,
        {"mu_n": const.mu_n, "sigma_n": const.sigma_n},
        {"n_sizes": list(sample.n_sizes), "p": sample.p},
    )
    _emit_report(payload, args.format, args.out)
    return 0


def _build_plan(args, delta: float = 0.0) -> SimulationPlan:
    kw = dict(
        test={"block": "block", "corr": "correlation", "eqcov": "eqcov"}[args.test],
        p=args.p,
        delta=delta,
        dist=args.dist,
        reps=args.reps,
        alpha=args.alpha,
        seed=args.seed,
    )
    if args.test != "block" and (args.blocks is not None or args.scenario is not None):
        raise InvalidPlan(f"--blocks/--scenario apply to the block test, not {args.test}")
    if args.test == "eqcov":
        if args.n is not None:
            raise InvalidPlan("the eqcov test takes --n-sizes, not --n")
        if args.n_sizes is None:
            raise InvalidPlan("the eqcov test requires --n-sizes")
        kw["n_sizes"] = args.n_sizes
    else:
        if args.n_sizes is not None:
            raise InvalidPlan(f"--n-sizes applies to the eqcov test, not {args.test}")
        if args.n is None:
            raise InvalidPlan(f"the {args.test} test requires --n")
        kw["n"] = args.n
        if args.test == "block":
            kw["partition"] = args.blocks
            kw["scenario"] = args.scenario
    return SimulationPlan(**kw)


def _sim_row(delta: float, result, seed: int) -> list:
    return [delta, result.reps, result.rejections, result.rejection_rate,
            result.standard_error, seed]


_SIM_HEADER = ["delta", "reps", "rejections", "rate", "se", "seed"]


def _cmd_sim_level(args) -> int:
    plan = _build_plan(args)
    result = run_level(plan, threads=args.threads, keep_z=False)
    rows = [_sim_row(0.0, result, plan.seed)]
    if args.format == "csv":
        _write(_csv_text(_SIM_HEADER, rows), args.out)
    else:
        _emit_json({"plan": _plan_payload(plan), "rows": _row_dicts(rows)}, args.out)
    print(f"level: rate={result.rejection_rate:.4f} (se={result.standard_error:.4f})",
          file=sys.stderr)
    return 0


def _cmd_sim_power(args) -> int:
    plan = _build_plan(args)
    curve = run_power_curve(plan, deltas=args.deltas, threads=args.threads)
    rows = [_sim_row(delta, result, plan.seed) for delta, result in curve]
    if args.format == "csv":
        _write(_csv_text(_SIM_HEADER, rows), args.out)
    else:
        _emit_json({"plan": _plan_payload(plan), "rows": _row_dicts(rows)}, args.out)
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


def _cmd_debug_trace(args) -> int:
    data = parse_csv(args.input)
    trace = martingale_trace(data, args.partition)
    p1 = args.partition.sizes[0]
    rows = []
    for i in range(len(trace.quad_forms)):
        x = trace.x_terms[i - p1] if i >= p1 else ""
        xj = trace.xj_terms[i - p1] if i >= p1 else ""
        rows.append([i + 1, float(trace.quad_forms[i]), float(trace.block_quad_forms[i]),
                     x if x == "" else float(x), xj if xj == "" else float(xj)])
    text = _csv_text(["i", "quad_form", "block_quad_form", "x_i", "x_ji"], rows)
    text += f"# sigma1_sum,{_fmt(trace.sigma1_sum)}\n"
    _write(text, args.out)
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


def _row_dicts(rows: list[list]) -> list[dict]:
    return [dict(zip(_SIM_HEADER, row)) for row in rows]


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


def _add_common_sim_args(parser) -> None:
    parser.add_argument("--test", choices=["block", "corr", "eqcov"], default="block")
    parser.add_argument("--n", type=int, help="sample size (block/corr)")
    parser.add_argument("--n-sizes", type=_sizes_arg, dest="n_sizes",
                        help="comma list of group sizes (eqcov)")
    parser.add_argument("--p", type=int, required=True, help="dimension")
    parser.add_argument("--blocks", type=parse_partition,
                        help='partition, e.g. "30x2" or "20,20,20" (block test)')
    parser.add_argument("--scenario", type=int, choices=[1, 2],
                        help="stock partition layout computed from p")
    parser.add_argument("--dist", type=_dist_arg, default=DistributionSpec.normal(),
                        help="normal | t15 | exp1 (default normal)")
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=_threads_arg,
                        help="worker processes, at least 1 (default HDLRT_THREADS, "
                             "else 1); never affects results")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdlrt",
        description="High-dimensional likelihood-ratio tests for covariance structure",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{test,simulate}")

    test = sub.add_parser("test", help="run a test on CSV data")
    test_sub = test.add_subparsers(dest="kind", required=True)

    tb = test_sub.add_parser("block", help="block-diagonal covariance test")
    tb.add_argument("--input", required=True, help="CSV file, rows = observations")
    tb.add_argument("--partition", type=parse_partition, required=True,
                    help='block sizes, e.g. "2,2,3" or "30x2"')
    tb.add_argument("--alpha", type=float, default=0.05)
    tb.add_argument("--out")
    tb.add_argument("--format", choices=["json", "csv"], default="json")
    tb.set_defaults(func=_cmd_test_block)

    tc = test_sub.add_parser("corr", help="diagonal covariance (correlation determinant) test")
    tc.add_argument("--input", required=True)
    tc.add_argument("--alpha", type=float, default=0.05)
    tc.add_argument("--out")
    tc.add_argument("--format", choices=["json", "csv"], default="json")
    tc.set_defaults(func=_cmd_test_corr)

    te = test_sub.add_parser("eqcov", help="equality of group covariances test")
    te.add_argument("--input", required=True, action="append",
                    help="one CSV per group (repeat the flag)")
    te.add_argument("--alpha", type=float, default=0.05)
    te.add_argument("--out")
    te.add_argument("--format", choices=["json", "csv"], default="json")
    te.set_defaults(func=_cmd_test_eqcov)

    sim = sub.add_parser("simulate", help="Monte Carlo level/power/histogram runs")
    sim_sub = sim.add_subparsers(dest="kind", required=True)

    sl = sim_sub.add_parser("level", help="empirical level under the null")
    _add_common_sim_args(sl)
    sl.set_defaults(func=_cmd_sim_level)

    sp = sim_sub.add_parser("power", help="power over a delta grid")
    _add_common_sim_args(sp)
    sp.add_argument("--deltas", type=_deltas_arg, default=DEFAULT_DELTA_GRID,
                    help="comma list of deltas (default 0,0.002,...,0.02)")
    sp.set_defaults(func=_cmd_sim_power)

    sh = sim_sub.add_parser("hist", help="null histogram of the standardized statistic")
    _add_common_sim_args(sh)
    sh.add_argument("--bins", type=int, default=40)
    sh.set_defaults(func=_cmd_sim_hist)

    debug = sub.add_parser("debug")
    debug_sub = debug.add_subparsers(dest="kind", required=True)
    dt = debug_sub.add_parser("trace")
    dt.add_argument("--input", required=True)
    dt.add_argument("--partition", type=parse_partition, required=True)
    dt.add_argument("--out")
    dt.set_defaults(func=_cmd_debug_trace)

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
