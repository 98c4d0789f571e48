"""Per-layer metrics from traced replays of every workload.

A replay runs one workload's command through ``hdlrt.cli.main`` in a fresh
interpreter (this file run as a script), so it starts as cold as the
command does.  Each workload is replayed plain, traced, traced, plain,
where traced means with spans around the calls into hdlrt's modules
(``tracing.WRAPPED``); a linear drift in machine speed cancels out of
``trace_overhead_frac``.  Every replay must print the same bytes, and the
span metrics come from the first traced replay.  ``mc_corr_power_x2`` is
replayed on one process so that every span is recorded; a fifth replay
with the workload's two workers measures the pool, counts the chunks it is
given and runs a small start-up probe.  Each metric's predicted target is
in ``targets.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent

POOL_WORKLOAD = "mc_corr_power_x2"
CSV_LOG_VN_REPEATS = 5    # extra log_vn calls on the csv_block matrix
POOL_PROBE_REPEATS = 5    # run_power pairs (one worker, two) for pool_startup_s
POOL_PROBE_REPS = 8       # enough replications for run_power to use the pool

RUN_SPANS = {"montecarlo.run_level", "montecarlo.run_power", "montecarlo.run_histogram"}
STATISTIC = {
    "mc_block_level": "blocktest.log_vn",
    "mc_eqcov_hist_t15": "eqcov.log_lambda2",
    "mc_corr_power_x2": "blocktest.log_det_correlation",
}
# counts summed over the four workloads: metric -> span
COUNTS = {
    "blocktest.log_vn.calls": "blocktest.log_vn",
    "linalg.log_det_incremental.calls": "linalg.log_det_incremental",
    "sampling.draw_entries.calls": "sampling.draw_entries",
    "montecarlo.reps": "sampling.entry_generator",
}
LOG_VN_SHAPES = {  # label -> (workload, n, block sizes)
    "100x60_30x2": ("mc_block_level", 100, (2,) * 30),
    "8000x120_60x2": ("csv_block", 8000, (2,) * 60),
}


# -- parent: run the replays and assemble the metrics ---------------------

def spawn_replay(name: str, seed: int, argv, mode: str) -> dict:
    """Run one replay in a fresh interpreter and return its report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "layers.py"), "--workload", name, "--seed", str(seed),
         "--mode", mode, "--", *argv],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"code": proc.returncode or 1, "wall": 0.0, "output": "",
                "errors": {}, "metrics": {}, "stderr": proc.stderr[-300:]}
    return json.loads(lines[-1])


def traced_run(seed: int, workdir):
    """Per-layer metrics: (values per metric, replays attempted, failure
    reason per failed replay, machine facts)."""
    from machine import dgemm_gflops, machine_facts
    from recompute import check_pool
    from workloads import WORKLOADS, Simulation

    gflops = dgemm_gflops()
    preps, replays = {}, {}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, Simulation):
            preps[name] = workload.prepare(seed, workdir, threads="1")
        else:
            preps[name] = workload.prepare(seed, workdir)
        runs = replays[name] = {}
        for label, mode in (("plain 1", "plain"), ("traced 1", "traced"),
                            ("traced 2", "traced"), ("plain 2", "plain")):
            runs[label] = spawn_replay(name, seed, preps[name].argv, mode)
        if name == POOL_WORKLOAD:
            runs["two workers"] = spawn_replay(
                name, seed, workload.prepare(seed, workdir).argv, "pool")

    failures = {}
    with check_pool() as pool:
        for name, workload in WORKLOADS.items():
            first = replays[name]["plain 1"]["output"]
            problem = workload.check(first.encode(), workload.reference(preps[name], pool))
            for label, run in replays[name].items():
                if run["code"] != 0:
                    failures[f"{name} {label}"] = f"exit code {run['code']} {run.get('stderr', '')}"
                elif run["errors"]:
                    failures[f"{name} {label}"] = f"exceptions per layer: {run['errors']}"
                elif run["output"] != first:
                    failures[f"{name} {label}"] = "output differs from the first replay"
                elif problem:
                    failures[f"{name} {label}"] = problem

    series: dict[str, list[float]] = {}
    for name, runs in replays.items():
        for part in (runs["traced 1"], runs.get("two workers", {})):
            for metric, values in part.get("metrics", {}).items():
                series.setdefault(metric, []).extend(values)
        wall = {label: run["wall"] for label, run in runs.items()}
        print(f"# replay wall s, {name}: " + ", ".join(f"{k} {v:.4f}" for k, v in wall.items()))
        plain, traced = wall["plain 1"] + wall["plain 2"], wall["traced 1"] + wall["traced 2"]
        series[f"trace_overhead_frac.{name}"] = [traced / plain - 1.0]
        if name == POOL_WORKLOAD:
            series["montecarlo.pool_efficiency"] = [plain / 2 / (2 * wall["two workers"])]
    for metric in COUNTS:
        series[metric] = [sum(series[metric])]
    for label in LOG_VN_SHAPES:
        rate = series[f"blocktest.log_vn.gflops_computed.{label}"][0]
        series[f"blocktest.log_vn.peak_frac.{label}"] = [rate / gflops]
    series["machine.dgemm_gflops"] = [gflops]
    attempted = sum(len(runs) for runs in replays.values())
    return series, attempted, failures, machine_facts(gflops)


# -- child: one replay ----------------------------------------------------

def replay(argv) -> tuple[int, float, str]:
    """(exit code, wall seconds, stdout) of ``hdlrt.cli.main(argv)``."""
    from hdlrt import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - start
    return code, wall, out.getvalue()


def _ms(durations: list[float]) -> list[float]:
    return [1e3 * d for d in durations]


def _p99_ms(durations: list[float]) -> list[float]:
    import numpy as np

    return [1e3 * float(np.percentile(durations, 99))]


def log_vn_flops(n: int, sizes: tuple[int, ...]) -> int:
    """Flops of log V_n counted as Gram matrices, 2np^2 + sum_i 2np_i^2."""
    return 2 * n * sum(sizes) ** 2 + sum(2 * n * s * s for s in sizes)


def span_metrics(name: str, tracer, seed: int, argv) -> dict[str, list[float]]:
    """The per-layer values one traced replay of workload ``name`` gives."""
    m = {f"cli.self_s.{name}": [tracer.self_time({"cli.main"})[1]],
         "blocktest.block_constants.us": [
             1e6 * d for d in tracer.durations("blocktest.block_constants")]}
    for metric, span in COUNTS.items():
        m[metric] = [tracer.count(span)]

    for label, (workload, n, sizes) in LOG_VN_SHAPES.items():
        if workload != name:
            continue
        calls = tracer.durations("blocktest.log_vn")
        if name == "csv_block":  # one call per command: time a few more
            from hdlrt.blocktest import log_vn
            from hdlrt.linalg import BlockPartition
            from workloads import WORKLOADS

            data, part = WORKLOADS[name].matrix(seed), BlockPartition(sizes)
            for _ in range(CSV_LOG_VN_REPEATS):
                start = time.perf_counter()
                log_vn(data, part)
                calls.append(time.perf_counter() - start)
        else:
            m[f"blocktest.log_vn.p99_ms.{label}"] = _p99_ms(calls)
        m[f"blocktest.log_vn.ms_per_call.{label}"] = _ms(calls)
        m[f"blocktest.log_vn.gflops_computed.{label}"] = [
            log_vn_flops(n, sizes) / statistics.median(calls) / 1e9]

    if name == "csv_block":
        parse = tracer.durations("cli.parse_csv")
        size = Path(argv[list(argv).index("--input") + 1]).stat().st_size
        m["cli.parse_csv.s"] = parse
        m["cli.parse_csv.mb_per_s"] = [size / 1e6 / s for s in parse]
    elif name == "mc_block_level":
        m["sampling.draw_entries.ms_per_call.normal"] = _ms(
            tracer.durations("sampling.draw_entries"))
    elif name == "mc_eqcov_hist_t15":
        for span in ("eqcov.log_lambda2", "eqcov.GroupedSample", "linalg.log_det_cholesky"):
            m[f"{span}.ms_per_call"] = _ms(tracer.durations(span))
        m["sampling.draw_entries.ms_per_call.t15"] = _ms(tracer.durations("sampling.draw_entries"))
        m["montecarlo.ks_distance_to_normal.ms"] = _ms(
            tracer.durations("montecarlo.ks_distance_to_normal"))
    elif name == POOL_WORKLOAD:
        m["blocktest.log_det_correlation.ms_per_call"] = _ms(
            tracer.durations("blocktest.log_det_correlation"))
        m["sampling.apply_root.ms_per_call"] = _ms(tracer.durations("sampling.apply_root"))

    if name in STATISTIC:
        total, own = tracer.self_time(RUN_SPANS)
        reps = tracer.replication_times(STATISTIC[name])
        m[f"montecarlo.rep_ms.{name}"] = _ms(reps)
        m[f"montecarlo.rep_p99_ms.{name}"] = _p99_ms(reps)
        m[f"montecarlo.self_share.{name}"] = [own / total]
        if name != POOL_WORKLOAD:
            m[f"sampling.draw_share.{name}"] = [
                sum(tracer.durations("sampling.draw_entries")) / total]
    return m


def pool_replay(argv, seed: int) -> dict:
    """A plain replay that counts the chunks montecarlo submits to its pool,
    then the start-up probe: the median extra wall time of a tiny
    ``run_power`` on two workers over one."""
    from hdlrt import montecarlo

    submitted = Counter()

    class CountingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted["chunks"] += 1
            return super().submit(fn, *args, **kwargs)

    original = montecarlo.ProcessPoolExecutor
    montecarlo.ProcessPoolExecutor = CountingPool
    try:
        code, wall, out = replay(argv)
    finally:
        montecarlo.ProcessPoolExecutor = original

    plan = montecarlo.SimulationPlan(test="correlation", n=100, p=60, reps=POOL_PROBE_REPS,
                                     delta=0.02, seed=seed)
    gaps = []
    for _ in range(POOL_PROBE_REPEATS):
        walls = {}
        for threads in (1, 2):
            start = time.perf_counter()
            montecarlo.run_power(plan, threads=threads)
            walls[threads] = time.perf_counter() - start
        gaps.append(walls[2] - walls[1])
    return {"code": code, "wall": wall, "output": out, "errors": {},
            "metrics": {"montecarlo.chunks": [submitted["chunks"]],
                        "montecarlo.pool_startup_s": [statistics.median(gaps)]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one replay of a workload's command")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["plain", "traced", "pool"], required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, str(HERE.parent / "src"))
    import hdlrt.cli  # noqa: F401  (imported here, not inside the timed replay)

    if args.mode == "pool":
        report = pool_replay(command, args.seed)
    elif args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            code, wall, out = replay(command)
        report = {"code": code, "wall": wall, "output": out, "errors": dict(tracer.errors),
                  "metrics": span_metrics(args.workload, tracer, args.seed, command)}
    else:
        code, wall, out = replay(command)
        report = {"code": code, "wall": wall, "output": out, "errors": {}, "metrics": {}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
