"""Benchmark of the hdlrt command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.

``--trace 0`` runs the workload's ``hdlrt`` command as a closed loop of one
client (each command runs to exit before the next starts) for ``--seconds``
and reports the end-to-end metrics as medians over those commands.
``--trace 1`` replays every workload with spans around the calls into
hdlrt's modules and reports the per-layer metrics (see ``layers.py``).
Inputs come from ``--seed`` alone.

Every command's output must equal the first one byte for byte, and the
first must agree with the LU oracle (``workloads.py``); a command that
fails either way counts in ``failed``.  The last line of standard output
is the JSON result; the lines before it give each metric's quartiles over
the run's commands and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Command:
    """One finished ``hdlrt`` process."""

    wall: float
    cpu: float
    rss_kb: int
    code: int
    output: bytes
    stderr: bytes


def command_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_command(args: list[str], env: dict[str, str], workdir: Path) -> Command:
    """Run ``python -m ...args`` to exit; wall time from spawn to exit, CPU
    time and peak RSS of the process and the workers it reaped."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=workdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(wall=wall, cpu=usage.ru_utime + usage.ru_stime, rss_kb=usage.ru_maxrss,
                   code=proc.returncode, output=out_path.read_bytes(),
                   stderr=err_path.read_bytes())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def timed_run(name: str, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics of one workload: (values per metric, commands
    attempted, failure reason per failed command, machine facts)."""
    from machine import dgemm_gflops, machine_facts
    from recompute import check_pool
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    prep = workload.prepare(seed, workdir)
    env = command_env()
    cli = ["-m", "hdlrt.cli", *prep.argv]
    setup_args = ["-c", "import hdlrt.cli; hdlrt.cli.build_parser()"]

    run_command(setup_args, env, workdir)  # compiles bytecode on a fresh checkout
    # A set-up spawn before each command, so that both sample the same
    # stretch of the machine's drifting speed.
    setup, commands = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not commands:
        setup.append(run_command(setup_args, env, workdir))
        commands.append(run_command(cli, env, workdir))

    facts = machine_facts(dgemm_gflops())
    with check_pool() as pool:
        reference = workload.reference(prep, pool)
    first = commands[0].output
    first_problem = workload.check(first, reference)
    failures = {}
    for i, cmd in enumerate(setup):
        if cmd.code != 0:
            failures[f"setup {i}"] = f"exit code {cmd.code}: {cmd.stderr.decode()[-300:]}"
    for i, cmd in enumerate(commands):
        if cmd.code != 0:
            failures[f"command {i}"] = f"exit code {cmd.code}: {cmd.stderr.decode()[-300:]}"
        elif cmd.output != first:
            failures[f"command {i}"] = "output differs from the first command's"
        elif first_problem:
            failures[f"command {i}"] = first_problem

    walls = [c.wall for c in commands]
    series = {
        "wall_s": walls,
        "reps_per_s": [prep.evals / w for w in walls],
        "input_mb_per_s": [prep.input_bytes / 1e6 / w for w in walls],
        "cpu_s": [c.cpu for c in commands],
        "peak_rss_mb": [c.rss_kb * 1024 / 1e6 for c in commands],
        "setup_s": [c.wall for c in setup],
    }
    return series, len(setup) + len(commands), failures, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (SRC / "hdlrt" / "cli.py").is_file():
        print(f"perfbench: no hdlrt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            from layers import traced_run
            series, attempted, failures, facts = traced_run(args.seed, workdir)
        else:
            series, attempted, failures, facts = timed_run(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(series) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured metrics {sorted(series)} do not match BENCHMARK.json")
    if args.trace and set(json.loads((HERE / "targets.json").read_text())) != set(series):
        raise RuntimeError("targets.json does not list exactly the per-layer metrics")
    failed = len(failures)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} commands, {failed} failed (fail_frac {failed / attempted:g})")
    for label, reason in failures.items():
        print(f"# FAILED {label}: {reason}")
    print(f"# {'metric':<46} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  bound")
    metrics = {}
    for m in declared:
        q1, med, q3 = quartiles(series[m["name"]])
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = m.get("bound")
        flag = "  UNSTEADY" if bound is not None and spread > bound else ""
        print(f"# {m['name']:<46} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}  "
              f"{bound if bound is not None else '-'}{flag}")
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    print("# machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
