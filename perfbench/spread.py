"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace-seeds 1]
                                [--record LABEL]

For every workload and end-to-end metric this prints the median over the
seeds, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, and flags a metric whose spread exceeds its
bound in BENCHMARK.json: such a metric is unresolved, not unchanged.
``--trace-seeds`` adds traced runs for the per-layer metrics, and
``--record LABEL`` appends the whole result to ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
import time
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, machine facts) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line[len("# machine "):]) for line in lines
                   if line.startswith("# machine "))
    return json.loads(lines[-1]), machine


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / abs(median)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": bound is None or spread <= bound, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    machine = {}
    for seed in args.seeds:
        for workload in workloads:
            start = time.perf_counter()
            result, machine = run_once(workload, seed, args.seconds, 0)
            results[workload].append(result)
            print(f"{workload} seed={seed} run {time.perf_counter() - start:.1f} s "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall_s="
                  f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)

    entry = {"label": args.record, "date": datetime.date.today().isoformat(),
             "seeds": args.seeds, "seconds": args.seconds, "machine": machine,
             "end_to_end": {}, "per_layer": {}}
    unsteady = []
    for workload in workloads:
        runs = results[workload]
        rows = entry["end_to_end"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
        print(f"{workload}: {len(runs)} runs, {rows['failed']}/{rows['attempted']} failed")
        for m in spec["end_to_end"]:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
            rows[m["name"]] = stats
            flag = "" if stats["steady"] else "  UNSTEADY"
            if stats["spread"] > m["bound"] / 3 and m["name"] != "setup_s":
                flag += "  (above a third of its bound)"
            if not stats["steady"]:
                unsteady.append(f"{workload}/{m['name']}")
            print(f"  {m['name']:<16} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} bound {m['bound']}{flag}")

    traced = []
    for seed in args.trace_seeds:
        result, machine = run_once(workloads[0], seed, args.seconds, 1)
        traced.append(result)
    if traced:
        print(f"per-layer, {len(traced)} traced run(s):")
        for m in spec["per_layer"]:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in traced], None)
            entry["per_layer"][m["name"]] = stats
            print(f"  {m['name']:<46} {stats['median']:<12.6g} {m['unit']}")

    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    if unsteady:
        print("unsteady: " + ", ".join(unsteady))
    return 1 if unsteady or not all(r["correct"] for rs in results.values() for r in rs) else 0


if __name__ == "__main__":
    sys.exit(main())
