"""The benchmark's workloads: the hdlrt command each one runs, the inputs it
makes from the benchmark seed, and the check of the command's output.

Why these four: ``csv_block`` is a single test on a large CSV, where
parsing and one statistic on a tall matrix cost the time;
``mc_block_level`` is the paper's reference cell, where per-call overhead
of the projection route dominates; ``mc_eqcov_hist_t15`` reaches the
Cholesky route, t draws and the histogram/JSON emit; ``mc_corr_power_x2``
is the only one through the process pool, ``apply_root`` and the
all-singleton partition.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from recompute import Cell

ALPHA = 0.05          # the CLI default; no workload overrides it
Z_TOL = 1e-8          # recompute agreement in z
LOG_STAT_RTOL = 1e-9  # csv_block statistic against the LU oracle


@dataclass(frozen=True)
class Prepared:
    """One workload's generated inputs for one seed."""

    argv: tuple[str, ...]          # arguments after ``python -m hdlrt.cli``
    evals: int                     # statistic evaluations per command
    input_bytes: int               # observation bytes the statistics read per command
    cells: tuple[Cell, ...] = ()   # simulated cells, in output row order
    data: np.ndarray | None = None  # csv_block: the matrix written to the CSV


class CsvBlock:
    shape = (8000, 120)
    blocks = (60, 2)

    def matrix(self, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).standard_normal(self.shape)

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        data = self.matrix(seed)
        path = workdir / "csv_block.csv"
        header = ",".join(f"x{j + 1}" for j in range(self.shape[1]))
        body = "\n".join(",".join(map(repr, row)) for row in data.tolist())
        path.write_text(header + "\n" + body + "\n")
        argv = ("test", "block", "--input", str(path), "--format", "json",
                "--partition", f"{self.blocks[0]}x{self.blocks[1]}")
        return Prepared(argv=argv, evals=1, input_bytes=path.stat().st_size, data=data)

    def reference(self, prep: Prepared, pool) -> float:
        from hdlrt.linalg import BlockPartition
        from hdlrt.oracle import naive_log_vn

        return naive_log_vn(prep.data, BlockPartition.uniform(*self.blocks))

    def check(self, output: bytes, reference: float) -> str | None:
        try:
            report = json.loads(output)
            stat, p_value, reject = report["log_statistic"], report["p_value"], report["reject"]
        except (ValueError, KeyError) as exc:
            return f"unreadable report: {exc}"
        if abs(stat - reference) > LOG_STAT_RTOL * abs(reference):
            return f"log_statistic {stat!r} differs from the LU oracle {reference!r}"
        if reject != (p_value <= ALPHA):
            return f"reject={reject} contradicts p_value={p_value!r} at alpha={ALPHA}"
        return None


class Simulation:
    """A ``simulate`` command; its output must repeat byte for byte, and the
    first output must agree with the LU-oracle recompute."""

    def __init__(self, kind: str, args: tuple[str, ...], cells):
        self.kind, self.args, self._cells = kind, args, cells

    def prepare(self, seed: int, workdir: Path, threads: str | None = None) -> Prepared:
        cells = self._cells(seed)
        args = list(self.args)
        if threads is not None:
            args[args.index("--threads") + 1] = threads
        entries = sum(c.reps * (c.n or sum(c.sizes)) * c.p for c in cells)
        return Prepared(argv=("simulate", self.kind, *args, "--seed", str(seed)),
                        evals=sum(c.reps for c in cells), input_bytes=8 * entries,
                        cells=tuple(cells))

    def reference(self, prep: Prepared, pool) -> list[np.ndarray]:
        """Oracle z values per cell, computed in chunks on ``pool``."""
        from recompute import oracle_z

        futures = []
        for cell in prep.cells:
            bounds = np.linspace(0, cell.reps, 9, dtype=int)
            futures.append([pool.submit(oracle_z, cell, int(a), int(b))
                            for a, b in zip(bounds[:-1], bounds[1:]) if b > a])
        result = []
        for cell, parts in zip(prep.cells, futures):
            z = np.empty(cell.reps)
            for fut in parts:
                start, chunk = fut.result()
                z[start:start + len(chunk)] = chunk
            result.append(z)
        return result

    def check(self, output: bytes, reference: list[np.ndarray]) -> str | None:
        from recompute import rejection_range

        try:
            rejections, z_samples = self._parse(output)
        except (ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"
        if len(rejections) != len(reference):
            return f"{len(rejections)} result rows, expected {len(reference)}"
        for count, z in zip(rejections, reference):
            lo, hi = rejection_range(z, ALPHA, Z_TOL)
            if not lo <= count <= hi:
                return f"{count} rejections, the oracle recompute allows {lo}..{hi}"
        if z_samples is not None:
            gap = float(np.max(np.abs(np.asarray(z_samples) - reference[0])))
            if not gap <= Z_TOL:
                return f"z_samples differ from the oracle recompute by {gap:.3g}"
        return None

    def _parse(self, output: bytes) -> tuple[list[int], list[float] | None]:
        if self.kind == "hist":
            payload = json.loads(output)
            return [int(payload["rejections"])], payload["z_samples"]
        rows = list(csv.DictReader(io.StringIO(output.decode())))
        return [int(row["rejections"]) for row in rows], None


POWER_DELTAS = (0.0, 0.02, 0.04, 0.06, 0.08)

WORKLOADS = {
    "csv_block": CsvBlock(),
    "mc_block_level": Simulation(
        "level",
        ("--test", "block", "--n", "100", "--p", "60", "--blocks", "30x2",
         "--dist", "normal", "--reps", "1000", "--threads", "1"),
        lambda seed: [Cell("block", p=60, dist="normal", seed=seed, reps=1000,
                           n=100, sizes=(2,) * 30)]),
    "mc_eqcov_hist_t15": Simulation(
        "hist",
        ("--test", "eqcov", "--n-sizes", "100,100,100", "--p", "60", "--dist", "t15",
         "--reps", "1500", "--format", "json", "--threads", "1"),
        lambda seed: [Cell("eqcov", p=60, dist="t15", seed=seed, reps=1500,
                           sizes=(100, 100, 100))]),
    "mc_corr_power_x2": Simulation(
        "power",
        ("--test", "corr", "--n", "100", "--p", "60", "--reps", "400",
         "--deltas", ",".join(f"{d:g}" for d in POWER_DELTAS), "--threads", "2"),
        lambda seed: [Cell("correlation", p=60, dist="normal", seed=seed, reps=400,
                           n=100, delta=d) for d in POWER_DELTAS]),
}
