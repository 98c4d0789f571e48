"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Replication counts
follow the experiment design the package reproduces; the full module took
47 s of a 65 s run of the whole suite on a 2-core machine, on the default
two workers.

Criteria 1-3 take their cells, seeds and replication counts from the study
table in ``scripts/study.py`` (its level cells, the normal scenario-2
100x60 power cell and its delta grid, and its hist cells, through
``conftest.reference_null_run``) and run them through its ``run_cell``.
Gates, windows, seeds and replication counts do not move to make a result
pass, in this module or in that table.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from hdlrt.blocktest import block_constants, correlation_constants, log_det_correlation, log_vn
from hdlrt.eqcov import GroupedSample, eqcov_test
from hdlrt.linalg import BlockPartition, log_det_cholesky, log_det_incremental
from hdlrt.montecarlo import SimulationPlan, ks_distance_to_normal, run_level
from hdlrt.oracle import naive_log_vn, sample_covariance, sigma1_closed_form
from conftest import DISTRIBUTIONS, STUDY, THREADS

LEVEL_WINDOW = (0.035, 0.065)


def gate(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def pooled_se(r1: float, n1: int, r2: float, n2: int) -> float:
    avg = (r1 * n1 + r2 * n2) / (n1 + n2)
    return math.sqrt(avg * (1.0 - avg) * (1.0 / n1 + 1.0 / n2))


@pytest.mark.slow
def test_criterion_01_block_level_all_cells():
    start = time.perf_counter()
    failures = []
    rates = {}
    for plan in STUDY.CELLS["level"]:
        rate = STUDY.run_cell("level", plan, THREADS).rejection_rate
        rates[(plan.dist.label, plan.scenario, plan.n)] = rate
        if not LEVEL_WINDOW[0] <= rate <= LEVEL_WINDOW[1]:
            failures.append((plan.dist.label, plan.scenario, (plan.n, plan.p), rate))
    elapsed = time.perf_counter() - start
    lo = min(rates.values())
    hi = max(rates.values())
    gate(f"criterion 1 (block-test level, {len(STUDY.CELLS['level'])} cells)",
         not failures and elapsed < 300.0,
         f"rates in [{lo:.4f}, {hi:.4f}], window {LEVEL_WINDOW}, "
         f"{elapsed:.0f}s; failures: {failures}")


@pytest.mark.slow
def test_criterion_02_null_shape_and_invariance(reference_null_run):
    results = {label: reference_null_run(label) for label in DISTRIBUTIONS}
    reps, = {plan.reps for plan in STUDY.CELLS["hist"]}
    ks = {label: res.ks_statistic for label, res in results.items()}
    ks_ok = all(v <= 0.03 for v in ks.values())
    diff_ok = True
    details = []
    for a, b in itertools.combinations(results, 2):
        ra, rb = results[a], results[b]
        gap = abs(ra.rejection_rate - rb.rejection_rate)
        bound = 3.0 * pooled_se(ra.rejection_rate, ra.reps, rb.rejection_rate, rb.reps)
        details.append(f"{a}/{b}: |diff|={gap:.4f} bound={bound:.4f}")
        diff_ok &= gap <= bound
    gate(f"criterion 2 (null shape, {reps} reps x {len(STUDY.CELLS['hist'])} distributions)",
         ks_ok and diff_ok,
         f"KS={ {k: round(v, 4) for k, v in ks.items()} }; " + "; ".join(details))


@pytest.mark.slow
def test_criterion_03_power_monotone_and_reaches_09():
    # DEFAULT_DELTA_GRID (0..0.02) sits below the detection threshold here: the
    # population log-determinant gap is only about -0.28.  The study's grid
    # reaches the ~0.9 plateau near delta = 0.1 (larger-delta option of the criterion).
    plan, = (plan for plan in STUDY.CELLS["power"]
             if (plan.dist.label, plan.scenario, plan.n, plan.p) == ("normal", 2, 100, 60))
    rates = [res.rejection_rate for _, res in STUDY.run_cell("power", plan, THREADS)]
    monotone = all(
        rates[i + 1] >= rates[i] - 3.0 * pooled_se(rates[i], plan.reps, rates[i + 1], plan.reps)
        for i in range(len(rates) - 1)
    )
    gate("criterion 3 (power monotone, reaches 0.9)",
         monotone and rates[-1] >= 0.9,
         f"deltas={STUDY.DELTAS} rates={[round(r, 3) for r in rates]}")


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_stat = 0.0
    worst_det = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 201))
        p = int(rng.integers(4, min(150, n - 1) + 1))
        q = int(rng.integers(2, min(p, 10) + 1))
        cuts = np.sort(rng.choice(np.arange(1, p), size=q - 1, replace=False))
        edges = np.concatenate(([0], cuts, [p]))
        part = BlockPartition(tuple(int(b - a) for a, b in zip(edges, edges[1:])))
        data = rng.standard_normal((n, p))
        main = log_vn(data, part)
        naive = naive_log_vn(data, part)
        worst_stat = max(worst_stat, abs(main - naive) / max(1.0, abs(naive)))
        inc = log_det_incremental(data)
        chol = log_det_cholesky(sample_covariance(data) * n)
        worst_det = max(worst_det, abs(inc - chol) / max(1.0, abs(chol)))
    elapsed = time.perf_counter() - start
    gate("criterion 4 (oracle equivalence, 200 instances)",
         worst_stat <= 1e-8 and worst_det <= 1e-8 and elapsed < 60.0,
         f"worst statistic rel err {worst_stat:.2e}, worst log-det rel err "
         f"{worst_det:.2e}, {elapsed:.1f}s")


def test_criterion_05_block_diagonal_transform_invariance():
    rng = np.random.default_rng(105)
    part = BlockPartition((8, 8, 8))
    data = rng.standard_normal((80, 24))
    base = log_vn(data, part)
    worst = 0.0
    for _ in range(50):
        transform = np.zeros((24, 24))
        for i, size in enumerate(part.sizes):
            lo, hi = part.cumulative[i:i + 2]
            g = rng.standard_normal((size, size))
            transform[lo:hi, lo:hi] = g @ g.T + 0.5 * size * np.eye(size)
        worst = max(worst, abs(log_vn(data @ transform.T, part) - base))
    gate("criterion 5 (block-diagonal transform invariance, 50 transforms)",
         worst <= 1e-8, f"worst |shift| {worst:.2e}")


def test_criterion_06_correlation_specialization():
    worst_mu = 0.0
    worst_sigma = 0.0
    for n in range(3, 301):
        for p in range(2, n):
            corr = correlation_constants(n, p)
            unit = block_constants(n, BlockPartition.unit(p))
            worst_mu = max(worst_mu, abs(corr.mu_n - unit.mu_n))
            worst_sigma = max(worst_sigma, abs(corr.sigma_n - unit.sigma_n))
    rng = np.random.default_rng(106)
    worst_stat = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 120))
        p = int(rng.integers(2, min(60, n - 1) + 1))
        data = rng.standard_normal((n, p))
        worst_stat = max(worst_stat, abs(
            log_det_correlation(data) - log_vn(data, BlockPartition.unit(p))))
    gate("criterion 6 (correlation specialization)",
         worst_mu <= 1e-12 and worst_sigma <= 1e-12 and worst_stat <= 1e-10,
         f"worst mu gap {worst_mu:.2e}, sigma gap {worst_sigma:.2e}, "
         f"statistic gap {worst_stat:.2e} over all 2<=p<n<=300")


@pytest.mark.slow
def test_criterion_07_eqcov_level_and_shape():
    """Level and normal-data shape hold; the t15/exp1 KS clauses are red.

    The closed-form centering of the equality statistic omits a kurtosis
    term: the quadratic part of the log-statistic expansion has mean
    about (nu4 - 3) * p * (q - 1) / 2 (each group's projection recursion
    contributes a Hadamard-trace sum ~ p/n_j scaled by n_j, and the pooled
    recursion cancels only one of the q copies).  The standardized shift
    is therefore ~ (nu4 - 3) p (q - 1) / (2 n sigma_n), which does not
    shrink as sizes grow proportionally: measured z means at this regime
    are -0.0 (normal), -0.3 (t15), -2.6 (exp1), stable from half to twice
    this size.  No constants depending only on (n_sizes, p) can center all
    three distributions at once.  A data-driven kurtosis estimate breaks
    the exact transform invariance gated by criterion 8 only if it is not
    affine-invariant; ROADMAP item 5 sketches an affine-invariant one.
    Kept as stated; see README (limitations) and the decisions ledger.
    """
    plan = SimulationPlan(test="eqcov", p=60, n_sizes=(100, 100, 100),
                          reps=2000, alpha=0.05, seed=107_000)
    rate = run_level(plan, threads=THREADS).rejection_rate
    level_ok = LEVEL_WINDOW[0] <= rate <= LEVEL_WINDOW[1]
    ks = {}
    for di, (label, dist) in enumerate(DISTRIBUTIONS.items()):
        plan = SimulationPlan(test="eqcov", p=60, n_sizes=(100, 100, 100),
                              dist=dist, reps=10_000, alpha=0.05,
                              seed=107_100 + di)
        ks[label] = ks_distance_to_normal(run_level(plan, threads=THREADS).z_samples)
    ks_ok = all(v <= 0.03 for v in ks.values())
    gate("criterion 7 (eqcov level and shape)",
         level_ok and ks_ok,
         f"rate={rate:.4f} window {LEVEL_WINDOW}; "
         f"KS={ {k: round(v, 4) for k, v in ks.items()} }")


def test_criterion_08_eqcov_transform_invariance():
    rng = np.random.default_rng(108)
    groups = tuple(rng.standard_normal((nj, 20)) for nj in (80, 100, 120))
    base = eqcov_test(GroupedSample(groups), 0.05).z
    worst = 0.0
    for _ in range(20):
        left, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        right, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        mapping = left @ np.diag(np.exp(rng.uniform(-0.7, 0.7, 20))) @ right
        mapped = GroupedSample(tuple(g @ mapping.T for g in groups))
        worst = max(worst, abs(eqcov_test(mapped, 0.05).z - base))
    gate("criterion 8 (eqcov transform invariance, 20 maps)",
         worst <= 1e-8, f"worst |z shift| {worst:.2e}")


def test_criterion_09_variance_identity_diagnostic():
    part = BlockPartition.uniform(30, 4)
    const = block_constants(200, part)
    gap = abs(sigma1_closed_form(200, part) - const.sigma_n ** 2)
    gate("criterion 9 (variance-identity diagnostic at n=200, p=120, q=30)",
         gap <= 0.05, f"|sum sigma1 - sigma^2| = {gap:.4f}")


@pytest.mark.parametrize("command", [
    ("simulate", "level", "--test", "block", "--n", "60", "--p", "12",
     "--blocks", "6x2", "--reps", "100", "--seed", "5"),
    ("simulate", "power", "--test", "corr", "--n", "40", "--p", "8",
     "--reps", "50", "--seed", "6", "--deltas", "0,0.2"),
    ("simulate", "hist", "--test", "eqcov", "--n-sizes", "30,30", "--p", "6",
     "--reps", "80", "--seed", "7", "--format", "json"),
])
def test_criterion_10_simulation_determinism(tmp_path, command):
    outputs = []
    for threads in ("1", "2"):
        for run in ("a", "b"):
            out = tmp_path / f"out-{threads}-{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "hdlrt.cli", *command,
                 "--threads", threads, "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
    ok = all(o == outputs[0] for o in outputs)
    gate("criterion 10 (byte-identical reruns across thread counts)",
         ok, f"{command[1]} command, {len(outputs)} runs compared")
