"""Start-up policy: ``import hdlrt`` loads no numpy, and the CLI runs numpy's
BLAS on one thread unless the user chose a count.

Each check runs in a fresh interpreter, because the BLAS thread count is
fixed when numpy loads, and this test process loaded it long ago.
"""

import glob
import os
import subprocess
import sys

import numpy as np
import pytest

# The public names of ``hdlrt`` before its exports became lazy.
EXPORTS = {
    "BlockPartition", "DEFAULT_DELTA_GRID", "DegenerateColumn", "DimensionExceedsSample",
    "DimensionMismatch", "DistributionSpec", "GroupedSample", "HdlrtError", "InputFileError",
    "InvalidAlpha", "InvalidDesign", "InvalidPlan", "NotPositiveDefinite", "NullConstants",
    "ParseError", "RaggedRows", "SimulationPlan", "SimulationResult", "TestReport",
    "ZeroVariance", "apply_root", "block_constants", "block_test", "compound_symmetry_sqrt",
    "correlation_constants", "correlation_test", "draw_entries", "entry_generator",
    "eqcov_constants", "eqcov_test", "ks_distance_to_normal", "log_det_cholesky",
    "log_det_correlation", "log_det_incremental", "log_lambda2", "log_vn", "normal_cdf",
    "run_histogram", "run_level", "run_power", "run_power_curve", "scenario_partition",
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run(args: list[str], **blas_env: str) -> bytes:
    """Standard output of ``python *args`` with exactly ``blas_env`` among
    the BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env={**env, **blas_env})
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def python(code: str, **blas_env: str) -> str:
    return run(["-c", code], **blas_env).decode()


def test_import_hdlrt_loads_no_numpy():
    assert python("import sys, hdlrt; print('numpy' in sys.modules)") == "False\n"


def test_every_export_resolves():
    out = python(
        "import hdlrt\n"
        "for name in hdlrt.__all__:\n"
        "    exec(f'from hdlrt import {name}')\n"
        "    assert name in dir(hdlrt), name\n"
        "try:\n"
        "    hdlrt.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('hdlrt.no_such_name resolved')\n"
        "print(','.join(hdlrt.__all__))")
    assert set(out.strip().split(",")) == EXPORTS
    assert len(EXPORTS) == 42


def _openblas() -> str:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so*"))
    if not libs:
        pytest.skip("numpy does not bundle scipy-openblas here")
    return libs[0]


def blas_threads(imports: str, **blas_env: str) -> int:
    """OpenBLAS's thread count in a fresh interpreter after ``imports``."""
    return int(python(
        f"{imports}\n"
        "import ctypes\n"
        f"lib = ctypes.CDLL({_openblas()!r})\n"
        "lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int\n"
        "lib.scipy_openblas_get_num_threads64_.argtypes = []\n"
        "print(lib.scipy_openblas_get_num_threads64_())", **blas_env))


def test_cli_runs_blas_on_one_thread():
    assert blas_threads("import hdlrt.cli") == 1


@pytest.mark.parametrize("var", BLAS_VARS)
def test_cli_keeps_a_preset_blas_thread_count(var):
    # Compared with plain numpy, which caps the request at the cores it finds.
    assert blas_threads("import hdlrt.cli", **{var: "2"}) == blas_threads(
        "import numpy", **{var: "2"})
    assert python("import os, hdlrt.cli; print(sorted(k for k in os.environ "
                  f"if k in {BLAS_VARS!r}))", **{var: "2"}) == f"[{var!r}]\n"


def test_output_identical_at_one_and_two_blas_threads(tmp_path):
    data = np.random.default_rng(19).standard_normal((2000, 120))
    path = tmp_path / "tall.csv"
    path.write_text("\n".join(",".join(map(repr, row)) for row in data.tolist()) + "\n")
    commands = [
        ["test", "block", "--input", str(path), "--partition", "60x2"],
        ["simulate", "power", "--test", "corr", "--n", "100", "--p", "60", "--reps", "60",
         "--deltas", "0,0.04", "--seed", "19", "--threads", "2"],
    ]
    for argv in commands:
        cli = ["-m", "hdlrt.cli", *argv]
        assert run(cli, OPENBLAS_NUM_THREADS="1") == run(cli, OPENBLAS_NUM_THREADS="2"), argv[:2]
