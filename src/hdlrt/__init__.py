"""High-dimensional likelihood-ratio tests for covariance structure.

Three tests, all standardized against closed-form normal approximations
that hold without a normality assumption for data of the form
x = Sigma^{1/2} y, with i.i.d. entries in y (a finite fourth moment plus a
margin) and a known mean of zero:

* block-diagonal covariance (``block_test``),
* diagonal covariance via the correlation determinant (``correlation_test``),
* equality of covariance matrices across groups (``eqcov_test``),

plus a deterministic Monte Carlo engine (``hdlrt.montecarlo``) for
empirical level, power against a compound-symmetry alternative, and
null-distribution histograms.

The names below load with their submodule on first use (PEP 562), so
``import hdlrt`` imports no numpy; ``hdlrt.cli`` relies on that to choose
the BLAS thread count before numpy loads.
"""

import importlib

_EXPORTS = {
    "blocktest": (
        "NullConstants", "TestReport", "block_constants", "block_test",
        "correlation_constants", "correlation_test", "log_det_correlation", "log_vn",
    ),
    "eqcov": ("GroupedSample", "eqcov_constants", "eqcov_test", "log_lambda2"),
    "errors": (
        "DegenerateColumn", "DimensionExceedsSample", "DimensionMismatch", "HdlrtError",
        "InputFileError", "InvalidAlpha", "InvalidDesign", "InvalidPlan",
        "NotPositiveDefinite", "ParseError", "RaggedRows", "ZeroVariance",
    ),
    "linalg": (
        "BlockPartition", "compound_symmetry_sqrt", "log_det_cholesky", "log_det_incremental",
    ),
    "montecarlo": (
        "DEFAULT_DELTA_GRID", "SimulationPlan", "SimulationResult", "ks_distance_to_normal",
        "run_histogram", "run_level", "run_power", "run_power_curve", "scenario_partition",
    ),
    "sampling": (
        "DistributionSpec", "apply_root", "draw_entries", "entry_generator", "normal_cdf",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
