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
"""

from .blocktest import (
    NullConstants,
    TestReport,
    block_constants,
    block_test,
    correlation_constants,
    correlation_test,
    log_det_correlation,
    log_vn,
)
from .eqcov import GroupedSample, eqcov_constants, eqcov_test, log_lambda2
from .errors import (
    DegenerateColumn,
    DimensionExceedsSample,
    DimensionMismatch,
    HdlrtError,
    InputFileError,
    InvalidAlpha,
    InvalidDesign,
    InvalidPlan,
    NotPositiveDefinite,
    ParseError,
    RaggedRows,
    ZeroVariance,
)
from .linalg import (
    BlockPartition,
    compound_symmetry_sqrt,
    log_det_cholesky,
    log_det_incremental,
)
from .montecarlo import (
    DEFAULT_DELTA_GRID,
    SimulationPlan,
    SimulationResult,
    ks_distance_to_normal,
    run_histogram,
    run_level,
    run_power,
    run_power_curve,
    scenario_partition,
)
from .sampling import (
    DistributionSpec,
    apply_root,
    draw_entries,
    entry_generator,
    normal_cdf,
)

__version__ = "0.1.0"
