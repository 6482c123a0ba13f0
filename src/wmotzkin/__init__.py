"""Terminal-height statistics of Motzkin paths with height-linear step
weights: exact enumeration, closed-form generating functions, saddlepoint
approximation, and large deviations."""

from .asymptotics import (
    AsymptoticEstimate,
    asymptotic_moments,
    constant_drift_moments,
    gaussian_local_law,
    log_pn_constant_drift,
    log_pn_constant_drift_exact,
    log_pn_estimate,
    log_pn_linear_drift,
    log_pn_quadratic,
)
from .closedform import EgfEvaluator, SingularityMap
from .errors import (
    AccuracyError,
    BoundaryError,
    CapacityError,
    ConfigError,
    ConvergenceError,
    DomainError,
    MotzkinError,
    RegimeError,
)
from .exact import (
    HeightDistribution,
    Triangle,
    build_triangle,
    final_log_row,
    height_distribution,
    iter_log_rows,
)
from .ldp import (
    RatePoint,
    RateProfile,
    limit_cgf,
    rate_function,
    rate_profile,
)
from .model import (
    DriftCoefficients,
    DriftKind,
    ModelParams,
    Regime,
    classify,
    is_balanced,
)
from .saddlepoint import CumulantEvaluator, ProfileRow, SaddleResult, profile
from .specfun import (
    LOG_ZERO,
    CgfValues,
    hermite_kdf_sequence,
    lambert_w0,
    log_sum_exp,
)

__version__ = "0.1.0"
