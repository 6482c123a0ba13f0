"""Terminal-height statistics of Motzkin paths with height-linear step
weights: exact enumeration, closed-form generating functions, saddlepoint
approximation, and large deviations."""

from .asymptotics import (
    AsymptoticEstimate,
    LinearDriftEstimate,
    asymptotic_moments,
    constant_drift_moments,
    gaussian_local_law,
    log_pn_constant_drift,
    log_pn_constant_drift_exact,
    log_pn_linear_drift,
    log_pn_quadratic,
)
from .closedform import EgfEvaluator, SingularityMap, TauDerivatives
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
    brute_force_oracle,
    build_triangle,
    distribution,
    final_log_row,
    height_distribution,
    iter_log_rows,
    polynomial_eval,
)
from .ldp import (
    EmpiricalRateRow,
    RatePoint,
    RateProfile,
    empirical_rate_check,
    limit_cgf,
    parametrized_profile,
    rate_closed_form_double_root,
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
    step_weights,
)
from .saddlepoint import CumulantEvaluator, ProfileRow, SaddleResult, profile
from .specfun import (
    LOG_ZERO,
    CgfValues,
    hermite_kdf,
    hermite_kdf_sequence,
    lambert_w0,
    log_gamma,
    log_sum_exp,
    signed_log_sum_exp,
)

__version__ = "0.1.0"
