"""One-saddle asymptotics: row-sum growth, moments, and the Gaussian
central window, per drift regime.

Quadratic regimes (A > 0) use the coalescing-singularity master formula
driven by tau(x); the constant regime has an exact two-variable Hermite
representation plus a quadratic saddle; the linear regime has a
transcendental saddle located by the Lambert W function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closedform import ModulusSaddle, SingularityMap, modulus_saddle
from .errors import DomainError
from .model import QUADRATIC, DriftKind, ModelParams, Regime, classify, require
from .specfun import hermite_kdf_sequence, hermite_ratios, lambert_w0

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Leading-order log row sum at (x, n) plus the length-n moments."""

    log_pn: float
    mu: float
    sigma2: float
    regime: Regime
    n: int
    x: float


def log_pn_quadratic(params: ModelParams, x: float, n: int) -> AsymptoticEstimate:
    """Master estimate of log P_n(x) for A > 0, any quadratic sub-regime."""
    regime = require(params, QUADRATIC)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    smap = SingularityMap(params)
    tau = smap.tau(x)
    nu = regime.nu
    log_amp = smap.log_amplitude(x, tau)
    # sqrt(2 pi)/Gamma(nu) * amp(x) * e^{c0 tau} * n^{nu-1/2} * (n/(e tau))^n
    log_pn = (
        _LOG_SQRT_2PI
        - math.lgamma(nu)
        + log_amp
        + regime.c0 * tau
        + (nu - 0.5) * math.log(n)
        + n * (math.log(n) - 1.0 - math.log(tau))
    )
    cgf = smap.cgf(0.0)  # the moments of `asymptotic_moments`, from this map
    return AsymptoticEstimate(log_pn, n * cgf.deriv1, n * cgf.deriv2, regime, n, x)


def asymptotic_moments(params: ModelParams, n: int) -> tuple[float, float]:
    """Leading-order mean and variance for A > 0: n*F'(0) and n*F''(0),
    with F the limit cumulant generating function (`SingularityMap.cgf`)."""
    require(params, QUADRATIC)
    cgf = SingularityMap(params).cgf(0.0)
    return n * cgf.deriv1, n * cgf.deriv2


def gaussian_local_law(mu: float, sigma2: float, k: float) -> float:
    """Central-window Gaussian point-probability estimate."""
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    z = (k - mu) ** 2 / (2.0 * sigma2)
    return math.exp(-z) / math.sqrt(2.0 * math.pi * sigma2)


def _laplace_tail(n: int, saddle: ModulusSaddle) -> float:
    """Laplace estimate of log P_n(x) = log(n! [t^n] w(x, t)) for A = 0:
    log n! - log sqrt(2 pi curvature) + log w(x, t) - (n+1) log t at the
    modulus saddle t (`closedform.modulus_saddle`)."""
    return (
        math.lgamma(n + 1)
        - 0.5 * math.log(2.0 * math.pi * saddle.curvature)
        + saddle.log_w
        - (n + 1) * math.log(saddle.t)
    )


def log_pn_constant_drift(params: ModelParams, x: float, n: int) -> AsymptoticEstimate:
    """Saddlepoint estimate of log P_n(x) for the constant regime A = B = 0.

    The saddle and its Laplace data come from `closedform.modulus_saddle`.
    Moments come from the exact Hermite-ratio identities.
    """
    regime = require(params, (DriftKind.CONSTANT,), degenerate="weighted")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    log_pn = _laplace_tail(n, modulus_saddle(params, x, n))
    mu, sigma2 = constant_drift_moments(params, n)
    return AsymptoticEstimate(log_pn, mu, sigma2, regime, n, x)


def log_pn_constant_drift_exact(params: ModelParams, x: float, n: int) -> float:
    """Exact log P_n(x) for A = B = 0 via P_n(x) = H_n(X, Y).

    With Y = 0 this is the closed power form n*log(alpha0*x + gamma0).
    """
    regime = require(params, (DriftKind.CONSTANT,), degenerate="weighted")
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    X = params.alpha0 * x + params.gamma0
    Y = params.alpha0 * regime.coeffs.C
    if Y == 0.0:
        return n * math.log(X)
    return hermite_kdf_sequence(X, Y, n)[n]


def constant_drift_moments(params: ModelParams, n: int) -> tuple[float, float]:
    """Mean/variance at length n from the Hermite-ratio identities (exact)."""
    regime = require(params, (DriftKind.CONSTANT,), degenerate="weighted")
    if params.is_degenerate or n == 0:
        return (0.0, 0.0)  # a point mass at height 0
    X1 = params.alpha0 + params.gamma0
    Y = params.alpha0 * regime.coeffs.C
    ratios = hermite_ratios(X1, Y, n)  # H_m/H_{m-1}, m = 1..n
    mu = params.alpha0 * n / ratios[-1]
    if n >= 2:
        ekk1 = params.alpha0**2 * n * (n - 1) / (ratios[-1] * ratios[-2])
    else:
        ekk1 = 0.0
    sigma2 = max(ekk1 + mu - mu * mu, 0.0)
    return mu, sigma2


def log_pn_linear_drift(params: ModelParams, x: float, n: int) -> AsymptoticEstimate:
    """Saddlepoint estimate of log P_n(x) for linear drift (A = 0, B > 0).

    The saddle t > 0 solves (n+1)/t = a_lin + B*y(x)*e^{B t} with
    a_lin = gamma0 - alpha0*C/B and y(x) = (alpha0/B)(x + C/B); see
    `closedform.modulus_saddle`, which starts from t = W(n/y(x))/B.
    """
    regime = require(params, (DriftKind.LINEAR,))
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    log_pn = _laplace_tail(n, modulus_saddle(params, x, n))
    B = regime.coeffs.B
    C = regime.coeffs.C
    frac_up = B / (B + C)
    w_s = lambert_w0(n / ((params.alpha0 / B) * (1.0 + C / B)))
    mu = frac_up * n / w_s
    sigma2 = frac_up * (1.0 - frac_up) * n / w_s + frac_up**2 * n / (w_s * w_s + w_s)
    return AsymptoticEstimate(log_pn, mu, sigma2, regime, n, x)


def log_pn_estimate(params: ModelParams, x: float, n: int) -> AsymptoticEstimate:
    """log P_n(x) and the length-n moments from the estimate of the model's
    drift regime: `log_pn_constant_drift`, `log_pn_linear_drift` or
    `log_pn_quadratic`, each with its own guard."""
    kind = classify(params).kind
    if kind is DriftKind.CONSTANT:
        return log_pn_constant_drift(params, x, n)
    if kind is DriftKind.LINEAR:
        return log_pn_linear_drift(params, x, n)
    return log_pn_quadratic(params, x, n)
