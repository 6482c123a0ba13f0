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
from .model import QUADRATIC, DriftKind, ModelParams, classify, require
from .specfun import hermite_ratios

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Leading-order log row sum at (x, n), and the length-n mean and
    variance: the theta-derivatives of the estimate's log P_n(e^theta) at
    theta = 0 (exact Hermite moments for constant drift), each finite."""

    log_pn: float
    mu: float
    sigma2: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.log_pn, self.mu, self.sigma2))):
            raise DomainError(f"the asymptotic estimate {self} is not finite")


def log_pn_quadratic(params: ModelParams, x: float, n: int) -> AsymptoticEstimate:
    """Master estimate of log P_n(x) for A > 0, any quadratic sub-regime.

    In theta = log x it reads (n + nu) F(theta) - nu log R(e^theta) +
    c0 tau(e^theta) + const, F the limit CGF (`SingularityMap.cgf`) and
    R^2 = (x - p)^2 + q^2 for the root p (+/- iq) that bounds the domain.
    Its theta-derivatives at 0 follow from x tau' = -F' tau, with
    T = tau(1) and s = (1 - p)/R(1)^2.
    """
    regime = require(params, QUADRATIC)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    smap = SingularityMap(params)
    tau = smap.tau(x)
    nu, c0, p = regime.nu, regime.c0, regime.p
    # sqrt(2 pi)/Gamma(nu) * amp(x) * e^{c0 tau} * n^{nu-1/2} * (n/(e tau))^n
    try:
        log_pn = (
            _LOG_SQRT_2PI
            - math.lgamma(nu)
            + smap.log_amplitude(x, tau)
            + c0 * tau
            + (nu - 0.5) * math.log(n)
            + n * (math.log(n) - 1.0 - math.log(tau))
        )
    except OverflowError:  # log Gamma(nu) past about nu = 2.56e305
        raise DomainError(f"log Gamma(nu) at nu = alpha0/A = {nu:g} overflows") from None
    cgf, c0_T = smap.cgf(0.0), c0 * smap.tau(1.0)
    r_sq = (1.0 - p) ** 2 + regime.q**2
    s = (1.0 - p) / r_sq
    mu = (n + nu - c0_T) * cgf.deriv1 - nu * s
    sigma2 = ((n + nu - c0_T) * cgf.deriv2 + c0_T * cgf.deriv1**2
              - nu * ((2.0 - p) / r_sq - 2.0 * s * s))
    return AsymptoticEstimate(log_pn, mu, sigma2)


def asymptotic_moments(params: ModelParams, n: int) -> tuple[float, float]:
    """The (mu, sigma2) of `log_pn_quadratic`, which do not depend on x."""
    est = log_pn_quadratic(params, 1.0, n)
    return est.mu, est.sigma2


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
    require(params, (DriftKind.CONSTANT,), degenerate="weighted")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    log_pn = _laplace_tail(n, modulus_saddle(params, x, n))
    return AsymptoticEstimate(log_pn, *constant_drift_moments(params, n))


def log_pn_constant_drift_exact(params: ModelParams, x: float, n: int) -> float:
    """Exact log P_n(x) for A = B = 0 via P_n(x) = H_n(X, Y).

    With Y = 0 this is the closed power form n*log(alpha0*x + gamma0).
    """
    regime = require(params, (DriftKind.CONSTANT,), degenerate="weighted")
    if not 0 < x < math.inf or n < 0:
        raise DomainError(f"need a positive finite x and n >= 0, got x={x} and n={n}")
    X = params.alpha0 * x + params.gamma0
    if regime.Y == 0.0:
        return n * math.log(X)
    return sum(map(math.log, hermite_ratios(X, regime.Y, n)), 0.0)


def constant_drift_moments(params: ModelParams, n: int) -> tuple[float, float]:
    """Mean/variance at length n from the Hermite-ratio identities (exact)."""
    regime = require(params, (DriftKind.CONSTANT,), degenerate="weighted")
    if params.is_degenerate or n == 0:
        return (0.0, 0.0)  # a point mass at height 0
    ratios = hermite_ratios(params.alpha0 + params.gamma0, regime.Y, n)  # H_m/H_{m-1}, m = 1..n
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
    `closedform.modulus_saddle`.  The moments are theta-derivatives at the
    saddle t at x = 1: the envelope ones of log w - (n+1) log t, and for
    the mean also that of -log(curvature)/2, through dt/dtheta =
    -alpha0 e^{B t}/curvature; DomainError where t^3 is 0 in a double.
    """
    regime = require(params, (DriftKind.LINEAR,))
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    log_pn = _laplace_tail(n, modulus_saddle(params, x, n))
    saddle, B = modulus_saddle(params, 1.0, n), regime.B
    t, curv, grow = saddle.t, saddle.curvature, params.alpha0 * math.exp(B * saddle.t)
    if not t**3 > 0:
        raise DomainError(f"the modulus saddle t={t:g} at x=1 has t^3 = 0 in a double")
    lead = regime.alpha0_B * math.expm1(B * t)
    d_curv = B * grow - (B * (B + regime.C) * grow - 2.0 * (n + 1) / t**3) * grow / curv
    return AsymptoticEstimate(log_pn, lead - 0.5 * d_curv / curv, lead - grow**2 / curv)


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
