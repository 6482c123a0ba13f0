"""Finite-n cumulants of the terminal height and the lattice saddlepoint
(Daniels) point-probability approximation.

All cumulants are taken directly from the exact log-space row, so the
machinery works for unbalanced parameters too; the uniform O(1/n) interior
error guarantee is only established for balanced A > 0 models outside the
complex-roots c = 0 family, and `uniform_error_applies` decides that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .errors import BoundaryError, DomainError, RegimeError
from .exact import _distribution_from_log_row, final_log_row
from .model import QUADRATIC, DriftKind, ModelParams, require
from .specfun import LOG_ZERO, safeguarded_root


def uniform_error_applies(params: ModelParams) -> bool:
    """Whether Daniels' uniform O(1/n) interior error bound covers the model:
    the domain of the quadratic asymptotics (balanced, A > 0, alpha0 > 0),
    but not complex roots with c = 0, whose law oscillates in k (relative
    error 0.1-1.1 on [0.2n, 0.8n] at every n).
    """
    try:
        regime = require(params, QUADRATIC)
    except (DomainError, RegimeError):
        return False
    return not (regime.kind is DriftKind.COMPLEX_ROOTS and params.c == 0)


@dataclass(frozen=True)
class KappaValues:
    """kappa and its first four theta-derivatives (tilted cumulants)."""

    kappa: float
    mean: float
    variance: float
    third: float
    fourth: float


@dataclass(frozen=True)
class SaddleResult:
    theta: float
    kappa: float
    kappa1: float
    kappa2: float
    log_p_daniels: float
    iterations: int


class CumulantEvaluator:
    """kappa_n(theta) = log sum_k w[n][k] e^{theta k} and its derivatives."""

    def __init__(self, log_row: np.ndarray, uniform_error_applies: bool | None = None):
        log_row = np.asarray(log_row, dtype=float)
        if log_row.ndim != 1 or log_row.size == 0:
            raise DomainError("log_row must be a nonempty 1-d array")
        if np.all(log_row == LOG_ZERO):
            raise DomainError("row carries no mass")
        self.log_row = log_row
        self.n = log_row.size - 1
        self.k = np.arange(log_row.size, dtype=float)
        self.uniform_error_applies = uniform_error_applies
        finite = np.nonzero(log_row > LOG_ZERO)[0]
        self.k_min = int(finite[0])
        self.k_max = int(finite[-1])
        # Untilted log normaliser and mean, shared by every saddle solve.
        self.at_zero = self.kappa(0.0, order=2)

    @classmethod
    def from_params(cls, params: ModelParams, n: int) -> "CumulantEvaluator":
        applies = uniform_error_applies(params)
        return cls(final_log_row(params, n), uniform_error_applies=applies)

    def kappa(self, theta: float, order: int = 2) -> KappaValues:
        """Tilted cumulants at theta; orders above `order` are returned as 0."""
        if not 0 <= order <= 4:
            raise DomainError(f"order must be in 0..4, got {order}")
        z = self.k * theta
        z += self.log_row
        m = float(np.max(z))
        z -= m
        np.exp(z, out=z)
        total = float(np.sum(z))
        kappa = m + math.log(total)
        if order == 0:
            return KappaValues(kappa, 0.0, 0.0, 0.0, 0.0)
        # Moments of the tilted law z / total, dividing each dot by total.
        mean = float(np.dot(z, self.k)) / total
        if order == 1:
            return KappaValues(kappa, mean, 0.0, 0.0, 0.0)
        d = self.k - mean
        variance = max(float(np.dot(z, d * d)) / total, 0.0)
        third = float(np.dot(z, d**3)) / total if order >= 3 else 0.0
        fourth = float(np.dot(z, d**4)) / total - 3.0 * variance**2 if order >= 4 else 0.0
        return KappaValues(kappa, mean, variance, third, fourth)

    def solve_saddle(self, k: int, near: SaddleResult | None = None) -> SaddleResult:
        """Tilt theta with tilted mean k, by safeguarded Newton on kappa'.

        Cold from theta = 0, or warm from `near`, the solve at a nearby k:
        the bracket then grows from its theta with a first step of twice
        its Newton step toward k.
        """
        if k <= 0 or k >= self.n:
            raise BoundaryError(
                f"saddle diverges at the lattice boundary (k={k}, n={self.n})"
            )
        if k <= self.k_min or k >= self.k_max:
            raise BoundaryError(
                f"no mass beyond k={k}: support is [{self.k_min}, {self.k_max}]"
            )
        if near is None:
            start, vals, step = 0.0, self.at_zero, 1.0
        else:
            start = near.theta
            vals = KappaValues(near.kappa, near.kappa1, near.kappa2, 0.0, 0.0)
            step = 2.0 * abs(near.kappa1 - k) / near.kappa2

        def excess(theta: float) -> tuple[float, float]:
            nonlocal vals
            vals = self.kappa(theta, order=2)
            return vals.mean - k, vals.variance

        theta, iterations = safeguarded_root(
            excess,
            start,
            tol=1e-9 * max(1.0, float(k)),
            f_start=vals.mean - k,
            step=step,
            max_iter=80,
        )
        log_p = (
            -0.5 * math.log(2.0 * math.pi * vals.variance)
            + vals.kappa
            - self.at_zero.kappa
            - k * theta
        )
        return SaddleResult(theta, vals.kappa, vals.mean, vals.variance, log_p, iterations)

    def daniels_log_pmf(self, k: int) -> float:
        """Daniels lattice saddlepoint log probability at interior k."""
        return self.solve_saddle(k).log_p_daniels


@dataclass(frozen=True)
class ProfileRow:
    k: int
    log_p_exact: float
    log_p_daniels: float
    log_p_gaussian: float


def profile(params: ModelParams, n: int, epsilon: float) -> list[ProfileRow]:
    """Exact / Daniels / Gaussian log probabilities for k in [eps*n, (1-eps)*n].

    Each Daniels saddle solve starts from the previous k's saddle.  The
    Gaussian column evaluates the central window law at the exact row mean
    and variance.
    """
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must be in (0, 1/2), got {epsilon}")
    log_row = final_log_row(params, n)
    dist = _distribution_from_log_row(n, log_row)
    ev = CumulantEvaluator(log_row, uniform_error_applies=uniform_error_applies(params))
    k_lo = math.ceil(epsilon * n)
    k_hi = math.floor((1.0 - epsilon) * n)
    rows = []
    saddle = None
    for k in range(k_lo, k_hi + 1):
        gauss = asymptotics.gaussian_local_law(dist.mean, dist.variance, k)
        saddle = ev.solve_saddle(k, near=saddle)
        rows.append(
            ProfileRow(
                k=k,
                log_p_exact=float(dist.log_p[k]),
                log_p_daniels=saddle.log_p_daniels,
                log_p_gaussian=math.log(gauss) if gauss > 0 else LOG_ZERO,
            )
        )
    return rows
