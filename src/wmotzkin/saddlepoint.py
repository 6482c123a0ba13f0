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
from .specfun import LOG_ZERO, CgfValues, conjugate_root


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
class SaddleResult:
    theta: float
    cgf: CgfValues  # kappa_n and its first two derivatives at theta
    log_p_daniels: float
    iterations: int


class CumulantEvaluator:
    """kappa_n(theta) = log sum_k w[n][k] e^{theta k} and its derivatives."""

    def __init__(self, log_row: np.ndarray):
        log_row = np.asarray(log_row, dtype=float)
        if log_row.ndim != 1 or log_row.size == 0:
            raise DomainError("log_row must be a nonempty 1-d array")
        if np.all(log_row == LOG_ZERO):
            raise DomainError("row carries no mass")
        self.log_row = log_row
        self.n = log_row.size - 1
        self.k = np.arange(log_row.size, dtype=float)
        finite = np.nonzero(log_row > LOG_ZERO)[0]
        self.k_min = int(finite[0])
        self.k_max = int(finite[-1])
        # Untilted log normaliser and mean, shared by every saddle solve.
        self.at_zero = self.kappa(0.0)

    @classmethod
    def from_params(cls, params: ModelParams, n: int) -> "CumulantEvaluator":
        return cls(final_log_row(params, n))

    def kappa(self, theta: float) -> CgfValues:
        """kappa_n at theta with the tilted mean and variance."""
        z = self.k * theta
        z += self.log_row
        m = float(np.max(z))
        z -= m
        np.exp(z, out=z)
        total = float(np.sum(z))
        # Moments of the tilted law z / total, dividing each dot by total.
        mean = float(np.dot(z, self.k)) / total
        d = self.k - mean
        variance = max(float(np.dot(z, d * d)) / total, 0.0)
        return CgfValues(m + math.log(total), mean, variance)

    def solve_saddle(self, k: int, near: SaddleResult | None = None) -> SaddleResult:
        """Tilt theta with tilted mean k, by `conjugate_root` on kappa_n:
        cold from theta = 0, or warm from `near`, the solve at a nearby k.
        """
        if k <= self.k_min or k >= self.k_max:
            raise BoundaryError(
                f"no mass beyond k={k}: support is [{self.k_min}, {self.k_max}]"
            )
        theta, vals, iterations = conjugate_root(
            self.kappa,
            k,
            None if near is None else (near.theta, near.cgf),
            at_zero=self.at_zero,
            tol=1e-9 * max(1.0, float(k)),
            max_iter=80,
        )
        log_p = (
            -0.5 * math.log(2.0 * math.pi * vals.deriv2)
            + vals.value
            - self.at_zero.value
            - k * theta
        )
        return SaddleResult(theta, vals, log_p, iterations)


@dataclass(frozen=True)
class ProfileRow:
    k: int
    log_p_exact: float
    log_p_daniels: float
    log_p_gaussian: float


def k_window(n: int, epsilon: float) -> range:
    """The heights k in [eps*n, (1-eps)*n] that `profile` covers; may be empty."""
    return range(math.ceil(epsilon * n), math.floor((1.0 - epsilon) * n) + 1)


def profile(params: ModelParams, n: int, epsilon: float) -> list[ProfileRow]:
    """Exact / Daniels / Gaussian log probabilities for k in [eps*n, (1-eps)*n].

    A window with no integer k raises DomainError.  Each Daniels saddle
    solve starts from the previous k's saddle.  The Gaussian column
    evaluates the central window law at the exact row mean and variance.
    """
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must be in (0, 1/2), got {epsilon}")
    ks = k_window(n, epsilon)
    if not ks:
        raise DomainError(f"no integer k in [{epsilon}*{n}, (1 - {epsilon})*{n}]")
    log_row = final_log_row(params, n)
    dist = _distribution_from_log_row(n, log_row)
    ev = CumulantEvaluator(log_row)
    rows = []
    saddle = None
    for k in ks:
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
