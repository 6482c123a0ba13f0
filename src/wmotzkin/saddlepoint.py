"""Finite-n cumulants of the terminal height and the lattice saddlepoint
(Daniels) point-probability approximation.

All cumulants are sums over the exact log-space row, less terms below e^-64 of
the largest, so they hold for unbalanced parameters too; the uniform O(1/n)
interior error guarantee is only established for balanced A > 0 models outside
the complex-roots c = 0 family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, DomainError
from .exact import _distribution_from_log_row, final_log_row
from .model import ModelParams
from .specfun import LOG_ZERO, CgfValues, conjugate_root

# kappa sums only the k window of tilted terms within e^-64 of the largest.  The
# n + 1 or fewer left out hold < (n + 1) e^-64 of the total and move the variance
# by < n^2 (n + 1) e^-64, as (k - mean)^2 <= n^2: 3.3e-24 and 1.3e-15 at n = 20000
# (the third and fourth central moments by < n^3 (n + 1) e^-64 = 2.6e-11 and
# n^4 (n + 1) e^-64 = 5.1e-7, against a fourth cumulant of order n).
_WINDOW_NATS = 64.0


@dataclass(frozen=True)
class SaddleResult:
    theta: float
    cgf: CgfValues  # kappa_n and its first four derivatives at theta
    log_p_daniels: float
    iterations: int  # kappa evaluations after the start, the predictor included


class CumulantEvaluator:
    """kappa_n(theta) = log sum_k w[n][k] e^{theta k} and its derivatives."""

    def __init__(self, log_row: np.ndarray):
        log_row = np.asarray(log_row, dtype=float)
        if log_row.ndim != 1 or log_row.size == 0 or not np.all(log_row < math.inf):
            raise DomainError("log_row must be a nonempty 1-d array, finite or -inf")
        if np.all(log_row == LOG_ZERO):
            raise DomainError("row carries no mass")
        self.log_row = log_row
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
        """kappa_n at theta with the tilted mean, variance, third central
        moment and fourth cumulant (see _WINDOW_NATS)."""
        z = self.k * theta
        z += self.log_row
        m = float(z.max())
        inside = z > m - _WINDOW_NATS
        lo, hi = int(inside.argmax()), z.size - int(inside[::-1].argmax())
        z, k = z[lo:hi], self.k[lo:hi]
        z -= m
        np.exp(z, out=z)
        total = float(z.sum())
        # Moments of the tilted law z / total, dividing each dot by total.
        mean = float(np.dot(z, k)) / total
        d = k - mean
        dd = d * d
        variance = max(float(np.dot(z, dd)) / total, 0.0)
        dd *= d
        third = float(np.dot(z, dd)) / total
        dd *= d
        fourth = float(np.dot(z, dd)) / total - 3.0 * variance * variance
        return CgfValues(m + math.log(total), mean, variance, third, fourth)

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
    solve starts from the previous k's saddle.  The Gaussian column is the
    log of the normal density at k, computed in logs, with the exact row
    mean and variance sigma2 (DomainError unless sigma2 > 0).
    """
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must be in (0, 1/2), got {epsilon}")
    ks = k_window(n, epsilon)
    if not ks:
        raise DomainError(f"no integer k in [{epsilon}*{n}, (1 - {epsilon})*{n}]")
    log_row = final_log_row(params, n)
    dist = _distribution_from_log_row(n, log_row)
    if not dist.variance > 0:
        raise DomainError(f"sigma2 must be positive, got {dist.variance}")
    log_peak = -0.5 * math.log(2.0 * math.pi * dist.variance)
    ev = CumulantEvaluator(log_row)
    rows = []
    saddle = None
    for k in ks:
        saddle = ev.solve_saddle(k, near=saddle)
        rows.append(
            ProfileRow(
                k=k,
                log_p_exact=float(dist.log_p[k]),
                log_p_daniels=saddle.log_p_daniels,
                log_p_gaussian=log_peak - (k - dist.mean) ** 2 / (2.0 * dist.variance),
            )
        )
    return rows
