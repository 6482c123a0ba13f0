"""Finite-n cumulants of the terminal height and the lattice saddlepoint
(Daniels) point-probability approximation.

All cumulants are `tilted_cgf` sums over the exact log-space row, less terms
below e^-64 of the largest, so they hold for unbalanced parameters too; the
uniform O(1/n) interior error guarantee is only established for balanced
A > 0 models outside the complex-roots c = 0 family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, DomainError
from .exact import final_log_row
from .model import ModelParams
from .specfun import LOG_ZERO, CgfValues, conjugate_root, tilted_cgf


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
        self.log_row = log_row
        self.k = np.arange(log_row.size, dtype=float)
        # Untilted log normaliser, mean and variance, shared by every saddle
        # solve; DomainError for a row with no mass.
        self.at_zero = self.kappa(0.0)
        finite = np.nonzero(log_row > LOG_ZERO)[0]
        self.k_min = int(finite[0])
        self.k_max = int(finite[-1])

    @classmethod
    def from_params(cls, params: ModelParams, n: int) -> "CumulantEvaluator":
        return cls(final_log_row(params, n))

    def kappa(self, theta: float) -> CgfValues:
        """kappa_n at theta with the tilted mean, variance, third central
        moment and fourth cumulant (`tilted_cgf`)."""
        return tilted_cgf(self.log_row, self.k, theta)

    def solve_saddle(self, k: int, near: SaddleResult | None = None) -> SaddleResult:
        """Tilt theta with tilted mean k, by `conjugate_root` on kappa_n:
        cold from theta = 0, or warm from `near`, the solve at a nearby k;
        DomainError where the tilted law there is a point mass (kappa'' = 0)."""
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
        if not vals.deriv2 > 0:
            raise DomainError(f"the tilted law at k={k} has variance {vals.deriv2:g}")
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
    solve starts from the previous k's saddle.  One `CumulantEvaluator`
    serves every column: the exact one is log w[n][k] - kappa_n(0), and the
    Gaussian one is the log of the normal density at k, computed in logs,
    with mean kappa_n'(0) and variance sigma2 = kappa_n''(0) (DomainError
    unless sigma2 > 0).
    """
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must be in (0, 1/2), got {epsilon}")
    ks = k_window(n, epsilon)
    if not ks:
        raise DomainError(f"no integer k in [{epsilon}*{n}, (1 - {epsilon})*{n}]")
    ev = CumulantEvaluator.from_params(params, n)
    log_total, mean, variance = ev.at_zero.value, ev.at_zero.deriv1, ev.at_zero.deriv2
    if not variance > 0:
        raise DomainError(f"sigma2 must be positive, got {variance}")
    log_peak = -0.5 * math.log(2.0 * math.pi * variance)
    rows = []
    saddle = None
    for k in ks:
        saddle = ev.solve_saddle(k, near=saddle)
        rows.append(
            ProfileRow(
                k=k,
                log_p_exact=float(ev.log_row[k] - log_total),
                log_p_daniels=saddle.log_p_daniels,
                log_p_gaussian=log_peak - (k - mean) ** 2 / (2.0 * variance),
            )
        )
    return rows
