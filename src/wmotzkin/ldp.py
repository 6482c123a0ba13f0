"""Limit cumulant generating function, Legendre transform, and the
large-deviation rate profile of the scaled terminal height K_n / n.

For balanced quadratic drift the n-normalized cumulant generating function
converges to F(theta) = log(tau(1) / tau(e^theta)), a strictly convex
function whose derivative sweeps (0, 1); its Legendre transform I(u) is the
speed-n decay rate of p_{n, floor(u n)}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .closedform import SingularityMap
from .errors import DomainError
from .exact import height_distribution
from .model import QUADRATIC, DriftKind, ModelParams, require
from .specfun import CgfValues, conjugate_root

THETA_LIMIT = 60.0  # |theta| beyond this saturates F' in double precision unless r2 = 0


def limit_cgf(params: ModelParams, theta: float) -> CgfValues:
    """F(theta) = log(tau(1)/tau(e^theta)) with F', F'', F''' and F''''
    (see `SingularityMap.cgf`)."""
    require(params, QUADRATIC)
    return SingularityMap(params).cgf(theta)


@dataclass(frozen=True)
class RatePoint:
    u: float
    theta: float
    rate: float


def rate_function(params: ModelParams, u: float) -> RatePoint:
    """I(u) = u*theta(u) - F(theta(u)) with F'(theta(u)) = u, 0 < u < 1.

    The one-point `rate_profile`, solved cold from theta = 0; a
    ConvergenceError signals that u is numerically indistinguishable from 0
    or 1 within the theta range that `rate_profile` searches: |theta| <= 60,
    or down to theta about -353 when r2 = 0, where F'(theta) ~ 1/|theta|,
    so that u below about 0.0028 is refused there.
    """
    prof = rate_profile(params, [u])
    return RatePoint(float(prof.u[0]), float(prof.theta[0]), float(prof.rate[0]))


@dataclass(frozen=True)
class RateProfile:
    """Sampled (u, theta(u), I(u)) triples for one parameter set."""

    u: np.ndarray
    theta: np.ndarray
    rate: np.ndarray


def rate_profile(params: ModelParams, u_grid) -> RateProfile:
    """Rate profile via the Legendre transform at each u in u_grid, in grid
    order: `conjugate_root` on F, cold at the first u and then warm from the
    previous u's solve, first evaluated at its third-order predictor.  Every
    solve searches out to |theta| = THETA_LIMIT, no further; when r2 = 0,
    where F'(theta) ~ 1/|theta| as theta -> -inf, it searches down to where
    `SingularityMap.cgf` still holds (theta about -353 at B = 1).
    A double root at r = 0 raises DomainError before any solve: there
    F(theta) = theta, so I(u) = +inf for every u < 1.
    """
    regime = require(params, QUADRATIC)
    if regime.kind is DriftKind.DOUBLE_ROOT and regime.B == 0:
        raise DomainError("double root at r = 0: K_n/n tends to a point mass at u = 1, "
                          "so I(u) = +inf for every u < 1 and there is no rate profile")
    low = -THETA_LIMIT
    if regime.kind is DriftKind.TWO_REAL_ROOTS and regime.p == 0:  # r2 = 0
        low = math.log(math.sqrt(sys.float_info.min) / regime.B) + 1.0  # a nat above subnormal Q^2
    smap = SingularityMap(params)
    points, near = [], None
    for u in u_grid:
        u = float(u)
        if not 0.0 < u < 1.0:
            raise DomainError(f"u must be in (0, 1), got {u}")
        theta, vals, _ = conjugate_root(smap.cgf, u, near, tol=1e-13, walls=(low, THETA_LIMIT))
        near = (theta, vals)
        points.append((u, theta, u * theta - vals.value))
    u, theta, rate = np.array(points, dtype=float).reshape(-1, 3).T
    return RateProfile(u=u, theta=theta, rate=rate)


def empirical_rates(params: ModelParams, u_grid, n_list) -> list[list[float]]:
    """Exact finite-N decay rates -(1/N) log p_{N, floor(uN)}.

    Returns one list over `u_grid` per N, in the order of `n_list`.  A u
    outside [0, 1] or an N below 1 raises DomainError before any row is built.
    """
    u_grid, n_list = list(u_grid), list(n_list)  # read once, then once per N
    if not all(0.0 <= u <= 1.0 for u in u_grid) or not all(n >= 1 for n in n_list):
        raise DomainError(f"need every u in [0, 1] and every N >= 1, got {u_grid} and {n_list}")
    columns = []
    for n in n_list:
        log_p = height_distribution(params, n).log_p
        columns.append([-float(log_p[math.floor(u * n)]) / n for u in u_grid])
    return columns

