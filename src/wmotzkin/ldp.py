"""Limit cumulant generating function, Legendre transform, and the
large-deviation rate profile of the scaled terminal height K_n / n.

For balanced quadratic drift the n-normalized cumulant generating function
converges to F(theta) = log(tau(1) / tau(e^theta)), a strictly convex
function whose derivative sweeps (0, 1); its Legendre transform I(u) is the
speed-n decay rate of p_{n, floor(u n)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import SingularityMap
from .errors import DomainError
from .exact import final_log_row
from .model import QUADRATIC, ModelParams, Regime, require
from .specfun import CgfValues, conjugate_root, log_sum_exp

THETA_LIMIT = 60.0  # |theta| beyond this saturates F' in double precision

INFINITE_RATE = math.inf


def limit_cgf(params: ModelParams, theta: float) -> CgfValues:
    """F(theta) = log(tau(1)/tau(e^theta)) with F' and F'' (see
    `SingularityMap.cgf`)."""
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
    or 1 within |theta| <= 60.
    """
    prof = rate_profile(params, [u])
    return RatePoint(float(prof.u[0]), float(prof.theta[0]), float(prof.rate[0]))


def rate_closed_form_double_root(r: float, u: float) -> float:
    """Closed-form rate for a double root at r <= 0:

    I(u) = u log u + (1-u) log(1-u) + (u-1) log(-r) + log(1-r).

    At r = 0 the limit profile degenerates: infinite rate for u < 1, zero
    at u = 1.
    """
    if r > 0:
        raise DomainError(f"double root must satisfy r <= 0, got {r}")
    if not 0.0 < u <= 1.0:
        raise DomainError(f"u must be in (0, 1], got {u}")
    if r == 0.0:
        return 0.0 if u == 1.0 else INFINITE_RATE
    entropy = u * math.log(u) + ((1.0 - u) * math.log(1.0 - u) if u < 1.0 else 0.0)
    return entropy + (u - 1.0) * math.log(-r) + math.log(1.0 - r)


@dataclass(frozen=True)
class RateProfile:
    """Sampled (u, theta(u), I(u)) triples for one parameter set."""

    regime: Regime
    u: np.ndarray
    theta: np.ndarray
    rate: np.ndarray


def _profile(regime: Regime, points) -> RateProfile:
    """RateProfile from a list of (u, theta, rate) triples."""
    u, theta, rate = np.array(points, dtype=float).reshape(-1, 3).T
    return RateProfile(regime=regime, u=u, theta=theta, rate=rate)


def rate_profile(params: ModelParams, u_grid) -> RateProfile:
    """Rate profile via the Legendre transform at each u in u_grid, in grid
    order: `conjugate_root` on F, cold at the first u and then warm from the
    previous u's solve.  Every solve's bracket reaches |theta| = THETA_LIMIT.
    """
    regime = require(params, QUADRATIC)
    smap = SingularityMap(params)
    points, near = [], None
    for u in u_grid:
        u = float(u)
        if not 0.0 < u < 1.0:
            raise DomainError(f"u must be in (0, 1), got {u}")
        theta, vals, _ = conjugate_root(smap.cgf, u, near, tol=1e-13, wall=THETA_LIMIT)
        near = (theta, vals)
        points.append((u, theta, u * theta - vals.value))
    return _profile(regime, points)


def parametrized_profile(params: ModelParams, x_grid) -> RateProfile:
    """Rate profile via the x-parametrization u = F'(log x) = x*chi(x),
    I = u*log x - F(log x); theta(u) = log x."""
    regime = require(params, QUADRATIC)
    smap = SingularityMap(params)
    points = []
    for x in x_grid:
        x = float(x)
        if not x > 0:
            raise DomainError(f"x grid must be positive, got {x}")
        theta = math.log(x)
        vals = smap.cgf(theta)
        points.append((vals.deriv1, theta, vals.deriv1 * theta - vals.value))
    return _profile(regime, points)


@dataclass(frozen=True)
class EmpiricalRateRow:
    u: float
    n: int
    empirical: float  # -(1/n) log p_{n, floor(u n)}
    rate: float


def empirical_rates(params: ModelParams, u_grid, n_list) -> list[list[float]]:
    """Exact finite-N decay rates -(1/N) log p_{N, floor(uN)}.

    Returns one list over `u_grid` per N, in the order of `n_list`.
    """
    columns = []
    for n in n_list:
        log_row = final_log_row(params, n)
        log_total = log_sum_exp(log_row)
        columns.append(
            [-(float(log_row[math.floor(u * n)]) - log_total) / n for u in u_grid]
        )
    return columns


def empirical_rate_check(params: ModelParams, u_grid, n_list) -> list[EmpiricalRateRow]:
    """Exact finite-n decay rates against I(u) on a (u, n) grid."""
    u_grid = [float(u) for u in u_grid]
    rates = rate_profile(params, u_grid).rate.tolist()
    n_list = sorted(int(n) for n in n_list)
    return [
        EmpiricalRateRow(u=u, n=n, empirical=empirical, rate=rate)
        for n, column in zip(n_list, empirical_rates(params, u_grid, n_list))
        for u, empirical, rate in zip(u_grid, column, rates)
    ]
