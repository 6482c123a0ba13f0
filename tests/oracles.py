"""Reference computations the tests compare the library against.

Each one is written apart from the engine it checks: path enumeration for
the triangle recurrence, the whole-row `log_sum_exp` and tilted sums for
the windowed `tilted_cgf` (the library's one reduction of a log row), the
x-parametrization of the rate profile for the Legendre solve, the
closed-form double-root rate, a fixed value of Lambert W, and the
log-space row kernel that divides every row by its power of two
(`rescaled_log_rows`) for `exact.iter_log_rows`, which divides only the
rows whose logs are taken.  None of them is part of the library.
`closed_form_w` is the closed form of w(x, t) per drift regime, for the
tests of the characteristic series and of the values themselves.
`uniform_error_applies` names the models that the O(1/n) Daniels error
bounds of the tests cover.
"""

import math

import numpy as np

from wmotzkin import (
    AccuracyError, CapacityError, CgfValues, DomainError, DriftKind, EgfEvaluator, ModelParams,
    RateProfile, RegimeError, SingularityMap, exact,
)
from wmotzkin.model import QUADRATIC, require
from wmotzkin.specfun import LOG_ZERO

ORACLE_MAX_N = 14

INFINITE_RATE = math.inf

# Omega constant W(1), a fixed reference value of Lambert W.
OMEGA = 0.5671432904097838


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


def closed_form_w(params: ModelParams, x: float, t: float) -> float:
    """w(x, t) at one real t from the closed form of the model's regime, with
    no check of the validity window.  A = 0: the closed form the contour
    samples (`EgfEvaluator._eval_complex`).  A > 0: the solution by
    characteristics, each power on the principal branch; it blows up at
    t = tau(x)."""
    ev = EgfEvaluator(params)
    regime, t = ev.regime, complex(t)
    if not regime.is_quadratic:
        return float(ev._eval_complex(x, t).real)
    A, nu = regime.A, regime.nu
    if regime.kind is DriftKind.COMPLEX_ROOTS:
        phase = A * regime.q * t + math.atan((x - regime.p) / regime.q)
        base = regime.q / (math.hypot(x - regime.p, regime.q) * np.cos(phase))
    elif regime.kind is DriftKind.DOUBLE_ROOT:
        base, nu = 1.0 - A * t * (x - regime.p), -nu
    else:
        grow = np.exp(A * (regime.r1 - regime.p) * t)
        base = (regime.r1 - regime.p) / ((x - regime.p) - (x - regime.r1) * grow)
    return float((np.exp(regime.c0 * t) * np.exp(nu * np.log(base))).real)


def exact_log_row(tri, n: int) -> np.ndarray:
    """Row n of an exact triangle as natural logs; zero weights map to -inf."""
    return np.array([math.log(w) if w else -math.inf for w in tri.row(n)])


def brute_force_oracle(params: ModelParams, n: int) -> list[int]:
    """Row n by enumerating every {up, level, down} step string.

    Independent of the triangle recurrence: each surviving path multiplies
    the weight of an up- or level-step leaving its current height and of a
    down-step arriving at its target height.  Exponential in n.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n > ORACLE_MAX_N:
        raise CapacityError(
            f"oracle enumerates 3^n paths; n={n} exceeds the limit {ORACLE_MAX_N}"
        )
    totals = [0] * (n + 1)

    def walk(steps_left: int, height: int, weight: int) -> None:
        if steps_left == 0:
            totals[height] += weight
            return
        w_up = params.up_weight(height)
        if w_up:
            walk(steps_left - 1, height + 1, weight * w_up)
        w_level = params.level_weight(height)
        if w_level:
            walk(steps_left - 1, height, weight * w_level)
        if height > 0:
            w_down = params.down_weight(height - 1)
            if w_down:
                walk(steps_left - 1, height - 1, weight * w_down)

    walk(n, 0, 1)
    return totals


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) for nonnegative-term sums over every entry,
    max-shifted.

    -inf entries denote exact zeros and are skipped by the shift; the empty
    sum and the all--inf sum both return -inf.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    m = float(np.max(arr))
    if m == LOG_ZERO:
        return LOG_ZERO
    if math.isinf(m):  # +inf dominates
        return m
    return m + math.log(float(np.sum(np.exp(arr - m))))


def full_row_kappa(log_row: np.ndarray, theta: float) -> CgfValues:
    """kappa_n(theta) = log sum_k e^{log_row[k] + theta k} with the tilted mean,
    variance, third central moment and fourth cumulant, every sum over the
    whole row: `tilted_cgf` leaves out the terms below e^-64 of the largest."""
    k = np.arange(len(log_row), dtype=float)
    z = k * theta
    z += log_row
    m = float(np.max(z))
    z -= m
    np.exp(z, out=z)
    total = float(np.sum(z))
    mean = float(np.dot(z, k)) / total
    d = k - mean
    variance = max(float(np.dot(z, d * d)) / total, 0.0)
    third = float(np.dot(z, d * d * d)) / total
    fourth = float(np.dot(z, d * d * d * d)) / total - 3.0 * variance * variance
    return CgfValues(m + math.log(total), mean, variance, third, fourth)


def parametrized_profile(params: ModelParams, x_grid) -> RateProfile:
    """Rate profile via the x-parametrization u = F'(log x) = x*chi(x),
    I = u*log x - F(log x); theta(u) = log x."""
    require(params, QUADRATIC)
    smap = SingularityMap(params)
    points = []
    for x in x_grid:
        x = float(x)
        if not x > 0:
            raise DomainError(f"x grid must be positive, got {x}")
        theta = math.log(x)
        vals = smap.cgf(theta)
        points.append((vals.deriv1, theta, vals.deriv1 * theta - vals.value))
    u, theta, rate = np.array(points, dtype=float).reshape(-1, 3).T
    return RateProfile(u=u, theta=theta, rate=rate)


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


def _support_size(params: ModelParams, n: int) -> int:
    """Number of structurally nonzero entries of row n >= 1: heights n,
    n - step, ... down to the lowest reachable height lo."""
    if params.alpha0 == 0:
        return 1 if params.gamma0 else 0
    step = 1 if params.c or params.gamma0 else 2
    if params.gamma0 or (params.beta0 and n >= 2):
        lo = 0
    elif step == 1 or params.b:
        lo = 1
    else:
        lo = n
    return len(range(n, lo - 1, -step))


def rescaled_log_rows(params: ModelParams, n_max: int, last_only: bool = False):
    """Log-space rows 0..n_max by the blocked kernel of `exact.iter_log_rows`
    with every row divided by the power of two that puts its maximum in
    [1/2, 1), and each row checked against `exact._TINY` there.  With
    `last_only`, rows 0 and n_max alone are yielded, and only block ends and
    row n_max have their logs taken.  The block sizes and the threshold come
    from `exact`, so a patched `_BLOCK_BUDGET` reaches both kernels.
    """

    def precision_lost(n):
        return AccuracyError(f"log-space row {n} of {params.as_tuple()}: a nonzero weight "
                             "left the range of its column scale")

    k = np.arange(n_max + 1, dtype=float)
    try:
        with np.errstate(divide="ignore", over="raise"):
            log_up = np.log(params.up_weight(k))
            log_down = np.log(params.down_weight(k))
            level = params.level_weight(k)
    except (OverflowError, FloatingPointError):
        raise DomainError(f"step weights of {params.as_tuple()} leave the doubles") from None
    block = exact._block_size(params, n_max)
    row = np.zeros(1)
    yield row
    n = 0
    while n < n_max:
        steps = min(block, n_max - n)
        width = n + steps + 1
        cols = np.arange(width + 1, dtype=float)
        finite = row > LOG_ZERO
        nonzero = np.flatnonzero(finite)
        s = np.zeros(width + 1)
        if nonzero.size:
            s[: n + 1] = np.interp(cols[: n + 1], nonzero, row[nonzero])
        slope = s[n] - s[n - 1] if n else 0.0
        s[n + 1 :] = s[n] + slope * (cols[n + 1 :] - n)
        ds = np.diff(s)
        lift = np.zeros(width)
        with np.errstate(over="ignore"):
            lift[1:] = np.exp(log_up[: width - 1] - ds[:-1])
            drop = np.exp(log_down[:width] + ds)
        stay = level[:width]
        bufs = np.zeros(width + 2), np.zeros(width + 2)
        bufs[0][1 : n + 2] = finite
        views = [(buf[1:-1], buf[:-2], buf[2:]) for buf in bufs]
        term = np.empty(width)
        exponent = 0
        for step in range(steps):
            (mid, left, right), new = views[step % 2], views[1 - step % 2][0]
            np.multiply(stay, mid, out=new)
            np.multiply(lift, left, out=term)
            new += term
            np.multiply(drop, right, out=term)
            new += term
            n += 1
            support = _support_size(params, n)
            if support:
                peak = new.max()
                if not exact._TINY < peak < math.inf:
                    raise precision_lost(n)
                shift = math.frexp(peak)[1]
                exponent += shift
                new *= 2.0**-shift
            if np.count_nonzero(new > exact._TINY) != support:
                raise precision_lost(n)
            if last_only and step + 1 < steps:
                continue
            with np.errstate(divide="ignore"):
                row = np.log(new[: n + 1])
            row += s[: n + 1]
            row += exponent * math.log(2.0)
            if not last_only or n == n_max:
                yield row
