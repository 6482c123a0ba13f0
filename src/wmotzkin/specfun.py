"""Numerical special functions (log-sum-exp, Lambert W, the two-variable
Hermite values in log space), the safeguarded root finder and the conjugate
solve built on it.

The Daniels saddle and the Legendre rate are both `conjugate_root` on their
own CGF, so there is a single audited solve for them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

LOG_ZERO = float("-inf")

_INV_E = math.exp(-1.0)


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) for nonnegative-term sums, max-shifted.

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


def lambert_w0(z: float) -> float:
    """Principal branch of the Lambert W function, w*exp(w) = z, z >= -1/e.

    Seeds: the Maclaurin series for small |z|, the branch-point expansion in
    sqrt(2(e*z+1)) near -1/e, and log(z) - log(log(z)) for large z (Corless
    et al. 1996); Halley iterations then polish to ~1e-15 relative.
    """
    if math.isnan(z):
        raise DomainError("lambert_w0 is undefined for NaN")
    if z < -_INV_E:
        # Allow roundoff dust below the branch point.
        if z < -_INV_E * (1.0 + 1e-12) - 1e-300:
            raise DomainError(f"lambert_w0 requires z >= -1/e, got {z}")
        z = -_INV_E
    if z == 0.0:
        return 0.0

    if z < -0.32:
        # Branch-point series in p = sqrt(2(e z + 1)).
        p = math.sqrt(max(2.0 * (math.e * z + 1.0), 0.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))
        if p == 0.0:
            return -1.0
    elif abs(z) < 0.3:
        w = z * (1.0 + z * (-1.0 + z * (1.5 + z * (-8.0 / 3.0))))
    elif z > 3.0:
        l1 = math.log(z)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    else:
        w = 0.5 * math.log1p(z)  # crude but inside Halley's basin on (0.3, 3]

    for _ in range(20):
        ew = math.exp(w)
        f = w * ew - z
        w1 = w + 1.0
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def safeguarded_root(
    f, start, *, tol, limit=math.inf, f_start=None, step=1.0, max_iter=100
):
    """Root of an increasing function, given f(x) -> (f(x), f'(x)).

    A bracket grows from `start` toward the root in steps of `step`,
    2*step, 4*step, ... (probes start -+ step, 3*step, 7*step, ..., the last
    one clamped to start -+ limit); ConvergenceError if f has not changed
    sign by the limit.  Newton then runs from the bracket's midpoint,
    bisecting whenever a step leaves the shrinking bracket or the slope is
    not positive, and stops when |f(x)| <= tol or x stops moving.
    `f_start`, if known, spares the evaluation at `start`, and a start with
    |f| <= tol is the root.  Returns (x, Newton steps), where x is the point
    of the last evaluation of f (`start` itself when it is the root).
    """
    value = f(start)[0] if f_start is None else f_start
    if abs(value) <= tol:
        return start, 0
    sign = -1.0 if value > 0 else 1.0  # direction of the root
    near = start
    while abs(near - start) < limit:
        probe = start + sign * min(abs(near - start) + step, limit)
        if sign * f(probe)[0] >= 0:
            break
        near, step = probe, 2.0 * step
    else:
        raise ConvergenceError(
            f"no root between {start:g} and {start + sign * limit:g}: f keeps its sign"
        )
    lo, hi = min(near, probe), max(near, probe)
    x = 0.5 * (lo + hi)
    for steps in range(1, max_iter + 1):
        value, slope = f(x)
        if abs(value) <= tol:
            return x, steps
        if value > 0:
            hi = x
        else:
            lo = x
        x_next = x - value / slope if slope > 0 else 0.5 * (lo + hi)
        if not lo < x_next < hi:
            x_next = 0.5 * (lo + hi)
        if x_next == x:
            return x, steps
        x = x_next
    raise ConvergenceError(f"root not within |f| <= {tol:g} after {max_iter} steps")


@dataclass(frozen=True)
class CgfValues:
    """A CGF and its first two derivatives (tilted mean and variance)."""

    value: float
    deriv1: float
    deriv2: float


def conjugate_root(
    cgf, target, near=None, *, at_zero=None, tol, wall=math.inf, max_iter=100
):
    """theta with F'(theta) = target for a convex cgf(theta) -> CgfValues F.

    Cold, the bracket grows from theta = 0 (F there is `at_zero`, if known)
    with a first step of 1.0.  Warm from `near` = (theta, F there), a solve
    at a nearby target, the first step is twice the Newton step, so that the
    bracket's midpoint is the Newton predictor; it is 1.0 where F'' is not
    positive (F'' rounds to zero where F' saturates).  The bracket stops at
    |theta| = `wall`.  Returns (theta, F at theta, Newton steps).
    """
    if near is None:
        start, vals, step = 0.0, cgf(0.0) if at_zero is None else at_zero, 1.0
    else:
        start, vals = near
        step = 2.0 * abs(vals.deriv1 - target) / vals.deriv2 if vals.deriv2 > 0 else 1.0
    f_start = vals.deriv1 - target

    def excess(theta: float) -> tuple[float, float]:
        nonlocal vals
        vals = cgf(theta)
        return vals.deriv1 - target, vals.deriv2

    # Distance from start to the wall on the root's side.
    reach = wall + (start if f_start > 0 else -start)
    theta, steps = safeguarded_root(
        excess, start, tol=tol, limit=reach, f_start=f_start, step=step, max_iter=max_iter
    )
    return theta, vals, steps


def hermite_ratios(x_coeff: float, y_coeff: float, n: int) -> list[float]:
    """[H_1/H_0, ..., H_n/H_{n-1}] of the two-variable Hermite family with EGF
    exp(X t + Y t^2 / 2): H_0 = 1, H_1 = X, H_{m+1} = X H_m + m Y H_{m-1}.

    For X > 0 and Y >= 0 every H_m is positive, and the ratios obey
    H_{m+1}/H_m = X + m Y / (H_m/H_{m-1}) >= X, a sum of positive terms that
    never cancels and stays finite while n Y / X does; DomainError otherwise.
    """
    if n < 0:
        raise DomainError(f"order must be nonnegative, got {n}")
    if not (0 < x_coeff < math.inf and y_coeff >= 0 and n * y_coeff / x_coeff < math.inf):
        raise DomainError(
            f"H_m needs X > 0, Y >= 0, finite n*Y/X; got X={x_coeff}, Y={y_coeff}, n={n}"
        )
    ratios = [x_coeff]
    for m in range(1, n):
        ratios.append(x_coeff + m * y_coeff / ratios[-1])
    return ratios[:n]


def hermite_kdf_sequence(x_coeff: float, y_coeff: float, n: int) -> list[float]:
    """[log H_0, ..., log H_n]: the running sums of the logs of `hermite_ratios`."""
    ratios = hermite_ratios(x_coeff, y_coeff, n)
    return [0.0, *itertools.accumulate(map(math.log, ratios))]
