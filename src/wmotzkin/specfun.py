"""Numerical special functions (the windowed tilted CGF of a log row,
Lambert W, the two-variable Hermite values in log space), the safeguarded
root finder and the conjugate solve built on it.

The Daniels saddle and the Legendre rate are both `conjugate_root` on their
own CGF, so there is a single audited solve for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

LOG_ZERO = float("-inf")

# Newton steps that `safeguarded_root` (and so `conjugate_root`) takes at most.
MAX_STEPS = 100

# tilted_cgf sums only the k window of tilted terms within e^-64 of the largest.
# The n + 1 or fewer left out hold < (n + 1) e^-64 of the total and move the
# variance by < n^2 (n + 1) e^-64, as (k - mean)^2 <= n^2: 3.3e-24 and 1.3e-15 at
# n = 20000 (the third and fourth central moments by < n^3 (n + 1) e^-64 = 2.6e-11
# and n^4 (n + 1) e^-64 = 5.1e-7, against a fourth cumulant of order n).
_WINDOW_NATS = 64.0


def lambert_w0(z: float) -> float:
    """Principal branch of the Lambert W function, w*exp(w) = z, for z >= 0.

    Seeds: the Maclaurin series for small z and log(z) - log(log(z)) for
    large z (Corless et al. 1996); Halley iterations then polish to ~1e-15
    relative.  z < 0, z = inf and NaN raise DomainError.
    """
    if not 0 <= z < math.inf:
        raise DomainError(f"lambert_w0 requires a finite z >= 0, got {z}")
    if z == 0.0:
        return 0.0

    if z < 0.3:
        w = z * (1.0 + z * (-1.0 + z * (1.5 + z * (-8.0 / 3.0))))
    elif z > 3.0:
        l1 = math.log(z)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    else:
        w = 0.5 * math.log1p(z)  # crude but inside Halley's basin on [0.3, 3]

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


def safeguarded_root(f, start, *, tol, limit=math.inf, f_start=None, first=None, step=1.0):
    """Root of an increasing function, given f(x) -> (f(x), f'(x)).

    One loop of Newton steps, each from the last evaluated point; `first`,
    if given, replaces the first of them.  The bracket is learned from the
    signs of f.  While it is open on the root's side, a step goes at most
    `step`, then 2*step, 4*step, ... past the last point (a step that does
    not move toward the root, or a slope that is not positive, goes the
    whole way), clamped to start -+ `limit`; ConvergenceError if f keeps its
    sign there.  Once the bracket is closed, a step that leaves it bisects.
    A point that an uncut step of length s reached has converged if its own
    Newton correction |f/f'| is at most s/2; if not (as across a flat tail,
    where f/f' stays near 1), the next step goes the whole reach, or bisects
    a closed bracket.  A point with |f| <= tol is the root if it is the
    start, if f has changed sign, or if it has converged; a closed bracket
    whose next point would not move also ends the solve.  `f_start` =
    (f, f') at `start`, if known, spares that evaluation.  Returns (x,
    evaluations of f after the start), where x is the point of the last
    evaluation (`start` itself when it is the root).
    """
    value, slope = f(start) if f_start is None else f_start
    if abs(value) <= tol:
        return start, 0
    sign = -1.0 if value > 0 else 1.0  # direction of the root from start
    edge = start + sign * limit
    lo, hi = (-math.inf, start) if value > 0 else (start, math.inf)
    x, reach, moved = start, step, 0.0
    for steps in range(1, MAX_STEPS + 1):
        proposal = first if steps == 1 and first is not None else (
            x - value / slope if slope > 0 else math.nan
        )
        x_next = proposal
        # An uncut step of length `moved` whose own correction is more than
        # moved/2 has not converged.
        stalled = 0 < moved < 2.0 * abs(x_next - x)
        if lo == -math.inf or hi == math.inf:  # open on the root's side
            if x == edge:
                raise ConvergenceError(
                    f"no root between {start:g} and {edge:g}: f keeps its sign"
                )
            if not 0 < sign * (x_next - x) <= reach or stalled:
                x_next = x + sign * reach
            if sign * (x_next - edge) > 0:
                x_next = edge
            reach *= 2.0
        elif not lo < x_next < hi or stalled:
            x_next = 0.5 * (lo + hi)
            if x_next == x:
                return x, steps - 1
        # A step cut to the reach or the limit says nothing about convergence.
        moved = abs(x_next - x) if x_next == proposal else 0.0
        x = x_next
        value, slope = f(x)
        if value > 0:
            hi = x
        else:
            lo = x
        closed = lo > -math.inf and hi < math.inf
        if abs(value) <= tol and (closed or 2.0 * abs(value) <= moved * slope):
            return x, steps
    raise ConvergenceError(f"root not within |f| <= {tol:g} after {MAX_STEPS} steps")


@dataclass(frozen=True)
class CgfValues:
    """A CGF and its first four derivatives (the tilted mean, variance, third
    central moment and fourth cumulant)."""

    value: float
    deriv1: float
    deriv2: float
    deriv3: float
    deriv4: float


def tilted_cgf(log_row: np.ndarray, k: np.ndarray, theta: float) -> CgfValues:
    """kappa(theta) = log sum_k e^{log_row[k] + theta k} over row n (its n + 1
    entries finite or -inf, k = 0..n as floats) with the tilted mean,
    variance, third central moment and fourth cumulant, each summed over
    the window of k within e^-64 of the largest term (see _WINDOW_NATS).
    A row with no finite entry raises DomainError naming n.
    """
    z = k * theta
    z += log_row
    m = float(z.max())
    if m == LOG_ZERO:
        raise DomainError(f"row {z.size - 1} carries no mass")
    inside = z > m - _WINDOW_NATS
    lo, hi = int(inside.argmax()), z.size - int(inside[::-1].argmax())
    z, k = z[lo:hi], k[lo:hi]
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


def conjugate_root(cgf, target, near=None, *, at_zero=None, tol, walls=(-math.inf, math.inf)):
    """theta with F'(theta) = target for a convex cgf(theta) -> CgfValues F.

    Cold, the solve starts from theta = 0 (F there is `at_zero`, if known)
    with a first step of at most 1.0.  Warm from `near` = (theta0, F there),
    a solve at a nearby target, a start within tol is the root and costs no
    evaluation; otherwise the first evaluation is at the third-order
    predictor theta0 + d - a d^2/2 + (a^2/2 - b/6) d^3, the reverted Taylor
    series of F' about theta0, with d = (target - F')/F'', a = F'''/F'' and
    b = F''''/F''.  The first step goes at most 2|d| (1.0 where F'' is not
    positive: F'' rounds to zero where F' saturates).  Steps stop at the
    `walls` (low, high).  Returns (theta, F at theta, evaluations of F after
    the start).
    """
    if near is None:
        start, vals = 0.0, cgf(0.0) if at_zero is None else at_zero
    else:
        start, vals = near
    f_start = (vals.deriv1 - target, vals.deriv2)
    step, first = 1.0, None
    if near is not None and vals.deriv2 > 0:
        delta = -f_start[0] / vals.deriv2
        a, b = vals.deriv3 / vals.deriv2, vals.deriv4 / vals.deriv2
        step = 2.0 * abs(delta)
        first = start + delta * (1.0 - delta * (0.5 * a - delta * (0.5 * a * a - b / 6.0)))

    def excess(theta: float) -> tuple[float, float]:
        nonlocal vals
        vals = cgf(theta)
        return vals.deriv1 - target, vals.deriv2

    # Distance from start to the wall on the root's side.
    reach = start - walls[0] if f_start[0] > 0 else walls[1] - start
    theta, steps = safeguarded_root(
        excess, start, tol=tol, limit=reach, f_start=f_start, first=first, step=step
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
