"""Closed-form evaluation of the balanced height-generating function.

In the balanced case (beta0 == C) the exponential generating function
w(x, t) = sum_n P_n(x) t^n / n! has an explicit closed form per drift
regime.  When A > 0 it blows up at the moving singular time t = tau(x),
the smallest positive singularity; for A = 0 it is entire in t.

Derivatives of tau reuse one identity: along the drift flow dx/dt = -Q(x)
the time to blow-up satisfies tau'(x) = -1/Q(x), hence
tau''(x) = Q'(x)/Q(x)^2, the same in all three quadratic regimes.  The
limit cumulant generating function F(theta) = log(tau(1)/tau(e^theta)) of
the scaled terminal height is read off the same map.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .model import QUADRATIC, DriftKind, ModelParams, require
from .specfun import CgfValues, lambert_w0, safeguarded_root

_TWO_PI = 2.0 * math.pi


class SingularityMap:
    """Smallest positive singular time tau(x) and the limit CGF (A > 0).

    The domain is the real component containing x = 1: x > r2 for two real
    roots, x > r for a double root, and x > 0 for complex roots.
    """

    def __init__(self, params: ModelParams):
        self.regime = require(params, QUADRATIC, balanced=False, degenerate="accept")

    @functools.cached_property
    def _log_tau_one(self) -> float:
        """log tau(1), the normaliser of F, computed on first use."""
        return math.log(self.tau(1.0))

    @property
    def domain_low(self) -> float:
        return 0.0 if self.regime.q else self.regime.p

    def tau(self, x: float) -> float:
        if not self.domain_low < x < math.inf:
            raise DomainError(
                f"x={x} outside the singularity domain {self.domain_low} < x < inf "
                f"for {self.regime.describe()}"
            )
        regime = self.regime
        A = regime.A
        if regime.kind is DriftKind.TWO_REAL_ROOTS:
            # log((x-r1)/(x-r2)), r2 = p, written via log1p for stability at large x.
            gap = regime.p - regime.r1
            return math.log1p(gap / (x - regime.p)) / (A * gap)
        if regime.kind is DriftKind.DOUBLE_ROOT:
            return 1.0 / (A * (x - regime.p))
        # pi/2 - arctan((x-p)/q) == arctan(q/(x-p)) since x > 0 >= p here.
        return math.atan2(regime.q, x - regime.p) / (A * regime.q)

    def log_amplitude(self, x: float, tau: float) -> float:
        """log amp(x) of the blow-up w ~ amp * e^{c0 t} (1 - t/tau)^{-nu}.

        Expanding each closed form at its singular time gives the unified value
        amp(x) = (A * tau(x) * R(x))^{-nu} with R = x - r2 (two real roots),
        x - r (double root; amp is then 1 up to rounding), or hypot(x-p, q):
        the distance from x to the root that bounds the singularity domain.
        """
        regime = self.regime
        radial = math.hypot(x - regime.p, regime.q)  # x - p exactly when q = 0
        return -regime.nu * (math.log(regime.A) + math.log(tau) + math.log(radial))

    def cgf(self, theta: float) -> CgfValues:
        """F(theta) = log(tau(1)/tau(e^theta)) with F', F'', F''' and F''''.

        F'(theta) = x*chi(x), F''(theta) = x*chi(x) + x^2*chi'(x),
        F'''(theta) = x*chi + 3x^2*chi' + x^3*chi'' and F''''(theta) =
        x*chi + 7x^2*chi' + 6x^3*chi'' + x^4*chi''' at x = e^theta, with
        chi = -tau'/tau = 1/(Q tau), chi' = chi^2 - tau''/tau, tau'' = Q'/Q^2
        and chi'' = 2 chi chi' - 2A/(Q^2 tau) + 2Q'^2/(Q^3 tau) - Q'/(Q^3 tau^2).
        F''' and F'''' are written in the scale-free ratios x*Q'/Q and
        x^2*Q''/Q, so no Q^3 is formed.  DomainError, not a wrong F' or F'',
        where Q(e^theta)^2 is not a normal finite double (theta past about 177
        at A = 1, and below about -354 when r2 = 0 or -177 at a double root
        r = 0) or a value is not finite.
        """
        try:
            x = math.exp(theta)
        except OverflowError:
            x = math.inf
        A, B, C = self.regime.A, self.regime.B, self.regime.C
        q_val = (A * x + B) * x + C
        q_sq = q_val * q_val
        if not sys.float_info.min <= q_sq < math.inf:
            raise DomainError(f"theta={theta}: Q(e^theta)^2 is not a normal finite double")
        tau = self.tau(x)
        chi = (1.0 / q_val) / tau
        q_prime = 2 * A * x + B
        mean = x * chi
        x2_chi1 = x * x * (chi * chi - q_prime / q_sq / tau)
        # x^3 chi'' in the ratios r = x Q'/Q and s = x^2 Q''/Q.
        r = x * q_prime / q_val
        s = x * x * (2.0 * A) / q_val
        x3_chi2 = mean * (2.0 * x2_chi1 - s + 2.0 * r * r - mean * r)
        # x^4 chi''' from chi = 1/u, u = Q tau, whose scaled derivatives are
        # x u'/u = r - x chi, x^2 u''/u = s - r x chi and x^3 u'''/u =
        # x chi (r^2 - 2s), as tau' = -1/Q.
        p1 = r - mean
        p2 = s - r * mean
        x4_chi3 = mean * (6.0 * p1 * p2 - 6.0 * p1**3 + mean * (2.0 * s - r * r))
        values = (
            self._log_tau_one - math.log(tau),
            mean,
            mean + x2_chi1,
            mean + 3.0 * x2_chi1 + x3_chi2,
            mean + 7.0 * x2_chi1 + 6.0 * x3_chi2 + x4_chi3,
        )
        if not all(map(math.isfinite, values)):
            raise DomainError(f"theta={theta}: F or a derivative is not a finite double")
        return CgfValues(*values)


class EgfEvaluator:
    """Evaluates the balanced generating function w(x, t) in its regime."""

    def __init__(self, params: ModelParams):
        self.regime = require(params, degenerate="accept")
        self.params = params
        self.singularities = SingularityMap(params) if self.regime.is_quadratic else None

    def _eval_complex(self, x: float, t: complex | np.ndarray) -> complex | np.ndarray:
        """w(x, t) for complex t (a scalar or an array, element by element)
        with |t| inside the singular radius: the one closed form per regime.

        Powers take the principal branch; nothing here checks that the
        power base stays off the negative real axis on the contour.
        """
        params, regime = self.params, self.regime
        kind = regime.kind
        if kind is DriftKind.CONSTANT:
            quadratic = params.alpha0 * x * t + 0.5 * regime.Y * t * t
            return np.exp(quadratic + params.gamma0 * t)
        if kind is DriftKind.LINEAR:
            lam = regime.alpha0_B * (np.exp(regime.B * t) - 1.0)
            return np.exp(lam * (x + regime.C_B) + regime.a_lin * t)

        A = regime.A
        nu = regime.nu
        if kind is DriftKind.COMPLEX_ROOTS:
            phase = A * regime.q * t + math.atan((x - regime.p) / regime.q)
            base = regime.q / (math.hypot(x - regime.p, regime.q) * np.cos(phase))
            return np.exp(regime.c0 * t) * _principal_pow(base, nu)
        if kind is DriftKind.DOUBLE_ROOT:
            g = 1.0 - A * t * (x - regime.p)
            return np.exp(regime.c0 * t) * _principal_pow(g, -nu)
        grow = np.exp(A * (regime.r1 - regime.p) * t)
        denom = (x - regime.p) - (x - regime.r1) * grow
        base = (regime.r1 - regime.p) / denom
        return np.exp(regime.c0 * t) * _principal_pow(base, nu)

    def taylor_coefficients(self, x: float, n_terms: int) -> np.ndarray:
        """Coefficients of the t-expansion at fixed x, i.e. P_n(x)/n!.

        Trapezoidal contour quadrature on a circle of radius 0.5*tau(x) in
        the quadratic regimes; for A = 0 (entire in t) each coefficient gets
        its own saddle-tuned radius.  Node counts double until successive
        estimates agree to 1e-10; failure to converge raises AccuracyError.
        So does a stabilized coefficient 0 off P_0(x) = 1 by more than 1e-8.
        """
        if not 1 <= n_terms <= 30:
            raise DomainError(f"n_terms must be in 1..30, got {n_terms}")
        if not x > 0:
            raise DomainError(f"x must be positive, got {x}")
        if self.regime.is_quadratic:
            out = self._contour_coefficients(x, 0.5 * self.singularities.tau(x), n_terms)
        else:
            out = np.empty(n_terms)
            for n in range(n_terms):
                rho = modulus_saddle(self.params, x, n).t
                out[n] = self._contour_coefficients(x, rho, n + 1)[n]
        if not abs(out[0] - 1.0) <= 1e-8:
            raise AccuracyError(f"contour coefficient 0 at x={x} is {out[0]:.6g}, not P_0(x) = 1")
        return out

    def _contour_coefficients(self, x: float, rho: float, n_terms: int) -> np.ndarray:
        """Trapezoidal rule on |t| = rho with 64, 128, ... nodes.

        Each doubling evaluates only the new odd nodes, in one array call:
        node j of N is node 2j of 2N bit for bit (2*pi*(2j) is an exact
        doubling, and cos, sin and the closed form work element by element),
        so the kept samples are those a fresh rule would compute.  A radius
        whose power rho^(n_terms - 1) underflows to 0, or a sample that is
        not finite, raises DomainError.
        """
        powers = rho ** np.arange(n_terms)
        if not powers[-1] > 0:
            raise DomainError(f"contour radius {rho:g} at x={x}: rho^{n_terms - 1} underflows")

        def sample(first: int, stride: int, nodes: int) -> np.ndarray:
            phi = _TWO_PI * np.arange(first, nodes, stride) / nodes
            with np.errstate(all="ignore"):
                values = self._eval_complex(x, rho * (np.cos(phi) + 1j * np.sin(phi)))
            if not np.isfinite(values).all():
                raise DomainError(f"the closed form at x={x} is not finite on |t| = {rho:g}")
            return values

        previous = None
        nodes = 64
        samples = sample(0, 1, nodes)
        while True:
            spectrum = np.fft.fft(samples)[:n_terms]
            coeffs = spectrum.real / (nodes * powers)
            if previous is not None:
                scale = np.maximum(np.abs(coeffs), 1e-300)
                if np.max(np.abs(coeffs - previous) / scale) <= 1e-10:
                    return coeffs
            if nodes == 1 << 15:
                raise AccuracyError(
                    f"contour quadrature for {n_terms} coefficients at x={x} did not "
                    "stabilize to 1e-10"
                )
            previous = coeffs
            nodes *= 2
            merged = np.empty(nodes, dtype=complex)
            merged[0::2], merged[1::2] = samples, sample(1, 2, nodes)
            samples = merged


@dataclass(frozen=True)
class ModulusSaddle:
    """The A = 0 modulus saddle t and the Laplace data there (`modulus_saddle`)."""

    t: float
    log_w: float
    curvature: float


def modulus_saddle(params: ModelParams, x: float, n: int) -> ModulusSaddle:
    """The A = 0 modulus saddle t > 0 of w(x, t)/t^{n+1}, where
    t * d/dt log w(x, t) = n + 1, with log w and the t-curvature of
    log w - (n+1) log t there.

    Constant drift: log w = X t + Y t^2/2 with X = alpha0*x + gamma0 and
    Y = alpha0*C, and t in closed form.  Linear drift: log w = a_lin t +
    (x + C/B)(alpha0/B)(e^{B t} - 1) with a_lin = gamma0 - alpha0*C/B, and t
    by `safeguarded_root` from W(n/y)/B, y = (alpha0/B)(x + C/B).  Y, C/B,
    alpha0/B and a_lin come from `Regime`.  With alpha0 = 0, log w =
    gamma0 t and t = (n+1)/gamma0, or 1.0 when w is constant (gamma0 = 0).
    Unbalanced and A > 0 models raise RegimeError; x <= 0, x = inf, an
    e^{B t} past the doubles at a Newton step and Laplace data that is not
    finite (t^2 underflows at x near 1e300) raise DomainError.
    """
    regime = require(params, (DriftKind.CONSTANT, DriftKind.LINEAR), degenerate="accept")
    if not 0 < x < math.inf:
        raise DomainError(f"x must be positive and finite, got {x}")
    if params.alpha0 == 0:
        t = (n + 1) / params.gamma0 if params.gamma0 else 1.0
        return _laplace_data(n, t, params.gamma0 * t, 0.0)
    B, Y, a_lin = regime.B, regime.Y, regime.a_lin
    if regime.kind is DriftKind.CONSTANT:
        X = params.alpha0 * x + params.gamma0
        if Y == 0:
            t = (n + 1) / X
        else:
            t = (-X + math.sqrt(X * X + 4.0 * Y * (n + 1))) / (2.0 * Y)
        return _laplace_data(n, t, X * t + 0.5 * Y * t * t, Y)
    y = regime.alpha0_B * (x + regime.C_B)

    def excess(t: float) -> tuple[float, float]:
        grow = B * y * math.exp(B * t)
        return t * (a_lin + grow) - (n + 1), a_lin + grow * (1.0 + B * t)

    # excess(0) = -(n + 1) and excess is convex for t > 0, so it has one
    # positive root.  Below it the steps go up; above it a Newton step on a
    # convex function stays above it, so no point reaches t <= 0.  The
    # tolerance keeps the residual a decade inside 1e-12 * (n + 1).
    try:
        t, _ = safeguarded_root(excess, lambert_w0(n / y) / B, tol=1e-13 * (n + 1), limit=1e9)
    except OverflowError:  # e^{B t} at a Newton step
        raise DomainError(f"e^(B t) overflows on the way to the modulus saddle at x={x}") from None
    lam = regime.alpha0_B * math.expm1(B * t)
    return _laplace_data(n, t, a_lin * t + (regime.C_B + x) * lam, B * B * y * math.exp(B * t))


def _laplace_data(n: int, t: float, log_w: float, bend: float) -> ModulusSaddle:
    """The record at t, curvature bend + (n+1)/t^2; DomainError if not finite."""
    square = t * t
    curvature = bend + (n + 1) / square if square else math.inf
    if not (math.isfinite(log_w) and math.isfinite(curvature)):
        raise DomainError(f"Laplace data at the modulus saddle t={t:g} is not finite")
    return ModulusSaddle(t, log_w, curvature)


def _principal_pow(base: complex | np.ndarray, exponent: float) -> complex | np.ndarray:
    return np.exp(exponent * np.log(base))
