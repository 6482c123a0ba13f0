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

import cmath
import functools
import math
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
        self.params = params
        self.regime = require(params, QUADRATIC, balanced=False, degenerate="accept")

    @functools.cached_property
    def _log_tau_one(self) -> float:
        """log tau(1), the normaliser of F, computed on first use."""
        return math.log(self.tau(1.0))

    @property
    def domain_low(self) -> float:
        regime = self.regime
        if regime.kind is DriftKind.TWO_REAL_ROOTS:
            return regime.r2
        if regime.kind is DriftKind.DOUBLE_ROOT:
            return regime.r
        return 0.0

    def tau(self, x: float) -> float:
        if not self.domain_low < x < math.inf:
            raise DomainError(
                f"x={x} outside the singularity domain {self.domain_low} < x < inf "
                f"for {self.regime.describe()}"
            )
        regime = self.regime
        A = regime.coeffs.A
        if regime.kind is DriftKind.TWO_REAL_ROOTS:
            # log((x-r1)/(x-r2)) written via log1p for stability at large x.
            return math.log1p((regime.r2 - regime.r1) / (x - regime.r2)) / (
                A * (regime.r2 - regime.r1)
            )
        if regime.kind is DriftKind.DOUBLE_ROOT:
            return 1.0 / (A * (x - regime.r))
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
        if regime.kind is DriftKind.COMPLEX_ROOTS:
            radial = math.hypot(x - regime.p, regime.q)
        else:
            radial = x - self.domain_low
        return -regime.nu * (math.log(regime.coeffs.A) + math.log(tau) + math.log(radial))

    def cgf(self, theta: float) -> CgfValues:
        """F(theta) = log(tau(1)/tau(e^theta)) with F' and F''.

        F'(theta) = x*chi(x) and F''(theta) = x*chi(x) + x^2*chi'(x) at
        x = e^theta, with chi = -tau'/tau = 1/(Q tau), chi' = chi^2 - tau''/tau
        and tau'' = Q'/Q^2.  DomainError, not a wrong F' or F'', where e^theta
        or Q(e^theta)^2 is no finite double (theta past about 177 at A = 1).
        """
        try:
            x = math.exp(theta)
        except OverflowError:
            x = math.inf
        q_val = self.regime.coeffs.poly(x)
        q_sq = q_val * q_val
        if not math.isfinite(q_sq):
            raise DomainError(f"theta={theta}: Q(e^theta)^2 is not a finite double")
        tau = self.tau(x)
        chi = (1.0 / q_val) / tau
        chi_prime = chi * chi - self.regime.coeffs.poly_deriv(x) / q_sq / tau
        return CgfValues(
            value=self._log_tau_one - math.log(tau),
            deriv1=x * chi,
            deriv2=x * chi + x * x * chi_prime,
        )


class EgfEvaluator:
    """Evaluates the balanced generating function w(x, t) in its regime."""

    def __init__(self, params: ModelParams):
        self.regime = require(params, degenerate="accept")
        self.params = params
        self.singularities = SingularityMap(params) if self.regime.is_quadratic else None

    def eval(self, x: float, t: float) -> float:
        """w(x, t) for real arguments inside the validity region.

        Quadratic regimes require t < tau(x), and complex roots also
        t > tau(x) - pi/(A q), where the cosine phase reaches -pi/2; for
        A = 0 the function is entire in t.  The value is the real part of
        the contour's closed form.  Non-finite x or t raises DomainError.
        """
        if not (math.isfinite(x) and math.isfinite(t)):
            raise DomainError(f"(x={x}, t={t}) is not a finite point")
        regime = self.regime
        if regime.is_quadratic:
            tau = self.singularities.tau(x)
            low = -math.inf
            if regime.kind is DriftKind.COMPLEX_ROOTS:  # phase A*q*(t - tau) + pi/2
                low = tau - math.pi / (regime.coeffs.A * regime.q)
            if not low < t < tau:
                raise DomainError(f"t={t} outside the validity window ({low}, {tau}) at x={x}")
        return self._eval_complex(x, t).real

    def _eval_complex(self, x: float, t: complex) -> complex:
        """w(x, t) for complex t with |t| inside the singular radius: the one
        closed form per regime.

        Powers take the principal branch; nothing here checks that the
        power base stays off the negative real axis on the contour.
        """
        params = self.params
        regime = self.regime
        kind = regime.kind
        if kind is DriftKind.CONSTANT:
            C = regime.coeffs.C
            return cmath.exp(
                params.alpha0 * x * t
                + 0.5 * params.alpha0 * C * t * t
                + params.gamma0 * t
            )
        if kind is DriftKind.LINEAR:
            B = regime.coeffs.B
            C = regime.coeffs.C
            lam = (params.alpha0 / B) * (cmath.exp(B * t) - 1.0)
            return cmath.exp(lam * (x + C / B) + (params.gamma0 - params.alpha0 * C / B) * t)

        A = regime.coeffs.A
        nu = regime.nu
        if kind is DriftKind.COMPLEX_ROOTS:
            phase = A * regime.q * t + math.atan((x - regime.p) / regime.q)
            base = regime.q / (math.hypot(x - regime.p, regime.q) * cmath.cos(phase))
            return cmath.exp(regime.c0 * t) * _principal_pow(base, nu)
        if kind is DriftKind.DOUBLE_ROOT:
            g = 1.0 - A * t * (x - regime.r)
            return cmath.exp(regime.c0 * t) * _principal_pow(g, -nu)
        grow = cmath.exp(A * (regime.r1 - regime.r2) * t)
        denom = (x - regime.r2) - (x - regime.r1) * grow
        base = (regime.r1 - regime.r2) / denom
        return cmath.exp(regime.c0 * t) * _principal_pow(base, nu)

    def taylor_coefficients(self, x: float, n_terms: int) -> np.ndarray:
        """Coefficients of the t-expansion at fixed x, i.e. P_n(x)/n!.

        Trapezoidal contour quadrature on a circle of radius 0.5*tau(x) in
        the quadratic regimes; for A = 0 (entire in t) each coefficient gets
        its own saddle-tuned radius.  Node counts double until successive
        estimates agree to 1e-10; failure to converge raises AccuracyError.
        """
        if not 1 <= n_terms <= 30:
            raise DomainError(f"n_terms must be in 1..30, got {n_terms}")
        if not x > 0:
            raise DomainError(f"x must be positive, got {x}")
        if self.regime.is_quadratic:
            rho = 0.5 * self.singularities.tau(x)
            return self._contour_coefficients(x, rho, n_terms)
        out = np.empty(n_terms)
        for n in range(n_terms):
            rho = modulus_saddle(self.params, x, n).t
            out[n] = self._contour_coefficients(x, rho, n + 1)[n]
        return out

    def _contour_coefficients(self, x: float, rho: float, n_terms: int) -> np.ndarray:
        """Trapezoidal rule on |t| = rho with 64, 128, ... nodes.

        Each doubling evaluates only the new odd nodes: node j of N is node
        2j of 2N bit for bit (2*pi*(2j) is an exact doubling), so the kept
        samples are those a fresh rule would compute.
        """

        def sample(js: range, nodes: int) -> np.ndarray:
            return np.array(
                [self._eval_complex(x, cmath.rect(rho, _TWO_PI * j / nodes)) for j in js]
            )

        previous = None
        nodes = 64
        samples = sample(range(nodes), nodes)
        while True:
            spectrum = np.fft.fft(samples)[:n_terms]
            coeffs = spectrum.real / (nodes * rho ** np.arange(n_terms))
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
            merged[0::2], merged[1::2] = samples, sample(range(1, nodes, 2), nodes)
            samples = merged


@dataclass(frozen=True)
class ModulusSaddle:
    """The A = 0 modulus saddle t and the Laplace data there (`modulus_saddle`)."""

    t: float
    seed: float
    log_w: float
    curvature: float


def modulus_saddle(params: ModelParams, x: float, n: int) -> ModulusSaddle:
    """The A = 0 modulus saddle t > 0 of w(x, t)/t^{n+1}, where
    t * d/dt log w(x, t) = n + 1, with log w and the t-curvature of
    log w - (n+1) log t there.

    Constant drift: log w = X t + Y t^2/2 with X = alpha0*x + gamma0 and
    Y = alpha0*C, and t in closed form.  Linear drift: log w = a_lin t +
    (x + C/B)(alpha0/B)(e^{B t} - 1) with a_lin = gamma0 - alpha0*C/B, and t
    by `safeguarded_root` from the seed W(n/y)/B, y = (alpha0/B)(x + C/B).
    With alpha0 = 0, log w = gamma0 t and t = (n+1)/gamma0, or 1.0 when w is
    constant (gamma0 = 0).  The seed is t except in the linear case.
    Unbalanced and A > 0 models raise RegimeError; x <= 0 and x = inf raise
    DomainError.
    """
    regime = require(params, (DriftKind.CONSTANT, DriftKind.LINEAR), degenerate="accept")
    if not 0 < x < math.inf:
        raise DomainError(f"x must be positive and finite, got {x}")
    if params.alpha0 == 0:
        t = (n + 1) / params.gamma0 if params.gamma0 else 1.0
        return ModulusSaddle(t, t, params.gamma0 * t, (n + 1) / (t * t))
    B, C = regime.coeffs.B, regime.coeffs.C
    if regime.kind is DriftKind.CONSTANT:
        X = params.alpha0 * x + params.gamma0
        Y = params.alpha0 * C
        if Y == 0:
            t = (n + 1) / X
        else:
            t = (-X + math.sqrt(X * X + 4.0 * Y * (n + 1))) / (2.0 * Y)
        return ModulusSaddle(t, t, X * t + 0.5 * Y * t * t, Y + (n + 1) / (t * t))
    y = (params.alpha0 / B) * (x + C / B)
    a_lin = params.gamma0 - params.alpha0 * C / B
    seed = lambert_w0(n / y) / B

    def excess(t: float) -> tuple[float, float]:
        grow = B * y * math.exp(B * t)
        return t * (a_lin + grow) - (n + 1), a_lin + grow * (1.0 + B * t)

    # excess(seed) = a_lin*seed - 1, so the bracket reaches t <= 0 only when
    # a_lin > 0, and then excess < 0 there: the root found is the positive one.
    # The tolerance keeps the residual a decade inside 1e-12 * (n + 1).
    t, _ = safeguarded_root(excess, seed, tol=1e-13 * (n + 1), limit=1e9)
    lam = (params.alpha0 / B) * math.expm1(B * t)
    curvature = B * B * y * math.exp(B * t) + (n + 1) / (t * t)
    return ModulusSaddle(t, seed, a_lin * t + (C / B + x) * lam, curvature)


def _principal_pow(base: complex, exponent: float) -> complex:
    return cmath.exp(exponent * cmath.log(base))
