"""Model parameters, drift classification, and step weights.

A path of length n is a walk on the nonnegative integers using up, level,
and down steps.  Step weights vary affinely with the current height:

    up      alpha_k = a*k + alpha0   (leaving height k)
    down    beta_k  = b*k + beta0    (arriving at height k)
    level   gamma_k = c*k + gamma0   (staying at height k)

The quadratic drift polynomial Q(x) = A*x^2 + B*x + C with A = a, B = c,
C = b controls all asymptotics; the sign of its discriminant picks one of
five regimes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal

from .errors import ConfigError, DomainError, RegimeError

PARAM_NAMES = ("a", "b", "c", "alpha0", "beta0", "gamma0")


@dataclass(frozen=True)
class ModelParams:
    """The six nonnegative integer step-weight coefficients."""

    a: int
    b: int
    c: int
    alpha0: int
    beta0: int
    gamma0: int

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise DomainError(f"{name} must be nonnegative, got {value}")

    @property
    def is_degenerate(self) -> bool:
        """True when the up-step leaving height 0 has zero weight.

        The walk then never leaves height 0 (point mass), whatever `a` is.
        The exact engine accepts this; asymptotic and large-deviation
        routines refuse it.
        """
        return self.alpha0 == 0

    # The step weights at height k, an int or a float array of heights.
    def up_weight(self, k: int) -> int:
        return self.a * k + self.alpha0

    def down_weight(self, k: int) -> int:
        return self.b * k + self.beta0

    def level_weight(self, k: int) -> int:
        return self.c * k + self.gamma0

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.c, self.alpha0, self.beta0, self.gamma0)

    def to_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        unknown = set(data) - set(PARAM_NAMES)
        if unknown:
            raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
        missing = set(PARAM_NAMES) - set(data)
        if missing:
            raise ConfigError(f"missing parameter keys: {sorted(missing)}")
        try:
            return cls(**{name: data[name] for name in PARAM_NAMES})
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def parse(cls, text: str) -> "ModelParams":
        """Parse `a=1 b=5 c=6 alpha0=8 beta0=5 gamma0=1` or the JSON equivalent."""
        stripped = text.strip()
        if not stripped:
            raise ConfigError("empty parameter string")
        if stripped.startswith("{"):
            try:
                data = json.loads(stripped, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON parameters: {exc}") from exc
            return cls.from_dict(data)
        pairs = []
        for token in stripped.replace(",", " ").split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ConfigError(f"expected key=value, got {token!r}")
            try:
                pairs.append((key.strip(), int(value)))
            except ValueError as exc:
                raise ConfigError(f"{key} must be an integer, got {value!r}") from exc
        return cls.from_dict(_unique_keys(pairs))


def _unique_keys(pairs: Iterable[tuple[str, object]]) -> dict:
    """`pairs` as a dict; ConfigError when a key repeats."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"parameter key {key!r} is given more than once")
        data[key] = value
    return data


def is_balanced(params: ModelParams) -> bool:
    """True when the down-step intercept equals the drift constant (beta0 == b)."""
    return params.beta0 == params.b


class DriftKind(Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    TWO_REAL_ROOTS = "two_real_roots"
    DOUBLE_ROOT = "double_root"
    COMPLEX_ROOTS = "complex_roots"


QUADRATIC = (DriftKind.TWO_REAL_ROOTS, DriftKind.DOUBLE_ROOT, DriftKind.COMPLEX_ROOTS)


@dataclass(frozen=True)
class Regime:
    """Drift classification plus every constant the closed forms and the
    estimates read, each computed once by `classify`.

    A, B and C are the coefficients of the drift Q(x) = A*x^2 + B*x + C.
    A = 0 kinds carry Y = alpha0*C, and linear drift also alpha0/B, C/B
    and a_lin = gamma0 - alpha0*C/B.  Quadratic kinds carry nu = alpha0/A,
    the exponential prefactor rate c0, the lead root r1 < p of two real
    roots and the root p +/- i*q that bounds the singularity domain: r2 or
    the double root r with q = 0, or the complex pair with q > 0.
    """

    kind: DriftKind
    A: int
    B: int
    C: int
    Y: float | None = None
    alpha0_B: float | None = None
    C_B: float | None = None
    a_lin: float | None = None
    r1: float | None = None
    p: float | None = None
    q: float | None = None
    nu: float | None = None
    c0: float | None = None

    @property
    def is_quadratic(self) -> bool:
        return self.kind in QUADRATIC

    def describe(self) -> str:
        if self.kind is DriftKind.TWO_REAL_ROOTS:
            return f"two real roots (r1={self.r1:g}, r2={self.p:g})"
        if self.kind is DriftKind.DOUBLE_ROOT:
            return f"double root (r={self.p:g})"
        if self.kind is DriftKind.COMPLEX_ROOTS:
            return f"complex roots (p={self.p:g}, q={self.q:g})"
        return self.kind.value


def classify(params: ModelParams) -> Regime:
    """Classify the drift regime of a parameter set.

    The branch is decided on the exact integer discriminant, so regime
    selection never suffers floating-point ambiguity; the derived constants
    are doubles, so DomainError when a parameter, the discriminant, 2A (the
    divisor of every root) or alpha0*C (A = 0: it bounds every A = 0
    constant) is not a finite double.
    """
    A, B, C = params.a, params.c, params.b
    delta = B * B - 4 * A * C
    checks = [("a coefficient or B^2 - 4AC", v) for v in (*params.as_tuple(), delta)]
    for what, value in checks + [("2A", 2 * A) if A else ("alpha0*C", params.alpha0 * C)]:
        try:
            float(value)
        except OverflowError:
            raise DomainError(f"{what} of {params.as_tuple()} is not a finite double") from None
    if A == 0:
        linear = {"alpha0_B": params.alpha0 / B, "C_B": C / B,
                  "a_lin": params.gamma0 - params.alpha0 * C / B} if B else {}
        kind = DriftKind.LINEAR if B else DriftKind.CONSTANT
        return Regime(kind, A, B, C, Y=float(params.alpha0 * C), **linear)
    if delta > 0:  # the lead root, r1 here and p otherwise, sets the prefactor rate c0
        sqrt_delta = math.sqrt(delta)
        r1, p, q = (-B - sqrt_delta) / (2 * A), (-B + sqrt_delta) / (2 * A), 0.0
        kind, lead = DriftKind.TWO_REAL_ROOTS, r1
    else:  # p +/- iq, one double root p when q = 0
        r1, p, q = None, -B / (2 * A), math.sqrt(-delta) / (2 * A)
        kind, lead = DriftKind.COMPLEX_ROOTS if delta else DriftKind.DOUBLE_ROOT, p
    c0 = params.alpha0 * lead + params.gamma0
    return Regime(kind, A, B, C, r1=r1, p=p, q=q, nu=params.alpha0 / A, c0=c0)


def require(
    params: ModelParams,
    kinds: Iterable[DriftKind] = DriftKind,
    *,
    balanced: bool = True,
    degenerate: Literal["refuse", "weighted", "accept"] = "refuse",
) -> Regime:
    """The regime of `params`, or the error of a routine defined on `kinds`.

    Balance (beta0 == b) and a drift kind outside `kinds` raise RegimeError.
    `degenerate` rules on alpha0 = 0, where the walk never leaves height 0:
    "refuse" raises DomainError before any regime check; "weighted" accepts
    it, after the regime checks, when the level weight gamma0 > 0 carries
    P_n = gamma0^n; "accept" takes every model.
    """
    if degenerate == "refuse" and params.is_degenerate:
        raise DomainError("degenerate model (alpha0 = 0): height is a point mass at 0")
    if balanced and not is_balanced(params):
        raise RegimeError(
            f"requires balanced parameters (beta0 == b); "
            f"got beta0={params.beta0}, b={params.b}"
        )
    regime = classify(params)
    kinds = tuple(kinds)
    if regime.kind not in kinds:
        expected = "/".join(k.value for k in kinds)
        raise RegimeError(f"expected {expected} drift, got {regime.kind.value}")
    if degenerate == "weighted" and params.alpha0 == 0 and params.gamma0 == 0:
        raise DomainError("degenerate constant drift: alpha0 = gamma0 = 0")
    return regime
