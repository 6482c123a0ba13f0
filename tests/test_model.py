import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import wmotzkin as wm
from wmotzkin import (
    ConfigError,
    DomainError,
    DriftKind,
    ModelParams,
    RegimeError,
    classify,
    is_balanced,
)
from wmotzkin.closedform import modulus_saddle
from oracles import parametrized_profile, uniform_error_applies
from corpus import CORPUS, DEGENERATE, DEGENERATE_QUADRATIC, SHOWCASE

nonneg = st.integers(min_value=0, max_value=9)
params_strategy = st.builds(ModelParams, nonneg, nonneg, nonneg, nonneg, nonneg, nonneg)


def test_classify_showcase():
    regime = classify(SHOWCASE)
    assert regime.kind is DriftKind.TWO_REAL_ROOTS
    assert regime.r1 == -5.0
    assert (regime.p, regime.q) == (-1.0, 0.0)
    assert regime.nu == 8.0
    assert regime.c0 == -39.0


def test_classify_constant():
    assert classify(ModelParams(0, 0, 0, 1, 1, 1)).kind is DriftKind.CONSTANT


def test_classify_double_root():
    regime = classify(ModelParams(1, 1, 2, 1, 1, 0))
    assert regime.kind is DriftKind.DOUBLE_ROOT
    assert (regime.p, regime.q) == (-1.0, 0.0)
    assert regime.nu == 1.0
    assert regime.c0 == -1.0


def test_classify_linear_and_complex():
    assert classify(ModelParams(0, 1, 2, 1, 1, 1)).kind is DriftKind.LINEAR
    regime = classify(ModelParams(1, 1, 0, 1, 1, 1))
    assert regime.kind is DriftKind.COMPLEX_ROOTS
    assert regime.p == 0.0
    assert regime.q == 1.0


def test_is_balanced():
    assert is_balanced(SHOWCASE)
    assert not is_balanced(ModelParams(0, 0, 0, 1, 1, 1))
    assert is_balanced(ModelParams(1, 1, 2, 1, 1, 0))


def _step_weights(params, k):
    """(alpha_k, beta_k, gamma_k): the up, down and level weights at height k."""
    return (params.up_weight(k), params.down_weight(k), params.level_weight(k))


def test_step_weights_examples():
    assert _step_weights(SHOWCASE, 0) == (8, 5, 1)
    assert _step_weights(SHOWCASE, 3) == (11, 20, 19)
    for k in (0, 2, 7):
        assert _step_weights(ModelParams(0, 0, 0, 1, 1, 1), k) == (1, 1, 1)


@given(params_strategy, st.integers(min_value=0, max_value=50))
def test_step_weights_affine(params, k):
    a0, b0, g0 = _step_weights(params, k)
    a1, b1, g1 = _step_weights(params, k + 1)
    assert (a1 - a0, b1 - b0, g1 - g0) == (params.a, params.b, params.c)


@given(params_strategy)
def test_classify_total_and_exclusive(params):
    regime = classify(params)
    A, B = params.a, params.c
    assert (regime.A, regime.B, regime.C) == (params.a, params.c, params.b)
    delta = regime.B * regime.B - 4 * regime.A * regime.C
    if A == 0 and B == 0:
        assert regime.kind is DriftKind.CONSTANT
    elif A == 0:
        assert regime.kind is DriftKind.LINEAR
    elif delta > 0:
        assert regime.kind is DriftKind.TWO_REAL_ROOTS
    elif delta == 0:
        assert regime.kind is DriftKind.DOUBLE_ROOT
    else:
        assert regime.kind is DriftKind.COMPLEX_ROOTS


@given(params_strategy)
def test_balanced_iff_beta0_equals_b(params):
    assert is_balanced(params) == (params.beta0 == params.b)


def test_two_real_roots_invariants():
    for params in CORPUS:
        regime = classify(params)
        if regime.kind is not DriftKind.TWO_REAL_ROOTS:
            continue
        A, B, C = regime.A, regime.B, regime.C
        assert regime.r1 < regime.p  # p is the big root r2
        assert regime.p <= 1e-12  # nonnegative B, C force the big root <= 0
        assert abs(regime.r1 + regime.p + B / A) <= 1e-12 * max(1.0, abs(B / A))
        assert abs(regime.r1 * regime.p - C / A) <= 1e-12 * max(1.0, abs(C / A))


def test_regime_constants_per_kind():
    for params in CORPUS:
        regime = classify(params)
        if regime.kind is DriftKind.DOUBLE_ROOT:
            assert (regime.p, regime.q) == (-regime.B / (2 * regime.A), 0.0)
        if regime.kind is DriftKind.TWO_REAL_ROOTS:
            sqrt_delta = math.sqrt(regime.B**2 - 4 * regime.A * regime.C)
            assert (regime.p, regime.q) == ((sqrt_delta - regime.B) / (2 * regime.A), 0.0)
        if regime.kind is DriftKind.COMPLEX_ROOTS:
            assert regime.q > 0
            assert regime.p == -regime.B / (2 * regime.A)
        if regime.is_quadratic:
            assert regime.nu == float(Fraction(params.alpha0, regime.A))
            continue
        # A = 0: the closed-form constants, each a double near its exact value
        B, C = regime.B, regime.C
        assert regime.Y == params.alpha0 * C
        if regime.kind is DriftKind.LINEAR:
            assert regime.alpha0_B == float(Fraction(params.alpha0, B))
            assert regime.C_B == float(Fraction(C, B))
            exact = params.gamma0 - Fraction(params.alpha0 * C, B)
            assert math.isclose(regime.a_lin, exact, rel_tol=1e-15, abs_tol=1e-15)
        else:
            assert regime.alpha0_B is regime.C_B is regime.a_lin is None


def test_alpha0_C_past_the_doubles_refused_for_A_zero_only():
    # A = 0 constants all lie within alpha0*C of 0 (C >= 0, B >= 1), so
    # classify's one finite-double guard covers alpha0*C; A > 0 reads none.
    for params in (ModelParams(0, 2**895, 2**143, 2**699, 2**895, 2**797),
                   ModelParams(0, 2**102, 0, 2**953, 2**102, 0)):
        with pytest.raises(DomainError, match=r"^alpha0\*C of .* is not a finite double$"):
            classify(params)
    regime = classify(ModelParams(1, 2**600, 2**300, 2**600, 2**600, 1))
    assert regime.kind is DriftKind.COMPLEX_ROOTS and regime.Y is None


def test_root_divisor_past_the_doubles_refused():
    # 2A divides every root: at A = 2^1023 it is no double, although A and
    # B^2 - 4AC are, on two real roots and on a double root alike.
    for params in (ModelParams(2**1023, 0, 1, 1, 0, 1), ModelParams(2**1023, 0, 0, 1, 0, 1)):
        with pytest.raises(DomainError, match=r"^2A of .* is not a finite double$"):
            classify(params)
    regime = classify(ModelParams(2**1022, 0, 1, 1, 0, 1))
    assert (regime.kind, regime.r1, regime.p) == (DriftKind.TWO_REAL_ROOTS, -(2.0**-1022), 0.0)


def test_validation_rejects_bad_values():
    with pytest.raises(DomainError):
        ModelParams(-1, 0, 0, 1, 1, 1)
    with pytest.raises(DomainError):
        ModelParams(1, 0, 0, 1, 1, 1.5)
    # from_dict re-raises the constructor's DomainError as a ConfigError.
    for bad in (-1, 1.0, 1.5, True, math.inf, "1"):
        with pytest.raises(ConfigError, match="must be"):
            ModelParams.from_dict({**SHOWCASE.to_dict(), "a": bad})


def test_degenerate_flagged_but_accepted():
    assert DEGENERATE.is_degenerate
    assert not SHOWCASE.is_degenerate


def test_parse_key_value_and_json():
    parsed = ModelParams.parse("a=1 b=5 c=6 alpha0=8 beta0=5 gamma0=1")
    assert parsed == SHOWCASE
    parsed = ModelParams.parse("a=1, b=5, c=6, alpha0=8, beta0=5, gamma0=1")
    assert parsed == SHOWCASE
    parsed = ModelParams.parse(json.dumps(SHOWCASE.to_dict()))
    assert parsed == SHOWCASE


def test_parse_errors():
    with pytest.raises(ConfigError):
        ModelParams.parse("a=1 b=2")
    with pytest.raises(ConfigError):
        ModelParams.parse("a=1 b=2 c=3 alpha0=1 beta0=1 gamma0=1 zeta=2")
    with pytest.raises(ConfigError):
        ModelParams.parse("")
    with pytest.raises(ConfigError):
        ModelParams.parse("{not json")
    with pytest.raises(ConfigError, match="a must be an integer, got 'x'"):
        ModelParams.parse("a=x b=0 c=0 alpha0=1 beta0=0 gamma0=1")


def test_regime_describe():
    assert classify(ModelParams(1, 1, 2, 1, 1, 0)).describe() == "double root (r=-1)"
    assert classify(ModelParams(0, 0, 0, 1, 1, 1)).describe() == "constant"
    assert classify(ModelParams(0, 1, 1, 1, 1, 1)).describe() == "linear"


# Every public routine behind the regime guard, in the column order of
# GUARD_TABLE below.
GUARDED = [
    wm.EgfEvaluator,
    wm.SingularityMap,
    lambda p: modulus_saddle(p, 1.0, 10),
    lambda p: wm.log_pn_quadratic(p, 1.0, 20),
    lambda p: wm.asymptotic_moments(p, 20),
    lambda p: wm.log_pn_constant_drift(p, 1.0, 20),
    lambda p: wm.log_pn_constant_drift_exact(p, 1.0, 20),
    lambda p: wm.constant_drift_moments(p, 20),
    lambda p: wm.log_pn_linear_drift(p, 1.0, 20),
    lambda p: wm.limit_cgf(p, 0.3),
    lambda p: wm.rate_function(p, 0.4),
    lambda p: wm.rate_profile(p, [0.4]),
    lambda p: parametrized_profile(p, [2.0]),
]
OUTCOME = {".": None, "R": RegimeError, "D": DomainError}

# {test id: (model, outcome per GUARDED routine: "." returns, "R" RegimeError,
# "D" DomainError, uniform_error_applies)}; balanced then unbalanced per regime.
GUARD_TABLE = {
    "constant": ((0, 2, 0, 3, 2, 1), ".R.RR...RRRRR", False),
    "constant-unbalanced": ((0, 0, 0, 1, 1, 1), "RRRRRRRRRRRRR", False),
    "linear": ((0, 1, 1, 1, 1, 1), ".R.RRRRR.RRRR", False),
    "linear-unbalanced": ((0, 1, 2, 1, 0, 1), "RRRRRRRRRRRRR", False),
    "two-real-roots": ((1, 5, 6, 8, 5, 1), "..R..RRRR....", True),
    # SingularityMap skips the balance check.
    "two-real-roots-unbalanced": ((1, 5, 6, 8, 3, 1), "R.RRRRRRRRRRR", False),
    "double-root": ((1, 1, 2, 1, 1, 0), "..R..RRRR....", True),
    "double-root-unbalanced": ((1, 1, 2, 2, 0, 1), "R.RRRRRRRRRRR", False),
    "complex-roots-c0": ((1, 1, 0, 1, 1, 1), "..R..RRRR....", False),
    "complex-roots-unbalanced": ((1, 1, 1, 1, 0, 2), "R.RRRRRRRRRRR", False),
    # alpha0 = 0 with gamma0 > 0, at A = 0 and at A > 0.
    "degenerate": (DEGENERATE.as_tuple(), ".R.DD...DDDDD", False),
    "degenerate-quadratic": (DEGENERATE_QUADRATIC.as_tuple(), "..RDDRRRDDDDD", False),
    "no-path": ((0, 1, 0, 0, 1, 0), ".R.DDDDDDDDDD", False),  # alpha0 = gamma0 = 0
}


@pytest.mark.parametrize(
    "model, outcomes, uniform", list(GUARD_TABLE.values()), ids=list(GUARD_TABLE)
)
def test_guarded_routine_outcomes(model, outcomes, uniform):
    params = ModelParams(*model)
    assert len(outcomes) == len(GUARDED)
    for routine, outcome in zip(GUARDED, outcomes):
        error = OUTCOME[outcome]
        if error is None:
            routine(params)
        else:
            with pytest.raises(error):
                routine(params)
    assert uniform_error_applies(params) is uniform


def test_constant_drift_point_mass_answers():
    # alpha0 = 0 with gamma0 > 0: P_n(x) = gamma0^n, a point mass at height 0.
    assert math.isclose(
        wm.log_pn_constant_drift_exact(DEGENERATE, 1.0, 50), 50 * math.log(2.0), rel_tol=1e-15
    )
    assert wm.constant_drift_moments(DEGENERATE, 50) == (0.0, 0.0)
