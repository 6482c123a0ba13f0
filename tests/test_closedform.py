import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wmotzkin import (
    AccuracyError,
    DomainError,
    EgfEvaluator,
    ModelParams,
    RegimeError,
    SingularityMap,
    build_triangle,
    log_pn_quadratic,
)
from wmotzkin.closedform import modulus_saddle
from corpus import (
    COMPLEX_UNIT,
    CONSTANT_BALANCED,
    DOUBLE_ROOT,
    LINEAR_BALANCED,
    SHOWCASE,
    balanced_corpus,
    balanced_quadratic,
)
from oracles import egf_value


def test_requires_balanced():
    with pytest.raises(RegimeError):
        EgfEvaluator(ModelParams(0, 0, 0, 1, 1, 1))  # beta0 != b


def test_initial_condition():
    for params in balanced_corpus():
        assert math.isclose(egf_value(params, 1.3, 0.0), 1.0, rel_tol=1e-14)


def test_double_root_value():
    assert math.isclose(egf_value(DOUBLE_ROOT, 1.0, 0.25), 2.0 * math.exp(-0.25), rel_tol=1e-14)


def test_constant_value():
    params = ModelParams(0, 0, 0, 1, 0, 1)
    assert math.isclose(egf_value(params, 2.0, 0.5), math.exp(1.5), rel_tol=1e-14)


def test_linear_value():
    # B=1, C=1, alpha0=1, gamma0=1: exponent (e^t - 1)(x + 1) + 0*t at t=log 2.
    t = math.log(2.0)
    assert math.isclose(egf_value(ModelParams(0, 1, 1, 1, 1, 1), 2.0, t), math.exp(3.0),
                        rel_tol=1e-13)


def test_tau_values():
    assert math.isclose(SingularityMap(SHOWCASE).tau(1.0), math.log(3.0) / 4.0, rel_tol=1e-14)
    assert math.isclose(SingularityMap(DOUBLE_ROOT).tau(1.0), 0.5, rel_tol=1e-14)
    # p=0, q=1: tau -> pi/2 as x -> 0+.
    assert math.isclose(SingularityMap(COMPLEX_UNIT).tau(1e-14), math.pi / 2.0, rel_tol=1e-12)


def test_tau_regime_and_domain_errors():
    with pytest.raises(RegimeError):
        SingularityMap(ModelParams(0, 1, 1, 1, 1, 1))
    smap = SingularityMap(SHOWCASE)
    with pytest.raises(DomainError):
        smap.tau(-1.0)  # r2 = -1 bounds the component
    with pytest.raises(DomainError):
        SingularityMap(COMPLEX_UNIT).tau(0.0)


def test_tau_derivative_values():
    # At x = 1 (theta = 0): F' = chi = -tau'/tau and F'' = chi + chi^2 - tau''/tau.
    smap = SingularityMap(SHOWCASE)
    cgf = smap.cgf(0.0)
    assert math.isclose(cgf.deriv1 * smap.tau(1.0), 1.0 / 12.0, rel_tol=1e-14)  # -tau'
    assert math.isclose(cgf.deriv1, (1.0 / 3.0) / math.log(3.0), rel_tol=1e-13)
    # tau = 1/(x+1): chi = 1/2 and tau''/tau = 1/2, so F'' = 1/4.
    cgf = SingularityMap(DOUBLE_ROOT).cgf(0.0)
    assert math.isclose(cgf.deriv1, 0.5, rel_tol=1e-14)
    assert math.isclose(cgf.deriv2, 0.25, rel_tol=1e-14)


NON_FINITE_CALLS = {
    "tau-x-inf": lambda: SingularityMap(SHOWCASE).tau(math.inf),
    "tau-x-nan": lambda: SingularityMap(SHOWCASE).tau(math.nan),
    "log_pn_quadratic-x-inf": lambda: log_pn_quadratic(SHOWCASE, math.inf, 10),
    "modulus_saddle-x-inf": lambda: modulus_saddle(CONSTANT_BALANCED, math.inf, 10),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS)
def test_non_finite_arguments_refused(call):
    with pytest.raises(DomainError):
        call()


def test_tau_monotone_decreasing_positive():
    for params in balanced_quadratic():
        smap = SingularityMap(params)
        lo = max(smap.domain_low, 0.0)
        grid = np.linspace(lo + 0.05, lo + 6.0, 40)
        values = [smap.tau(float(x)) for x in grid]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def test_taylor_coefficient_examples():
    ev = EgfEvaluator(DOUBLE_ROOT)
    coeffs = ev.taylor_coefficients(1.0, 3)
    assert math.isclose(coeffs[0], 1.0, rel_tol=1e-10)
    assert math.isclose(coeffs[2], 2.5, rel_tol=1e-10)  # P_2(x) = 2x^2+2x+1 at x=1


def test_taylor_matches_exact_rows():
    for params in balanced_corpus():
        ev = EgfEvaluator(params)
        tri = build_triangle(params, 8)
        for x in (0.5, 1.0, 2.0):
            coeffs = ev.taylor_coefficients(x, 9)
            for n in range(9):
                exact = sum(w * x**k for k, w in enumerate(tri.row(n)))
                exact /= math.factorial(n)
                assert abs(coeffs[n] - exact) <= 1e-8 * max(abs(exact), 1e-300), (
                    params,
                    x,
                    n,
                )


def test_taylor_matches_exact_rows_at_20_terms():
    # (0,0,0,2,0,3) is ROADMAP direction 1's fault: its contour meets the
    # rounding floor of the 1e-10 stop rule and never stabilizes at 20 terms.
    stuck = ModelParams(0, 0, 0, 2, 0, 3)
    for params in balanced_corpus():
        ev = EgfEvaluator(params)
        tri = build_triangle(params, 19)
        for x in (0.5, 1.0, 2.0):
            if params == stuck:
                with pytest.raises(AccuracyError, match="did not stabilize"):
                    ev.taylor_coefficients(x, 20)
                continue
            coeffs = ev.taylor_coefficients(x, 20)
            for n in range(20):
                row_sum = sum(w * Fraction(x) ** k for k, w in enumerate(tri.row(n)))
                exact = float(row_sum / math.factorial(n))
                assert abs(coeffs[n] - exact) <= 1e-8 * abs(exact), (params, x, n)


def test_taylor_rejects_bad_order():
    ev = EgfEvaluator(DOUBLE_ROOT)
    with pytest.raises(DomainError):
        ev.taylor_coefficients(1.0, 31)
    with pytest.raises(DomainError):
        ev.taylor_coefficients(-1.0, 5)


def _fresh_contour_coefficients(ev, x, rho, n_terms):
    """Reference contour: every node doubling samples all of its nodes anew."""
    previous = None
    nodes = 64
    while nodes <= 1 << 15:
        phi = 2.0 * math.pi * np.arange(nodes) / nodes
        samples = ev._eval_complex(x, rho * (np.cos(phi) + 1j * np.sin(phi)))
        coeffs = np.fft.fft(samples)[:n_terms].real / (nodes * rho ** np.arange(n_terms))
        if previous is not None:
            scale = np.maximum(np.abs(coeffs), 1e-300)
            if np.max(np.abs(coeffs - previous) / scale) <= 1e-10:
                return coeffs
        previous = coeffs
        nodes *= 2
    raise AccuracyError("reference contour did not stabilize to 1e-10")


def test_contour_reuses_nodes_exactly(monkeypatch):
    # Reusing the samples of the halved rule changes no coefficient by a
    # single bit: node j of N nodes is node 2j of 2N nodes exactly.
    models = (CONSTANT_BALANCED, LINEAR_BALANCED, SHOWCASE, DOUBLE_ROOT, COMPLEX_UNIT)
    for params in models:
        ev = EgfEvaluator(params)
        for x in (0.5, 2.0):
            coeffs = ev.taylor_coefficients(x, 20)
            with monkeypatch.context() as m:
                m.setattr(ev, "_contour_coefficients",
                          lambda *args: _fresh_contour_coefficients(ev, *args))
                reference = ev.taylor_coefficients(x, 20)
            assert np.array_equal(coeffs, reference), (params, x)
    # The known failing case still runs out of nodes.
    with pytest.raises(AccuracyError, match="did not stabilize"):
        EgfEvaluator(DOUBLE_ROOT).taylor_coefficients(1.0, 30)


def test_coefficient_zero_is_one():
    # P_0(x) = 1 for every model.  On the showcase at x = 5e16 the contour
    # stabilizes on coefficients that are all wrong (c_0 comes out as 0.00098);
    # at x = 1e6 c_0 is off by 5.4e-10.
    ev = EgfEvaluator(SHOWCASE)
    with pytest.raises(AccuracyError, match="coefficient 0 at x=5e\\+16"):
        ev.taylor_coefficients(5e16, 9)
    assert abs(ev.taylor_coefficients(1e6, 9)[0] - 1.0) <= 1e-8


def test_special_case_power_one_matches_general_path():
    # alpha0 == A gives nu = 1, where w is the plain ratio
    # e^{c0 t} (r1 - r2) / ((x - r2) - (x - r1) e^{A (r1 - r2) t}); the
    # general principal-power formula must reproduce it.
    params = ModelParams(1, 2, 5, 1, 2, 0)  # Q = x^2 + 5x + 2, gamma0 = 0
    r1, r2 = (-5.0 - math.sqrt(17.0)) / 2.0, (-5.0 + math.sqrt(17.0)) / 2.0
    tau = SingularityMap(params).tau(1.0)
    for frac in (0.1, 0.5, 0.9):
        t = frac * tau
        denom = (1.0 - r2) - (1.0 - r1) * math.exp((r1 - r2) * t)
        ratio = math.exp(r1 * t) * (r1 - r2) / denom
        assert math.isclose(egf_value(params, 1.0, t), ratio, rel_tol=1e-12)


small = st.integers(min_value=0, max_value=5)


@settings(max_examples=200, deadline=None)
@given(
    small, small, small, small,
    st.floats(min_value=0.05, max_value=5.0),
    st.integers(min_value=0, max_value=400),
)
def test_modulus_saddle_residual(b, c, alpha0, gamma0, x, n):
    # A = 0 and balanced: log w = alpha0*x*t + alpha0*C*t^2/2 + gamma0*t
    # (c = 0), or (alpha0/B)(e^{Bt} - 1)(x + C/B) + (gamma0 - alpha0*C/B)*t.
    assume(alpha0 + gamma0 > 0)
    t = modulus_saddle(ModelParams(0, b, c, alpha0, b, gamma0), x, n).t
    if alpha0 == 0:
        slope = gamma0  # w = e^{gamma0 t}: the walk stays at height 0
    elif c == 0:
        slope = alpha0 * x + alpha0 * b * t + gamma0
    else:
        slope = alpha0 * math.exp(c * t) * (x + b / c) + gamma0 - alpha0 * b / c
    assert t > 0
    assert abs(t * slope - (n + 1)) <= 1e-12 * (n + 1)


def test_blowup_rate_near_singularity():
    # w(x, tau(1-eps)) ~ eps^{-nu}: fitted log-log slope within 5% of -nu.
    for params in (SHOWCASE, DOUBLE_ROOT, COMPLEX_UNIT):
        nu = EgfEvaluator(params).regime.nu
        tau = SingularityMap(params).tau(1.0)
        eps = np.logspace(-4, -2, 9)
        logs = [math.log(egf_value(params, 1.0, tau * (1.0 - e))) for e in eps]
        slope = np.polyfit(np.log(eps), logs, 1)[0]
        assert abs(slope + nu) <= 0.05 * nu
