import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmotzkin import (
    ConvergenceError,
    CumulantEvaluator,
    DomainError,
    ModelParams,
    RegimeError,
    SingularityMap,
    final_log_row,
    limit_cgf,
    log_sum_exp,
    rate_function,
    rate_profile,
)
from wmotzkin.ldp import THETA_LIMIT, empirical_rates
from oracles import parametrized_profile, rate_closed_form_double_root
from corpus import (
    CLASSIC,
    DEGENERATE_QUADRATIC,
    DOUBLE_ROOT,
    LINEAR_BALANCED,
    SHOWCASE,
    balanced_quadratic,
    quadratic_interior,
)


def test_cgf_at_zero():
    for params in quadratic_interior():
        vals = limit_cgf(params, 0.0)
        assert abs(vals.value) <= 1e-14
        assert vals.deriv2 > 0


def test_cgf_double_root_closed_form():
    # tau(x) = 1/(x+1): F(theta) = log((e^theta + 1)/2), F'(0) = 1/2.
    for theta in (-1.5, 0.0, 0.3, 2.0):
        vals = limit_cgf(DOUBLE_ROOT, theta)
        assert math.isclose(
            vals.value, math.log((math.exp(theta) + 1.0) / 2.0), rel_tol=1e-12, abs_tol=1e-12
        )
    assert math.isclose(limit_cgf(DOUBLE_ROOT, 0.0).deriv1, 0.5, rel_tol=1e-13)


def test_cgf_showcase_slope():
    chi = (1.0 / 3.0) / math.log(3.0)
    assert math.isclose(limit_cgf(SHOWCASE, 0.0).deriv1, chi, rel_tol=1e-12)


def _ulps_around(value, count):
    """value and the `count` doubles on each side of it."""
    out = [value]
    for direction in (math.inf, -math.inf):
        x = value
        for _ in range(count):
            x = math.nextafter(x, direction)
            out.append(x)
    return out


def test_cgf_accepts_bracket_reach_and_refuses_overflow():
    # rate_profile's bracket stops at |theta| = THETA_LIMIT, give or take
    # the rounding of conjugate_root's reach; F must be finite up to there.
    # Q(e^theta)^2 overflows near theta = 177.4 for A = 1, and e^theta past
    # theta = 709.78; both raise DomainError instead of a wrong F' or F''.
    reach = _ulps_around(THETA_LIMIT, 4) + _ulps_around(-THETA_LIMIT, 4)
    for params in balanced_quadratic():
        smap = SingularityMap(params)
        for theta in [*reach, *np.linspace(-THETA_LIMIT, THETA_LIMIT, 241)]:
            vals = smap.cgf(float(theta))
            assert all(map(math.isfinite, (vals.value, vals.deriv1, vals.deriv2)))
            assert 0.0 <= vals.deriv1 <= 1.0 + 1e-12 and vals.deriv2 >= -1e-12, (params, theta)
        for theta in (200.0, 400.0, 710.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                smap.cgf(theta)
            with pytest.raises(DomainError):
                limit_cgf(params, theta)


def test_cgf_regime_errors():
    with pytest.raises(RegimeError):
        limit_cgf(LINEAR_BALANCED, 0.0)
    with pytest.raises(RegimeError):
        limit_cgf(CLASSIC, 0.0)


# {point set: (models, thetas, first and second difference steps, bound on
# |F' - fd1| given F', bound on |F'' - fd2| given F'')}.  Second differences
# lose about 1e-16 |F| / h2^2 to roundoff, so the boundary set takes h2 = 1e-3
# to stay below its 1e-8 floor where F'' = 0 (the double root at r = 0, where
# F = log x).
CGF_DIFFERENCE_POINTS = {
    "balanced-quadratic": (
        balanced_quadratic, [math.log(x) for x in (0.7, 1.0, 1.9)], 1e-6, 1e-3,
        lambda d1: 1e-6 * abs(d1), lambda d2: 1e-5 * max(abs(d2), 1e-3),
    ),
    "interior": (
        quadratic_interior, [-1.0, 0.2, 1.5], 1e-5, 1e-5,
        lambda d1: 1e-7 * max(1.0, abs(d1)), lambda d2: 1e-4 * max(0.01, abs(d2)),
    ),
}


@pytest.mark.parametrize(
    "models, thetas, h1, h2, bound1, bound2",
    list(CGF_DIFFERENCE_POINTS.values()),
    ids=list(CGF_DIFFERENCE_POINTS),
)
def test_cgf_derivatives_match_finite_differences(models, thetas, h1, h2, bound1, bound2):
    for params in models():
        for theta in thetas:
            vals = limit_cgf(params, theta)
            up1, down1 = limit_cgf(params, theta + h1).value, limit_cgf(params, theta - h1).value
            up2, down2 = limit_cgf(params, theta + h2).value, limit_cgf(params, theta - h2).value
            fd1 = (up1 - down1) / (2 * h1)
            fd2 = (up2 - 2 * vals.value + down2) / (h2 * h2)
            assert abs(vals.deriv1 - fd1) <= bound1(vals.deriv1), (params, theta)
            assert abs(vals.deriv2 - fd2) <= bound2(vals.deriv2), (params, theta)


def test_slope_range_saturates():
    # F'' decays like e^{-theta} (e^{-2 theta} for centered complex roots),
    # dropping below double-precision resolution for large positive theta;
    # strict positivity is asserted where the value is resolvable.
    for params in quadratic_interior():
        assert limit_cgf(params, -40.0).deriv1 < 1e-6
        assert limit_cgf(params, 40.0).deriv1 > 1.0 - 1e-3
        for theta in np.linspace(-40, 40, 33):
            deriv2 = limit_cgf(params, float(theta)).deriv2
            if theta <= 12.0:
                assert deriv2 > 0, (params, theta)
            else:
                assert deriv2 > -1e-14, (params, theta)


def test_rate_at_typical_value_is_zero():
    for params in quadratic_interior():
        u0 = limit_cgf(params, 0.0).deriv1
        point = rate_function(params, u0)
        assert abs(point.rate) <= 1e-10
        assert abs(point.theta) <= 1e-10


def test_rate_double_root_values():
    assert abs(rate_function(DOUBLE_ROOT, 0.5).rate) <= 1e-12
    # u log u + (1-u) log(1-u) + log 2 at u = 0.9
    expected = 0.9 * math.log(0.9) + 0.1 * math.log(0.1) + math.log(2.0)
    assert math.isclose(rate_function(DOUBLE_ROOT, 0.9).rate, expected, rel_tol=1e-10)
    assert math.isclose(expected, 0.36806420716849697, rel_tol=1e-12)


def test_rate_closed_form_reference():
    assert abs(rate_closed_form_double_root(-1.0, 0.5)) <= 1e-15
    # entropy term vanishes at the endpoints, leaving log 2
    assert math.isclose(rate_closed_form_double_root(-1.0, 1e-12), math.log(2.0), rel_tol=1e-9)
    assert math.isclose(rate_closed_form_double_root(-1.0, 1.0), math.log(2.0), rel_tol=1e-12)
    with pytest.raises(DomainError):
        rate_closed_form_double_root(0.5, 0.5)
    assert rate_closed_form_double_root(0.0, 0.5) == math.inf
    assert rate_closed_form_double_root(0.0, 1.0) == 0.0


def test_rate_matches_closed_form_all_r():
    cases = {-1.0: DOUBLE_ROOT, -2.0: ModelParams(1, 4, 4, 2, 4, 1),
             -0.5: ModelParams(4, 1, 4, 3, 1, 1)}
    for r, params in cases.items():
        for u in np.arange(0.1, 0.95, 0.1):
            numeric = rate_function(params, float(u)).rate
            closed = rate_closed_form_double_root(r, float(u))
            assert abs(numeric - closed) <= 1e-8, (r, u)


def test_rate_convergence_error_in_deep_tail():
    with pytest.raises(ConvergenceError):
        rate_function(SHOWCASE, 1e-300)


def test_parametrized_profile_matches_legendre():
    for params in quadratic_interior():
        x_grid = np.linspace(0.3, 4.0, 16)
        prof = parametrized_profile(params, x_grid)
        for u, theta, rate in zip(prof.u, prof.theta, prof.rate):
            direct = rate_function(params, float(u))
            assert abs(direct.rate - rate) <= 1e-8
            assert abs(direct.theta - theta) <= 1e-7


coefficient = st.integers(min_value=1, max_value=5)


@settings(max_examples=60, deadline=None)
@given(coefficient, coefficient, coefficient, coefficient, coefficient)
def test_parametrized_profile_matches_rate_profile_random(a, b, c, alpha0, gamma0):
    # Balanced (beta0 = b) with A = a >= 1: every quadratic sub-regime, and
    # C = b >= 1 keeps the roots off 0.
    params = ModelParams(a, b, c, alpha0, b, gamma0)
    prof = parametrized_profile(params, [0.5, 1.0, 2.0])
    legendre = rate_profile(params, prof.u)
    assert np.all(np.abs(legendre.rate - prof.rate) <= 1e-8)
    assert np.all(np.abs(legendre.theta - prof.theta) <= 1e-7)


def test_parametrized_profile_examples():
    prof = parametrized_profile(DOUBLE_ROOT, [1.0, 3.0])
    assert abs(prof.rate[0]) <= 1e-14  # x=1 -> (u0, 0)
    assert math.isclose(prof.u[1], 0.75, rel_tol=1e-14)
    expected = 0.75 * math.log(3.0) - math.log(2.0)
    assert math.isclose(prof.rate[1], expected, rel_tol=1e-12)
    assert math.isclose(
        prof.rate[1], rate_closed_form_double_root(-1.0, 0.75), rel_tol=1e-12
    )


def test_rate_profile_invariants():
    for params in quadratic_interior():
        grid = np.linspace(0.05, 0.95, 19)
        prof = rate_profile(params, grid)
        assert np.all(np.diff(prof.theta) > 0)
        assert np.all(np.diff(prof.rate, 2) >= -1e-9)  # convex on the grid
        u0 = limit_cgf(params, 0.0).deriv1
        interior = prof.rate[(np.abs(prof.u - u0) > 1e-3)]
        assert np.all(interior > 0)


def test_second_derivative_reciprocal_identity():
    # I''(u) = 1 / F''(theta(u)) via central differences on the profile.
    h = 1e-3
    for params in (SHOWCASE, DOUBLE_ROOT):
        for u in (0.3, 0.5, 0.7):
            i_plus = rate_function(params, u + h).rate
            i_mid = rate_function(params, u).rate
            i_minus = rate_function(params, u - h).rate
            i2 = (i_plus - 2 * i_mid + i_minus) / (h * h)
            expected = 1.0 / limit_cgf(params, rate_function(params, u).theta).deriv2
            assert abs(i2 - expected) <= 1e-4 * expected


def test_legendre_involution():
    # F(theta) = sup_u (u theta - I(u)) recovered on a fine grid.
    grid = np.linspace(1e-3, 1.0 - 1e-3, 4001)
    for params in (SHOWCASE, DOUBLE_ROOT):
        prof = rate_profile(params, grid)
        for theta in (-2.0, -0.5, 0.8, 2.0):
            supremum = float(np.max(grid * theta - prof.rate))
            value = limit_cgf(params, theta).value
            assert abs(supremum - value) <= 1e-6


def test_cgf_finite_n_gap_ratio():
    # |kappa_n(theta)/n - F| should shrink by a factor < 0.75 per doubling.
    thetas = (-2.0, -1.0, 0.5, 2.0)
    for params in quadratic_interior():
        for theta in thetas:
            f_val = limit_cgf(params, theta).value
            gaps = {}
            for n in (100, 200):
                row = final_log_row(params, n)
                k = np.arange(n + 1, dtype=float)
                scaled = (log_sum_exp(row + theta * k) - log_sum_exp(row)) / n
                gaps[n] = abs(scaled - f_val)
            assert gaps[200] < 0.75 * gaps[100], (params, theta, gaps)


def test_variance_bridge():
    ev = CumulantEvaluator.from_params(SHOWCASE, 800)
    ratio = ev.kappa(0.0).deriv2 / 800
    assert abs(ratio - limit_cgf(SHOWCASE, 0.0).deriv2) <= 0.1 * limit_cgf(SHOWCASE, 0.0).deriv2


def test_empirical_rate_rows():
    u_grid = [0.15, 0.5, 0.85]
    rates = rate_profile(SHOWCASE, u_grid).rate
    emp_200, emp_400 = empirical_rates(SHOWCASE, u_grid, [200, 400])
    for rate, e200, e400 in zip(rates, emp_200, emp_400):
        assert abs(e400 - rate) < abs(e200 - rate)


def test_empirical_rate_at_typical_value():
    u0 = limit_cgf(SHOWCASE, 0.0).deriv1
    for n in (200, 400):
        [[empirical]] = empirical_rates(SHOWCASE, [u0], [n])
        assert empirical <= 2.0 * math.log(n) / n


def test_degenerate_quadratic_has_no_rate():
    with pytest.raises(DomainError):
        limit_cgf(DEGENERATE_QUADRATIC, 0.0)
    with pytest.raises(DomainError):
        rate_function(DEGENERATE_QUADRATIC, 0.5)


def test_rate_profile_classifies_once_per_solve(monkeypatch):
    # The profile guards once and builds one SingularityMap for the whole
    # grid; its Newton steps read F from the map and never classify.
    import wmotzkin.model as model
    from wmotzkin.cli import DEFAULT_U_GRID

    calls = 0
    classify = model.classify

    def counted(params):
        nonlocal calls
        calls += 1
        return classify(params)

    monkeypatch.setattr(model, "classify", counted)
    prof = rate_profile(SHOWCASE, DEFAULT_U_GRID)
    assert prof.rate.size == len(DEFAULT_U_GRID) == 19
    assert calls <= 2


def _outcome(solve):
    try:
        return solve()
    except (ConvergenceError, DomainError) as exc:
        return type(exc)


def test_rate_profile_matches_cold_solves_in_any_order():
    # rate_profile continues each Legendre solve from the previous u; in any
    # grid order it must reach the same outcome as cold rate_function calls.
    # theta is not compared: near u = 1, F'' is about 1e-12, so a wide range
    # of theta meets the solver's tolerance.
    grid = [1e-300, 1e-12, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-12, 1 - 1e-16]
    for base in (grid, grid[1:]):
        shuffled = list(base)
        np.random.default_rng(3).shuffle(shuffled)
        for order in (sorted(base), sorted(base, reverse=True), shuffled):
            warm = _outcome(lambda: rate_profile(SHOWCASE, order))
            cold = [_outcome(lambda u=u: rate_function(SHOWCASE, u)) for u in order]
            failures = [c for c in cold if isinstance(c, type)]
            if isinstance(warm, type):
                assert failures and warm is failures[0], (order, warm, cold)
                continue
            assert not failures, order
            for u, theta, rate, point in zip(order, warm.theta, warm.rate, cold):
                assert abs(rate - point.rate) <= 1e-12, (order, u)
                for th in (theta, point.theta):
                    assert abs(limit_cgf(SHOWCASE, float(th)).deriv1 - u) <= 1e-13, (order, u)
