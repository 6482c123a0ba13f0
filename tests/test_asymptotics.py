import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmotzkin import (
    DomainError,
    ModelParams,
    RegimeError,
    asymptotic_moments,
    constant_drift_moments,
    final_log_row,
    gaussian_local_law,
    height_distribution,
    lambert_w0,
    log_pn_constant_drift,
    log_pn_constant_drift_exact,
    log_pn_estimate,
    log_pn_linear_drift,
    log_pn_quadratic,
)
from wmotzkin.closedform import SingularityMap, modulus_saddle
from wmotzkin.model import DriftKind, classify
from oracles import log_sum_exp
from corpus import (
    CONSTANT_BALANCED,
    DEGENERATE,
    DEGENERATE_QUADRATIC,
    DOUBLE_ROOT,
    LINEAR_BALANCED,
    SHOWCASE,
    balanced_corpus,
    quadratic_interior,
)


def _exact_log_pn(params, n, x=1.0):
    row = final_log_row(params, n)
    k = np.arange(n + 1, dtype=float)
    return log_sum_exp(row + k * math.log(x))


def test_quadratic_log_scale_accuracy():
    exact = _exact_log_pn(SHOWCASE, 100)
    est = log_pn_quadratic(SHOWCASE, 1.0, 100)
    assert abs(est.log_pn - exact) / abs(exact) <= 0.005


def test_double_root_ratio_accuracy():
    exact = _exact_log_pn(DOUBLE_ROOT, 200)
    est = log_pn_quadratic(DOUBLE_ROOT, 1.0, 200)
    assert abs(math.exp(est.log_pn - exact) - 1.0) <= 0.02


def test_quadratic_error_decays():
    gaps = {}
    for n in (100, 400):
        gaps[n] = abs(log_pn_quadratic(SHOWCASE, 1.0, n).log_pn - _exact_log_pn(SHOWCASE, n))
    assert gaps[400] < gaps[100]


def test_estimates_converge_all_regimes():
    # Relative log-scale error must shrink when n doubles, per regime.
    for params in balanced_corpus():
        if params.alpha0 == 0 and params.a == 0:
            continue
        errs = []
        for n in (50, 100, 200):
            exact = _exact_log_pn(params, n)
            est = log_pn_estimate(params, 1.0, n)
            errs.append(abs(est.log_pn - exact) / abs(exact))
        assert errs[1] < errs[0] and errs[2] < errs[1], (params, errs)


def test_estimate_moments_match_exact_law():
    # log_pn_estimate's mu and sigma2 against the exact law, as relative
    # errors: rounding only for constant drift, n^2 * error at most 50 (mean)
    # and 30 (variance) for quadratic drift away from r = 0, and for linear
    # drift, falling with n, n^2 * error at most 0.5 for the mean (measured
    # 0.125 to 0.381) and n * error at most 0.8 for the variance (0.483 to
    # 0.535).  Two r = 0 double roots join the corpus's (1,0,0,2,0,1), whose
    # n - height tends to Poisson(c0/A) with c0/A = 3 and 1: there the
    # variance error is O(1/n) (n * error <= 1.5).
    # At every n from 3 to 40, mu lies in [0, n] and sigma2 is positive.
    r_zero = [ModelParams(1, 0, 0, 2, 0, 3), ModelParams(2, 0, 0, 1, 0, 2)]
    for params in balanced_corpus() + r_zero:
        regime = classify(params)
        for n in range(3, 41):
            est = log_pn_estimate(params, 1.0, n)
            assert 0.0 <= est.mu <= n and est.sigma2 > 0.0, (params, n, est)
        errs = []
        for n in (100, 400, 1600):
            dist = height_distribution(params, n)
            est = log_pn_estimate(params, 1.0, n)
            err = (abs(est.mu - dist.mean) / dist.mean,
                   abs(est.sigma2 - dist.variance) / dist.variance)
            if regime.kind is DriftKind.CONSTANT:
                assert max(err) <= 1e-12, (params, n, err)
            elif regime.kind is DriftKind.LINEAR:
                assert n * n * err[0] <= 0.5 and n * err[1] <= 0.8, (params, n, err)
            elif regime.kind is DriftKind.DOUBLE_ROOT and regime.B == 0:
                assert n * n * err[0] <= 5.0 and n * err[1] <= 1.5, (params, n, err)
            else:
                assert n * n * err[0] <= 50.0 and n * n * err[1] <= 30.0, (params, n, err)
            errs.append(err)
        if regime.kind is DriftKind.LINEAR:
            for first, middle, last in zip(*errs):
                assert first > middle > last, (params, errs)


def test_regime_and_balance_errors():
    with pytest.raises(RegimeError):
        log_pn_quadratic(LINEAR_BALANCED, 1.0, 50)
    with pytest.raises(RegimeError):
        log_pn_quadratic(ModelParams(1, 5, 6, 8, 3, 1), 1.0, 50)  # unbalanced
    with pytest.raises(RegimeError):
        asymptotic_moments(LINEAR_BALANCED, 50)
    with pytest.raises(DomainError):
        log_pn_quadratic(ModelParams(1, 0, 0, 0, 0, 1), 1.0, 50)  # degenerate
    with pytest.raises(RegimeError):
        log_pn_constant_drift(SHOWCASE, 1.0, 50)
    with pytest.raises(RegimeError):
        log_pn_linear_drift(SHOWCASE, 1.0, 50)
    with pytest.raises(DomainError):
        log_pn_linear_drift(DEGENERATE, 1.0, 50)
    # Every A = 0 estimate refuses x <= 0 through its saddle, alpha0 = 0 too.
    for params in (ModelParams(0, 1, 0, 1, 1, 1), ModelParams(0, 0, 0, 2, 0, 3),
                   ModelParams(0, 1, 0, 0, 1, 2)):
        for x in (-3.0, 0.0):
            with pytest.raises(DomainError):
                log_pn_constant_drift(params, x, 10)
    for x in (-1.0, 0.0, math.nan):
        with pytest.raises(DomainError):
            modulus_saddle(LINEAR_BALANCED, x, 10)
        with pytest.raises(DomainError):
            log_pn_linear_drift(LINEAR_BALANCED, x, 10)


# Each of these returned a confident wrong number before it was refused.
@pytest.mark.parametrize("call", [
    lambda: asymptotic_moments(ModelParams(1, 0, 0, 2, 0, 1), 0),  # mean -1.0 at r = 0
    lambda: asymptotic_moments(SHOWCASE, -3),  # (-0.91, -0.58)
    lambda: log_pn_constant_drift_exact(ModelParams(0, 0, 0, 2, 0, 3), 1.0, -1),  # -1.609
    lambda: log_pn_constant_drift_exact(ModelParams(0, 0, 0, 2, 0, 3), math.inf, 5),  # inf
    lambda: lambert_w0(math.inf),  # nan
], ids=["moments_n0_double_root", "moments_negative_n", "constant_exact_negative_n",
        "constant_exact_infinite_x", "lambert_w0_inf"])
def test_out_of_domain_input_refused(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("estimate, params", [
    (log_pn_constant_drift, CONSTANT_BALANCED),
    (log_pn_linear_drift, LINEAR_BALANCED),
], ids=["constant", "linear"])
def test_drift_estimates_refuse_n_zero(estimate, params):
    with pytest.raises(DomainError, match="n must be >= 1, got 0"):
        estimate(params, 1.0, 0)


def test_quadratic_with_alpha0_zero_is_degenerate():
    # a > 0 does not help: the walk cannot leave height 0.
    assert DEGENERATE_QUADRATIC.is_degenerate
    assert height_distribution(DEGENERATE_QUADRATIC, 50).mean == 0
    with pytest.raises(DomainError):
        asymptotic_moments(DEGENERATE_QUADRATIC, 50)
    with pytest.raises(DomainError):
        log_pn_quadratic(DEGENERATE_QUADRATIC, 1.0, 50)


def test_moment_examples():
    # On DOUBLE_ROOT the estimate's moments are the exact law's.
    mu, sigma2 = asymptotic_moments(DOUBLE_ROOT, 100)
    dist = height_distribution(DOUBLE_ROOT, 100)
    assert math.isclose(mu, dist.mean, rel_tol=1e-12)
    assert math.isclose(sigma2, dist.variance, rel_tol=1e-12)
    chi = SingularityMap(SHOWCASE).cgf(0.0).deriv1
    assert math.isclose(chi, (1.0 / 3.0) / math.log(3.0), rel_tol=1e-12)


def test_exact_mean_gap_stays_bounded():
    chi = SingularityMap(SHOWCASE).cgf(0.0).deriv1
    gaps = []
    for n in (50, 100, 200, 400):
        dist = height_distribution(SHOWCASE, n)
        gaps.append(abs(dist.mean - n * chi))
    assert max(gaps) < 3.0  # O(1) correction, empirically ~1.7


def test_asymptotic_variance_positive_and_accurate():
    for params in quadratic_interior():
        for n, tol in ((200, 0.10), (800, 0.05)):
            _, sigma2 = asymptotic_moments(params, n)
            assert sigma2 > 0
            dist = height_distribution(params, n)
            assert abs(sigma2 - dist.variance) <= tol * dist.variance, (params, n)


def test_gaussian_local_law_shape():
    peak = gaussian_local_law(12.0, 4.0, 12)
    assert math.isclose(peak, 1.0 / math.sqrt(8 * math.pi), rel_tol=1e-14)
    assert gaussian_local_law(12.0, 4.0, 9) == gaussian_local_law(12.0, 4.0, 15)
    with pytest.raises(DomainError):
        gaussian_local_law(1.0, 0.0, 1)


def test_gaussian_central_window_accuracy():
    dist = height_distribution(DOUBLE_ROOT, 100)
    approx = gaussian_local_law(dist.mean, dist.variance, 50)
    exact = math.exp(dist.log_p[50])
    assert abs(approx / exact - 1.0) <= 0.10


def test_gaussian_window_sup_error_decreases():
    for params in (SHOWCASE, DOUBLE_ROOT):
        sups = []
        for n in (100, 200, 400):
            dist = height_distribution(params, n)
            sigma = math.sqrt(dist.variance)
            lo = max(1, math.ceil(dist.mean - 2 * sigma))
            hi = min(n - 1, math.floor(dist.mean + 2 * sigma))
            sup = max(
                abs(
                    gaussian_local_law(dist.mean, dist.variance, k)
                    / math.exp(dist.log_p[k])
                    - 1.0
                )
                for k in range(lo, hi + 1)
            )
            sups.append(sup)
        assert sups[1] < sups[0] and sups[2] < sups[1], (params, sups)


# ----- constant drift ----- #


def test_constant_power_form():
    value = log_pn_constant_drift_exact(ModelParams(0, 0, 0, 1, 0, 1), 1.0, 5)
    assert math.isclose(value, math.log(32.0), rel_tol=1e-14)


def test_constant_hermite_identity_matches_exact():
    for params in balanced_corpus():
        if classify(params).kind is not DriftKind.CONSTANT:
            continue
        if params.alpha0 == 0 and params.gamma0 == 0:
            continue
        for n in range(11):
            exact = _exact_log_pn(params, n)
            identity = log_pn_constant_drift_exact(params, 1.0, n)
            assert abs(identity - exact) <= 1e-9 * max(1.0, abs(exact))


def test_constant_saddle_close_to_identity():
    est = log_pn_constant_drift(CONSTANT_BALANCED, 1.0, 200)
    identity = log_pn_constant_drift_exact(CONSTANT_BALANCED, 1.0, 200)
    assert abs(math.exp(est.log_pn - identity) - 1.0) <= 0.02


def test_constant_moments_match_exact():
    mu, sigma2 = constant_drift_moments(CONSTANT_BALANCED, 60)
    dist = height_distribution(CONSTANT_BALANCED, 60)
    assert math.isclose(mu, dist.mean, rel_tol=1e-9)
    assert math.isclose(sigma2, dist.variance, rel_tol=1e-6)


def test_constant_degenerate_error():
    with pytest.raises(DomainError):
        log_pn_constant_drift(ModelParams(0, 1, 0, 0, 1, 0), 1.0, 10)


coefficient = st.integers(min_value=0, max_value=5)


@settings(max_examples=150, deadline=None)
@given(coefficient, coefficient, coefficient, coefficient, st.integers(min_value=0, max_value=40))
def test_constant_moments_oracle(b, alpha0, beta0, gamma0, n):
    # Moment oracle over constant drift (a = c = 0): either the exact law's
    # mean and variance, or a refusal; never a confident wrong number.
    params = ModelParams(0, b, 0, alpha0, beta0, gamma0)
    try:
        mu, sigma2 = constant_drift_moments(params, n)
    except (RegimeError, DomainError):
        return
    dist = height_distribution(params, n)
    # Relative, floored at 1: a point mass has variance 0 here and about
    # 1e-31 from the exact law's rounding.
    for got, want in ((mu, dist.mean), (sigma2, dist.variance)):
        assert abs(got - want) <= 1e-10 * max(abs(want), 1.0), (params, n, got, want)


# ----- linear drift ----- #


def test_linear_seed_quality_improves():
    # The Lambert-W start W(n/y)/B of the linear saddle solve, y = (alpha0/B)(x + C/B).
    B, C, alpha0 = 1.0, 1.0, 1.0
    y = (alpha0 / B) * (1.0 + C / B)
    rel = {}
    for n in (50, 200):
        t = modulus_saddle(LINEAR_BALANCED, 1.0, n).t
        rel[n] = abs(t - lambert_w0(n / y) / B) / t
    assert rel[200] <= 0.05
    assert rel[200] < rel[50]


def test_linear_log_accuracy():
    exact = _exact_log_pn(LINEAR_BALANCED, 300)
    est = log_pn_linear_drift(LINEAR_BALANCED, 1.0, 300)
    assert abs(est.log_pn - exact) / abs(exact) <= 0.01


def test_linear_moment_accuracy():
    dist = height_distribution(LINEAR_BALANCED, 300)
    est = log_pn_linear_drift(LINEAR_BALANCED, 1.0, 300)
    assert abs(est.mu - dist.mean) / dist.mean <= 0.005


def test_linear_saddle_residual():
    t = modulus_saddle(LINEAR_BALANCED, 1.0, 120).t
    B, C = 1.0, 1.0
    y = (1.0 / B) * (1.0 + C / B)
    a_lin = 1.0 - 1.0 * C / B
    resid = a_lin + B * y * math.exp(B * t) - 121 / t
    assert abs(resid) * t <= 1e-12 * 121
