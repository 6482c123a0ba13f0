import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from wmotzkin import (
    BoundaryError,
    CumulantEvaluator,
    DomainError,
    LOG_ZERO,
    ModelParams,
    final_log_row,
    gaussian_local_law,
    height_distribution,
    profile,
)
from wmotzkin import cli
from wmotzkin.exact import iter_int_rows
from wmotzkin.specfun import _WINDOW_NATS
from oracles import brute_force_oracle, full_row_kappa, uniform_error_applies
from corpus import (
    CLASSIC,
    COMPLEX_UNIT,
    CONSTANT_BALANCED,
    CORPUS,
    DEGENERATE,
    DEGENERATE_QUADRATIC,
    DOUBLE_ROOT,
    LINEAR_BALANCED,
    SHOWCASE,
)


def test_untilted_cumulants_match_distribution():
    ev = CumulantEvaluator.from_params(SHOWCASE, 80)
    dist = height_distribution(SHOWCASE, 80)
    vals = ev.kappa(0.0)
    assert math.isclose(vals.deriv1, dist.mean, rel_tol=1e-12)
    assert math.isclose(vals.deriv2, dist.variance, rel_tol=1e-9)
    assert math.isclose(vals.value, dist.log_total, rel_tol=1e-12)


@pytest.mark.parametrize(
    "params", [CONSTANT_BALANCED, LINEAR_BALANCED, SHOWCASE, DOUBLE_ROOT, COMPLEX_UNIT],
    ids=["constant", "linear", "two_real", "double", "complex"],
)
def test_one_row_reduction(params, capsys):
    # One kappa_n(0) serves the distribution, the evaluator, the asym row and
    # the profile columns, bit for bit.
    n = 500
    at_zero = CumulantEvaluator.from_params(params, n).at_zero
    dist = height_distribution(params, n)
    assert (dist.log_total, dist.mean, dist.variance) == (
        at_zero.value, at_zero.deriv1, at_zero.deriv2)
    inline = " ".join(f"{k}={v}" for k, v in params.to_dict().items())
    assert cli.main(["asym", "--params", inline, "--N-list", str(n), "--format", "json"]) == 0
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert (row["log_pn_exact"], row["mu_exact"], row["sigma2_exact"]) == (
        at_zero.value, at_zero.deriv1, at_zero.deriv2)
    log_peak = -0.5 * math.log(2.0 * math.pi * dist.variance)
    for r in profile(params, n, 0.45):
        assert r.log_p_exact == dist.log_p[r.k]
        assert r.log_p_gaussian == log_peak - (r.k - dist.mean) ** 2 / (2.0 * dist.variance)
    # Against the exact rationals of the int row.  Measured at n = 500 on the
    # five models here: mean within 7.2e-15 and variance within 4.8e-14
    # relative, where a whole-row log-sum-exp mean is off by 6.0e-14 to
    # 2.1e-13 and an fsum variance about it by 7.1e-14 to 2.2e-13.
    *_, weights = iter_int_rows(params, n)
    s0, s1, s2 = (sum(k**j * w for k, w in enumerate(weights)) for j in range(3))
    mean, variance = Fraction(s1, s0), Fraction(s2 * s0 - s1 * s1, s0 * s0)
    assert abs(float(Fraction(dist.mean) / mean - 1)) <= 2e-14
    assert abs(float(Fraction(dist.variance) / variance - 1)) <= 1e-13


def test_classic_row_cumulants():
    row = np.log(np.array(brute_force_oracle(CLASSIC, 3), dtype=float))
    ev = CumulantEvaluator(row)
    vals = ev.kappa(0.0)
    assert math.isclose(vals.value, math.log(13.0), rel_tol=1e-14)
    assert math.isclose(vals.deriv1, 14.0 / 13.0, rel_tol=1e-14)


def test_point_mass_row_has_zero_curvature():
    ev = CumulantEvaluator(np.array([0.0]))
    for theta in (-2.0, 0.0, 3.0):
        assert ev.kappa(theta).deriv2 == 0.0


def test_windowed_kappa_matches_full_row():
    # At n = 2000 and |theta| up to 6 the window leaves out finite terms;
    # the sums it drops are below (n + 1) e^-64 of the total.
    rows = [final_log_row(ModelParams(*m), 2000)
            for m in ((2, 1, 4, 3, 1, 1), (1, 1, 0, 1, 1, 1), (0, 0, 0, 1, 1, 1))]
    rows.append(np.array([0.0]))
    cut = 0
    for row in rows:
        ev = CumulantEvaluator(row)
        for theta in np.linspace(-6.0, 6.0, 49):
            got, want = ev.kappa(theta), full_row_kappa(row, theta)
            assert math.isclose(got.value, want.value, rel_tol=1e-15), (theta, got, want)
            assert math.isclose(got.deriv1, want.deriv1, rel_tol=1e-14), (theta, got, want)
            assert math.isclose(got.deriv2, want.deriv2, rel_tol=1e-14), (theta, got, want)
            z = ev.k * theta + row
            inside = np.flatnonzero(z > z.max() - _WINDOW_NATS)
            outside = np.concatenate([z[: inside[0]], z[inside[-1] + 1 :]])
            cut += bool(np.isfinite(outside).any())
    assert cut > 0


def test_evaluator_refuses_malformed_rows():
    for row in ([], [[0.0]], [LOG_ZERO, LOG_ZERO], [0.0, math.nan, -1.0], [0.0, math.inf]):
        with pytest.raises(DomainError):
            CumulantEvaluator(np.array(row))


def test_variance_matches_tilted_law():
    ev = CumulantEvaluator.from_params(SHOWCASE, 60)
    for theta in (-1.0, -0.25, 0.0, 0.4, 1.5):
        vals = ev.kappa(theta)
        p = np.exp(ev.log_row + theta * ev.k - vals.value)
        mean = float(p @ ev.k)
        var = float(p @ (ev.k - mean) ** 2)
        assert abs(vals.deriv2 - var) <= 1e-10 * max(1.0, var)


def test_tilted_law_normalizes():
    ev = CumulantEvaluator.from_params(SHOWCASE, 60)
    dist = height_distribution(SHOWCASE, 60)
    for theta in np.linspace(-2, 2, 9):
        # sum_k p_k e^{theta k} / M(theta) == 1
        log_m = ev.kappa(theta).value - dist.log_total
        total = float(np.sum(np.exp(dist.log_p + theta * ev.k - log_m)))
        assert abs(total - 1.0) <= 1e-10


def test_saddle_at_mean_is_near_zero():
    ev = CumulantEvaluator.from_params(SHOWCASE, 100)
    dist = height_distribution(SHOWCASE, 100)
    k = round(dist.mean)
    result = ev.solve_saddle(k)
    assert abs(result.theta) <= 2.0 / math.sqrt(dist.variance)


def test_saddle_monotone_in_k():
    ev = CumulantEvaluator.from_params(SHOWCASE, 60)
    thetas = [ev.solve_saddle(k).theta for k in range(5, 56, 5)]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))


def test_saddle_residual():
    ev = CumulantEvaluator.from_params(SHOWCASE, 100)
    result = ev.solve_saddle(60)
    assert abs(result.cgf.deriv1 - 60.0) <= 1e-9 * 60.0
    assert result.cgf.deriv2 > 0


def test_saddle_boundary_errors():
    ev = CumulantEvaluator.from_params(SHOWCASE, 30)
    with pytest.raises(BoundaryError):
        ev.solve_saddle(0)
    with pytest.raises(BoundaryError):
        ev.solve_saddle(30)
    # all mass at height 0: nothing above k=1
    ev = CumulantEvaluator(final_log_row(DEGENERATE, 10))
    with pytest.raises(BoundaryError):
        ev.solve_saddle(1)


def test_legendre_concavity_in_k():
    ev = CumulantEvaluator.from_params(SHOWCASE, 100)
    values = []
    for k in range(10, 91):
        res = ev.solve_saddle(k)
        values.append(res.cgf.value - k * res.theta)
    second = np.diff(values, 2)
    assert np.all(second <= 1e-9)


def test_daniels_matches_gaussian_peak():
    ev = CumulantEvaluator.from_params(SHOWCASE, 100)
    dist = height_distribution(SHOWCASE, 100)
    k = round(dist.mean)
    daniels = math.exp(ev.solve_saddle(k).log_p_daniels)
    gauss_peak = 1.0 / math.sqrt(2.0 * math.pi * dist.variance)
    assert abs(daniels / gauss_peak - 1.0) <= 0.01


def test_daniels_total_mass_near_one():
    n = 100
    ev = CumulantEvaluator.from_params(SHOWCASE, n)
    dist = height_distribution(SHOWCASE, n)
    interior = sum(math.exp(ev.solve_saddle(k).log_p_daniels) for k in range(1, n))
    boundary = math.exp(dist.log_p[0]) + math.exp(dist.log_p[n])
    assert abs(interior - (1.0 - boundary)) <= 0.02


def test_uniform_error_flag():
    assert uniform_error_applies(SHOWCASE)
    unbalanced = ModelParams(1, 5, 6, 8, 3, 1)
    assert not uniform_error_applies(unbalanced)
    assert not uniform_error_applies(CLASSIC)


def _max_daniels_rel_err(params, n):
    rows = profile(params, n, 0.2)
    return max(abs(math.exp(r.log_p_daniels - r.log_p_exact) - 1.0) for r in rows)


def test_uniform_error_flag_complex_roots_c0():
    # With c = 0 the complex-roots law oscillates in k, so the Daniels
    # error stays put as n doubles and the O(1/n) bound is not claimed.
    for t in [(1, 1, 0, 1, 1, 1), (1, 3, 0, 2, 3, 1), (2, 1, 0, 1, 1, 3), (1, 2, 0, 1, 2, 2)]:
        params = ModelParams(*t)
        assert not uniform_error_applies(params), t
        assert _max_daniels_rel_err(params, 200) > 0.9 * _max_daniels_rel_err(params, 100)
    complex_c1 = ModelParams(1, 2, 1, 2, 2, 1)
    assert uniform_error_applies(complex_c1)
    assert _max_daniels_rel_err(complex_c1, 200) < 0.6 * _max_daniels_rel_err(complex_c1, 100)
    assert not uniform_error_applies(DEGENERATE_QUADRATIC)


def test_profile_shape_and_finiteness():
    n, eps = 100, 0.02
    rows = profile(SHOWCASE, n, eps)
    expected = math.floor((1 - eps) * n) - math.ceil(eps * n) + 1
    assert len(rows) == expected
    assert all(r.log_p_exact > LOG_ZERO for r in rows)
    assert all(math.isfinite(r.log_p_daniels) for r in rows)
    with pytest.raises(DomainError):
        profile(SHOWCASE, 50, 0.7)


def test_profile_gaussian_column_in_logs():
    # Written in logs, the normal density stays finite at every height, also
    # where it underflows a double; where it is a normal double, the two agree.
    n = 2000
    dist = height_distribution(SHOWCASE, n)
    rows = profile(SHOWCASE, n, 0.01)
    assert len(rows) == 1961
    assert all(math.isfinite(r.log_p_gaussian) for r in rows)
    for r in rows:
        density = gaussian_local_law(dist.mean, dist.variance, r.k)
        if density >= sys.float_info.min:
            assert math.isclose(r.log_p_gaussian, math.log(density), rel_tol=1e-12), r.k
    with pytest.raises(DomainError, match="sigma2 must be positive"):
        profile(DEGENERATE, 10, 0.1)  # a point mass at height 0


def test_profile_refuses_empty_window():
    # [eps*n, (1-eps)*n] holds no integer k: an error, not an empty table.
    for n, eps in ((1, 0.01), (3, 0.4)):
        with pytest.raises(DomainError, match="no integer k"):
            profile(SHOWCASE, n, eps)
    assert [r.k for r in profile(SHOWCASE, 2, 0.4)] == [1]


def test_profile_deterministic():
    a = profile(SHOWCASE, 60, 0.05)
    b = profile(SHOWCASE, 60, 0.05)
    assert a == b


def test_profile_warm_saddles_match_cold():
    # profile continues each saddle solve from the previous k; every Daniels
    # value must agree with a cold solve from theta = 0 at the same k.
    for params in CORPUS:
        rows = profile(params, 300, 0.05)
        ev = CumulantEvaluator(final_log_row(params, 300))
        for r in rows:
            cold = ev.solve_saddle(r.k).log_p_daniels
            assert abs(r.log_p_daniels - cold) <= 1e-9 * max(1.0, abs(cold)), (params, r.k)


def _count_kappa_calls(monkeypatch):
    calls = [0]
    kappa = CumulantEvaluator.kappa

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return kappa(self, *args, **kwargs)

    monkeypatch.setattr(CumulantEvaluator, "kappa", counted)
    return calls


def test_profile_kappa_calls_per_k(monkeypatch):
    # Continuation along k first evaluates kappa_n at the third-order
    # predictor, which meets the tolerance for most k (1.17 per k at n = 1000).
    # The count includes the untilted kappa_n(0) and the cold first solve,
    # which takes about 6.  The bracket-then-midpoint solver took 3.13 per k.
    calls = _count_kappa_calls(monkeypatch)
    rows = profile(SHOWCASE, 1000, 0.01)
    assert calls[0] <= 1.3 * len(rows)


@pytest.mark.parametrize("n, per_k", [(500, 1.7), (2000, 1.2)])
def test_profile_kappa_calls_per_k_by_n(monkeypatch, n, per_k):
    # The predictor's residual falls like n^-3 while the tolerance grows like
    # n, so it misses more often at small n: 1.40 per k at n = 500 and 1.07
    # at n = 2000, where the bracket-then-midpoint solver took 3.29 and 3.05.
    calls = _count_kappa_calls(monkeypatch)
    rows = profile(SHOWCASE, n, 0.01)
    assert calls[0] <= per_k * len(rows)


def test_third_and_fourth_cumulants_match_distribution():
    n = 80
    ev = CumulantEvaluator.from_params(SHOWCASE, n)
    p = [math.exp(v) for v in height_distribution(SHOWCASE, n).log_p]
    mean = math.fsum(pk * k for k, pk in enumerate(p))
    second, third, fourth = (
        math.fsum(pk * (k - mean) ** j for k, pk in enumerate(p)) for j in (2, 3, 4)
    )
    at_zero = ev.kappa(0.0)
    assert math.isclose(at_zero.deriv3, third, rel_tol=1e-9), third
    cumulant4 = fourth - 3.0 * second * second
    assert math.isclose(at_zero.deriv4, cumulant4, rel_tol=1e-9), cumulant4


def test_warm_saddle_at_its_own_root():
    # A warm start already at the root returns it, built from kappa there.
    ev = CumulantEvaluator.from_params(SHOWCASE, 100)
    for k in (20, 60):
        cold = ev.solve_saddle(k)
        warm = ev.solve_saddle(k, near=cold)
        assert (warm.theta, warm.cgf.value, warm.cgf.deriv2, warm.log_p_daniels) == (
            cold.theta, cold.cgf.value, cold.cgf.deriv2, cold.log_p_daniels
        )
