"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with -s or -v to see them).

Every tolerance and runtime bound is fixed here; nothing is calibrated at
run time.
"""

import math
import time

import numpy as np

from wmotzkin import (
    CumulantEvaluator,
    EgfEvaluator,
    build_triangle,
    final_log_row,
    height_distribution,
    lambert_w0,
    limit_cgf,
    log_pn_constant_drift_exact,
    log_pn_linear_drift,
    rate_function,
)
from wmotzkin.exact import _distribution_from_log_row
from wmotzkin.model import DriftKind, classify, is_balanced
from oracles import brute_force_oracle, exact_log_row, log_sum_exp, rate_closed_form_double_root
from corpus import CORPUS, DOUBLE_ROOT, LINEAR_BALANCED, SHOWCASE, balanced_corpus


class Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.start = None
        self.detail = ""

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {self.name}: {status} "
            f"({elapsed:.2f}s of {self.budget_s}s budget){self.detail}"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False

    def note(self, text):
        self.detail = f" [{text}]"


def test_01_oracle_equivalence():
    with Criterion(1, "oracle-equivalence", 30) as crit:
        assert len(CORPUS) >= 20
        kinds = {classify(p).kind for p in CORPUS}
        assert kinds == set(DriftKind)
        balance = {is_balanced(p) for p in CORPUS}
        assert balance == {True, False}
        checked = 0
        for params in CORPUS:
            tri = build_triangle(params, 10)
            for n in range(11):
                assert tri.row(n) == brute_force_oracle(params, n), (params, n)
                checked += 1
        crit.note(f"{len(CORPUS)} parameter sets, {checked} rows")


def test_02_closed_form_taylor_validation():
    with Criterion(2, "closed-form-validation", 10) as crit:
        worst = 0.0
        entries = balanced_corpus()
        for params in entries:
            ev = EgfEvaluator(params)
            tri = build_triangle(params, 8)
            for x in (0.5, 1.0, 2.0):
                coeffs = ev.taylor_coefficients(x, 9)
                for n in range(9):
                    exact = sum(w * x**k for k, w in enumerate(tri.row(n)))
                    exact /= math.factorial(n)
                    rel = abs(coeffs[n] - exact) / max(abs(exact), 1e-300)
                    worst = max(worst, rel)
                    assert rel <= 1e-8, (params, x, n)
        crit.note(f"{len(entries)} balanced sets, worst rel err {worst:.2e}")


def _daniels_max_rel_err(params, n, lo, hi):
    row = final_log_row(params, n)
    dist = _distribution_from_log_row(n, row)
    ev = CumulantEvaluator(row)
    return max(
        abs(math.exp(ev.solve_saddle(k).log_p_daniels - dist.log_p[k]) - 1.0)
        for k in range(lo, hi + 1)
    )


def test_03_daniels_interior_accuracy():
    with Criterion(3, "daniels-interior-accuracy", 5) as crit:
        err_100 = _daniels_max_rel_err(SHOWCASE, 100, 20, 80)
        assert err_100 <= 0.05
        err_200 = _daniels_max_rel_err(SHOWCASE, 200, 40, 160)
        assert err_200 <= 0.6 * err_100
        crit.note(f"max err {err_100:.4f} at n=100, {err_200:.4f} at n=200")


def test_04_log_scale_tail_tracking():
    with Criterion(4, "log-tail-tracking", 5) as crit:
        n = 100
        row = final_log_row(SHOWCASE, n)
        dist = _distribution_from_log_row(n, row)
        ev = CumulantEvaluator(row)
        floor = math.log(1e-12)
        worst = 0.0
        covered = 0
        for k in range(1, n):
            if dist.log_p[k] < floor:
                continue
            covered += 1
            gap = abs(ev.solve_saddle(k).log_p_daniels - dist.log_p[k]) / math.log(10.0)
            worst = max(worst, gap)
            assert gap <= 0.05, k
        crit.note(f"{covered} lattice sites, worst log10 gap {worst:.4f}")


def test_05_ldp_scaling():
    with Criterion(5, "ldp-scaling", 60) as crit:
        u_values = (0.15, 0.5, 0.85)
        rates = {u: rate_function(SHOWCASE, u).rate for u in u_values}
        gaps = {}
        for n in (200, 800):
            row = final_log_row(SHOWCASE, n)
            total = log_sum_exp(row)
            for u in u_values:
                k = math.floor(u * n)
                gaps[(u, n)] = abs(-(float(row[k]) - total) / n - rates[u])
        bound = 4.0 * math.log(800) / 800
        for u in u_values:
            assert gaps[(u, 800)] < gaps[(u, 200)], u
            assert gaps[(u, 800)] <= bound, u
        crit.note(
            "gaps at N=800: "
            + ", ".join(f"u={u}: {gaps[(u, 800)]:.4f}" for u in u_values)
        )


def test_06_double_root_rate_closed_form():
    with Criterion(6, "double-root-rate-closed-form", 1) as crit:
        worst = 0.0
        for tenths in range(1, 10):
            u = tenths / 10.0
            numeric = rate_function(DOUBLE_ROOT, u).rate
            closed = rate_closed_form_double_root(-1.0, u)
            worst = max(worst, abs(numeric - closed))
            assert abs(numeric - closed) <= 1e-8, u
        crit.note(f"worst |Legendre - closed form| {worst:.2e}")


def test_07_double_root_moment_asymptotics():
    with Criterion(7, "double-root-moments", 60) as crit:
        worst_mu = 0.0
        for n in (100, 200, 400, 800):
            dist = height_distribution(DOUBLE_ROOT, n)
            worst_mu = max(worst_mu, abs(dist.mean - n / 2.0))
            assert abs(dist.mean - n / 2.0) <= 5.0, n
            if n == 800:
                assert abs(dist.variance / n - 0.25) <= 0.05
                var_gap = abs(dist.variance / n - 0.25)
        crit.note(f"worst |mu - n/2| {worst_mu:.3f}, |s2/n - 1/4| {var_gap:.2e}")


def test_08_cgf_convergence():
    with Criterion(8, "cgf-convergence", 60) as crit:
        rows = {n: final_log_row(SHOWCASE, n) for n in (200, 800)}
        ratios = []
        for theta in (-1.0, 0.5, 2.0):
            f_val = limit_cgf(SHOWCASE, theta).value
            gaps = {}
            for n, row in rows.items():
                k = np.arange(n + 1, dtype=float)
                scaled = (log_sum_exp(row + theta * k) - log_sum_exp(row)) / n
                gaps[n] = abs(scaled - f_val)
            assert gaps[200] >= 1.3 * gaps[800], theta
            ratios.append(gaps[200] / gaps[800])
        ev = CumulantEvaluator(rows[800])
        bridge = ev.kappa(0.0).deriv2 / 800
        f2 = limit_cgf(SHOWCASE, 0.0).deriv2
        assert abs(bridge - f2) <= 0.10 * f2
        crit.note(
            f"gap ratios {', '.join(f'{r:.2f}' for r in ratios)}; "
            f"variance bridge off by {abs(bridge - f2) / f2:.2%}"
        )


def test_09_flat_drift_identities():
    with Criterion(9, "flat-drift-identities", 30) as crit:
        constant_entries = [
            p
            for p in balanced_corpus()
            if classify(p).kind is DriftKind.CONSTANT and not p.is_degenerate
        ]
        assert constant_entries
        worst = 0.0
        for params in constant_entries:
            tri = build_triangle(params, 10)
            for n in range(11):
                identity = log_pn_constant_drift_exact(params, 1.0, n)
                exact = log_sum_exp(exact_log_row(tri, n))
                gap = abs(identity - exact) / max(1.0, abs(exact))
                worst = max(worst, gap)
                assert gap <= 1e-9, (params, n)
        exact = log_sum_exp(final_log_row(LINEAR_BALANCED, 300))
        est = log_pn_linear_drift(LINEAR_BALANCED, 1.0, 300)
        lin_err = abs(est.log_pn - exact) / abs(exact)
        assert lin_err <= 0.01
        crit.note(
            f"Hermite worst rel {worst:.2e}; linear-drift log err {lin_err:.2e}"
        )


def test_10_special_functions():
    with Criterion(10, "special-functions", 1) as crit:
        grid = np.logspace(-6, 12, 100)
        worst_w = 0.0
        for z in grid:
            w = lambert_w0(float(z))
            resid = abs(w * math.exp(w) - z) / max(1.0, z)
            worst_w = max(worst_w, resid)
            assert resid <= 1e-12
        xs = np.linspace(0.5, 100.0, 500)
        worst_g = 0.0
        for x in xs:
            resid = abs(math.lgamma(x + 1.0) - math.lgamma(x) - math.log(x))
            worst_g = max(worst_g, resid)
            assert resid <= 1e-12
        crit.note(f"W residual {worst_w:.2e}, log-gamma residual {worst_g:.2e}")
