import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wmotzkin import (
    ConvergenceError,
    DomainError,
    LOG_ZERO,
    lambert_w0,
)
from wmotzkin.specfun import CgfValues, conjugate_root, hermite_ratios, safeguarded_root
from oracles import OMEGA, log_sum_exp


def log_hermite_values(X, Y, n):
    """[log H_0, ..., log H_n]: the running sums of the logs of `hermite_ratios`."""
    return [0.0, *itertools.accumulate(map(math.log, hermite_ratios(X, Y, n)))]


def test_log_sum_exp_basics():
    assert math.isclose(log_sum_exp([math.log(2), math.log(3)]), math.log(5))
    assert log_sum_exp([]) == LOG_ZERO
    assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO
    assert math.isclose(log_sum_exp([0.0] * 1000), math.log(1000))


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
       st.floats(min_value=-100, max_value=100))
def test_log_sum_exp_shift(values, shift):
    base = log_sum_exp(values)
    shifted = log_sum_exp([v + shift for v in values])
    assert math.isclose(shifted, base + shift, rel_tol=0, abs_tol=1e-9)


def test_lambert_w0_reference_points():
    assert lambert_w0(0.0) == 0.0
    assert math.isclose(lambert_w0(1.0), OMEGA, rel_tol=1e-13)
    assert math.isclose(lambert_w0(math.e), 1.0, rel_tol=1e-13)
    for z in (-1.0, -1.0 / math.e, -1e-300, math.nan):
        with pytest.raises(DomainError):
            lambert_w0(z)


def test_lambert_w0_round_trip_grid():
    grid = np.logspace(-6, 12, 100)
    for z in grid:
        w = lambert_w0(float(z))
        assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, z)


@given(st.floats(min_value=0.0, max_value=30.0))
def test_lambert_w0_round_trip_hypothesis(t):
    # Parametrize z = t * exp(t) so every target w = t is reachable.
    z = t * math.exp(t)
    w = lambert_w0(z)
    assert abs(w * math.exp(w) - z) <= 1e-11 * max(1.0, abs(z))


def test_hermite_reference_values():
    assert math.isclose(log_hermite_values(2.0, 1.0, 2)[2], math.log(5.0))
    assert log_hermite_values(3.0, 7.0, 0) == [0.0]
    assert math.isclose(log_hermite_values(3.0, 0.0, 4)[4], math.log(81.0))
    assert math.isclose(log_hermite_values(0.5, 3.0, 1)[1], math.log(0.5))


def test_hermite_recurrence_consistency():
    for X, Y in [(2.0, 1.0), (0.5, 3.0), (4.0, 0.0)]:
        values = [math.exp(v) for v in log_hermite_values(X, Y, 50)]
        for m in range(1, 50):
            expected = X * values[m] + m * Y * values[m - 1]
            assert math.isclose(values[m + 1], expected, rel_tol=1e-12)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=9),
       st.integers(min_value=0, max_value=200))
def test_hermite_matches_exact_integer_recurrence(X, Y, n):
    exact = [1, X]
    for m in range(1, n):
        exact.append(X * exact[m] + m * Y * exact[m - 1])
    logs = log_hermite_values(float(X), float(Y), n)
    assert len(logs) == n + 1
    for m, value in enumerate(logs):
        expected = math.log(exact[m])
        assert abs(value - expected) <= 1e-13 * max(1.0, abs(expected))


def test_hermite_domain():
    for X, Y in [(0.0, 1.0), (-1.5, 2.0), (2.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
                 (math.inf, 1.0), (1.0, math.inf)]:
        for n in (0, 5):
            with pytest.raises(DomainError):
                log_hermite_values(X, Y, n)
    # Every ratio H_m/H_{m-1}, m <= n, is at most X + n Y / X; here n Y / X
    # overflows a float for every n >= 1, so only n = 0 is computed.
    for X, Y in [(1e-310, 1.0), (1e-300, 1e10)]:
        assert log_hermite_values(X, Y, 0) == [0.0]
        with pytest.raises(DomainError):
            log_hermite_values(X, Y, 2)
    with pytest.raises(DomainError):
        log_hermite_values(1.0, 1.0, -1)


def test_hermite_matches_taylor_of_generating_exponential():
    # Coefficients of exp(X t + Y t^2 / 2): n! [t^n] via direct expansion.
    X, Y = 1.7, 0.9
    terms = 13
    coeffs = np.zeros(terms)
    for i in range(terms):       # (X t)^i / i!
        for j in range(terms):   # (Y t^2 / 2)^j / j!
            deg = i + 2 * j
            if deg < terms:
                coeffs[deg] += X**i / math.factorial(i) * (Y / 2) ** j / math.factorial(j)
    logs = log_hermite_values(X, Y, terms - 1)
    for n in range(terms):
        expected = coeffs[n] * math.factorial(n)
        assert math.isclose(math.exp(logs[n]), expected, rel_tol=1e-9)


def test_safeguarded_root_bracket_and_newton():
    probes = []

    def cube(x):
        probes.append(x)
        return x**3 - 2.0, 3.0 * x * x

    x, steps = safeguarded_root(cube, 0.0, tol=1e-14)
    assert abs(x - 2.0 ** (1.0 / 3.0)) <= 1e-14
    # f'(0) = 0, so the first step goes the whole first reach of 1.0; from
    # there each point is a Newton step from the last, 4/3 inside a reach of 2.
    assert probes[:3] == [0.0, 1.0, 4.0 / 3.0]
    # Bracket probes 1, 3, then Newton from the midpoint 2 took 9 evaluations.
    assert steps == len(probes) - 1 <= 6 and x == probes[-1]
    # A known (f, f') at the start spares that evaluation; a root there ends it.
    probes.clear()
    assert safeguarded_root(cube, 0.0, tol=1e-14, f_start=(-2.0, 0.0))[0] == x
    assert probes[0] == 1.0
    assert safeguarded_root(cube, 5.0, tol=1e-14, f_start=(0.0, 75.0)) == (5.0, 0)
    # Once f has changed sign, a Newton step that leaves the bracket bisects:
    # from 3.19, atan's Newton step lands below 0, so the next point is 1.597.
    probes.clear()

    def arctan(x):
        probes.append(x)
        return math.atan(x - 1.5), 1.0 / (1.0 + (x - 1.5) ** 2)

    x, steps = safeguarded_root(arctan, 0.0, tol=1e-14, step=4.0)
    first = 0.0 - math.atan(-1.5) / (1.0 / (1.0 + 1.5**2))
    assert probes[:3] == [0.0, first, 0.5 * first]
    assert x == 1.5 and steps == len(probes) - 1 == 5


def test_safeguarded_root_warm_start_step():
    probes = []

    def line(x):
        probes.append(x)
        return x - 2.3, 1.0

    # While f keeps its sign, a step goes at most step, 2 step, 4 step, ...
    # past the last point: Newton's 1.3 is cut to 0.25, then to 0.5, and the
    # third step, 0.55 inside a reach of 1.0, lands on the root.
    x, steps = safeguarded_root(line, 1.0, tol=1e-14, f_start=(-1.3, 1.0), step=0.25)
    assert probes[:2] == [1.25, 1.75] and steps == len(probes) == 3
    assert math.isclose(x, 2.3, rel_tol=0, abs_tol=1e-14)
    # Toward a root below the start the steps go down; the bracket-then-midpoint
    # loop took 5 and 4 evaluations for these two.
    probes.clear()
    safeguarded_root(line, 3.0, tol=1e-14, f_start=(0.7, 1.0), step=0.5)
    assert probes[0] == 2.5 and len(probes) == 2
    # A start within tol is the root: nothing is evaluated.
    probes.clear()
    assert safeguarded_root(line, 2.3, tol=1e-9, f_start=(1e-10, 1.0), step=0.5) == (2.3, 0)
    assert probes == []


def test_safeguarded_root_limit():
    def saturating(x):
        return math.tanh(x) - 1.5, 1.0 / math.cosh(x) ** 2

    with pytest.raises(ConvergenceError):
        safeguarded_root(saturating, 0.0, tol=1e-12, limit=60.0)
    # The last probe is clamped to the limit: a root at 50 is still found.
    x, _ = safeguarded_root(lambda x: (x - 50.0, 1.0), 0.0, tol=1e-12, limit=60.0)
    assert x == 50.0


def test_safeguarded_root_flat_tail_steps_grow():
    # On e^x - 1e-12 every Newton step from the right is about 1 long and
    # so is the next correction.  Such a step has not converged, so the next
    # one goes the whole reach: the steps are about 1, 2, 1, 8, 1, 32.
    probes = []

    def tail(x):
        probes.append(x)
        return math.exp(x) - 1e-12, math.exp(x)

    x, steps = safeguarded_root(tail, 0.0, tol=1e-25)
    assert math.isclose(x, math.log(1e-12), rel_tol=1e-15)
    lengths = [a - b for a, b in zip(probes[:6], probes[1:7])]
    assert [round(s) for s in lengths] == [1, 2, 1, 8, 1, 32]
    assert steps == len(probes) - 1 <= 15
    # Toward a limit short of the root, ConvergenceError comes after 6 steps.
    probes.clear()
    with pytest.raises(ConvergenceError):
        safeguarded_root(tail, 0.0, tol=1e-25, limit=20.0)
    assert probes[-1] == -20.0 and len(probes) == 7


def _double_root_cgf(probes):
    # F(theta) = log((e^theta + 1)/2): F' is the logistic function s, so the
    # conjugate point of u is exactly log(u/(1 - u)); F'' = s(1 - s),
    # F''' = s(1 - s)(1 - 2s) and F'''' = s(1 - s)(1 - 6s + 6s^2).
    def cgf(theta):
        probes.append(theta)
        s = 1.0 / (1.0 + math.exp(-theta))
        v = s * (1.0 - s)
        return CgfValues(
            math.log1p(math.exp(theta)) - math.log(2.0),
            s,
            v,
            v * (1.0 - 2.0 * s),
            v * (1.0 - 6.0 * s * (1.0 - s)),
        )

    return cgf


def test_conjugate_root_cold_and_warm_agree():
    probes = []
    cgf = _double_root_cgf(probes)
    tol = 1e-13
    for u in (0.05, 0.3, 0.5, 0.7, 0.95):
        probes.clear()
        theta, vals, _ = conjugate_root(cgf, u, at_zero=cgf(0.0), tol=tol)
        # Cold: the first point is the Newton step from theta = 0, cut to a
        # length of 1.0 (F'(0) = 1/2 is itself the root at u = 1/2).
        newton = 0.0 - (0.5 - u) / 0.25
        assert probes[1:2] == ([] if u == 0.5 else [max(-1.0, min(1.0, newton))])
        assert abs(vals.deriv1 - u) <= tol and vals == cgf(theta)
        assert math.isclose(theta, math.log(u / (1.0 - u)), rel_tol=0, abs_tol=1e-12)
        # Warm from the solve at a nearby target: the first point is the
        # third-order predictor, and the bracket-then-midpoint loop's 3 to 5
        # evaluations fall to 2 or 3.
        near_theta, near_vals, _ = conjugate_root(cgf, u + 0.01, tol=tol)
        probes.clear()
        warm, warm_vals, steps = conjugate_root(cgf, u, (near_theta, near_vals), tol=tol)
        d = -(near_vals.deriv1 - u) / near_vals.deriv2
        a, b = near_vals.deriv3 / near_vals.deriv2, near_vals.deriv4 / near_vals.deriv2
        assert math.isclose(
            probes[0], near_theta + d - a * d * d / 2 + (a * a / 2 - b / 6) * d**3, abs_tol=1e-15
        )
        assert steps == len(probes) <= 3
        assert abs(warm_vals.deriv1 - u) <= tol
        assert abs(warm - theta) <= tol / vals.deriv2


def test_conjugate_root_warm_at_its_own_root():
    probes = []
    cgf = _double_root_cgf(probes)
    near = (math.log(3.0), cgf(math.log(3.0)))
    probes.clear()
    theta, vals, steps = conjugate_root(cgf, near[1].deriv1, near, tol=1e-13)
    assert (theta, steps) == (near[0], 0) and vals is near[1]
    assert probes == []


def test_conjugate_root_flat_warm_start_steps_one():
    # A warm start whose F'' rounded to zero has no predictor: its first step
    # goes 1.0, and Newton runs on from there.
    probes = []
    cgf = _double_root_cgf(probes)
    near = (0.0, CgfValues(0.0, 0.5, 0.0, 0.0, 0.0))
    theta, _, steps = conjugate_root(cgf, 0.8, near, tol=1e-13)
    at_one = _double_root_cgf([])(1.0)
    assert probes[:2] == [1.0, 1.0 - (at_one.deriv1 - 0.8) / at_one.deriv2]
    # The bracket probes 1 and 3, then Newton from the midpoint 2, took 8.
    assert steps == len(probes) <= 5
    assert math.isclose(theta, math.log(4.0), rel_tol=0, abs_tol=1e-12)


def test_conjugate_root_wall():
    cgf = _double_root_cgf([])
    # F'(5) < 0.999, so the root log(999) ~ 6.9 lies past a wall at 5.
    with pytest.raises(ConvergenceError):
        conjugate_root(cgf, 0.999, tol=1e-13, walls=(-5.0, 5.0))
    with pytest.raises(ConvergenceError):
        conjugate_root(cgf, 0.001, (1.0, cgf(1.0)), tol=1e-13, walls=(-5.0, 5.0))
    # The walls are absolute, not distances from the start: from theta = 3 a
    # root at -3.5 is found inside a wall at -4.
    u = 1.0 / (1.0 + math.exp(3.5))
    theta, _, _ = conjugate_root(cgf, u, (3.0, cgf(3.0)), tol=1e-13, walls=(-4.0, 4.0))
    assert math.isclose(theta, -3.5, rel_tol=0, abs_tol=1e-11)
    theta, _, _ = conjugate_root(cgf, 0.99, tol=1e-13, walls=(-5.0, 5.0))
    assert math.isclose(theta, math.log(99.0), rel_tol=0, abs_tol=1e-11)
    # Each side has its own wall: -3.5 lies inside (-4, 1) but past (-3, 10).
    theta, _, _ = conjugate_root(cgf, u, tol=1e-13, walls=(-4.0, 1.0))
    assert math.isclose(theta, -3.5, rel_tol=0, abs_tol=1e-11)
    with pytest.raises(ConvergenceError):
        conjugate_root(cgf, u, tol=1e-13, walls=(-3.0, 10.0))
