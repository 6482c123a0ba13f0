import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmotzkin import (
    AccuracyError,
    CapacityError,
    DomainError,
    LOG_ZERO,
    ModelParams,
    build_triangle,
    final_log_row,
    height_distribution,
)
from wmotzkin import cli, exact, ldp
from wmotzkin.closedform import SingularityMap
from oracles import brute_force_oracle, exact_log_row, log_sum_exp, rescaled_log_rows
from corpus import (
    CORPUS,
    CLASSIC,
    DEGENERATE,
    DEGENERATE_QUADRATIC,
    DOUBLE_ROOT,
    SHOWCASE,
)


def test_row_zero_and_boundary():
    for params in (CLASSIC, SHOWCASE):
        tri = build_triangle(params, 0)
        assert tri.row(0) == [1]
    assert brute_force_oracle(CLASSIC, 0) == [1]


def test_classic_rows():
    tri = build_triangle(CLASSIC, 4)
    assert tri.row(3) == [4, 5, 3, 1]
    assert tri.row(4)[0] == 9  # 4th classical path count at height 0


def test_oracle_examples():
    assert brute_force_oracle(CLASSIC, 3) == [4, 5, 3, 1]
    assert brute_force_oracle(DOUBLE_ROOT, 1) == [0, 1]
    with pytest.raises(CapacityError):
        brute_force_oracle(CLASSIC, 15)


def test_oracle_equivalence_corpus():
    for params in CORPUS:
        tri = build_triangle(params, 8)
        for n in range(9):
            assert tri.row(n) == brute_force_oracle(params, n), (params, n)


small_param = st.integers(min_value=0, max_value=4)


@settings(max_examples=30, deadline=None)
@given(
    st.builds(
        ModelParams, small_param, small_param, small_param, small_param,
        small_param, small_param,
    ),
    st.integers(min_value=0, max_value=6),
)
def test_oracle_equivalence_random(params, n):
    tri = build_triangle(params, n)
    assert tri.row(n) == brute_force_oracle(params, n)


# ----- polynomial-recurrence consistency (independent symbolic route) ----- #


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_add(*polys):
    size = max(len(p) for p in polys)
    out = [0] * size
    for p in polys:
        for i, v in enumerate(p):
            out[i] += v
    return out


def _next_polynomial(coeffs, params):
    """Q*P' + (alpha0*x + gamma0)*P + (beta0 - C)*(P - P(0))/x, exactly."""
    A, B, C = params.a, params.c, params.b
    deriv = [i * v for i, v in enumerate(coeffs)][1:] or [0]
    term1 = _poly_mul([C, B, A], deriv)
    term2 = _poly_mul([params.gamma0, params.alpha0], coeffs)
    shifted = coeffs[1:] or [0]  # (P - P(0)) / x
    term3 = [(params.beta0 - C) * v for v in shifted]
    return _poly_add(term1, term2, term3)


def test_polynomial_recurrence_consistency():
    # Exercises the nonlocal (P - P(0))/x term for unbalanced entries too.
    for params in CORPUS:
        poly = [1]
        tri = build_triangle(params, 8)
        for n in range(8):
            poly = _next_polynomial(poly, params)
            row = tri.row(n + 1)
            padded = poly + [0] * (len(row) - len(poly))
            assert padded[: len(row)] == row, (params, n + 1)


def _log_pn(tri, n, x):
    """log P_n(x) = log sum_k w[n][k] x^k, as the asym subcommand sums it."""
    return log_sum_exp(exact_log_row(tri, n) + np.arange(n + 1) * math.log(x))


def test_polynomial_eval():
    tri = build_triangle(DOUBLE_ROOT, 3)
    assert math.isclose(_log_pn(tri, 2, 1.0), math.log(5.0), rel_tol=1e-12)
    assert _log_pn(tri, 0, 3.7) == 0.0
    tri = build_triangle(CLASSIC, 3)
    assert math.isclose(_log_pn(tri, 3, 1.0), math.log(13.0), rel_tol=1e-12)


def test_log_space_matches_exact():
    for params in CORPUS:
        exact_tri = build_triangle(params, 60)
        logs = list(exact.iter_log_rows(params, 60))
        for n in (10, 30, 60):
            reference = exact_log_row(exact_tri, n)
            got = logs[n]
            for k in range(n + 1):
                if exact_tri.row(n)[k] == 0:
                    assert got[k] == LOG_ZERO
                elif n <= 30:
                    assert abs(got[k] - reference[k]) <= 1e-12
                else:
                    assert abs(got[k] - reference[k]) <= 1e-9


def test_distribution_examples():
    dist = height_distribution(CLASSIC, 3)
    expected = np.log(np.array([4, 5, 3, 1]) / 13.0)
    assert np.allclose(dist.log_p, expected, atol=1e-12)
    assert math.isclose(dist.mean, 14.0 / 13.0, rel_tol=1e-12)

    dist0 = height_distribution(CLASSIC, 0)
    assert dist0.mean == 0.0 and dist0.variance == 0.0
    assert dist0.log_p[0] == 0.0


def test_distribution_normalization_and_bounds():
    for params in CORPUS:
        dist = height_distribution(params, 40)
        total = np.logaddexp.reduce(dist.log_p)
        assert abs(total) <= 1e-10
        assert dist.variance >= 0.0
        assert 0.0 <= dist.mean <= 40.0


def test_mean_fraction_approaches_drift_sensitivity():
    dist = height_distribution(SHOWCASE, 100)
    chi_1 = SingularityMap(SHOWCASE).cgf(0.0).deriv1  # F'(0) = chi(1)
    assert abs(dist.mean / 100 - chi_1) < 0.02


def test_degenerate_point_mass():
    params = ModelParams(0, 1, 0, 0, 1, 2)
    dist = height_distribution(params, 12)
    assert dist.mean == 0.0
    assert dist.variance == 0.0
    assert dist.log_p[0] == 0.0
    assert all(v == LOG_ZERO for v in dist.log_p[1:])


def test_variance_matches_big_int_moment():
    # The variance is the compensated second central moment of the row; the
    # factorial-moment form E[k(k-1)] + mean - mean^2 lost 2e-11 here.
    params = ModelParams(3, 1, 4, 2, 1, 2)
    row = build_triangle(params, 300).row(300)
    total = sum(row)
    mean = Fraction(sum(k * w for k, w in enumerate(row)), total)
    exact = float(Fraction(sum(k * k * w for k, w in enumerate(row)), total) - mean * mean)
    assert math.isclose(exact, 67.83225389749464, rel_tol=1e-15)
    assert math.isclose(height_distribution(params, 300).variance, exact, rel_tol=1e-12)


def test_capacity_budget(monkeypatch):
    # Row 0 counts one bit; the error names the first row whose running
    # total passes the budget.  The streamed int rows raise at that row too,
    # after yielding every row before it.
    full = build_triangle(SHOWCASE, 200).rows  # 2.0e7 bits, inside BIT_BUDGET = 2**30
    bits, row = 0, None
    for n, weights in enumerate(full):
        bits += sum(w.bit_length() for w in weights)
        if bits > 10_000:
            row = n
            break
    monkeypatch.setattr(exact, "BIT_BUDGET", 0)
    assert build_triangle(SHOWCASE, 0).rows == [[1]]
    assert list(exact.iter_int_rows(SHOWCASE, 0)) == [[1]]
    for budget, at in ((10_000, row), (1, 1)):
        monkeypatch.setattr(exact, "BIT_BUDGET", budget)
        match = f"^exact triangle exceeds {budget} bits at row {at}; use the log-space rows"
        with pytest.raises(CapacityError, match=match):
            build_triangle(SHOWCASE, 200)
        yielded = []
        with pytest.raises(CapacityError, match=match):
            for weights in exact.iter_int_rows(SHOWCASE, 200):
                yielded.append(weights)
        assert yielded == full[:at]


@pytest.mark.parametrize("params", CORPUS, ids=str)
def test_decimal_rows_match_int_rows(params):
    # Structural zeros print as "0", alpha0 = 0 models included.
    tri = build_triangle(params, 40)
    rows = list(exact.iter_decimal_rows(params, 40))
    assert rows == [list(map(str, tri.row(n))) for n in range(41)]


# ----- log-space rows: zero structure, accuracy, reach ----- #


def _assert_log_rows_match_exact(params, n_max, rel_tol):
    """Every log-space row equals the logs of the big-int row: zeros exactly
    -inf, every other entry finite and within rel_tol * max(1, |L|)."""
    exact_tri = build_triangle(params, n_max)
    logs = list(exact.iter_log_rows(params, n_max))
    for n in range(n_max + 1):
        got = logs[n]
        zero = np.array([w == 0 for w in exact_tri.row(n)])
        assert np.all(got[zero] == LOG_ZERO), (params, n)
        assert np.all(np.isfinite(got[~zero])), (params, n)
        ref = exact_log_row(exact_tri, n)[~zero]
        err = np.abs(got[~zero] - ref) / np.maximum(1.0, np.abs(ref))
        assert err.size == 0 or err.max() <= rel_tol, (params, n, err.max())


ZERO_STRUCTURE = [
    ModelParams(1, 1, 2, 0, 1, 1),  # alpha0 = 0: point mass at 0
    ModelParams(1, 1, 2, 0, 1, 0),  # alpha0 = gamma0 = 0: empty rows
    ModelParams(1, 0, 2, 3, 0, 1),  # b = beta0 = 0: no down steps
    ModelParams(2, 0, 0, 1, 0, 0),  # up steps only: one entry per row
    ModelParams(0, 1, 0, 2, 2, 0),  # c = gamma0 = 0: parity zeros
    ModelParams(1, 2, 0, 1, 0, 0),  # parity zeros, height 0 never regained
    DEGENERATE,
    DEGENERATE_QUADRATIC,
]


@pytest.mark.parametrize(
    "params", ZERO_STRUCTURE, ids=lambda p: ",".join(map(str, p.as_tuple()))
)
def test_log_space_zero_structure(params):
    _assert_log_rows_match_exact(params, 120, 1e-12)
    n = 3001
    row = final_log_row(params, n)
    assert not np.any(np.isnan(row)) and not np.any(row == np.inf)
    k = np.arange(n + 1)
    finite = np.isfinite(row)
    if params.alpha0 == 0:
        assert np.array_equal(finite, (k == 0) & (params.gamma0 > 0))
    elif params.b == params.beta0 == 0 and params.c == params.gamma0 == 0:
        assert np.array_equal(finite, k == n)
    elif params.c == params.gamma0 == 0:
        assert np.array_equal(finite, (k % 2 == n % 2) & (k >= 1 - min(params.beta0, 1)))
    else:
        assert finite.all()


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        ModelParams, *[st.integers(min_value=0, max_value=5) for _ in range(6)]
    ),
    st.integers(min_value=0, max_value=60),
)
def test_log_space_matches_exact_random(params, n):
    _assert_log_rows_match_exact(params, n, 1e-12)


def _logaddexp_rows(params, n_max):
    """The earlier log-space recurrence, two logaddexp passes per row."""
    k = np.arange(n_max + 2, dtype=float)
    with np.errstate(divide="ignore"):
        la = np.log(params.a * k + params.alpha0)
        lb = np.log(params.b * k + params.beta0)
        lg = np.log(params.c * k + params.gamma0)
    row = np.zeros(1)
    for n in range(n_max):
        up = np.concatenate(([LOG_ZERO], la[: n + 1] + row))
        stay = np.concatenate((lg[: n + 1] + row, [LOG_ZERO]))
        down = np.concatenate((lb[:n] + row[1:], [LOG_ZERO, LOG_ZERO]))
        row = np.logaddexp(np.logaddexp(up, stay), down)
    return row


def test_final_row_matches_logaddexp_reference():
    # n = 1000 spans 17 to 45 blocks per corpus model; the reference's
    # O(n^2) logaddexp passes cost a ninth of what they cost at n = 3000.
    n = 1000
    for params in CORPUS:
        ref = _logaddexp_rows(params, n)
        got = final_log_row(params, n)
        finite = np.isfinite(ref)
        assert np.array_equal(finite, np.isfinite(got)), params
        err = np.abs(got[finite] - ref[finite]) / np.maximum(1.0, np.abs(ref[finite]))
        assert err.max() <= 1e-11, (params, err.max())


def test_log_space_cap_is_finite():
    row = final_log_row(SHOWCASE, 20000)
    assert row.size == 20001
    assert np.all(np.isfinite(row))


def test_lost_precision_raises(monkeypatch):
    # Blocks ten times too long let the tail fall out of a double's range
    # under one column scale; the row check must refuse, not yield -inf,
    # at the same row whether every row or the last row alone is asked for.
    monkeypatch.setattr(exact, "_BLOCK_BUDGET", 6000.0)
    with pytest.raises(AccuracyError, match=r"log-space row \d+ ") as last_only:
        final_log_row(SHOWCASE, 400)
    with pytest.raises(AccuracyError) as every_row:
        list(exact.iter_log_rows(SHOWCASE, 400))
    assert str(last_only.value) == str(every_row.value)


# ----- last-row builds: the logs of unread rows are skipped ----- #


def _block_lengths(params):
    """Lengths 0 and 1, and for each of B - 1, B, B + 1 and 3B + 2 the
    shortest length n at or past it, with B the block size of a build to n
    (it shrinks as n grows, so n = B itself may not occur)."""
    lengths = {0, 1}
    for blocks, extra in ((1, -1), (1, 0), (1, 1), (3, 2)):
        past = (n for n in itertools.count(1)
                if n >= blocks * exact._block_size(params, n) + extra)
        lengths.add(next(past))
    return sorted(lengths)


@pytest.mark.parametrize("rows", [exact.iter_log_rows, exact.iter_int_rows,
                                  exact.iter_decimal_rows])
def test_negative_n_max_refused_at_first_row(rows):
    stream = rows(SHOWCASE, -1)  # nothing is checked before the first row
    with pytest.raises(DomainError, match="^n_max must be nonnegative, got -1$"):
        next(stream)


def test_streaming_matches_full_build():
    # final_log_row takes no logs of the rows it does not return; its row
    # must still be the last row of a build that yields every row.
    for params in CORPUS + ZERO_STRUCTURE:
        for n in _block_lengths(params):
            logs = list(exact.iter_log_rows(params, n))
            assert len(logs) == n + 1
            assert np.array_equal(final_log_row(params, n), logs[n]), (params, n)


def _build(rows, params, n):
    """The bytes of each row a build yields, or the text of its AccuracyError."""
    try:
        return [row.tobytes() for row in rows(params, n)]
    except AccuracyError as err:
        return str(err)


def _last_row(params, n):
    return [final_log_row(params, n)]


def _last_rescaled_row(params, n):
    return list(rescaled_log_rows(params, n, True))[-1:]


def _assert_builds_match_every_step_rescale(params, n):
    for rows, ref in ((exact.iter_log_rows, rescaled_log_rows), (_last_row, _last_rescaled_row)):
        assert _build(rows, params, n) == _build(ref, params, n), (params, n, rows)


@pytest.mark.parametrize("window", [None, (1, 0), (-4, 16)], ids=["held", "empty", "narrow"])
def test_log_rows_match_every_step_rescale(monkeypatch, window):
    # iter_log_rows divides a row by the power of two it carries only where
    # its logs are taken or the power leaves _HELD; the oracle divides every
    # row.  A division by a power of two is exact, so every row must match
    # bit for bit: with the module's window (where the corpus at n = 1000
    # leaves it 22 times mid-block), with an empty one (a division at every
    # step) and with a narrow one (the power leaves it every few steps;
    # a = 10**30 grows about 100 bits a step).
    if window:
        monkeypatch.setattr(exact, "_HELD", window)
    for params in CORPUS + ZERO_STRUCTURE + [ModelParams(10**30, 1, 1, 1, 1, 1)]:
        for n in _block_lengths(params) + [1000] * (window is None):
            _assert_builds_match_every_step_rescale(params, n)


def test_lost_precision_matches_every_step_rescale(monkeypatch):
    # Blocks ten times too long: 20 of these 26 builds fail, each at the
    # oracle's row with its text, whether every row or the last is asked for.
    monkeypatch.setattr(exact, "_BLOCK_BUDGET", 6000.0)
    for params in CORPUS + [ModelParams(10**30, 1, 1, 1, 1, 1)]:
        _assert_builds_match_every_step_rescale(params, 400)


@pytest.mark.parametrize("params", [
    ModelParams(0, 3, 2, 2**819, 2**590, 3),
    ModelParams(0, 0, 0, 2**949, 2**799, 6),
    ModelParams(2**929, 2**250, 1, 2**175, 2**438, 5),
    ModelParams(4, 0, 0, 2**638, 3, 2**1020),
], ids=["dist-repro", "constant", "quadratic", "step-sum"])
def test_inf_folded_weight_fails_like_every_step_rescale(params):
    # A folded down weight past the doubles (inf) meets a structural zero in
    # the block's first step, or (step-sum) finite folded weights near 2^1024
    # sum past the doubles on a row of entries below 1, at row 16.  The build
    # raises the oracle's AccuracyError at the oracle's row, with no numpy
    # RuntimeWarning (pytest makes those errors); only the oracle's own
    # inf * 0 and overflow are silenced.
    for rows, ref in ((exact.iter_log_rows, rescaled_log_rows), (_last_row, _last_rescaled_row)):
        with np.errstate(invalid="ignore", over="ignore"):
            expected = _build(ref, params, 90)
        assert isinstance(expected, str)
        assert _build(rows, params, 90) == expected


def test_row_builds_pass_through_a_yield_from_wrapper(monkeypatch, capsys):
    # A span wrapper that forwards the generator with `yield from`, as the
    # benchmark's tracer around the module's iter_log_rows does: every
    # final-row caller builds once per N through the module global, with
    # (params, n), and runs each build to its end rather than closing it.
    unwrapped = exact.iter_log_rows
    calls, drained = [], []

    @functools.wraps(unwrapped)
    def wrapper(*args, **kwargs):
        calls.append(args)
        yield from unwrapped(*args, **kwargs)
        drained.append(args)

    def last_row(n):
        return list(unwrapped(SHOWCASE, n))[-1]

    def traced(fn, *args):
        calls.clear()
        drained.clear()
        with monkeypatch.context() as m:
            m.setattr(exact, "iter_log_rows", wrapper)
            result = fn(*args)
        assert drained == calls
        return result

    for n in (0, 1, 57, 400):
        assert np.array_equal(traced(final_log_row, SHOWCASE, n), last_row(n))
        assert calls == [(SHOWCASE, n)]
    dist = traced(height_distribution, SHOWCASE, 100)
    assert calls == [(SHOWCASE, 100)]
    assert np.array_equal(dist.log_p, height_distribution(SHOWCASE, 100).log_p)
    u_grid, n_list = [0.0, 0.25, 0.5, 1.0], [50, 100, 200]
    rates = traced(ldp.empirical_rates, SHOWCASE, u_grid, n_list)
    assert calls == [(SHOWCASE, n) for n in n_list]
    assert rates == ldp.empirical_rates(SHOWCASE, u_grid, n_list)
    argv = ["asym", "--params", " ".join(f"{k}={v}" for k, v in SHOWCASE.to_dict().items()),
            "--N-list", ",".join(map(str, n_list))]
    assert traced(cli.main, argv) == 0
    assert calls == [(SHOWCASE, n) for n in n_list]
    wrapped_out = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert wrapped_out.count("\n") == len(n_list) + 1
    assert wrapped_out == capsys.readouterr().out
