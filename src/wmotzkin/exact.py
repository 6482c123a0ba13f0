"""Exact weight triangles and the normalized height distribution.

The triangle row recurrence is

    w[n+1][k] = alpha_{k-1} w[n][k-1] + gamma_k w[n][k] + beta_k w[n][k+1]

with w[0][0] = 1 and out-of-range entries zero.  Exact arbitrary-precision
integers (weights grow factorially for height-linear multiplicities) fill
`build_triangle`; log-space doubles, which carry n into the tens of
thousands, come from `iter_log_rows` alone, in linear space under
per-column scales; zero weights map to -inf.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import AccuracyError, CapacityError, DomainError
from .model import ModelParams
from .specfun import LOG_ZERO, tilted_cgf

# Budget on the total stored integer size of an exact build (bits).
BIT_BUDGET = 1 << 30


@dataclass
class Triangle:
    """Exact weight array rows[n][k] from row 0 on."""

    representation = "exact"  # not a field: perfbench/tracing.py reads it
    rows: list[list[int]]

    def row(self, n: int):
        if not 0 <= n < len(self.rows):
            raise DomainError(f"row {n} outside built range 0..{len(self.rows) - 1}")
        return self.rows[n]


# One column scale serves a block of steps; every scaled entry must stay
# within e^{+-_BLOCK_BUDGET} of the row maximum over the block.
_BLOCK_BUDGET = 600.0
# Smallest scaled nonzero entry accepted.  2^-960 lies far above the
# subnormal range (2^-1022), so no nonzero weight loses precision unseen.
_TINY = 2.0**-960
# A step leaves its row times 2^held, a power of two divided out (exactly: every entry stays
# a normal double) where the row's logs are taken, or once held leaves this window or its cap.
_HELD = (-32, 512)
_LOG2 = math.log(2.0)


def _support_sizes(params: ModelParams) -> Iterator[int]:
    """Numbers of structurally nonzero entries of rows 1, 2, ..., in turn.

    alpha0 = 0 pins the walk at height 0.  Otherwise row 1 holds height 1,
    and 0 when gamma0 > 0, and row m >= 2 the heights m, m - step, ... down
    to the lowest reachable height lo, where step is 2 without level steps
    (c = gamma0 = 0) and 1 with them.  Height 0 is reached by staying
    (gamma0 > 0) or by returning (beta0 > 0); otherwise lo is 1, or m when
    there are neither level nor down steps.
    """
    p = params
    if p.alpha0 == 0:
        return itertools.repeat(1 if p.gamma0 else 0)
    step = 1 if p.c or p.gamma0 else 2
    if step == 2 and not (p.b or p.beta0):
        return itertools.repeat(1)
    lo = 0 if p.gamma0 or p.beta0 else 1
    rest = ((m - lo) // step + 1 for m in itertools.count(2))
    return itertools.chain([2 if p.gamma0 else 1], rest)


def _block_size(params: ModelParams, n_max: int) -> int:
    """Steps per column scale, from the step weights alone.

    W, the largest total weight of the three steps at a height up to n_max,
    bounds the growth of a row per step, and (n_max + 1) * W is taken as
    the largest ratio of neighbouring entries, so one step is taken to move
    a log entry by at most D = log(3 W^2 (n_max + 1)).  Blocks of
    _BLOCK_BUDGET / D steps keep every scaled entry inside a double's range;
    `iter_log_rows` still checks every row.
    """
    p = params
    w = (p.a + p.b + p.c) * (n_max + 1) + p.alpha0 + p.beta0 + p.gamma0
    per_step = math.log(3 * max(w, 1) ** 2 * (n_max + 1))
    return max(1, int(_BLOCK_BUDGET / per_step))


def _precision_lost(params: ModelParams, n: int) -> AccuracyError:
    return AccuracyError(
        f"log-space row {n} of {params.as_tuple()}: a nonzero weight left "
        "the range of its column scale"
    )


def iter_log_rows(params: ModelParams, n_max: int) -> Iterator[np.ndarray]:
    """Yield log-space rows 0..n_max keeping O(n) memory.

    Rows advance in linear space, block by block.  At the start of a block
    the column scale s is the last log row (interpolated across its -inf
    columns, extrapolated linearly over the columns the block adds), so
    the stored row u = exp(L - s - c) is 1 on every nonzero entry and
    c = 0.  A step is three multiply-adds with the scale ratios folded into
    the weights, alpha_{k-1} e^{s_{k-1}-s_k}, gamma_k and
    beta_k e^{s_{k+1}-s_k}, which leave u times 2^held, held the exponent
    that puts the row maximum in [2^(held-1), 2^held).  The division by
    2^held, which c records, waits until the row's logs are taken or held
    leaves _HELD or its block's cap; a power of two divides exactly, so each
    row equals what a division at every step gives.  Structural zeros stay 0 (-inf).
    A nonzero entry below 2^-960 of the row maximum, or a folded weight past
    the doubles, raises AccuracyError rather than yield a wrong row; a step
    weight past the doubles, DomainError.  Sending True after row 0 asks for
    row n_max alone: every row is still built and checked, but only block
    ends (the next scale) and row n_max get logs.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    k = np.arange(n_max + 1, dtype=float)
    try:
        with np.errstate(divide="ignore", over="raise"):
            log_up = np.log(params.up_weight(k))
            log_down = np.log(params.down_weight(k))
            level = params.level_weight(k)
    except (OverflowError, FloatingPointError):
        raise DomainError(f"step weights of {params.as_tuple()} leave the doubles") from None
    block, sizes = _block_size(params, n_max), _support_sizes(params)
    row = np.zeros(1)
    last_only = yield row
    n = 0
    while n < n_max:
        steps = min(block, n_max - n)
        width = n + steps + 1  # columns of the block's last row
        cols = np.arange(width + 1, dtype=float)
        finite = row > LOG_ZERO
        nonzero = np.flatnonzero(finite)
        s = np.zeros(width + 1)
        if nonzero.size == n + 1:  # np.interp at its own nodes returns them
            s[: n + 1] = row
        elif nonzero.size:
            s[: n + 1] = np.interp(cols[: n + 1], nonzero, row[nonzero])
        slope = s[n] - s[n - 1] if n else 0.0
        s[n + 1 :] = s[n] + slope * (cols[n + 1 :] - n)
        ds = np.diff(s)
        lift, drop = folded = np.zeros((2, width))  # lift[0] multiplies the zero below column 0
        try:
            with np.errstate(over="raise"):
                np.exp(log_up[: width - 1] - ds[:-1], out=lift[1:])
                np.exp(log_down[:width] + ds, out=drop)
        except FloatingPointError:  # an inf weight: row n + 1 would hold an inf or nan
            raise _precision_lost(params, n + 1) from None
        stay = level[:width]
        # The cap keeps a step below 2^1023: 2^(1021 - top) tops every weight (levels grow
        # with k).  With top < 0 a divided row may step to inf too: the peak check fails, unwarned.
        top = min(_HELD[1], 1021 - math.frexp(max(folded.max(), stay[-1]))[1])
        quiet = np.errstate(over="ignore") if top < 0 else lambda ufunc: ufunc
        mul, add = quiet(np.multiply), quiet(np.add)

        # buf[1 + k] holds u_k 2^held; buf[0] and buf[-1] stay 0.  A step reads
        # one buffer's centre, left and right views and writes the other's.
        bufs = np.zeros(width + 2), np.zeros(width + 2)
        bufs[0][1 : n + 2] = finite
        views = [(buf[1:-1], buf[:-2], buf[2:]) for buf in bufs]
        term = np.empty(width)
        exponent = held = 0
        for step in range(steps):
            (mid, left, right), new = views[step % 2], views[1 - step % 2][0]
            mul(stay, mid, out=new)
            mul(lift, left, out=term)
            add(new, term, out=new)
            mul(drop, right, out=term)
            add(new, term, out=new)
            n += 1
            support = next(sizes)
            if support:
                peak = np.maximum.reduce(new)
                if not math.ldexp(_TINY, held) < peak < math.inf:
                    raise _precision_lost(params, n)
                held = math.frexp(peak)[1]
            if np.count_nonzero(new > math.ldexp(_TINY, held)) != support:
                raise _precision_lost(params, n)
            logged = not last_only or step + 1 == steps  # no one reads the others
            if logged or not _HELD[0] <= held <= top:
                new *= 2.0**-held
                exponent, held = exponent + held, 0
            if not logged:
                continue
            with np.errstate(divide="ignore"):  # structural zeros become -inf
                row = np.log(new[: n + 1])
            row += s[: n + 1]
            row += exponent * _LOG2
            if not last_only or n == n_max:
                yield row


def final_log_row(params: ModelParams, n: int) -> np.ndarray:
    """Log-space row n only (streaming build): the rows before it are built
    and checked, but their logs are skipped, except at block ends."""
    rows = iter_log_rows(params, n)
    row = next(rows)
    with contextlib.suppress(StopIteration):
        row = rows.send(True)  # row n, the only row after row 0
        next(rows)  # ends the build
    return row


def _exact_rows(params: ModelParams, n_max: int, one):
    """Yield exact rows 0..n_max over the number type of `one` (int or Decimal)."""
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    zero = one * 0
    # ups[k] multiplies row[k - 1]; row[-1] is zero.
    ups = [zero] + [one * params.up_weight(k) for k in range(n_max)]
    levels = [one * params.level_weight(k) for k in range(n_max + 1)]
    downs = [one * params.down_weight(k) for k in range(n_max + 1)]
    row = [one]
    for _ in range(n_max):
        yield row
        padded = [zero, *row, zero, zero]  # padded[k + 1] holds row[k]
        terms = zip(ups, levels, downs, padded, padded[1:], padded[2:])
        row = [u * left + l * mid + d * right for u, l, d, left, mid, right in terms]
    yield row


def iter_int_rows(params: ModelParams, n_max: int) -> Iterator[list[int]]:
    """Yield the int rows 0..n_max, two rows in memory; CapacityError at the first
    row whose running integer size (row 0 counts one bit) passes BIT_BUDGET."""
    bits_used = 1
    for n, row in enumerate(_exact_rows(params, n_max, 1)):
        if n:
            bits_used += sum(map(int.bit_length, row))
            if bits_used > BIT_BUDGET:
                raise CapacityError(f"exact triangle exceeds {BIT_BUDGET} bits at row {n}; "
                                    "use the log-space rows (iter_log_rows)")
        yield row


def _log_weights(row: list[int]) -> list[float]:
    """The natural logs of an int row; zero weights map to -inf."""
    return [math.log(w) if w > 0 else LOG_ZERO for w in row]


def iter_decimal_rows(params: ModelParams, n_max: int) -> Iterator[list[str]]:
    """Yield exact rows 0..n_max as the digit strings of the int rows, two
    rows in memory: str() of a Decimal takes linear time, of an int quadratic."""
    import decimal  # deferred: its import costs 2 ms and 0.5 MB, needed only here
    # Decimal arithmetic that never rounds: any inexact step raises.
    exact = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
    )
    rows = _exact_rows(params, n_max, decimal.Decimal(1))
    while True:
        # The recurrence runs in the caller's context, so this one is in
        # force for each row's arithmetic and never across a yield.
        with decimal.localcontext(exact):
            row = next(rows, None)
        if row is None:
            return
        yield list(map(str, row))


def build_triangle(params: ModelParams, n_max: int) -> Triangle:
    """Rows 0..n_max of the exact weight triangle: `iter_int_rows`, listed."""
    return Triangle(list(iter_int_rows(params, n_max)))


@dataclass
class HeightDistribution:
    """Normalized terminal-height law at a fixed length n.

    log_p holds the n+1 log probabilities; mean and variance are
    kappa_n'(0) and kappa_n''(0), and log_total = kappa_n(0) is the log of
    the normalizing row sum, all from one `tilted_cgf` at theta = 0.
    """

    log_p: np.ndarray
    mean: float
    variance: float
    log_total: float


def _distribution_from_log_row(n: int, log_row: np.ndarray) -> HeightDistribution:
    c = tilted_cgf(log_row, np.arange(n + 1, dtype=float), 0.0)
    return HeightDistribution(log_row - c.value, c.deriv1, c.deriv2, c.value)


def height_distribution(params: ModelParams, n: int) -> HeightDistribution:
    """Height distribution at length n via the streaming log-space build."""
    return _distribution_from_log_row(n, final_log_row(params, n))
