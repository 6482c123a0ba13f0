"""Spans and counters around the public functions of each wmotzkin layer.

The tracer patches functions from outside the package: a span records
(id, parent id, name, start, end, round) and stays in memory until the run
ends.  Functions that another module imported by name are patched where
they are bound, since patching the defining module alone would miss those
call sites.  A layer's self time is its spans' time minus the time of
their direct child spans.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

# Per-layer metrics, in report order: (name, unit).
PER_LAYER = [
    ("exact.log_rows.self_s", "s"),
    ("exact.log_rows.calls", "count"),
    ("exact.log_rows.cells", "count"),
    ("exact.triangle.self_s", "s"),
    ("exact.triangle.bits", "bit"),
    ("exact.distribution.self_s", "s"),
    ("saddlepoint.solve.self_s", "s"),
    ("saddlepoint.solve.calls", "count"),
    ("saddlepoint.newton_iters", "count"),
    ("saddlepoint.kappa.calls", "count"),
    ("ldp.rate.self_s", "s"),
    ("ldp.rate.calls", "count"),
    ("ldp.cgf.calls", "count"),
    ("closedform.taylor.self_s", "s"),
    ("closedform.taylor.calls", "count"),
    ("closedform.taylor.failed", "count"),
    ("closedform.tau.calls", "count"),
    ("asymptotics.self_s", "s"),
    ("asymptotics.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "B"),
    ("trace.wall_s", "s"),
]

class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, round]
        self.counts = []  # one Counter per round
        self.round = -1
        self._stack = []

    def start_round(self):
        self.round += 1
        self.counts.append(Counter())

    def count(self, name, amount=1):
        self.counts[self.round][name] += amount

    def open(self, name):
        span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                name, time.perf_counter(), None, self.round]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def reset(self):
        """Drop everything recorded so far (used after warm-up)."""
        self.__init__()

    def span(self, name, fn, on_result=None, on_error=None):
        """fn wrapped in a span counted as "<name>.calls".

        The hooks see the result or the error; on_result runs after the
        span closes, so its cost falls to the caller.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                self.close(span)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def generator_span(self, name, fn, on_call=None):
        """Span over a generator from its first row to exhaustion.

        Exact only because every consumer in the program drains the
        generator in a tight loop that calls no other traced function.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            if on_call is not None:
                on_call(self, *args, **kwargs)
            span = self.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper


def install(tracer: Tracer) -> None:
    """Patch the layer boundaries of the imported wmotzkin package."""
    from wmotzkin import asymptotics, cli, closedform, exact, ldp, saddlepoint
    from wmotzkin.errors import AccuracyError

    def cells(t, params, n_max):
        t.count("exact.log_rows.cells", (n_max + 1) * (n_max + 2) // 2)

    # Every log-space row build (final_log_row, build_triangle) goes through
    # the module global iter_log_rows of exact.
    exact.iter_log_rows = tracer.generator_span("exact.log_rows", exact.iter_log_rows, cells)

    def bits(t, tri):
        if tri.representation == "exact":
            t.count("exact.triangle.bits", sum(w.bit_length() for row in tri.rows for w in row))

    build = tracer.span("exact.triangle", exact.build_triangle, on_result=bits)
    exact.build_triangle = cli.build_triangle = build

    dist = tracer.span("exact.distribution", exact._distribution_from_log_row)
    exact._distribution_from_log_row = dist
    cli._distribution_from_log_row = dist
    saddlepoint._distribution_from_log_row = dist

    ev = saddlepoint.CumulantEvaluator

    def iters(t, result):
        t.count("saddlepoint.newton_iters", result.iterations)

    ev.solve_saddle = tracer.span("saddlepoint.solve", ev.solve_saddle, on_result=iters)
    ev.kappa = tracer.counted("saddlepoint.kappa.calls", ev.kappa)

    ldp.rate_function = tracer.span("ldp.rate", ldp.rate_function)
    ldp.limit_cgf = tracer.counted("ldp.cgf.calls", ldp.limit_cgf)

    def taylor_failed(t, exc):
        if isinstance(exc, AccuracyError):
            t.count("closedform.taylor.failed")

    egf = closedform.EgfEvaluator
    egf.taylor_coefficients = tracer.span(
        "closedform.taylor", egf.taylor_coefficients, on_error=taylor_failed)
    smap = closedform.SingularityMap
    smap.tau = tracer.counted("closedform.tau.calls", smap.tau)

    for name in ("log_pn_quadratic", "asymptotic_moments", "gaussian_local_law",
                 "log_pn_constant_drift", "log_pn_constant_drift_exact",
                 "constant_drift_moments", "log_pn_linear_drift"):
        setattr(asymptotics, name, tracer.span("asymptotics", getattr(asymptotics, name)))


def self_times(spans) -> dict:
    """{(round, name): self seconds} over closed spans."""
    child_time = Counter()
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[4] - span[3]
    out = Counter()
    for span in spans:
        out[(span[5], span[2])] += span[4] - span[3] - child_time[span[0]]
    return out


def per_layer(spans, counts) -> dict:
    """Per-round medians of every per-layer metric: {name: value}."""
    rounds = len(counts)
    selfs = self_times(spans)
    walls = Counter()
    for span in spans:
        if span[1] is None:
            walls[span[5]] += span[4] - span[3]
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.wall_s":
            values = [walls[r] for r in range(rounds)]
        elif name.endswith(".self_s"):
            values = [selfs[(r, name[: -len(".self_s")])] for r in range(rounds)]
        else:
            values = [counts[r].get(name, 0) for r in range(rounds)]
        out[name] = statistics.median(values)
    return out
