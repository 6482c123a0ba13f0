"""Command-line front end: parameter ingestion, one subcommand per
analysis, and CSV/JSON/SVG artifact emission.

Each tabular subcommand returns one `Table`, which `_write_csv` or
`_write_json` renders.  Exit codes: 0 success, 2 configuration error,
3 numeric-domain error, 4 capacity error.  All floats print with 17
significant digits so that identical configurations produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import asymptotics, exact, ldp
from .errors import (
    AccuracyError,
    BoundaryError,
    CapacityError,
    ConfigError,
    ConvergenceError,
    DomainError,
    MotzkinError,
    RegimeError,
)
from .exact import build_triangle, final_log_row, _distribution_from_log_row
from .model import DriftKind, ModelParams, classify
from .saddlepoint import profile
from .specfun import log_sum_exp

LOG10 = math.log(10.0)

CLASSIC_PARAMS = "a=0 b=0 c=0 alpha0=1 beta0=1 gamma0=1"
SHOWCASE_PARAMS = "a=1 b=5 c=6 alpha0=8 beta0=5 gamma0=1"

TRIANGLE_EXACT_MAX_N = 500
TRIANGLE_LOG_MAX_N = 20000

# Documented CSV headers (asserted by the golden tests).
TRIANGLE_HEADER_EXACT = "n,k,log_weight,weight_decimal"
TRIANGLE_HEADER_LOG = "n,k,log_weight"
DIST_HEADER = "k,log_p,p"
ASYM_HEADER = (
    "n,log_pn_exact,log_pn_asym,mu_exact,mu_asym,sigma2_exact,sigma2_asym"
)
PROFILE_HEADER = "k,log10_exact,log10_daniels,log10_gaussian"
PROFILE_LINEAR_HEADER = "k,p_exact,p_daniels,p_gaussian"
PROFILE_LOG_HEADER = "k,log10_exact,log10_daniels,log10_gaussian,log10_ldp_line"
LDP_HEADER_BASE = "u,theta,I"
EGF_HEADER = "x,n,coeff_exact,coeff_egf,rel_err"

@dataclass
class RunConfig:
    subcommand: str
    params: ModelParams
    n: int = 100
    representation: str = "exact"
    epsilon: float = 0.01
    x: float = 1.0
    x_list: list[float] = field(default_factory=lambda: [0.5, 1.0, 2.0])
    n_terms: int = 9
    u_grid: list[float] = field(default_factory=lambda: [i / 20 for i in range(1, 20)])
    n_list: list[int] = field(default_factory=list)
    out_format: str = "csv"
    out: str | None = None


def _load_params(source: str) -> ModelParams:
    path = Path(source)
    if path.is_file():
        return ModelParams.parse(path.read_text())
    return ModelParams.parse(source)


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma-separated float list: {exc}")
    if not values:
        raise ConfigError(f"{flag} must be nonempty")
    return values


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma-separated integer list: {exc}")
    if not values:
        raise ConfigError(f"{flag} must be nonempty")
    return values


# --------------------------------------------------------------------- #
# SVG emission                                                           #
# --------------------------------------------------------------------- #

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    name: str
    x: tuple
    y: tuple


@dataclass(frozen=True)
class SvgPlot:
    document: str
    dropped_points: int


def svg_plot(series: list[Series], scale: str = "linear", title: str = "") -> SvgPlot:
    """Render named series as polylines in a standalone deterministic SVG.

    With scale="log10" the y values are log-transformed; nonpositive or
    non-finite points are dropped and counted.
    """
    if scale not in ("linear", "log10"):
        raise ConfigError(f"scale must be linear or log10, got {scale!r}")
    if not series:
        raise ConfigError("svg_plot requires at least one series")
    dropped = 0
    cleaned: list[tuple[str, list[float], list[float]]] = []
    for s in series:
        if len(s.x) != len(s.y):
            raise ConfigError(f"series {s.name!r} has mismatched x/y lengths")
        xs, ys = [], []
        for xv, yv in zip(s.x, s.y):
            yv = float(yv)
            if scale == "log10":
                if not (math.isfinite(yv) and yv > 0.0):
                    dropped += 1
                    continue
                yv = math.log10(yv)
            elif not math.isfinite(yv):
                dropped += 1
                continue
            xs.append(float(xv))
            ys.append(yv)
        cleaned.append((s.name, xs, ys))
    if not any(xs for _, xs, _ in cleaned):
        raise ConfigError("svg_plot received only empty or dropped series")

    all_x = [v for _, xs, _ in cleaned for v in xs]
    all_y = [v for _, _, ys in cleaned for v in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    width, height = 640, 480
    left, right, top, bottom = 60, 20, 30, 40

    def px(xv: float) -> float:
        return left + (xv - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(yv: float) -> float:
        return height - bottom - (yv - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    out.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    if title:
        out.write(
            f'<text x="{width // 2}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>\n'
        )
    # axes
    out.write(
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>\n'
    )
    out.write(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        f'stroke="black"/>\n'
    )
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        out.write(
            f'<text x="{px(fx):.2f}" y="{height - bottom + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{fx:.4g}</text>\n'
        )
        out.write(
            f'<text x="{left - 6}" y="{py(fy):.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{fy:.4g}</text>\n'
        )
    for idx, (name, xs, ys) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        if xs:
            points = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))
            out.write(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points}"/>\n'
            )
        out.write(
            f'<text x="{width - right - 8}" y="{top + 14 + 14 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{name}</text>\n'
        )
    out.write("</svg>\n")
    return SvgPlot(out.getvalue(), dropped)


# --------------------------------------------------------------------- #
# Tabular results and their writers                                      #
# --------------------------------------------------------------------- #


@dataclass
class Table:
    """One subcommand's result: the CSV header, rows of typed values in
    header order, and the metadata that only the JSON payload carries.

    `rows` may be a lazy iterator (the triangle streams its rows); every
    other handler finishes its solves before it returns.
    """

    header: str
    rows: Iterable[Sequence]
    meta: dict = field(default_factory=dict)


def _open_out(path) -> contextlib.AbstractContextManager:
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _write_csv(table: Table, path=None) -> None:
    """Stream `table` as CSV to `path` (stdout when None).

    One line template serves every row; it is built from the first row's
    value types: floats print with 17 significant digits, everything else
    with str().
    """
    rows = iter(table.rows)
    first = next(rows, None)
    with _open_out(path) as out:
        out.write(table.header + "\n")
        if first is not None:
            template = ",".join("{:.17g}" if isinstance(v, float) else "{}" for v in first)
            out.writelines(
                itertools.starmap((template + "\n").format, itertools.chain([first], rows))
            )


def _write_json(table: Table, params: ModelParams, path=None) -> None:
    """Write `table` as one sort-keyed JSON object: `params`, the table's
    metadata, and `rows` keyed by the CSV header."""
    columns = table.header.split(",")
    payload = {
        "params": params.to_dict(),
        **table.meta,
        "rows": [dict(zip(columns, row)) for row in table.rows],
    }
    with _open_out(path) as out:
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# --------------------------------------------------------------------- #
# Subcommand implementations: each returns one Table                     #
# --------------------------------------------------------------------- #


def _run_triangle(config: RunConfig) -> Table:
    if config.n < 0:
        raise ConfigError(f"--n must be nonnegative, got {config.n}")
    if config.representation == "exact":
        if config.n > TRIANGLE_EXACT_MAX_N:
            raise ConfigError(
                f"exact triangles are limited to n <= {TRIANGLE_EXACT_MAX_N}; "
                "use --representation log_space"
            )
        tri = build_triangle(config.params, config.n, "exact")
        rows = (
            (n, k, lw, str(w))
            for n in range(config.n + 1)
            for k, (lw, w) in enumerate(zip(tri.log_row(n).tolist(), tri.row(n)))
        )
        return Table(TRIANGLE_HEADER_EXACT, rows)
    if config.representation == "log_space":
        if config.n > TRIANGLE_LOG_MAX_N:
            raise ConfigError(
                f"log-space triangles are limited to n <= {TRIANGLE_LOG_MAX_N}"
            )
        # Looked up on the module so that wrappers installed there see the build.
        log_rows = exact.iter_log_rows(config.params, config.n)
        rows = (
            (n, k, lw)
            for n, log_row in enumerate(log_rows)
            for k, lw in enumerate(log_row.tolist())
        )
        return Table(TRIANGLE_HEADER_LOG, rows)
    raise ConfigError(f"unknown representation {config.representation!r}")


def _run_dist(config: RunConfig) -> Table:
    if config.n < 0:
        raise ConfigError(f"--n must be nonnegative, got {config.n}")
    if config.n > TRIANGLE_LOG_MAX_N:
        raise ConfigError(f"--n is limited to {TRIANGLE_LOG_MAX_N}")
    dist = _distribution_from_log_row(config.n, final_log_row(config.params, config.n))
    log_p = dist.log_p.tolist()
    meta = {
        "n": config.n,
        "mean": dist.mean,
        "variance": dist.variance,
        "log_normalizer": dist.log_total,
        "log_p": log_p,
    }
    return Table(DIST_HEADER, [(k, lp, math.exp(lp)) for k, lp in enumerate(log_p)], meta)


def _asym_estimate(params: ModelParams, x: float, n: int):
    kind = classify(params).kind
    if kind is DriftKind.CONSTANT:
        return asymptotics.log_pn_constant_drift(params, x, n)
    if kind is DriftKind.LINEAR:
        return asymptotics.log_pn_linear_drift(params, x, n)
    return asymptotics.log_pn_quadratic(params, x, n)


def _run_asym(config: RunConfig) -> Table:
    rows = []
    for n in config.n_list or [50, 100, 200, 400]:
        if not 1 <= n <= TRIANGLE_LOG_MAX_N:
            raise ConfigError(f"asym n must be in 1..{TRIANGLE_LOG_MAX_N}, got {n}")
        log_row = final_log_row(config.params, n)
        k = np.arange(n + 1, dtype=float)
        log_exact = log_sum_exp(log_row + k * math.log(config.x))
        dist = _distribution_from_log_row(n, log_row)
        est = _asym_estimate(config.params, config.x, n)
        rows.append(
            (n, log_exact, est.log_pn, dist.mean, est.mu, dist.variance, est.sigma2)
        )
    return Table(ASYM_HEADER, rows, {"x": config.x})


def _run_saddle(config: RunConfig) -> Table:
    if not 1 <= config.n <= TRIANGLE_LOG_MAX_N:
        raise ConfigError(f"--n must be in 1..{TRIANGLE_LOG_MAX_N}, got {config.n}")
    rows = [
        (r.k, r.log_p_exact / LOG10, r.log_p_daniels / LOG10, r.log_p_gaussian / LOG10)
        for r in profile(config.params, config.n, config.epsilon)
    ]
    return Table(PROFILE_HEADER, rows, {"n": config.n, "epsilon": config.epsilon})


def _run_ldp(config: RunConfig) -> Table:
    for u in config.u_grid:
        if not 0.0 < u < 1.0:
            raise ConfigError(f"--u-grid entries must be in (0, 1), got {u}")
    for n in config.n_list:
        if not 1 <= n <= TRIANGLE_LOG_MAX_N:
            raise ConfigError(f"--N-list entries must be in 1..{TRIANGLE_LOG_MAX_N}")
    prof = ldp.rate_profile(config.params, config.u_grid)
    columns = ldp.empirical_rates(config.params, config.u_grid, config.n_list)
    header = LDP_HEADER_BASE + "".join(f",emp_{n}" for n in config.n_list)
    rows = list(zip(config.u_grid, prof.theta.tolist(), prof.rate.tolist(), *columns))
    return Table(header, rows, {"N_list": config.n_list})


def _run_egf_check(config: RunConfig) -> Table:
    from .closedform import EgfEvaluator

    if not 1 <= config.n_terms <= 30:
        raise ConfigError(f"--n must be in 1..30 for egf-check, got {config.n_terms}")
    ev = EgfEvaluator(config.params)
    tri = build_triangle(config.params, config.n_terms - 1)
    rows = []
    for x in config.x_list:
        coeffs = ev.taylor_coefficients(x, config.n_terms)
        for n in range(config.n_terms):
            exact_coeff = sum(w * x**k for k, w in enumerate(tri.row(n))) / math.factorial(n)
            rel = abs(coeffs[n] - exact_coeff) / max(abs(exact_coeff), 1e-300)
            rows.append((x, n, exact_coeff, float(coeffs[n]), rel))
    return Table(EGF_HEADER, rows)


def _run_figures(config: RunConfig) -> list[Path]:
    if config.out is None:
        raise ConfigError("figures requires --out DIRECTORY")
    params, n, u_grid = config.params, config.n, config.u_grid
    n_list = config.n_list or [100, 200, 400, 800]

    rows = profile(params, n, config.epsilon)
    line_rates = [ldp.rate_function(params, r.k / n).rate for r in rows]
    u_rates = [ldp.rate_function(params, u).rate for u in u_grid]
    columns = ldp.empirical_rates(params, u_grid, n_list)
    linear = [
        (r.k, math.exp(r.log_p_exact), math.exp(r.log_p_daniels), math.exp(r.log_p_gaussian))
        for r in rows
    ]
    tables = {
        "profile_linear.csv": Table(PROFILE_LINEAR_HEADER, linear),
        # Log-scale profile with the rate line -n I(u) / log 10.
        "profile_log.csv": Table(
            PROFILE_LOG_HEADER,
            [
                (r.k, r.log_p_exact / LOG10, r.log_p_daniels / LOG10,
                 r.log_p_gaussian / LOG10, -n * rate / LOG10)
                for r, rate in zip(rows, line_rates)
            ],
        ),
        "rate_scaling.csv": Table(
            "u,I" + "".join(f",emp_{m}" for m in n_list),
            list(zip(u_grid, u_rates, *columns)),
        ),
    }
    plots = {}
    if config.out_format == "svg":
        ks = tuple(r.k for r in rows)
        curves = [
            Series(name, ks, tuple(row[i] for row in linear))
            for name, i in (("exact", 1), ("gaussian", 3), ("daniels", 2))
        ]
        rate_series = [
            Series(f"N={m}", tuple(u_grid), tuple(col)) for m, col in zip(n_list, columns)
        ] + [Series("I(u)", tuple(u_grid), tuple(u_rates))]
        plots = {
            "profile_linear.svg": svg_plot(curves, "linear", "terminal-height profile"),
            "profile_log.svg": svg_plot(
                curves, "log10", "terminal-height profile (log scale)"
            ),
            "rate_scaling.svg": svg_plot(rate_series, "linear", "rate scaling"),
        }

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        _write_csv(table, out_dir / name)
    for name, plot in plots.items():
        (out_dir / name).write_text(plot.document)
    return [out_dir / name for name in [*tables, *plots]]


def run(config: RunConfig) -> int:
    """Execute a validated run configuration; returns the exit status."""
    handlers = {
        "triangle": _run_triangle,
        "dist": _run_dist,
        "asym": _run_asym,
        "saddle": _run_saddle,
        "ldp": _run_ldp,
        "egf-check": _run_egf_check,
    }
    if config.subcommand == "figures":
        paths = _run_figures(config)
        print("\n".join(str(p) for p in paths))
        return 0
    if config.subcommand not in handlers:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    if config.out_format == "svg":
        raise ConfigError("--format svg is only available for the figures subcommand")
    table = handlers[config.subcommand](config)
    if config.out_format == "json":
        _write_json(table, config.params, config.out)
    else:
        _write_csv(table, config.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmotzkin",
        description="Terminal-height statistics of Motzkin paths with "
        "height-linear step weights.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, default_params=CLASSIC_PARAMS):
        sp.add_argument(
            "--params",
            default=default_params,
            help="inline `a=.. b=..` / JSON string, or a file containing either",
        )
        sp.add_argument("--format", default="csv", choices=("csv", "json", "svg"))
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    sp = sub.add_parser("triangle", help="emit weight triangle rows")
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument(
        "--representation", default="exact", choices=("exact", "log_space")
    )

    sp = sub.add_parser("dist", help="emit the terminal-height distribution")
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("asym", help="exact-vs-asymptotic table")
    add_common(sp)
    sp.add_argument("--N-list", dest="n_list", default="50,100,200,400")
    sp.add_argument("--x", type=float, default=1.0)

    sp = sub.add_parser("saddle", help="exact/Daniels/Gaussian profile")
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--epsilon", type=float, default=0.01)

    sp = sub.add_parser("ldp", help="rate function and empirical scaling")
    add_common(sp)
    sp.add_argument("--u-grid", dest="u_grid", default=None)
    sp.add_argument("--N-list", dest="n_list", default="")

    sp = sub.add_parser("egf-check", help="closed form vs exact coefficients")
    add_common(sp)
    sp.add_argument("--n", type=int, default=9, help="number of coefficients (<= 30)")
    sp.add_argument("--x", dest="x_list", default="0.5,1,2")

    sp = sub.add_parser("figures", help="reproduce the showcase figure data")
    add_common(sp, default_params=SHOWCASE_PARAMS)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--N-list", dest="n_list", default="100,200,400,800")
    sp.add_argument("--u-grid", dest="u_grid", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params = _load_params(args.params)
    config = RunConfig(
        subcommand=args.subcommand,
        params=params,
        out_format=args.format,
        out=args.out,
    )
    if hasattr(args, "n") and args.n is not None:
        if args.subcommand == "egf-check":
            config.n_terms = args.n
        else:
            config.n = args.n
    if getattr(args, "representation", None):
        config.representation = args.representation
    if getattr(args, "epsilon", None) is not None:
        config.epsilon = args.epsilon
    if getattr(args, "x", None) is not None and args.subcommand == "asym":
        config.x = args.x
    if getattr(args, "x_list", None):
        config.x_list = _parse_float_list(args.x_list, "--x")
    if getattr(args, "u_grid", None):
        config.u_grid = _parse_float_list(args.u_grid, "--u-grid")
    raw_n_list = getattr(args, "n_list", "")
    if raw_n_list:
        config.n_list = _parse_int_list(raw_n_list, "--N-list")
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, RegimeError, BoundaryError, ConvergenceError, AccuracyError) as exc:
        print(f"numeric-domain error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except MotzkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
