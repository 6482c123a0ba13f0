"""Command-line front end: parameter ingestion, one subcommand per
analysis, and CSV/JSON/SVG artifact emission.

The argparse namespace is the run configuration: each subparser holds its
defaults, parses and range-checks its flags, and names its handler.  Each
tabular handler returns one `Table`, which `_write_csv` or `_write_json`
streams.  Exit codes: 0 success, 2 configuration error, 3 numeric-domain
error, 4 capacity error.  All floats print with 17 significant digits so that
identical configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import asymptotics, exact, ldp
from .closedform import EgfEvaluator
from .errors import CapacityError, ConfigError, MotzkinError
from .exact import build_triangle, final_log_row, _distribution_from_log_row
from .model import ModelParams
from .saddlepoint import k_window, profile
from .specfun import log_sum_exp

LOG10 = math.log(10.0)

CLASSIC_PARAMS = "a=0 b=0 c=0 alpha0=1 beta0=1 gamma0=1"
SHOWCASE_PARAMS = "a=1 b=5 c=6 alpha0=8 beta0=5 gamma0=1"
DEFAULT_U_GRID = [i / 20 for i in range(1, 20)]

TRIANGLE_EXACT_MAX_N = 500
TRIANGLE_LOG_MAX_N = 20000

# Documented CSV headers (asserted by the golden tests).
TRIANGLE_HEADER_EXACT = "n,k,log_weight,weight_decimal"
TRIANGLE_HEADER_LOG = "n,k,log_weight"
DIST_HEADER = "k,log_p,p"
ASYM_HEADER = "n,log_pn_exact,log_pn_asym,mu_exact,mu_asym,sigma2_exact,sigma2_asym"
PROFILE_HEADER = "k,log10_exact,log10_daniels,log10_gaussian"
PROFILE_LINEAR_HEADER = "k,p_exact,p_daniels,p_gaussian"
PROFILE_LOG_HEADER = "k,log10_exact,log10_daniels,log10_gaussian,log10_ldp_line"
LDP_HEADER_BASE = "u,theta,I"
EGF_HEADER = "x,n,coeff_exact,coeff_egf,rel_err"

# Rows per template.format call in both writers: large enough to amortise
# the call, small enough that a chunk's cells and text stay well under a
# megabyte, which peak memory shows (1,024 rows peak 4.5 MB above 256 on
# the tables benchmark).
CHUNK_ROWS = 256

# How json.dumps spells the non-finite floats.
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _load_params(source: str) -> ModelParams:
    path = Path(source)
    return ModelParams.parse(path.read_text() if path.is_file() else source)


def _in_range(kind, lo, hi, *, open_ends: bool = False):
    """argparse `type=`: a `kind` in [lo, hi], or (lo, hi) with `open_ends`; never nan."""

    def parse(raw: str):
        value = kind(raw)
        if not (lo < value < hi if open_ends else lo <= value <= hi):
            interval = f"({lo}, {hi})" if open_ends else f"[{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must lie in {interval}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value" when kind(raw) fails
    return parse


def _list_of(kind):
    """argparse `type=`: a nonempty comma- or space-separated list of `kind`."""

    def parse(raw: str) -> list:
        values = [kind(token) for token in raw.replace(",", " ").split()]
        if not values:
            raise argparse.ArgumentTypeError("must be a nonempty list")
        return values

    parse.__name__ = f"{kind.__name__} list"  # argparse names it in its errors
    return parse


def _check_window(n: int, epsilon: float) -> None:
    """Raise ConfigError when [epsilon*n, (1-epsilon)*n] holds no integer k."""
    if not k_window(n, epsilon):
        raise ConfigError(
            f"--n {n} with --epsilon {epsilon} leaves no integer k in "
            "[epsilon*n, (1-epsilon)*n]"
        )


# ----- SVG emission ----- #

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


def _svg_text(x, y, anchor: str, body, size: int = 10, fill: str = "") -> str:
    fill_attr = f' fill="{fill}"' if fill else ""
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
        f'font-size="{size}"{fill_attr}>{body}</text>'
    )


def svg_plot(series: list[Series], scale: str = "linear", title: str = "") -> SvgPlot:
    """Render named series as polylines in a standalone deterministic SVG.

    With scale="log10" the y values are log-transformed; nonpositive or
    non-finite points are dropped and counted.
    """
    if scale not in ("linear", "log10"):
        raise ConfigError(f"scale must be linear or log10, got {scale!r}")
    dropped = 0
    cleaned: list[tuple[str, list[tuple[float, float]]]] = []
    for s in series:
        if len(s.x) != len(s.y):
            raise ConfigError(f"series {s.name!r} has mismatched x/y lengths")
        points = []
        for xv, yv in zip(s.x, s.y):
            yv = float(yv)
            if not math.isfinite(yv) or (scale == "log10" and yv <= 0.0):
                dropped += 1
                continue
            points.append((float(xv), math.log10(yv) if scale == "log10" else yv))
        cleaned.append((s.name, points))
    all_points = [p for _, points in cleaned for p in points]
    if not all_points:
        raise ConfigError("svg_plot received no plottable point")

    x_lo, x_hi = min(x for x, _ in all_points), max(x for x, _ in all_points)
    y_lo, y_hi = min(y for _, y in all_points), max(y for _, y in all_points)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    width, height = 640, 480
    left, right, top, bottom = 60, 20, 30, 40
    base = height - bottom  # y of the x axis

    def px(xv: float) -> float:
        return left + (xv - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(yv: float) -> float:
        return base - (yv - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        lines.append(_svg_text(width // 2, 18, "middle", title, size=13))
    lines += [  # axes
        f'<line x1="{left}" y1="{base}" x2="{width - right}" y2="{base}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{base}" stroke="black"/>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        lines.append(_svg_text(f"{px(fx):.2f}", base + 16, "middle", f"{fx:.4g}"))
        lines.append(_svg_text(left - 6, f"{py(fy):.2f}", "end", f"{fy:.4g}"))
    for idx, (name, points) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        if points:
            coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in points)
            lines.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"/>'
            )
        legend_y = top + 14 + 14 * idx
        lines.append(_svg_text(width - right - 8, legend_y, "end", name, 11, color))
    lines.append("</svg>")
    return SvgPlot("\n".join(lines) + "\n", dropped)


# ----- tabular results and their writers ----- #


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


def _chunks(rows: Iterable[Sequence]) -> Iterator[list]:
    """`rows` in lists of CHUNK_ROWS; the last list may be shorter."""
    rows = iter(rows)
    return iter(lambda: list(itertools.islice(rows, CHUNK_ROWS)), [])


def _write_csv(table: Table, path=None) -> None:
    """Stream `table` as CSV to `path` (stdout when None).

    One line template serves every row; it is built from the first row's
    value types: floats print with 17 significant digits, everything else
    with str().  Each chunk of rows is one format call on the repeated
    template.
    """
    chunks = _chunks(table.rows)
    first = next(chunks, None)
    with _open_out(path) as out:
        out.write(table.header + "\n")
        if first is None:
            return
        template = ",".join("{:.17g}" if isinstance(v, float) else "{}" for v in first[0])
        template += "\n"
        for chunk in itertools.chain([first], chunks):
            out.write((template * len(chunk)).format(*itertools.chain.from_iterable(chunk)))


def _json_cells(values: Sequence, sample) -> Iterable:
    """One column of a chunk, typed like `sample`, as json.dumps writes it:
    floats by float.__repr__ (non-finite ones by name), strings quoted and
    escaped, everything else as is for str()."""
    if isinstance(sample, float):
        text = list(map(float.__repr__, values))
        return map(_JSON_NON_FINITE.get, text, text)
    if isinstance(sample, str):
        return map(encode_basestring_ascii, values)
    return values


def _write_json(table: Table, params: ModelParams, path=None) -> None:
    """Stream `table` as one sort-keyed JSON object: `params`, the table's
    metadata, and `rows` keyed by the CSV header.

    The bytes are those of one `json.dumps(..., sort_keys=True, indent=2)`
    of the whole object.  The head is dumped with an empty row list and
    split there; the rows go in between.  One row template, with the keys
    sorted and indented one level inside "rows", is built from the first
    row's value types; each chunk of rows is one format call on it.
    """
    head = {"params": params.to_dict(), **table.meta, "rows": []}
    before, after = json.dumps(head, sort_keys=True, indent=2).split('"rows": []')
    outer = before[before.rindex("\n") + 1 :]  # the indent of the "rows" line
    inner = outer + "  "
    # A repeated column keeps its last value, as a dict built from the row would.
    index = {column: i for i, column in enumerate(table.header.split(","))}
    keys = sorted(index)
    order = [index[key] for key in keys]
    fields = ",\n".join(f"{inner}  {encode_basestring_ascii(key)}: {{}}" for key in keys)
    template = ",\n" + inner + "{{\n" + fields + "\n" + inner + "}}"
    chunks = _chunks(table.rows)
    first = next(chunks, None)
    with _open_out(path) as out:
        out.write(before + '"rows": [')
        if first is None:
            out.write("]" + after + "\n")
            return
        samples = [first[0][i] for i in order]
        skip = 1  # the first row takes no leading comma
        for chunk in itertools.chain([first], chunks):
            columns = list(zip(*chunk))
            cells = zip(*(_json_cells(columns[i], s) for i, s in zip(order, samples)))
            text = (template * len(chunk)).format(*itertools.chain.from_iterable(cells))
            out.write(text[skip:])
            skip = 0
        out.write("\n" + outer + "]" + after + "\n")


# ----- subcommand handlers: each takes the parsed arguments ----- #


def _run_triangle(args) -> Table:
    if args.representation == "exact":
        if args.n > TRIANGLE_EXACT_MAX_N:
            raise ConfigError(
                "--n (use --representation log_space for larger n) must lie in "
                f"[0, {TRIANGLE_EXACT_MAX_N}], got {args.n}"
            )
        tri = build_triangle(args.params, args.n, "exact")
        rows = (
            (n, k, lw, str(w))
            for n in range(args.n + 1)
            for k, (lw, w) in enumerate(zip(tri.log_row(n).tolist(), tri.row(n)))
        )
        return Table(TRIANGLE_HEADER_EXACT, rows)
    # Looked up on the module so that wrappers installed there see the build.
    log_rows = exact.iter_log_rows(args.params, args.n)
    rows = (
        (n, k, lw)
        for n, log_row in enumerate(log_rows)
        for k, lw in enumerate(log_row.tolist())
    )
    return Table(TRIANGLE_HEADER_LOG, rows)


def _run_dist(args) -> Table:
    dist = _distribution_from_log_row(args.n, final_log_row(args.params, args.n))
    log_p = dist.log_p.tolist()
    meta = {
        "n": args.n,
        "mean": dist.mean,
        "variance": dist.variance,
        "log_normalizer": dist.log_total,
        "log_p": log_p,
    }
    return Table(DIST_HEADER, [(k, lp, math.exp(lp)) for k, lp in enumerate(log_p)], meta)


def _run_asym(args) -> Table:
    rows = []
    for n in args.n_list:
        log_row = final_log_row(args.params, n)
        k = np.arange(n + 1, dtype=float)
        log_exact = log_sum_exp(log_row + k * math.log(args.x))
        dist = _distribution_from_log_row(n, log_row)
        est = asymptotics.log_pn_estimate(args.params, args.x, n)
        rows.append(
            (n, log_exact, est.log_pn, dist.mean, est.mu, dist.variance, est.sigma2)
        )
    return Table(ASYM_HEADER, rows, {"x": args.x})


def _profile_log10(rows) -> list[tuple]:
    """(k, log10 exact, log10 Daniels, log10 Gaussian) of each profile row."""
    return [
        (r.k, r.log_p_exact / LOG10, r.log_p_daniels / LOG10, r.log_p_gaussian / LOG10)
        for r in rows
    ]


def _run_saddle(args) -> Table:
    _check_window(args.n, args.epsilon)
    rows = _profile_log10(profile(args.params, args.n, args.epsilon))
    return Table(PROFILE_HEADER, rows, {"n": args.n, "epsilon": args.epsilon})


def _run_ldp(args) -> Table:
    prof = ldp.rate_profile(args.params, args.u_grid)
    columns = ldp.empirical_rates(args.params, args.u_grid, args.n_list)
    header = LDP_HEADER_BASE + "".join(f",emp_{n}" for n in args.n_list)
    rows = list(zip(args.u_grid, prof.theta.tolist(), prof.rate.tolist(), *columns))
    return Table(header, rows, {"N_list": args.n_list})


def _run_egf_check(args) -> Table:
    ev = EgfEvaluator(args.params)
    tri = build_triangle(args.params, args.n - 1)
    rows = []
    for x in args.x:
        coeffs = ev.taylor_coefficients(x, args.n)
        for n in range(args.n):
            exact_coeff = sum(w * x**k for k, w in enumerate(tri.row(n))) / math.factorial(n)
            rel = abs(coeffs[n] - exact_coeff) / max(abs(exact_coeff), 1e-300)
            rows.append((x, n, exact_coeff, float(coeffs[n]), rel))
    return Table(EGF_HEADER, rows)


def _run_figures(args) -> None:
    """Compute every figure table (and plot, with --format svg), then write
    them under --out and print their paths."""
    _check_window(args.n, args.epsilon)
    params, n, u_grid, n_list = args.params, args.n, args.u_grid, args.n_list

    rows = profile(params, n, args.epsilon)
    rates = ldp.rate_profile(params, [r.k / n for r in rows]).rate.tolist()
    line = [-n * rate / LOG10 for rate in rates]
    u_rates = ldp.rate_profile(params, u_grid).rate.tolist()
    columns = ldp.empirical_rates(params, u_grid, n_list)
    linear = [
        (r.k, math.exp(r.log_p_exact), math.exp(r.log_p_daniels), math.exp(r.log_p_gaussian))
        for r in rows
    ]
    tables = {
        "profile_linear.csv": Table(PROFILE_LINEAR_HEADER, linear),
        # Log-scale profile with the rate line -n I(u) / log 10.
        "profile_log.csv": Table(
            PROFILE_LOG_HEADER, [(*row, y) for row, y in zip(_profile_log10(rows), line)]
        ),
        "rate_scaling.csv": Table(
            "u,I" + "".join(f",emp_{m}" for m in n_list),
            list(zip(u_grid, u_rates, *columns)),
        ),
    }
    plots = {}
    if args.format == "svg":
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

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        _write_csv(table, out_dir / name)
    for name, plot in plots.items():
        (out_dir / name).write_text(plot.document)
    print("\n".join(str(out_dir / name) for name in [*tables, *plots]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmotzkin",
        description="Terminal-height statistics of Motzkin paths with "
        "height-linear step weights.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # Each flag's range; _run_triangle adds the cap of an exact triangle.
    row = _in_range(int, 0, TRIANGLE_LOG_MAX_N)
    length = _in_range(int, 1, TRIANGLE_LOG_MAX_N)
    n_list = _list_of(length)
    u_grid = _list_of(_in_range(float, 0.0, 1.0, open_ends=True))
    epsilon = _in_range(float, 0.0, 0.5, open_ends=True)
    positive = _in_range(float, 0.0, math.inf, open_ends=True)

    # Handlers are read from the module globals when the parser is built,
    # which main() does on every call, so a replaced handler is the one run.
    def add(
        name, handler, help, params=CLASSIC_PARAMS, formats=("csv", "json"), out_required=False
    ):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        sp.add_argument(
            "--params",
            default=params,
            help="inline `a=.. b=..` / JSON string, or a file containing either",
        )
        sp.add_argument("--format", default="csv", choices=formats)
        sp.add_argument("--out", required=out_required, help="output path (default stdout)")
        return sp

    sp = add("triangle", _run_triangle, "emit weight triangle rows")
    sp.add_argument("--n", type=row, required=True)
    sp.add_argument("--representation", default="exact", choices=("exact", "log_space"))

    sp = add("dist", _run_dist, "emit the terminal-height distribution")
    sp.add_argument("--n", type=row, required=True)

    sp = add("asym", _run_asym, "exact-vs-asymptotic table")
    sp.add_argument("--N-list", dest="n_list", type=n_list, default=[50, 100, 200, 400])
    sp.add_argument("--x", type=positive, default=1.0)

    sp = add("saddle", _run_saddle, "exact/Daniels/Gaussian profile")
    sp.add_argument("--n", type=length, required=True)
    sp.add_argument("--epsilon", type=epsilon, default=0.01)

    sp = add("ldp", _run_ldp, "rate function and empirical scaling")
    sp.add_argument("--u-grid", dest="u_grid", type=u_grid, default=DEFAULT_U_GRID)
    sp.add_argument("--N-list", dest="n_list", type=n_list, default=[])

    sp = add("egf-check", _run_egf_check, "closed form vs exact coefficients")
    sp.add_argument("--n", type=_in_range(int, 1, 30), default=9, help="Taylor terms")
    sp.add_argument("--x", type=_list_of(positive), default=[0.5, 1.0, 2.0])

    sp = add(
        "figures", _run_figures, "reproduce the showcase figure data",
        params=SHOWCASE_PARAMS, formats=("csv", "svg"), out_required=True,
    )
    sp.add_argument("--n", type=length, default=100)
    sp.add_argument("--epsilon", type=epsilon, default=0.01)
    sp.add_argument("--N-list", dest="n_list", type=n_list, default=[100, 200, 400, 800])
    sp.add_argument("--u-grid", dest="u_grid", type=u_grid, default=DEFAULT_U_GRID)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.params = _load_params(args.params)
        table = args.handler(args)
        if table is None:  # figures writes its own files
            return 0
        if args.format == "json":
            _write_json(table, args.params, args.out)
        else:
            _write_csv(table, args.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except MotzkinError as exc:
        print(f"numeric-domain error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
