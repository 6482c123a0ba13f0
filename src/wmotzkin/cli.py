"""Command-line front end: parameter ingestion, one subcommand per
analysis, and CSV/JSON/SVG artifact emission.

The argparse namespace is the run configuration: each subparser holds its
defaults, parses and range-checks its flags, and names its handler.  Each
tabular handler returns one `Table` of row groups, which `_write_csv` or
`_write_json` streams.  Exit codes: 0 success, 2 configuration error, 3
numeric-domain error, 4 capacity error.  Floats print with 17 significant
digits so that identical configurations produce byte-identical artifacts.
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

from . import asymptotics, exact, ldp
from .closedform import EgfEvaluator
from .errors import CapacityError, ConfigError, MotzkinError
from .exact import build_triangle
from .model import ModelParams
from .saddlepoint import CumulantEvaluator, k_window, profile

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

# Rows per group of a flat table: large enough to amortise a group's %
# operation, small enough that its cells and text stay well under a
# megabyte.  Peak RSS on the showcase (2 vCPU, py3.11): `dist --n 20000`
# 33.6 MB in 256-row groups against 37.1 MB as one group (JSON: 33.2
# against 44.2 MB), `saddle --n 20000` 38.6 against 43.0 MB.  Triangles
# stream one group per row, so only these long flat tables feel it.
CHUNK_ROWS = 256

# How json.dumps spells the non-finite floats.
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _load_params(source: str) -> ModelParams:
    """Parameters from the file named `source`, else from `source` itself."""
    try:
        text = Path(source).read_text()
    except (OSError, ValueError):
        text = source
    return ModelParams.parse(text)


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


# ----- SVG emission ----- #

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_text(x, y, anchor: str, body, size: int = 10, fill: str = "") -> str:
    fill_attr = f' fill="{fill}"' if fill else ""
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
        f'font-size="{size}"{fill_attr}>{body}</text>'
    )


def svg_plot(header: str, rows: Sequence[Sequence], title: str) -> str:
    """The document of a standalone deterministic SVG that draws each column
    of a table after the first against the first: one polyline per column,
    named by its `header` field.  Non-finite points are dropped."""
    names = header.split(",")[1:]
    cleaned = [
        (name, [(float(row[0]), float(row[j])) for row in rows
                if math.isfinite(row[0]) and math.isfinite(row[j])])
        for j, name in enumerate(names, 1)
    ]
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
        _svg_text(width // 2, 18, "middle", title, size=13),
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
    return "\n".join(lines) + "\n"


# ----- tabular results and their writers ----- #


@dataclass
class Table:
    """One subcommand's result: the CSV header, its rows in groups, and the
    metadata that only the JSON payload carries.

    A group is (lead, columns): a triangle row's lead is its (n,), and its
    row i holds n, then i, then each column's i-th value; other groups have
    no lead.  `groups` may be a lazy iterator (the triangle streams one group
    per row); every other handler finishes its solves before it returns.
    """

    header: str
    groups: Iterable[tuple[tuple, Sequence[Sequence]]]
    meta: dict = field(default_factory=dict)


def _flat(rows: Iterable[Sequence]) -> Iterator[tuple[tuple, list]]:
    """`rows` as groups of CHUNK_ROWS rows (the last may be shorter)."""
    rows = iter(rows)
    for chunk in iter(lambda: list(itertools.islice(rows, CHUNK_ROWS)), []):
        yield (), list(zip(*chunk))


@contextlib.contextmanager
def _open_out(path) -> Iterator:
    """`path` opened for writing (stdout when None), removed if the writer raises."""
    if path is None:
        yield sys.stdout
        return
    out = open(path, "w")
    try:
        with out:
            yield out
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _render(table: Table, order: Sequence[int], hole, convert, row_text) -> Iterator[str]:
    """The text of each group of `table`, each from one % operation.

    `order` lists the header positions in output order, `hole(sample)` is
    the % conversion of values typed like `sample`, `convert(values,
    sample)` a column as that conversion takes it, and `row_text(cells)` a
    row's text from its cells in output order.  Row fragments, holding the
    row's index text and split where the lead goes, are cached for the
    table: a group's template is its fragments joined with its lead's text.
    """
    groups = iter(table.groups)
    first = next(groups, None)
    if first is None:
        return
    lead, columns = first
    width = 2 * len(lead)  # header positions before the columns: lead and index
    samples = [column[0] for column in columns]
    picked = [j - width for j in order if j >= width]

    def fragments(i: int) -> list[str]:
        cells = [
            "\0" if j < len(lead) else str(i) if j < width else hole(samples[j - width])
            for j in order
        ]
        return (row_text(cells) + "\0").split("\0")[:2]

    fixed = None if lead else fragments(0)
    joints, tails = [""], []  # joints[i]: tails[i - 1] + the text before row i's lead
    for lead, columns in itertools.chain([first], groups):
        m = len(columns[0])
        while len(tails) < m:
            before, after = fixed or fragments(len(tails))
            joints[-1] += before
            joints.append(after)
            tails.append(after)
        lead_text = hole(lead[0]) % tuple(convert(lead, lead[0])) if lead else ""
        cells = [convert(columns[j], samples[j]) for j in picked]
        values = cells[0] if len(cells) == 1 else itertools.chain.from_iterable(zip(*cells))
        yield (lead_text.join(joints[:m]) + lead_text + tails[m - 1]) % tuple(values)


def _csv_hole(sample) -> str:
    return "%.17g" if isinstance(sample, float) else "%s"


def _write_csv(table: Table, path=None) -> None:
    """Stream `table` as CSV to `path` (stdout when None): floats with 17
    significant digits, everything else with str()."""
    texts = _render(
        table, range(table.header.count(",") + 1), _csv_hole,
        lambda values, sample: values, lambda cells: ",".join(cells) + "\n",
    )
    first = next(texts, "")
    with _open_out(path) as out:
        out.write(table.header + "\n" + first)
        out.writelines(texts)


def _json_cells(values: Sequence, sample) -> Iterable:
    """One column typed like `sample`, as json.dumps writes it: floats by
    float.__repr__ (non-finite ones by name), strings quoted and escaped,
    everything else as is for str()."""
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
    split there; the rows go in between, their keys sorted and indented
    one level inside "rows".
    """
    head = {"params": params.to_dict(), **table.meta, "rows": []}
    before, after = json.dumps(head, sort_keys=True, indent=2).split('"rows": []')
    outer = before[before.rindex("\n") + 1 :]  # the indent of the "rows" line
    inner = outer + "  "
    # A repeated column keeps its last value, as a dict built from the row would.
    index = {column: i for i, column in enumerate(table.header.split(","))}
    keys = sorted(index)
    names = [f"{inner}  {encode_basestring_ascii(key)}: ".replace("%", "%%") for key in keys]

    def row_text(cells: list[str]) -> str:
        fields = ",\n".join(map(str.__add__, names, cells))
        return ",\n" + inner + "{\n" + fields + "\n" + inner + "}"

    texts = _render(table, [index[key] for key in keys], lambda sample: "%s", _json_cells, row_text)
    first = next(texts, "")
    with _open_out(path) as out:
        out.write(before + '"rows": [' + first[1:])  # the first row takes no leading comma
        out.writelines(texts)
        out.write(("\n" + outer if first else "") + "]" + after + "\n")


# ----- subcommand handlers: each takes the parsed arguments ----- #


def _run_triangle(args) -> Table:
    if args.representation == "exact":
        if args.n > TRIANGLE_EXACT_MAX_N:
            raise ConfigError(
                "--n (use --representation log_space for larger n) must lie in "
                f"[0, {TRIANGLE_EXACT_MAX_N}], got {args.n}"
            )
        # log_weight from the int rows, the digits from the decimal rows.
        rows = zip(exact.iter_int_rows(args.params, args.n),
                   exact.iter_decimal_rows(args.params, args.n))
        groups = (((n,), [exact._log_weights(ints), digits])
                  for n, (ints, digits) in enumerate(rows))
        return Table(TRIANGLE_HEADER_EXACT, groups)
    # Looked up on the module so that wrappers installed there see the build.
    log_rows = exact.iter_log_rows(args.params, args.n)
    groups = (((n,), [row.tolist()]) for n, row in enumerate(log_rows))
    return Table(TRIANGLE_HEADER_LOG, groups)


def _run_dist(args) -> Table:
    dist = exact.height_distribution(args.params, args.n)
    log_p = dist.log_p.tolist()
    meta = {
        "n": args.n,
        "mean": dist.mean,
        "variance": dist.variance,
        "log_normalizer": dist.log_total,
        "log_p": log_p,
    }
    return Table(DIST_HEADER, _flat((k, lp, math.exp(lp)) for k, lp in enumerate(log_p)), meta)


def _run_asym(args) -> Table:
    rows = []
    for n in args.n_list:
        # log P_n(x) = kappa_n(log x); the exact moments are kappa_n'(0), kappa_n''(0).
        ev = CumulantEvaluator.from_params(args.params, n)
        log_exact, at_zero = ev.kappa(math.log(args.x)).value, ev.at_zero
        est = asymptotics.log_pn_estimate(args.params, args.x, n)
        rows.append((n, log_exact, est.log_pn, at_zero.deriv1, est.mu, at_zero.deriv2, est.sigma2))
    return Table(ASYM_HEADER, _flat(rows), {"x": args.x})


def _profile(args) -> tuple[list, list[tuple]]:
    """The profile rows at --n over the --epsilon window, and each as (k,
    log10 exact, log10 Daniels, log10 Gaussian); ConfigError when the
    window holds no integer k."""
    if not k_window(args.n, args.epsilon):
        raise ConfigError(
            f"--n {args.n} with --epsilon {args.epsilon} leaves no integer k in "
            "[epsilon*n, (1-epsilon)*n]"
        )
    rows = profile(args.params, args.n, args.epsilon)
    return rows, [
        (r.k, r.log_p_exact / LOG10, r.log_p_daniels / LOG10, r.log_p_gaussian / LOG10)
        for r in rows
    ]


def _rates(args) -> tuple[ldp.RateProfile, list[list[float]], str]:
    """The --u-grid rate profile, the exact rates at each --N-list N, and
    the `,emp_N` header fields of those columns."""
    prof = ldp.rate_profile(args.params, args.u_grid)
    columns = ldp.empirical_rates(args.params, args.u_grid, args.n_list)
    return prof, columns, "".join(f",emp_{n}" for n in args.n_list)


def _run_saddle(args) -> Table:
    _, rows = _profile(args)
    return Table(PROFILE_HEADER, _flat(rows), {"n": args.n, "epsilon": args.epsilon})


def _run_ldp(args) -> Table:
    prof, columns, emp = _rates(args)
    rows = zip(args.u_grid, prof.theta.tolist(), prof.rate.tolist(), *columns)
    return Table(LDP_HEADER_BASE + emp, _flat(rows), {"N_list": args.n_list})


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
    return Table(EGF_HEADER, _flat(rows))


def _run_figures(args) -> None:
    """Compute every figure table (and with --format svg its plot), then
    write them under --out and print their paths."""
    rows, log10_rows = _profile(args)
    n = args.n
    rates = ldp.rate_profile(args.params, [r.k / n for r in rows]).rate.tolist()
    prof, columns, emp = _rates(args)
    linear = [
        (r.k, math.exp(r.log_p_exact), math.exp(r.log_p_daniels), math.exp(r.log_p_gaussian))
        for r in rows
    ]
    # Log-scale profile with the rate line -n I(u) / log 10.
    log = [(*row, -n * rate / LOG10) for row, rate in zip(log10_rows, rates)]
    scaling = list(zip(args.u_grid, prof.rate.tolist(), *columns))
    tables = {  # file stem: (header, rows, plot title)
        "profile_linear": (PROFILE_LINEAR_HEADER, linear, "terminal-height profile"),
        "profile_log": (PROFILE_LOG_HEADER, log, "terminal-height profile (log scale)"),
        "rate_scaling": ("u,I" + emp, scaling, "rate scaling"),
    }
    files = {f"{stem}.csv": Table(head, _flat(body)) for stem, (head, body, _) in tables.items()}
    if args.format == "svg":
        files.update((f"{stem}.svg", svg_plot(*table)) for stem, table in tables.items())

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, item in files.items():
        if isinstance(item, Table):
            _write_csv(item, out_dir / name)
        else:
            (out_dir / name).write_text(item)
    print("\n".join(str(out_dir / name) for name in files))


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
