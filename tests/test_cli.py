import decimal
import importlib
import json
import math
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from wmotzkin import CapacityError, ModelParams, build_triangle, exact
from wmotzkin.cli import (
    ASYM_HEADER,
    CHUNK_ROWS,
    DIST_HEADER,
    PROFILE_HEADER,
    PROFILE_LOG_HEADER,
    TRIANGLE_HEADER_EXACT,
    TRIANGLE_HEADER_LOG,
    ConfigError,
    main,
    svg_plot,
)
from corpus import balanced_corpus

SHOWCASE_ARG = "a=1 b=5 c=6 alpha0=8 beta0=5 gamma0=1"


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_csv(capsys):
    code, out, _ = run_main(["triangle", "--n", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == TRIANGLE_HEADER_EXACT
    target = [ln for ln in lines if ln.startswith("3,1,")]
    assert len(target) == 1 and target[0].endswith(",5")


def test_triangle_log_space(capsys):
    code, out, _ = run_main(
        ["triangle", "--n", "4", "--representation", "log_space"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == TRIANGLE_HEADER_LOG


def test_dist_point_mass(capsys):
    code, out, _ = run_main(["dist", "--n", "0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == DIST_HEADER
    assert lines[1:] == ["0,0,1"]


def test_headers_and_determinism(tmp_path, capsys):
    args = ["saddle", "--params", SHOWCASE_ARG, "--n", "40", "--epsilon", "0.1"]
    first = main(args + ["--out", str(tmp_path / "a.csv")])
    second = main(args + ["--out", str(tmp_path / "b.csv")])
    assert first == second == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert a.decode().splitlines()[0] == PROFILE_HEADER


def test_json_round_trip(capsys):
    code, out, _ = run_main(
        ["dist", "--n", "6", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6
    assert len(payload["log_p"]) == 7
    total = sum(math.exp(v) for v in payload["log_p"])
    assert abs(total - 1.0) <= 1e-10
    assert json.loads(json.dumps(payload)) == payload


def test_asym_header(capsys):
    code, out, _ = run_main(
        ["asym", "--params", SHOWCASE_ARG, "--N-list", "50"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == ASYM_HEADER


def test_ldp_csv(capsys):
    code, out, _ = run_main(
        [
            "ldp",
            "--params", SHOWCASE_ARG,
            "--u-grid", "0.3,0.5",
            "--N-list", "50,100",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,theta,I,emp_50,emp_100"
    assert len(lines) == 3


def test_egf_check(capsys):
    code, out, _ = run_main(
        ["egf-check", "--params", "a=1 b=1 c=2 alpha0=1 beta0=1 gamma0=0",
         "--n", "5", "--x", "1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,n,coeff_exact,coeff_egf,rel_err"
    for line in lines[1:]:
        assert float(line.split(",")[-1]) <= 1e-8


def test_figures_emits_three_files(tmp_path, capsys):
    code, out, _ = run_main(
        [
            "figures",
            "--n", "60",
            "--epsilon", "0.05",
            "--N-list", "50,100",
            "--u-grid", "0.2,0.4,0.6",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    names = {"profile_linear.csv", "profile_log.csv", "rate_scaling.csv"}
    produced = {p.name for p in tmp_path.iterdir()}
    assert names <= produced
    for name in names:
        assert (tmp_path / name).stat().st_size > 0
    log_lines = (tmp_path / "profile_log.csv").read_text().splitlines()
    assert log_lines[0] == PROFILE_LOG_HEADER
    assert (tmp_path / "profile_linear.csv").read_text().splitlines()[0] == (
        "k,p_exact,p_daniels,p_gaussian"
    )
    assert (tmp_path / "rate_scaling.csv").read_text().splitlines()[0] == (
        "u,I,emp_50,emp_100"
    )


def test_figures_svg(tmp_path, capsys):
    code, _, _ = run_main(
        [
            "figures",
            "--n", "40",
            "--epsilon", "0.1",
            "--N-list", "50",
            "--u-grid", "0.3,0.5",
            "--format", "svg",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    doc = (tmp_path / "profile_linear.svg").read_text()
    assert doc.count("<polyline") == 3  # p_exact, p_daniels, p_gaussian


def test_figures_svg_draws_its_tables(tmp_path, capsys):
    # Each SVG draws the CSV beside it: one polyline per column after the
    # first, named by its header field.  At n = 1000 the exact and Daniels
    # tails underflow a double, and profile_log.svg still draws every row.
    code, out, _ = run_main(["figures", "--params", SHOWCASE_ARG, "--n", "1000",
                             "--format", "svg", "--out", str(tmp_path)], capsys)
    assert code == 0
    stems = ("profile_linear", "profile_log", "rate_scaling")
    assert out.splitlines() == [str(tmp_path / f"{stem}.{ext}")
                                for ext in ("csv", "svg") for stem in stems]
    for stem in stems:
        header, *rows = (tmp_path / f"{stem}.csv").read_text().splitlines()
        doc = (tmp_path / f"{stem}.svg").read_text()
        polylines = re.findall(r'points="([^"]*)"', doc)
        names = header.split(",")[1:]
        assert len(polylines) == len(names), stem
        assert re.findall(r">([^<]*)</text>", doc)[-len(names):] == names, stem
        if stem == "profile_log":
            assert [len(points.split()) for points in polylines] == [len(rows)] * 4


def test_exit_codes(tmp_path, capsys):
    # config error: triangle too large for exact representation
    code, _, err = run_main(["triangle", "--n", "501"], capsys)
    assert code == 2 and "log_space" in err
    # numeric-domain error: LDP outside the quadratic balanced class
    code, _, err = run_main(["ldp", "--u-grid", "0.5", "--N-list", "10"], capsys)
    assert code == 3
    # config errors: --x of asym must be positive and finite
    for x in ("0", "-1", "inf", "nan"):
        code, out, _ = run_main(["asym", "--params", SHOWCASE_ARG, "--x", x], capsys)
        assert (code, out) == (2, ""), x
    # config errors: figures checks --n as saddle does, --N-list and --u-grid
    # as ldp does
    for flag, value in (("--n", "0"), ("--n", "-3"), ("--n", "30000"), ("--N-list", "0"),
                        ("--N-list", "30000"), ("--u-grid", "0")):
        args = ["figures", flag, value, "--out", str(tmp_path / "figs")]
        code, out, _ = run_main(args, capsys)
        assert (code, out) == (2, ""), (flag, value)
        assert not (tmp_path / "figs").exists()
    # config errors: --epsilon of saddle and figures lies in (0, 1/2)
    for eps in ("0", "0.5", "0.7", "-0.1", "nan"):
        code, out, _ = run_main(["saddle", "--n", "100", "--epsilon", eps], capsys)
        assert (code, out) == (2, ""), eps
        args = ["figures", "--epsilon", eps, "--out", str(tmp_path / "figs")]
        code, out, _ = run_main(args, capsys)
        assert (code, out) == (2, ""), eps
        assert not (tmp_path / "figs").exists()
    # config errors: every --x of egf-check must be positive and finite
    for x in ("0", "-1", "0.5,0", "inf", "nan"):
        code, out, _ = run_main(["egf-check", "--params", SHOWCASE_ARG, "--x", x], capsys)
        assert (code, out) == (2, ""), x
    # config errors: an [epsilon*n, (1-epsilon)*n] window with no integer k
    for args in (["saddle", "--n", "1"], ["saddle", "--n", "3", "--epsilon", "0.4"],
                 ["saddle", "--params", SHOWCASE_ARG, "--n", "1", "--epsilon", "0.4",
                  "--format", "json"]):
        code, out, err = run_main(args, capsys)
        assert (code, out) == (2, "") and "no integer k" in err, args
    code, out, _ = run_main(["figures", "--n", "1", "--out", str(tmp_path / "figs")], capsys)
    assert (code, out) == (2, "")
    assert not (tmp_path / "figs").exists()
    # config error: figures writes csv or svg, not json
    code, out, _ = run_main(["figures", "--format", "json", "--out", str(tmp_path / "figs")],
                            capsys)
    assert (code, out) == (2, "")
    assert not (tmp_path / "figs").exists()
    # config errors: an explicitly empty list value
    for args in (["asym", "--N-list", ""], ["ldp", "--N-list", ""],
                 ["ldp", "--u-grid", " "], ["egf-check", "--x", ""]):
        assert run_main(args, capsys)[0] == 2, args


def test_point_mass_profile_exit_code(tmp_path, capsys):
    # Double root at r = 0: ldp and figures name the point-mass limit law.
    point_mass = "a=1 b=0 c=0 alpha0=2 beta0=0 gamma0=1"
    for args in (["ldp", "--u-grid", "0.5", "--N-list", "100"],
                 ["figures", "--n", "100", "--u-grid", "0.5", "--N-list", "100",
                  "--out", str(tmp_path / "figs")]):
        code, out, err = run_main([*args, "--params", point_mass], capsys)
        assert (code, out) == (3, ""), args
        assert "point mass at u = 1" in err, args
    assert not (tmp_path / "figs").exists()


A0_LINEAR = "a=0 b=1 c=1 alpha0=1 beta0=1 gamma0=1"
A0_CONSTANT = "a=0 b=0 c=0 alpha0=2 beta0=0 gamma0=3"


def _params(a, b, c, alpha0, beta0, gamma0):
    return f"a={a} b={b} c={c} alpha0={alpha0} beta0={beta0} gamma0={gamma0}"


@pytest.mark.parametrize("args, expected", [
    # --params text too long to be a file name is read as inline parameters
    (["triangle", "--params", "x" * 300, "--n", "3"], 2),
    # a JSON boolean is not an integer parameter
    (["triangle", "--params", '{"a": true, "b": 1, "c": 1, "alpha0": 1, "beta0": 1, '
      '"gamma0": 1}', "--n", "3"], 2),
    # A = 0 Laplace data that is not finite (t^2 underflows at x = 1e300)
    (["asym", "--params", A0_LINEAR, "--x", "1e300"], 3),
    (["asym", "--params", A0_CONSTANT, "--x", "1e300"], 3),
    (["egf-check", "--params", A0_LINEAR, "--x", "1e300"], 3),
    (["egf-check", "--params", A0_CONSTANT, "--x", "1e300"], 3),
    # an A > 0 coefficient past the doubles (P_2(1e300)/2! near 1e600)
    (["egf-check", "--params", SHOWCASE_ARG, "--x", "1e300"], 3),
    # an A > 0 run the characteristic series completes (exit 0), where the
    # contour's closed form was not finite
    (["egf-check", "--params", SHOWCASE_ARG, "--x", "1e20"], 0),
    # coefficients past the doubles: step weights, then the regime constants
    (["dist", "--params", f"a={10**400} b=1 c=1 alpha0=1 beta0=1 gamma0=1", "--n", "200"], 3),
    (["asym", "--params", f"a={10**400} b=1 c=1 alpha0=1 beta0=1 gamma0=1"], 3),
    (["egf-check", "--params", f"a=0 b=0 c=0 alpha0={10**400} beta0=0 gamma0=1"], 3),
    # a JSON parameter that no integer equals
    (["dist", "--params", '{"a": Infinity, "b": 1, "c": 1, "alpha0": 1, "beta0": 1, '
      '"gamma0": 1}', "--n", "3"], 2),
    # an A > 0 run the characteristic series completes (exit 0), where the
    # contour stabilized with coefficient 0 far from P_0(x) = 1
    (["egf-check", "--params", SHOWCASE_ARG, "--x", "5e16"], 0),
    # parameter values the model refuses are configuration errors in both formats
    (["dist", "--params", "a=-1 b=1 c=1 alpha0=1 beta0=1 gamma0=1", "--n", "3"], 2),
    (["dist", "--params", '{"a": 1.0, "b": 1, "c": 1, "alpha0": 1, "beta0": 1, '
      '"gamma0": 1}', "--n", "3"], 2),
    (["dist", "--params", '{"a": -1, "b": 1, "c": 1, "alpha0": 1, "beta0": 1, '
      '"gamma0": 1}', "--n", "3"], 2),
    # Near the top of the doubles, each of these raised OverflowError,
    # ZeroDivisionError, ValueError or a numpy RuntimeWarning out of an engine.
    # alpha0*C past the doubles: A = 0 constants no double holds
    (["asym", "--N-list", "20", "--params", _params(0, 2**895, 2**143, 2**699, 2**895, 2**797)], 3),
    (["egf-check", "--params", _params(0, 2**895, 2**143, 2**699, 2**895, 2**797)], 3),
    (["asym", "--N-list", "20,40", "--params", _params(0, 2**102, 0, 2**953, 2**102, 0)], 3),
    # a folded step weight past the doubles meets a structural zero (inf * 0)
    (["dist", "--n", "90", "--params", _params(0, 3, 2, 2**819, 2**590, 3)], 3),
    # e^(B t) overflows at a Newton step toward the linear-drift modulus saddle
    (["egf-check", "--n", "6", "--params", _params(0, 1, 2**232, 2**123, 1, 0)], 3),
    # the linear-drift moments at a modulus saddle t whose cube underflows
    (["asym", "--N-list", "20", "--params", _params(0, 0, 2**396, 5, 0, 2**352)], 3),
    # log Gamma(nu) overflows at nu = alpha0/A near 2.2e306
    (["asym", "--N-list", "20", "--params", _params(5, 0, 0, 2**1020, 0, 2**247)], 3),
    # a Daniels saddle whose tilted law is a point mass (kappa'' = 0)
    (["saddle", "--n", "60", "--params", _params(2**902, 0, 2**833, 2**474, 0, 2**578)], 3),
    # 2A, the divisor of every root, past the doubles
    (["ldp", "--params", _params(2**1023, 0, 1, 1, 0, 1)], 3),
    (["egf-check", "--params", _params(2**1023, 0, 1, 1, 0, 1)], 3),
    # a non-finite estimate: the linear-drift mean, the Laplace log row sum
    (["asym", "--N-list", "20,40", "--params", _params(0, 0, 2**315, 3, 0, 3)], 3),
    (["asym", "--N-list", "20,40", "--params", _params(0, 0, 0, 0, 0, 2**514)], 3),
    # finite folded weights that sum past the doubles in a step
    (["dist", "--n", "60", "--params", _params(4, 0, 0, 2**638, 3, 2**1020)], 3),
    # the showcase's coefficient 19 at --x 5e16 is near 1e324, past the doubles
    (["egf-check", "--params", SHOWCASE_ARG, "--n", "20", "--x", "5e16"], 3),
    # an A > 0 run the characteristic series completes (exit 0), where the
    # r = 0 double root's closed form was not finite on the contour |t| = 5e299
    (["egf-check", "--params", "a=1 b=0 c=0 alpha0=2 beta0=0 gamma0=1", "--n", "9",
      "--x", "1e-300"], 0),
])
def test_error_exits_without_traceback(args, expected, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_main(args, capsys)
    assert code == expected
    if expected == 0:
        assert err == "" and not re.search("inf|nan", out)
        return
    assert out == ""
    assert err.startswith("error: " if expected == 2 else "numeric-domain error: ")


@pytest.mark.parametrize("params, x, n", [
    # coefficients near 1e287 whose exact row sums pass the doubles in floats
    ("a=1 b=4 c=4 alpha0=2 beta0=4 gamma0=1", "7e9", "30"),
    # step weights near 1e18, whose int rows pass the doubles
    ("a=847282031106320994 b=1 c=8089115735878714 alpha0=542451704308442081 beta0=1 "
     "gamma0=2", "1e-3", "20"),
])
def test_egf_check_exact_coefficients_near_the_top_of_the_doubles(params, x, n, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run_main(["egf-check", "--params", params, "--x", x, "--n", n], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == int(n)
    for row in rows:
        assert math.isfinite(float(row[2])) and float(row[4]) <= 1e-8, row


def test_egf_check_exact_coefficient_is_the_rounded_rational(capsys):
    # coeff_exact is P_n(x)/n! rounded once from the exact rational, on every
    # row of each balanced model whose contour stabilizes at --n 20.
    checked = 0
    for params in balanced_corpus():
        args = _params(*params.as_tuple())
        code, out, err = run_main(["egf-check", "--params", args, "--n", "20",
                                   "--x", "0.5,1,2"], capsys)
        if code:
            assert code == 3 and "did not stabilize" in err, (args, err)
            continue
        rows = build_triangle(params, 19).rows
        for line in out.splitlines()[1:]:
            x, n, coeff = line.split(",")[:3]
            weights = rows[int(n)]
            value = sum(w * Fraction(x) ** k for k, w in enumerate(weights))
            assert float(coeff) == float(value / math.factorial(int(n))), (args, line)
            checked += 1
    assert checked >= 17 * 60


def test_random_large_models_exit_with_documented_codes(capsys):
    # 100 seeded models, each coefficient 0, 1..6 or a power of two from
    # 2^100 to 2^1020, through every float engine: each run exits 0, 2, 3
    # or 4, with no exception and no numpy RuntimeWarning.
    rng = random.Random(0)

    def coefficient():
        pick = rng.randrange(3)
        return 0 if pick == 0 else rng.randint(1, 6) if pick == 1 else 2 ** rng.randint(100, 1020)

    commands = [["dist", "--n", "60"], ["saddle", "--n", "60"], ["asym", "--N-list", "20,40"],
                ["ldp", "--N-list", "30"], ["egf-check", "--n", "6"]]
    for _ in range(100):
        params = _params(*(coefficient() for _ in range(6)))
        for command in commands:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main([*command, "--params", params])
            except Exception as exc:
                pytest.fail(f"{command[0]} --params '{params}' raised {exc!r}")
            capsys.readouterr()
            assert code in (0, 2, 3, 4), (command, params)


@pytest.mark.parametrize("args", [
    ["asym", "--N-list", "7,9"],
    ["dist", "--n", "7"],
    ["saddle", "--n", "7"],
])
def test_no_mass_error_names_the_row(args, capsys):
    # Every step weight is zero, so row 7 holds no path.
    zero = "a=0 b=0 c=0 alpha0=0 beta0=0 gamma0=0"
    code, out, err = run_main([*args, "--params", zero], capsys)
    assert (code, out, err) == (3, "", "numeric-domain error: row 7 carries no mass\n")


@pytest.mark.parametrize("params", [
    "a=1 a=2 b=5 c=6 alpha0=8 beta0=5 gamma0=1",
    '{"a": 1, "a": 2, "b": 5, "c": 6, "alpha0": 8, "beta0": 5, "gamma0": 1}',
], ids=["inline", "json"])
def test_repeated_parameter_key_refused(params, capsys):
    code, out, err = run_main(["dist", "--params", params, "--n", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: parameter key 'a' is given more than once\n"


def test_long_inline_params_run(capsys):
    # 301-digit a: longer than a file name may be, and still valid inline.
    a = 10**300
    params = f"a={a} b=1 c=1 alpha0=1 beta0=1 gamma0=1"
    code, out, _ = run_main(["triangle", "--params", params, "--n", "3"], capsys)
    assert code == 0
    assert out.splitlines()[-1].endswith(f",{(a + 1) * (2 * a + 1)}")  # w(3, 3)


def test_large_coefficient_runs_in_log_space(capsys):
    # the block size's weight bound squares a = 1e160 past the doubles
    params = f"a={10**160} b=1 c=1 alpha0=1 beta0=1 gamma0=1"
    code, out, err = run_main(["dist", "--params", params, "--n", "200"], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 202


def test_capacity_exit_code(capsys, monkeypatch):
    from wmotzkin.errors import CapacityError

    def boom(params, n):
        raise CapacityError("too big")

    # The parser is built once per process and holds the handlers, so the
    # engine call inside the dist handler is what gets replaced.
    monkeypatch.setattr(exact, "height_distribution", boom)
    code, _, err = run_main(["dist", "--n", "5"], capsys)
    assert code == 4 and "too big" in err


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "wmotzkin.cli", "dist", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == DIST_HEADER


def _console_script_target() -> str:
    """The `wmotzkin` entry of [project.scripts] in pyproject.toml."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: match the entry's line
        return re.search(r'^wmotzkin\s*=\s*"([^"]+)"', text, re.M).group(1)
    return tomllib.loads(text)["project"]["scripts"]["wmotzkin"]


def test_console_script_exit_codes(monkeypatch, capsys):
    # The installed `wmotzkin` script calls this target with no arguments and
    # exits with what it raises.
    module, _, name = _console_script_target().partition(":")
    entry = getattr(importlib.import_module(module), name)
    for argv, code in ((["saddle", "--n", "50"], 0), (["--help"], 0),
                       (["saddle", "--n", "50", "--no-such-flag"], 2)):
        monkeypatch.setattr(sys, "argv", ["wmotzkin", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code, argv
        out = capsys.readouterr().out
        if argv[0] == "saddle" and code == 0:
            assert out.splitlines()[0] == PROFILE_HEADER


# ----- one table model: CSV and JSON agree, rows stream, failures write nothing ----- #

TABLE_CASES = {
    "triangle_exact": ["triangle", "--params", SHOWCASE_ARG, "--n", "6"],
    "triangle_log": ["triangle", "--params", SHOWCASE_ARG, "--n", "6",
                     "--representation", "log_space"],
    "dist": ["dist", "--params", SHOWCASE_ARG, "--n", "12"],
    "asym": ["asym", "--params", SHOWCASE_ARG, "--N-list", "20,40", "--x", "0.7"],
    "saddle": ["saddle", "--params", SHOWCASE_ARG, "--n", "30", "--epsilon", "0.1"],
    "ldp": ["ldp", "--params", SHOWCASE_ARG, "--u-grid", "0.3,0.6", "--N-list", "40,80"],
    "egf-check": ["egf-check", "--params", "a=1 b=1 c=2 alpha0=1 beta0=1 gamma0=0",
                  "--n", "6", "--x", "0.5,1"],
    # Structural zeros: log weights of -inf.
    "triangle_zeros": ["triangle", "--params", "a=1 b=1 c=0 alpha0=1 beta0=1 gamma0=0",
                       "--n", "7", "--representation", "log_space"],
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_json_rows_match_csv(case, capsys):
    code, csv_text, _ = run_main(TABLE_CASES[case], capsys)
    assert code == 0
    code, json_text, _ = run_main(TABLE_CASES[case] + ["--format", "json"], capsys)
    assert code == 0
    header, *lines = csv_text.splitlines()
    columns = header.split(",")
    payload = json.loads(json_text)
    assert payload["params"] == ModelParams.parse(TABLE_CASES[case][2]).to_dict()
    assert len(payload["rows"]) == len(lines) > 0
    for line, row in zip(lines, payload["rows"]):
        assert sorted(row) == sorted(columns)
        for column, cell in zip(columns, line.split(",")):
            value = row[column]
            if isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value, (column, cell, value)


# Column types of the CSV cells; every other column holds floats.
CELL_TYPES = {"n": int, "k": int, "weight_decimal": str}


# 1 puts every flat row in a group of its own; CHUNK_ROWS and 1024 hold each
# of these flat tables in one group.  Triangles have one group per row.
@pytest.mark.parametrize("chunk_rows", [1, CHUNK_ROWS, 1024])
@pytest.mark.parametrize("case", [*TABLE_CASES])
def test_json_is_one_document(case, chunk_rows, capsys, monkeypatch):
    # The CSV equals one template.format per row, and the streamed JSON
    # equals, byte for byte, one json.dumps of the whole object built here
    # from the CSV rows and the metadata.
    import wmotzkin.cli as cli_mod

    monkeypatch.setattr(cli_mod, "CHUNK_ROWS", chunk_rows)
    tables = []
    write_csv = cli_mod._write_csv

    def keep_groups(table, path=None):
        groups = [(lead, [list(c) for c in columns]) for lead, columns in table.groups]
        tables.append(cli_mod.Table(table.header, groups, table.meta))
        write_csv(tables[-1], path)

    monkeypatch.setattr(cli_mod, "_write_csv", keep_groups)
    argv = TABLE_CASES[case]
    code, csv_text, _ = run_main(argv, capsys)
    assert code == 0
    (table,) = tables
    rows = [
        (*lead, *([i] if lead else []), *cells)
        for lead, columns in table.groups
        for i, cells in enumerate(zip(*columns))
    ]
    template = ",".join("{:.17g}" if isinstance(v, float) else "{}" for v in rows[0])
    expected = [table.header] + [template.format(*row) for row in rows]
    assert csv_text == "\n".join(expected) + "\n"

    code, json_text, _ = run_main(argv + ["--format", "json"], capsys)
    assert code == 0
    header, *lines = csv_text.splitlines()
    columns = header.split(",")
    rows = [
        {c: CELL_TYPES.get(c, float)(cell) for c, cell in zip(columns, line.split(","))}
        for line in lines
    ]
    meta = {k: v for k, v in json.loads(json_text).items() if k not in ("params", "rows")}
    document = {"params": ModelParams.parse(argv[2]).to_dict(), **meta, "rows": rows}
    assert json_text == json.dumps(document, sort_keys=True, indent=2) + "\n"
    if case == "triangle_zeros":
        assert ",-inf\n" in csv_text and '"log_weight": -Infinity,' in json_text


def test_exact_triangle_csv_matches_int_rows(tmp_path):
    # The digits come from decimal arithmetic in a context of its own: a
    # caller's 5-digit context changes no byte, and is in force again
    # after the run and between two rows of the digit generator.
    params = ModelParams.parse(SHOWCASE_ARG)
    tri = build_triangle(params, 60)
    expected = [TRIANGLE_HEADER_EXACT] + [
        "{},{},{:.17g},{}".format(n, k, math.log(w) if w else -math.inf, w)
        for n in range(61)
        for k, w in enumerate(tri.row(n))
    ]
    out = tmp_path / "tri.csv"
    with decimal.localcontext(decimal.Context(prec=5)) as caller:
        assert main(["triangle", "--params", SHOWCASE_ARG, "--n", "60", "--out", str(out)]) == 0
        assert decimal.getcontext() is caller and caller.prec == 5
        assert not any(caller.flags.values())
        assert out.read_text() == "\n".join(expected) + "\n"

        rows = exact.iter_decimal_rows(params, 60)
        assert [next(rows), next(rows)] == [["1"], ["1", "8"]]
        assert decimal.getcontext() is caller and caller.prec == 5
        assert next(rows) == list(map(str, tri.row(2)))
        assert decimal.getcontext() is caller


def _traced_peak(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_log_space_triangle_streams(tmp_path):
    out = tmp_path / "tri.csv"
    code, peak = _traced_peak(["triangle", "--n", "600", "--representation", "log_space",
                               "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 601 * 602 // 2
    assert peak < 5 * 2**20


def test_exact_triangle_streams(tmp_path):
    # A build that holds the whole int triangle peaks near 12 MB here.
    out = tmp_path / "tri.csv"
    code, peak = _traced_peak(["triangle", "--params", SHOWCASE_ARG, "--n", "300",
                               "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 301 * 302 // 2
    assert peak < 3 * 2**20


def test_log_space_triangle_json_streams(tmp_path):
    # n = 190 is the smallest n at which a writer that dumps the whole
    # document at once peaks above 3x the bound (16.6 MB); streaming stays
    # near 1.2 MB at any n.
    out = tmp_path / "tri.json"
    code, peak = _traced_peak(["triangle", "--n", "190", "--representation", "log_space",
                               "--format", "json", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())["rows"]) == 191 * 192 // 2
    assert peak < 5 * 2**20


def test_failing_run_writes_nothing(tmp_path, capsys, monkeypatch):
    # The A = 0 contour misses its 1e-10 agreement at n = 20 on this model.
    args = ["egf-check", "--params", "a=0 b=0 c=0 alpha0=2 beta0=0 gamma0=3",
            "--n", "20", "--x", "1"]
    code, out, err = run_main(args, capsys)
    assert code == 3 and out == "" and "numeric-domain error" in err
    target = tmp_path / "egf.csv"
    code, out, _ = run_main(args + ["--out", str(target)], capsys)
    assert code == 3 and out == ""
    assert not target.exists()
    # Blocks ten times too long lose a log-space row at n = 367, after the
    # rows before it went out; the partial --out file must go with them.
    monkeypatch.setattr(exact, "_BLOCK_BUDGET", 6000.0)
    target = tmp_path / "log.csv"
    args = ["triangle", "--params", SHOWCASE_ARG, "--n", "400", "--representation", "log_space"]
    code, out, err = run_main(args + ["--out", str(target)], capsys)
    assert code == 3 and out == "" and "log-space row 367" in err
    assert not target.exists()


def test_streamed_capacity_error_removes_out_file(tmp_path, capsys, monkeypatch):
    # The int rows pass a small bit budget mid-stream: exit 4 with the
    # budget's row, no --out file, and on stdout the rows before it.
    monkeypatch.setattr(exact, "BIT_BUDGET", 10_000)
    with pytest.raises(CapacityError) as raised:
        build_triangle(ModelParams.parse(SHOWCASE_ARG), 200)
    at = int(re.search(r"at row (\d+);", str(raised.value))[1])
    args = ["triangle", "--params", SHOWCASE_ARG, "--n", "200"]
    target = tmp_path / "exact.csv"
    code, out, err = run_main(args + ["--out", str(target)], capsys)
    assert code == 4 and out == ""
    assert err == f"capacity error: {raised.value}\n"
    assert not target.exists()
    code, out, _ = run_main(args, capsys)
    assert code == 4
    assert out.splitlines()[-1].startswith(f"{at - 1},{at - 1},")


# ----- svg_plot unit behaviour ----- #


def test_svg_single_series_single_polyline():
    doc = svg_plot("x,line", [(0.0, 2.0), (1.0, 3.0)], "t")
    assert doc.count("<polyline") == 1
    assert doc.startswith("<svg ")
    assert ">line</text>" in doc  # the legend is the header field


def test_svg_drops_non_finite_cells():
    rows = [(0, -0.5, 1.0), (1, -math.inf, 2.0), (2, math.nan, math.inf), (3, 0.25, 3.0)]
    doc = svg_plot("k,a,b", rows, "t")
    polylines = re.findall(r'points="([^"]*)"', doc)
    assert [len(points.split()) for points in polylines] == [2, 3]


def test_svg_empty_series_error():
    with pytest.raises(ConfigError):
        svg_plot("x", [(0.0,), (1.0,)], "t")
    with pytest.raises(ConfigError):
        svg_plot("x,p", [], "t")
    with pytest.raises(ConfigError):
        svg_plot("x,p", [(0.0, math.nan)], "t")


def test_svg_single_point_widens_its_ranges():
    # A zero x range and a zero y range each widen to one unit, so the one
    # point sits at the plot's lower left corner with ticks up to x + 1, y + 1.
    doc = svg_plot("x,p", [(2.0, 3.0)], "t")
    assert re.findall(r'points="([^"]*)"', doc) == ["60.00,440.00"]
    assert ">3</text>" in doc and ">4</text>" in doc


def test_svg_deterministic():
    rows = [(0, 5.0), (1, 2.5), (2, 1.25)]
    assert svg_plot("x,a", rows, "t") == svg_plot("x,a", rows, "t")
