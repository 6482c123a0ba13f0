import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from wmotzkin import ModelParams
from wmotzkin.cli import (
    ASYM_HEADER,
    DIST_HEADER,
    PROFILE_HEADER,
    PROFILE_LOG_HEADER,
    TRIANGLE_HEADER_EXACT,
    TRIANGLE_HEADER_LOG,
    ConfigError,
    Series,
    main,
    svg_plot,
)

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
    assert doc.count("<polyline") == 3  # exact, gaussian, daniels


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
    # config error: figures writes csv or svg, not json
    code, out, _ = run_main(["figures", "--format", "json", "--out", str(tmp_path / "figs")],
                            capsys)
    assert (code, out) == (2, "")
    assert not (tmp_path / "figs").exists()
    # config errors: an explicitly empty list value
    for args in (["asym", "--N-list", ""], ["ldp", "--N-list", ""],
                 ["ldp", "--u-grid", " "], ["egf-check", "--x", ""]):
        assert run_main(args, capsys)[0] == 2, args


def test_capacity_exit_code(capsys, monkeypatch):
    import wmotzkin.cli as cli_mod
    from wmotzkin.errors import CapacityError

    def boom(config):
        raise CapacityError("too big")

    monkeypatch.setitem(cli_mod.__dict__, "_run_dist", boom)
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


@pytest.mark.parametrize("chunk_rows", [1, 1024])
@pytest.mark.parametrize(
    "argv", [*TABLE_CASES.values(), ["saddle", "--params", SHOWCASE_ARG, "--n", "1",
                                     "--epsilon", "0.4"]],
    ids=[*TABLE_CASES, "saddle_no_rows"],
)
def test_json_is_one_document(argv, chunk_rows, capsys, monkeypatch):
    # The streamed JSON equals, byte for byte, one json.dumps of the whole
    # object built here from the CSV rows and the metadata.
    import wmotzkin.cli as cli_mod

    monkeypatch.setattr(cli_mod, "JSON_CHUNK_ROWS", chunk_rows)
    code, csv_text, _ = run_main(argv, capsys)
    assert code == 0
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


def test_failing_run_writes_nothing(tmp_path, capsys):
    # Contour extraction misses its 1e-10 agreement at n = 30 on this model.
    args = ["egf-check", "--params", "a=1 b=1 c=2 alpha0=1 beta0=1 gamma0=0",
            "--n", "30", "--x", "1"]
    code, out, err = run_main(args, capsys)
    assert code == 3 and out == "" and "numeric-domain error" in err
    target = tmp_path / "egf.csv"
    code, out, _ = run_main(args + ["--out", str(target)], capsys)
    assert code == 3 and out == ""
    assert not target.exists()


# ----- svg_plot unit behaviour ----- #


def test_svg_single_series_single_polyline():
    plot = svg_plot([Series("line", (0.0, 1.0), (2.0, 3.0))])
    assert plot.document.count("<polyline") == 1
    assert plot.dropped_points == 0
    assert plot.document.startswith("<svg ")


def test_svg_log_scale_drops_zeros():
    plot = svg_plot(
        [Series("p", (0.0, 1.0, 2.0), (0.5, 0.0, 2.0))], scale="log10"
    )
    assert plot.dropped_points == 1
    assert plot.document.count("<polyline") == 1


def test_svg_empty_series_error():
    with pytest.raises(ConfigError):
        svg_plot([])
    with pytest.raises(ConfigError):
        svg_plot([Series("p", (), ())])


def test_svg_deterministic():
    series = [Series("a", (0, 1, 2), (5.0, 2.5, 1.25))]
    assert svg_plot(series).document == svg_plot(series).document
