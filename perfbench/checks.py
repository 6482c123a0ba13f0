"""Output checks, run after the timed span, in plain Python.

Each check compares the program's artifacts with a computation made here,
apart from the program (big-int recurrences, trinomial coefficients, a
closed-form rate), or with a property the method must have (O(1/n)
convergence, a bounded Daniels error).  None compares with a stored copy
of earlier output.  A check raises CheckError with the reason it failed.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

from workloads import CLASSIC, DOUBLE_ROOT, NAMES

LOG10 = math.log(10.0)
SVG = "{http://www.w3.org/2000/svg}"

# The one known failure: the contour stop rule of EgfEvaluator gives up
# inside the documented range n <= 30 (exit code 3, AccuracyError).
EGF_FAILURE_TEXT = "did not stabilize"

# Property bounds, set above the values measured at the parent commit:
LDP_SCALED_GAP = 1.0  # |emp_N - I(u)| * N / log N, measured <= 0.74
ASYM_RATIO = (0.4, 0.6)  # log_pn gap(2N) / gap(N), measured 0.455-0.504
MU_GAP = 3.0  # |mu_exact - mu_asym|, measured <= 1.7
DANIELS_SCALED = 12.0  # n * max relative Daniels error, measured 8.4-8.5
EGF_REL_ERR = 1e-8


class CheckError(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows, f"{path}: empty file")
    return rows[0], rows[1:]


def weight_rows(model, n_max):
    """Exact weight rows 0..n_max from the step weights, by pushing mass.

    A path at height h moves up with weight a*h + alpha0, stays with
    c*h + gamma0, and moves down to h - 1 with b*(h - 1) + beta0.
    """
    a, b, c, alpha0, beta0, gamma0 = model
    row = [1]
    yield row
    for n in range(n_max):
        nxt = [0] * (n + 2)
        for h, w in enumerate(row):
            if w:
                nxt[h + 1] += (a * h + alpha0) * w
                nxt[h] += (c * h + gamma0) * w
                if h:
                    nxt[h - 1] += (b * (h - 1) + beta0) * w
        row = nxt
        yield row


def trinomial(n, k):
    """Coefficient of x^k in (1 + x + 1/x)^n, in exact integers."""
    if k > n:
        return 0
    total, term, j = 0, math.comb(n, k), 0
    while True:
        total += term
        m = n - 2 * j - k
        if m < 2:
            return total
        term = term * m * (m - 1) // ((j + 1) * (j + k + 1))
        j += 1


def _log(w):
    return math.log(w) if w > 0 else -math.inf


def _close(value, expected, rel):
    if math.isinf(expected):
        return value == expected
    return abs(value - expected) <= rel * max(1.0, abs(expected))


def _ops(ops, name):
    return [op for op in ops if op["name"] == name]


# ----------------------------------------------------------------- sweep


def check_ldp(run_dir, ops, outcomes):
    """(emp_N - I(u)) * N / log N stays bounded over the N list."""
    for op in _ops(ops, "ldp"):
        argv = op["argv"]
        n_list = [int(v) for v in argv[argv.index("--N-list") + 1].split(",")]
        u_grid = [float(v) for v in argv[argv.index("--u-grid") + 1].split(",")]
        header, rows = read_csv(run_dir / op["outputs"][0])
        _require(header == ["u", "theta", "I"] + [f"emp_{n}" for n in n_list],
                 f"ldp header {header}")
        _require(len(rows) == len(u_grid), f"ldp has {len(rows)} rows, want {len(u_grid)}")
        for row, u in zip(rows, u_grid):
            _require(float(row[0]) == u, f"ldp row u={row[0]}, want {u}")
            rate = float(row[2])
            for n, emp in zip(n_list, row[3:]):
                scaled = (float(emp) - rate) * n / math.log(n)
                _require(abs(scaled) <= LDP_SCALED_GAP,
                         f"ldp u={u} N={n}: (emp - I) N / log N = {scaled:.3f}")


def check_asym(run_dir, ops, outcomes):
    """The log_pn gap falls as 1/n and the mean gap stays O(1)."""
    for op in _ops(ops, "asym"):
        argv = op["argv"]
        n_list = [int(v) for v in argv[argv.index("--N-list") + 1].split(",")]
        header, rows = read_csv(run_dir / op["outputs"][0])
        _require(header[0] == "n" and len(rows) == len(n_list), "asym table shape")
        gaps = []
        for row, n in zip(rows, n_list):
            values = [float(v) for v in row[1:]]
            _require(int(row[0]) == n, f"asym row n={row[0]}, want {n}")
            gaps.append(values[0] - values[1])
            _require(abs(values[2] - values[3]) <= MU_GAP,
                     f"asym n={n}: mean gap {values[2] - values[3]:.3f}")
        for n0, n1, g0, g1 in zip(n_list, n_list[1:], gaps, gaps[1:]):
            _require(n1 == 2 * n0 and g0 != 0.0, f"asym n={n0}: zero gap or N not doubling")
            _require(ASYM_RATIO[0] <= g1 / g0 <= ASYM_RATIO[1],
                     f"asym log_pn gap {g0:.3g} -> {g1:.3g} from n={n0} to {n1}")


def check_dist(run_dir, ops, outcomes):
    """dist sums to 1, and on the classic model matches the reflection formula."""
    for op in _ops(ops, "dist"):
        n = op["meta"]["n"]
        header, rows = read_csv(run_dir / op["outputs"][0])
        _require(header == ["k", "log_p", "p"] and len(rows) == n + 1, "dist table shape")
        log_p = [float(r[1]) for r in rows]
        p = [float(r[2]) for r in rows]
        _require([int(r[0]) for r in rows] == list(range(n + 1)), "dist k column")
        for k in range(n + 1):
            _require(_close(p[k], math.exp(log_p[k]), 1e-12), f"dist k={k}: p != exp(log_p)")
        total = math.fsum(p)
        _require(abs(total - 1.0) <= 1e-9, f"dist sums to {total!r}")
        _require(tuple(op["meta"]["model"]) == CLASSIC, "reflection needs the classic model")
        # Unit-weight Motzkin prefixes: w(n, k) = T(n, k) - T(n, k + 2), and
        # the row sum telescopes to T(n, 0) + T(n, 1).
        log_total = math.log(trinomial(n, 0) + trinomial(n, 1))
        for k in op["meta"]["sample_k"]:
            expected = _log(trinomial(n, k) - trinomial(n, k + 2)) - log_total
            _require(_close(log_p[k], expected, 1e-9),
                     f"dist k={k}: log_p {log_p[k]!r}, reflection formula {expected!r}")


# -------------------------------------------------------------- profiles


def check_saddle(run_dir, ops, outcomes):
    """n times the largest relative Daniels error over the table stays bounded."""
    for op in _ops(ops, "saddle"):
        n = op["meta"]["n"]
        header, rows = read_csv(run_dir / op["outputs"][0])
        _require(header == ["k", "log10_exact", "log10_daniels", "log10_gaussian"],
                 f"saddle header {header}")
        ks = [int(r[0]) for r in rows]
        _require(ks == list(range(math.ceil(0.01 * n), math.floor(0.99 * n) + 1)),
                 "saddle k range")
        worst = max(abs(math.expm1((float(r[2]) - float(r[1])) * LOG10)) for r in rows)
        _require(n * worst <= DANIELS_SCALED,
                 f"saddle {op['meta']['model']} n={n}: n * max rel error = {n * worst:.2f}")
        mass = math.fsum(10.0 ** float(r[1]) for r in rows)
        _require(0.9 <= mass <= 1.0 + 1e-9, f"saddle exact mass {mass!r}")


def double_root_rate(u):
    """I(u) for the double root r = -1: u log u + (1 - u) log(1 - u) + log 2."""
    return u * math.log(u) + (1.0 - u) * math.log1p(-u) + math.log(2.0)


def check_figures(run_dir, ops, outcomes):
    """Files agree with each other; the double-root rate line is the closed form."""
    for op in _ops(ops, "figures"):
        n = op["meta"]["n"]
        files = {Path(f).name: run_dir / f for f in op["outputs"]}
        for name, path in files.items():
            _require(path.is_file(), f"figures: missing {name}")
            if name.endswith(".svg"):
                try:
                    root = ET.parse(path).getroot()
                except ET.ParseError as exc:
                    raise CheckError(f"figures {name}: {exc}") from exc
                _require(root.tag == SVG + "svg" and root.find(SVG + "polyline") is not None,
                         f"figures {name}: not an SVG plot")
        _, linear = read_csv(files["profile_linear.csv"])
        header, log_rows = read_csv(files["profile_log.csv"])
        _require(header[-1] == "log10_ldp_line" and len(linear) == len(log_rows),
                 "figures profile tables differ in shape")
        for lin, lg in zip(linear, log_rows):
            _require(lin[0] == lg[0] and _close(float(lin[1]), 10.0 ** float(lg[1]), 1e-12),
                     f"figures k={lin[0]}: p_exact != 10**log10_exact")
        if tuple(op["meta"]["model"]) == DOUBLE_ROOT:
            for row in log_rows:
                k = int(row[0])
                expected = -n * double_root_rate(k / n) / LOG10
                _require(_close(float(row[4]), expected, 1e-9),
                         f"figures k={k}: ldp line {row[4]}, closed form {expected!r}")


# ---------------------------------------------------------------- tables


def check_triangles(run_dir, ops, outcomes):
    """Every weight_decimal and log weight matches a big-int recurrence.

    Log-space rows are compared up to the largest exact size in the run;
    the rows beyond are only counted.
    """
    triangles = [op for op in _ops(ops, "triangle") if op["outputs"][0].endswith(".csv")]
    exact_max = max(op["meta"]["n"] for op in triangles
                    if op["meta"]["representation"] == "exact")
    for op in triangles:
        path = run_dir / op["outputs"][0]
        model, n_max = tuple(op["meta"]["model"]), op["meta"]["n"]
        exact = op["meta"]["representation"] == "exact"
        n_cmp = min(n_max, exact_max)
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            _require(header == ("n,k,log_weight,weight_decimal" if exact else "n,k,log_weight"),
                     f"triangle header {header!r}")
            for n, row in enumerate(weight_rows(model, n_cmp)):
                for k, w in enumerate(row):
                    fields = fh.readline().rstrip("\n").split(",")
                    _require(fields[:2] == [str(n), str(k)], f"{path.name}: missing ({n},{k})")
                    _require(_close(float(fields[2]), _log(w), 1e-12),
                             f"{path.name} ({n},{k}): log_weight {fields[2]}")
                    if exact:
                        _require(fields[3] == str(w),
                                 f"{path.name} ({n},{k}): weight_decimal differs")
            rest = sum(1 for _ in fh)
        want = (n_max + 1) * (n_max + 2) // 2 - (n_cmp + 1) * (n_cmp + 2) // 2
        _require(rest == want, f"{path.name}: {rest} lines after row {n_cmp}, want {want}")


def _sorted_keys(pairs):
    keys = [k for k, _ in pairs]
    if keys != sorted(keys):
        raise CheckError(f"JSON keys not sorted: {keys}")
    return dict(pairs)


def check_json(run_dir, ops, outcomes):
    """The JSON triangle parses with sorted keys and holds the CSV's numbers."""
    tables = {op["outputs"][0]: op for op in _ops(ops, "triangle")}
    path = run_dir / "tri_small.json"
    try:
        payload = json.loads(path.read_text(), object_pairs_hook=_sorted_keys)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    model = tables["tri_small.json"]["meta"]["model"]
    _require(payload["params"] == dict(zip(NAMES, model)),
             f"{path.name}: params {payload['params']}")
    _, csv_rows = read_csv(run_dir / "tri_small.csv")
    _require(len(payload["rows"]) == len(csv_rows), f"{path.name}: row count")
    for obj, row in zip(payload["rows"], csv_rows):
        _require([str(obj["n"]), str(obj["k"]), obj["weight_decimal"]] == [row[0], row[1], row[3]]
                 and obj["log_weight"] == float(row[2]),
                 f"{path.name}: row {obj} differs from CSV {row}")


def check_egf(run_dir, ops, outcomes):
    """Passing egf-checks hold their error bound; failing ones fail as documented."""
    for op, (code, stderr) in zip(ops, outcomes):
        if op["name"] != "egf-check":
            continue
        if code != 0:
            _require(code == 3 and EGF_FAILURE_TEXT in stderr,
                     f"egf-check {op['meta']['model']} n={op['meta']['n']}: "
                     f"exit {code}: {stderr.strip()[-200:]}")
            continue
        n_terms = op["meta"]["n"]
        rows_exact = list(weight_rows(tuple(op["meta"]["model"]), n_terms - 1))
        header, rows = read_csv(run_dir / op["outputs"][0])
        _require(header == ["x", "n", "coeff_exact", "coeff_egf", "rel_err"] and
                 len(rows) == n_terms * len(op["meta"]["x"]), "egf-check table shape")
        for row in rows:
            x, n = Fraction(row[0]), int(row[1])
            exact = sum(w * x**k for k, w in enumerate(rows_exact[n])) / math.factorial(n)
            _require(_close(float(row[2]), float(exact), 1e-12),
                     f"egf-check x={row[0]} n={n}: coeff_exact {row[2]}, want {float(exact)!r}")
            _require(float(row[4]) <= EGF_REL_ERR, f"egf-check x={row[0]} n={n}: rel_err {row[4]}")


def check_failures(run_dir, ops, outcomes):
    """Only egf-check may fail (checked by check_egf); nothing else may."""
    for op, (code, stderr) in zip(ops, outcomes):
        _require(code == 0 or op["name"] == "egf-check",
                 f"{op['name']} failed with exit {code}: {stderr.strip()[-200:]}")


CHECKS = {
    "sweep": [check_ldp, check_asym, check_dist],
    "profiles": [check_saddle, check_figures],
    "tables": [check_triangles, check_json, check_egf],
}


def run_checks(workload, run_dir, ops, outcomes):
    """Every check of a workload; returns the failure messages.

    outcomes holds (exit code, stderr) per operation.
    """
    failures = []
    for check in [check_failures] + CHECKS[workload]:
        try:
            check(Path(run_dir), ops, outcomes)
        except CheckError as exc:
            failures.append(f"{check.__name__}: {exc}")
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            failures.append(f"{check.__name__}: unreadable output: {exc!r}")
    return failures
