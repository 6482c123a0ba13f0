"""Self-test of the benchmark harness at tiny sizes; runs in seconds.

    python3 perfbench/selftest.py

Runs every workload once, untraced and traced, and requires every output
check to pass; then corrupts one output per check and requires that check
to reject it.  Scratch files go under perfbench/_runs/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 12345
SCRATCH = run.RUNS / "selftest"


def load_run(workload):
    """(ops, outcomes, output directory) of the last untraced run of a workload."""
    run_dir = run.RUNS / workload
    spec = json.loads((run_dir / "spec.json").read_text())
    result = json.loads((run_dir / "result.json").read_text())
    outcomes = [(r["code"], r["stderr"]) for r in result["rounds"][-1]]
    return spec["ops"], outcomes, Path(result["out_dir"])


def flip_digit(text: str) -> str:
    """Change the leading digit of a number by at least 4, keeping it well formed."""
    for i, ch in enumerate(text):
        if ch in "123456789":
            return text[:i] + str((int(ch) + 4) % 9 + 1) + text[i + 1:]
    raise ValueError(f"no digit to flip in {text!r}")


def edit_csv_cell(path: Path, row: int, column: int) -> None:
    """Flip a digit in one CSV cell; row 1 is the first data row."""
    lines = path.read_text().split("\n")
    cells = lines[row].split(",")
    cells[column] = flip_digit(cells[column])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines))


def column_of(path: Path, name: str) -> int:
    return path.read_text().split("\n", 1)[0].split(",").index(name)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain, cls.traced = {}, {}
        for workload in workloads.WORKLOADS:
            cls.traced[workload] = run.run_workload(
                workload, SEED, 0, True, scale="tiny", setup_samples=1)
            cls.plain[workload] = run.run_workload(
                workload, SEED, 0, False, scale="tiny", setup_samples=2)

    def test_every_workload_passes_its_checks(self):
        for workload, out in self.plain.items():
            with self.subTest(workload=workload):
                self.assertEqual(out["failures"], [])
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["info"]["env"], {"OPENBLAS_NUM_THREADS": "1",
                                                      "OMP_NUM_THREADS": "1",
                                                      "MOTZKIN_THREADS": None})
                for name, metric in out["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_only_the_contour_fault_fails(self):
        self.assertEqual(self.plain["sweep"]["failed"], 0)
        self.assertEqual(self.plain["profiles"]["failed"], 0)
        # At --n 20 one balanced model hits the contour stop-rule fault.
        self.assertEqual(self.plain["tables"]["failed"], 1)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]], [n for n, _ in tracing.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            self.assertEqual(list(self.plain[workload]["metrics"]), [n for n, _ in run.END_TO_END])
            self.assertEqual(list(self.traced[workload]["metrics"]),
                             [n for n, _ in tracing.PER_LAYER])

    def test_layer_self_times_add_up_to_traced_wall(self):
        for workload, out in self.traced.items():
            with self.subTest(workload=workload):
                self.assertTrue(out["correct"], out["failures"])
                values = {k: m["value"] for k, m in out["metrics"].items()}
                layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
                self.assertLess(abs(layers - values["trace.wall_s"]), 0.1 * values["trace.wall_s"])

    def test_traced_counts(self):
        sweep = {k: m["value"] for k, m in self.traced["sweep"]["metrics"].items()}
        size = workloads.SIZES["tiny"]
        # ldp and asym build one row per N; dist builds one.
        self.assertEqual(sweep["exact.log_rows.calls"], 2 * len(size["n_list"]) + 1)
        cells = sum((n + 1) * (n + 2) // 2 for n in size["n_list"]) * 2
        cells += (size["dist_n"] + 1) * (size["dist_n"] + 2) // 2
        self.assertEqual(sweep["exact.log_rows.cells"], cells)
        tables = {k: m["value"] for k, m in self.traced["tables"]["metrics"].items()}
        self.assertEqual(tables["closedform.taylor.failed"], 1)
        self.assertGreater(tables["exact.triangle.bits"], 0)
        profiles = {k: m["value"] for k, m in self.traced["profiles"]["metrics"].items()}
        self.assertGreater(profiles["saddlepoint.newton_iters"], profiles["saddlepoint.solve.calls"])

    def corrupted(self, workload, check, edit):
        """Run one check on a copy of a workload's outputs after edit(copy)."""
        ops, outcomes, out_dir = load_run(workload)
        copy = SCRATCH / workload
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out_dir, copy)
        outcomes = edit(copy, ops, outcomes) or outcomes
        check(copy, ops, outcomes)

    def assert_rejects(self, workload, check, edit):
        ops, outcomes, out_dir = load_run(workload)
        check(out_dir, ops, outcomes)  # the untouched output passes
        with self.assertRaises(checks.CheckError):
            self.corrupted(workload, check, edit)

    def test_checks_reject_corrupted_outputs(self):
        def cell(name, column, row=1):
            def edit(copy, ops, outcomes):
                path = copy / name
                edit_csv_cell(path, row, column_of(path, column) if isinstance(column, str)
                              else column)
            return edit

        def ldp_emp(copy, ops, outcomes):
            path = copy / "ldp.csv"
            rates = [float(line.split(",")[2]) for line in path.read_text().split()[1:]]
            edit_csv_cell(path, 1 + rates.index(max(rates)), column_of(path, "emp_250"))

        def dist_sampled(copy, ops, outcomes):
            k = next(op for op in ops if op["name"] == "dist")["meta"]["sample_k"][0]
            edit_csv_cell(copy / "dist.csv", k + 1, 1)

        def break_svg(copy, ops, outcomes):
            path = copy / "figures_showcase" / "profile_log.svg"
            path.write_text(path.read_text().replace("</svg>", ""))

        def unsort_json(copy, ops, outcomes):
            path = copy / "tri_small.json"
            data = json.loads(path.read_text())
            data = {"rows": data["rows"], "params": data["params"]}
            path.write_text(json.dumps(data, indent=2))

        def json_number(copy, ops, outcomes):
            path = copy / "tri_small.json"
            data = json.loads(path.read_text())
            data["rows"][-1]["weight_decimal"] = flip_digit(data["rows"][-1]["weight_decimal"])
            path.write_text(json.dumps(data, sort_keys=True, indent=2))

        def egf_rel_err(copy, ops, outcomes):
            i = next(i for i, (code, _) in enumerate(outcomes) if code == 0 and
                     ops[i]["name"] == "egf-check")
            path = copy / ops[i]["outputs"][0]
            lines = path.read_text().split("\n")
            cells = lines[1].split(",")
            cells[4] = "1e-3"
            lines[1] = ",".join(cells)
            path.write_text("\n".join(lines))

        def egf_wrong_failure(copy, ops, outcomes):
            return [(2, "error: bad flag") if code else (code, err) for code, err in outcomes]

        def dist_failed(copy, ops, outcomes):
            return [(3, "numeric-domain error") if op["name"] == "dist" else o
                    for op, o in zip(ops, outcomes)]

        last = workloads.SIZES["tiny"]["exact_n"]
        last_row = (last + 1) * (last + 2) // 2
        cases = [
            ("sweep", checks.check_ldp, ldp_emp),
            ("sweep", checks.check_ldp, cell("ldp.csv", "I", row=3)),
            ("sweep", checks.check_asym, cell("asym.csv", "log_pn_asym", row=2)),
            ("sweep", checks.check_asym, cell("asym.csv", "mu_exact")),
            ("sweep", checks.check_dist, dist_sampled),
            ("sweep", checks.check_dist, cell("dist.csv", "p", row=2)),
            ("sweep", checks.check_failures, dist_failed),
            ("profiles", checks.check_saddle, cell("saddle_1.csv", "log10_daniels", row=40)),
            ("profiles", checks.check_figures, cell("figures_double/profile_log.csv",
                                                    "log10_ldp_line", row=5)),
            ("profiles", checks.check_figures, break_svg),
            ("tables", checks.check_triangles, cell("tri_exact.csv", "weight_decimal",
                                                    row=last_row)),
            ("tables", checks.check_triangles, cell("tri_log.csv", "log_weight", row=100)),
            ("tables", checks.check_json, unsort_json),
            ("tables", checks.check_json, json_number),
            ("tables", checks.check_egf, egf_rel_err),
            ("tables", checks.check_egf, cell("egf_06_20.csv", "coeff_exact", row=4)),
            ("tables", checks.check_egf, egf_wrong_failure),
        ]
        for workload, check, edit in cases:
            with self.subTest(workload=workload, check=check.__name__, edit=edit.__name__):
                self.assert_rejects(workload, check, edit)

    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_runs"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_reflection_and_rate_helpers(self):
        # Motzkin numbers: row sums of the classic model at k = 0.
        self.assertEqual([checks.trinomial(n, 0) - checks.trinomial(n, 2) for n in range(8)],
                         [1, 1, 2, 4, 9, 21, 51, 127])
        self.assertAlmostEqual(checks.double_root_rate(0.5), 0.0, places=15)
        self.assertTrue(math.isfinite(checks.double_root_rate(0.01)))


if __name__ == "__main__":
    unittest.main()
