"""Benchmark of wmotzkin: one named workload, timed end to end in a fresh child.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep|profiles|tables --seed N \\
        --seconds S --trace 0|1

The child process imports wmotzkin from ./src and calls
`wmotzkin.cli.main(argv)` for each operation, writing every artifact to
files under perfbench/_runs/.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 the
same operations run with spans around each layer and the object holds
the per-layer metrics instead.  Outputs are checked after the child exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
RUNS = HERE / "_runs"

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_ref", "ref"),
]

# Set-up is timed this many times per run (one of them is the workload child).
SETUP_SAMPLES = 9
# Limit on one child; the whole run must end well within 180 s.
CHILD_TIMEOUT_S = 150.0


class HarnessError(Exception):
    pass


def child_env() -> dict:
    """The environment of every child: single-threaded numeric libraries."""
    env = dict(os.environ)
    env.pop("MOTZKIN_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def start_child(spec_path: Path, run_dir: Path, setup_only: bool):
    """Start a child and wait for its "ready" line: (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=run_dir, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, 5.0)
        raise HarnessError(f"child did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, timeout: float) -> int:
    """Wait for a child, killing it past the timeout; returns its exit code."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    return proc.returncode


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload in fresh children and check its outputs.

    Returns {"correct", "attempted", "failed", "metrics", "failures", "info"}.
    """
    if not (ROOT / "src" / "wmotzkin" / "cli.py").is_file():
        raise HarnessError(f"no wmotzkin sources under {ROOT / 'src'}")
    run_dir = RUNS / f"{workload}{'-trace' if trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = workloads.build(workload, seed, scale)
    spec.update(src=str(ROOT / "src"), seconds=seconds, trace=trace,
                result=str(run_dir / "result.json"), spans=str(run_dir / "spans.json"))
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))

    def setup_only():
        proc, setup = start_child(spec_path, run_dir, setup_only=True)
        if finish(proc, 30.0) != 0:
            raise HarnessError("set-up child failed")
        return setup

    # Set-up samples before and after the workload child, so that they see
    # the host at both ends of the run.
    setups = [setup_only() for _ in range((setup_samples - 1) // 2)]
    proc, setup = start_child(spec_path, run_dir, setup_only=False)
    setups.append(setup)
    if finish(proc, CHILD_TIMEOUT_S) != 0:
        raise HarnessError(f"workload child failed (exit {proc.returncode})")
    setups += [setup_only() for _ in range(setup_samples - len(setups))]
    result = json.loads(Path(spec["result"]).read_text())
    rounds = result["rounds"]
    ops = spec["ops"]

    failures = []
    if any(code != 0 for code in result["warmup_codes"]):
        failures.append(f"warm-up exit codes {result['warmup_codes']}")
    first = rounds[0]
    for later in rounds[1:]:
        for op, a, b in zip(ops, first, later):
            if (a["code"], a["sha256"]) != (b["code"], b["sha256"]):
                failures.append(f"{op['name']} {op['argv'][-1]}: output differs between rounds")
    outcomes = [(r["code"], r["stderr"]) for r in rounds[-1]]
    failures += checks.run_checks(workload, Path(result["out_dir"]), ops, outcomes)

    if trace:
        traced = json.loads(Path(spec["spans"]).read_text())
        values = tracing.per_layer(traced["spans"], traced["counts"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        def per_round(key, stat):
            return sum(stat([r[i][key] for r in rounds]) for i in range(len(ops)))

        # wall_ref uses means: the host's speed switches between levels for
        # seconds at a time, and a median of such a mixture jumps between
        # levels where the means of operations and kernel move together.
        kernel = statistics.fmean(d for _, d in result["calibration"])
        values = {
            "wall_s": per_round("wall", statistics.median),
            "cpu_s": per_round("cpu", statistics.median),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "wall_ref": per_round("wall", statistics.fmean) / kernel,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": not failures,
        "attempted": len(rounds) * len(ops),
        "failed": sum(r["code"] != 0 for rnd in rounds for r in rnd),
        "metrics": metrics,
        "failures": failures,
        "info": {
            "rounds": len(rounds),
            "ops_per_round": len(ops),
            "bytes_out": sum(r["bytes"] for r in rounds[0]),
            "env": result["env"],
            "python": result["python"],
            "numpy": result["numpy"],
            "nproc": os.cpu_count(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    info = out["info"]
    print(f"workload {args.workload} seed {args.seed}: {info['rounds']} rounds of "
          f"{info['ops_per_round']} operations; python {info['python']}, "
          f"numpy {info['numpy']}, nproc {info['nproc']}; child env {info['env']}")
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {out['attempted']}, failed {out['failed']}, "
          f"bytes out per round {info['bytes_out']}")
    for failure in out["failures"]:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({key: out[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
