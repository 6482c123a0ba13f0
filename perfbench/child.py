"""Benchmark child: runs one workload's operations in this process.

Usage: python3 child.py SPEC_JSON [--setup-only]

The parent starts this script in the run directory with the thread
settings pinned.  It imports numpy and wmotzkin, runs the warm-up
operations and prints "ready"; the parent times set-up up to that line.
It then repeats whole rounds of the operations until the run length has
passed, timing each `wmotzkin.cli.main(argv)` call, and writes what it
measured to the result file named in the spec.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MOTZKIN_THREADS")

# Calibration: a burst of kernel runs before an operation once this much
# time has passed since the last burst, and at the end of the run.
CALIBRATION_BURST = 4
CALIBRATION_EVERY_S = 0.5


def calibration_kernel(np) -> None:
    """Fixed work that uses no wmotzkin code; its time tracks host speed.

    numpy ufunc loops over 4096-element rows, like the log-space
    recurrence, then a Python scalar loop, like the Newton solves.
    """
    x = np.linspace(-5.0, 5.0, 4096)
    row = np.zeros(4096)
    for _ in range(24):
        row = np.logaddexp(np.logaddexp(row, x), row[::-1]) - 1.0
    s = 0.0
    for i in range(1, 4000):
        s += math.log(i) / (i + 0.5)
    if not math.isfinite(s + float(row[0])):
        raise ArithmeticError("calibration kernel lost precision")


def invoke(cli, argv, tracer):
    """One operation: (exit code, stderr text).  Code -1 is an uncaught exception."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        span = tracer.open("cli") if tracer else None
        try:
            code = cli.main(argv)
        except Exception:  # a crash is reported as a failed operation
            code, err = -1, io.StringIO(traceback.format_exc())
        finally:
            if span is not None:
                tracer.close(span)
    return code, err.getvalue()


def enter(directory: Path, ops) -> None:
    """Make directory afresh, with the parents of every output, and cd into it.

    Rounds alternate between two directories, so a round never overwrites
    files whose pages the previous round may still be writing back.
    """
    shutil.rmtree(directory, ignore_errors=True)
    for op in ops:
        for out in op["outputs"]:
            (directory / out).parent.mkdir(parents=True, exist_ok=True)
    os.chdir(directory)


def digest(paths):
    """(sha256 over the output files, total bytes); a missing file counts as absent."""
    h = hashlib.sha256()
    size = 0
    for path in paths:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            size += os.path.getsize(path)
        else:
            h.update(b"absent")
    return h.hexdigest(), size


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    setup_only = "--setup-only" in argv[2:]
    sys.path.insert(0, spec["src"])
    import numpy as np
    from wmotzkin import cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    run_dir = Path.cwd()
    if tracer:
        tracer.start_round()
    enter(run_dir / "warmup", spec["warmup"])
    warmup_codes = [invoke(cli, op["argv"], tracer)[0] for op in spec["warmup"]]
    calibration_kernel(np)
    print("ready", flush=True)
    if setup_only:
        return 0
    if tracer:
        tracer.reset()

    def calibrate():
        for _ in range(CALIBRATION_BURST):
            t0 = time.perf_counter()
            calibration_kernel(np)
            calibration.append([t0, time.perf_counter() - t0])

    rounds, calibration = [], []
    start = last_calibration = time.perf_counter()
    while True:
        if tracer:
            tracer.start_round()
        out_dir = run_dir / f"round{len(rounds) % 2}"
        enter(out_dir, spec["ops"])
        ops = []
        for op in spec["ops"]:
            if not tracer and time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
                calibrate()
                last_calibration = time.perf_counter()
            w0, c0 = time.perf_counter(), time.process_time()
            code, err = invoke(cli, op["argv"], tracer)
            w1, c1 = time.perf_counter(), time.process_time()
            sha, size = digest(op["outputs"])
            if tracer:
                tracer.count("cli.bytes_out", size)
            ops.append({"start": w0, "wall": w1 - w0, "cpu": c1 - c0, "code": code,
                        "stderr": err[-2000:], "sha256": sha, "bytes": size})
        rounds.append(ops)
        if time.perf_counter() - start >= spec["seconds"]:
            break
    if not tracer:
        calibrate()

    result = {
        "rounds": rounds,
        "out_dir": str(out_dir),
        "calibration": calibration,
        "warmup_codes": warmup_codes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    if tracer:
        Path(spec["spans"]).write_text(json.dumps({"spans": tracer.spans,
                                                   "counts": tracer.counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
