"""Workload definitions: the CLI operations each workload runs, made from a seed.

An operation is one `wmotzkin.cli.main(argv)` call whose artifacts go to
files under the run directory.  The seed picks models, grids and sampled
indices; it never changes the amount of work much, so that runs with
different seeds stay comparable.
"""

from __future__ import annotations

import random

CLASSIC = (0, 0, 0, 1, 1, 1)
SHOWCASE = (1, 5, 6, 8, 5, 1)
DOUBLE_ROOT = (1, 1, 2, 1, 1, 0)

# Balanced quadratic models away from the r = 0 / r2 = 0 boundary
# (the "interior" corpus of the test suite), by sub-regime.
INTERIOR_TWO_REAL = [SHOWCASE, (2, 1, 4, 3, 1, 1), (1, 2, 5, 1, 2, 0), (3, 1, 4, 2, 1, 2)]
INTERIOR_DOUBLE = [DOUBLE_ROOT, (1, 4, 4, 2, 4, 1), (4, 1, 4, 3, 1, 1)]
INTERIOR = INTERIOR_TWO_REAL + INTERIOR_DOUBLE

# Balanced complex-roots models whose law is not close to period 2 in k.
# (1, 1, 0, 1, 1, 1) is left out: its exact law oscillates in k, so the
# Daniels error does not fall as 1/n there (see README).
COMPLEX = [(1, 2, 1, 2, 2, 1), (2, 3, 2, 3, 3, 0)]

# Every balanced (beta0 == b) model of the test-suite corpus, all five regimes.
BALANCED = [
    (0, 2, 0, 3, 2, 1), (0, 0, 0, 2, 0, 3), (0, 3, 0, 1, 3, 2),
    (0, 1, 1, 1, 1, 1), (0, 2, 3, 2, 2, 1), (0, 0, 1, 3, 0, 2),
    (1, 5, 6, 8, 5, 1), (2, 1, 4, 3, 1, 1), (1, 0, 1, 2, 0, 1),
    (1, 2, 5, 1, 2, 0), (3, 1, 4, 2, 1, 2),
    (1, 1, 2, 1, 1, 0), (1, 4, 4, 2, 4, 1), (4, 1, 4, 3, 1, 1), (1, 0, 0, 2, 0, 1),
    (1, 1, 0, 1, 1, 1), (1, 2, 1, 2, 2, 1), (2, 3, 2, 3, 3, 0),
]

NAMES = ("a", "b", "c", "alpha0", "beta0", "gamma0")

# Sizes per scale.  "full" is the benchmark; "tiny" is the self-test.
SIZES = {
    "full": {
        "n_list": [375, 750, 1500, 3000, 6000],
        "dist_n": 6000,
        "saddle_n": 2000,
        "figures_n": 1000,
        "exact_n": 400,
        "log_n": 1500,
        "small_n": 40,
        "egf_n": [20, 30],
    },
    "tiny": {
        "n_list": [250, 500, 1000],
        "dist_n": 400,
        "saddle_n": 200,
        "figures_n": 100,
        "exact_n": 30,
        "log_n": 60,
        "small_n": 8,
        "egf_n": [20],
    },
}

# Small versions of every operation kind, run before timing starts.
WARMUP_SIZES = {
    "n_list": [20, 40],
    "dist_n": 40,
    "saddle_n": 40,
    "figures_n": 40,
    "exact_n": 10,
    "log_n": 20,
    "small_n": 4,
    "egf_n": [6],
}


def params_arg(model) -> str:
    return " ".join(f"{k}={v}" for k, v in zip(NAMES, model))


def _op(name, argv, outputs, **meta):
    return {"name": name, "argv": argv, "outputs": outputs, "meta": meta}


def _sweep(rng, size):
    n_list = ",".join(map(str, size["n_list"]))
    ldp_model = rng.choice(INTERIOR)
    u_grid = sorted(round(rng.uniform(0.1, 0.9), 3) for _ in range(9))
    asym_model = rng.choice(INTERIOR)
    x = round(rng.uniform(0.5, 2.0), 2)
    n = size["dist_n"]
    sample_k = sorted(rng.sample(range(n + 1), 8))
    return [
        _op("ldp", ["ldp", "--params", params_arg(ldp_model), "--N-list", n_list,
                    "--u-grid", ",".join(map(str, u_grid)), "--out", "ldp.csv"],
            ["ldp.csv"], model=ldp_model),
        _op("asym", ["asym", "--params", params_arg(asym_model), "--N-list", n_list,
                     "--x", str(x), "--out", "asym.csv"],
            ["asym.csv"], model=asym_model),
        # Unbalanced classic model: single-N log-space row.
        _op("dist", ["dist", "--params", params_arg(CLASSIC), "--n", str(n),
                     "--out", "dist.csv"],
            ["dist.csv"], model=CLASSIC, n=n, sample_k=sample_k),
    ]


def _profiles(rng, size):
    ops = []
    for i, pool in enumerate((INTERIOR_TWO_REAL, INTERIOR_DOUBLE, COMPLEX)):
        model = rng.choice(pool)
        n = size["saddle_n"] + rng.randint(-10, 10)
        out = f"saddle_{i}.csv"
        ops.append(_op("saddle", ["saddle", "--params", params_arg(model), "--n", str(n),
                                  "--out", out], [out], model=model, n=n))
    for tag, model in (("showcase", SHOWCASE), ("double", DOUBLE_ROOT)):
        n = size["figures_n"] + rng.randint(-5, 5)
        out = f"figures_{tag}"
        files = [f"{out}/{f}" for f in (
            "profile_linear.csv", "profile_log.csv", "rate_scaling.csv",
            "profile_linear.svg", "profile_log.svg", "rate_scaling.svg")]
        ops.append(_op("figures", ["figures", "--params", params_arg(model), "--n", str(n),
                                   "--format", "svg", "--out", out], files, model=model, n=n))
    return ops


def _tables(rng, size):
    log_model = rng.choice(INTERIOR)
    small_model = rng.choice(INTERIOR)
    ops = [
        _op("triangle", ["triangle", "--params", params_arg(SHOWCASE),
                         "--n", str(size["exact_n"]), "--out", "tri_exact.csv"],
            ["tri_exact.csv"], model=SHOWCASE, n=size["exact_n"], representation="exact"),
        _op("triangle", ["triangle", "--params", params_arg(log_model),
                         "--n", str(size["log_n"]), "--representation", "log_space",
                         "--out", "tri_log.csv"],
            ["tri_log.csv"], model=log_model, n=size["log_n"], representation="log_space"),
        _op("triangle", ["triangle", "--params", params_arg(small_model),
                         "--n", str(size["small_n"]), "--out", "tri_small.csv"],
            ["tri_small.csv"], model=small_model, n=size["small_n"], representation="exact"),
        _op("triangle", ["triangle", "--params", params_arg(small_model),
                         "--n", str(size["small_n"]), "--format", "json",
                         "--out", "tri_small.json"],
            ["tri_small.json"], model=small_model, n=size["small_n"], representation="exact"),
    ]
    # Fixed, seed-independent: every balanced model at each coefficient count.
    for i, model in enumerate(BALANCED):
        for n in size["egf_n"]:
            out = f"egf_{i:02d}_{n}.csv"
            ops.append(_op("egf-check", ["egf-check", "--params", params_arg(model),
                                         "--n", str(n), "--x", "0.5,1,2", "--out", out],
                           [out], model=model, n=n, x=[0.5, 1.0, 2.0]))
    return ops


_BUILDERS = {"sweep": _sweep, "profiles": _profiles, "tables": _tables}
WORKLOADS = tuple(_BUILDERS)


# egf-check warm-up models: one each of constant, linear and quadratic drift.
WARMUP_EGF = [(0, 2, 0, 3, 2, 1), (0, 1, 1, 1, 1, 1), SHOWCASE]


def _warmup(workload):
    """Small runs of each operation kind."""
    ops = _BUILDERS[workload](random.Random(0), WARMUP_SIZES)
    return [op for op in ops if op["name"] != "egf-check" or op["meta"]["model"] in WARMUP_EGF]


def build(workload: str, seed: int, scale: str = "full") -> dict:
    """The operations of one run: {"ops": [...], "warmup": [...]}.

    Output paths are relative to the directory the operations run in.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    ops = _BUILDERS[workload](random.Random(seed), SIZES[scale])
    return {"workload": workload, "seed": seed, "scale": scale,
            "ops": ops, "warmup": _warmup(workload)}
