"""Shared parameter corpus covering all five drift regimes, balanced and
unbalanced, including the r = 0 / r2 = 0 boundary cases."""

from wmotzkin import ModelParams, classify, is_balanced

CORPUS = [
    ModelParams(*t)
    for t in [
        # constant drift (A = B = 0)
        (0, 0, 0, 1, 1, 1),   # classical unweighted paths, unbalanced
        (0, 2, 0, 3, 2, 1),   # balanced, Y > 0
        (0, 0, 0, 2, 0, 3),   # balanced, Y = 0 (no down steps)
        (0, 3, 0, 1, 3, 2),   # balanced
        (0, 1, 0, 2, 2, 0),   # unbalanced
        # linear drift (A = 0, B > 0)
        (0, 1, 1, 1, 1, 1),   # balanced
        (0, 2, 3, 2, 2, 1),   # balanced
        (0, 1, 2, 1, 0, 1),   # unbalanced
        (0, 0, 1, 3, 0, 2),   # balanced, C = 0
        # two real roots (A > 0, B^2 > 4AC)
        (1, 5, 6, 8, 5, 1),   # showcase: r1=-5, r2=-1, nu=8
        (1, 5, 6, 8, 3, 1),   # same drift, unbalanced
        (2, 1, 4, 3, 1, 1),   # balanced, nu=3/2
        (1, 0, 1, 2, 0, 1),   # balanced boundary case r2=0
        (1, 2, 5, 1, 2, 0),   # balanced, nu=1
        (3, 1, 4, 2, 1, 2),   # balanced, nu=2/3
        (1, 2, 4, 5, 0, 2),   # unbalanced
        # double root (A > 0, B^2 = 4AC)
        (1, 1, 2, 1, 1, 0),   # showcase: r=-1, nu=1
        (1, 4, 4, 2, 4, 1),   # balanced, r=-2
        (4, 1, 4, 3, 1, 1),   # balanced, r=-1/2, nu=3/4
        (1, 1, 2, 2, 0, 1),   # unbalanced
        (1, 0, 0, 2, 0, 1),   # balanced boundary case r=0
        # complex roots (A > 0, B^2 < 4AC)
        (1, 1, 0, 1, 1, 1),   # balanced, p=0, q=1
        (1, 2, 1, 2, 2, 1),   # balanced
        (2, 3, 2, 3, 3, 0),   # balanced, A=2
        (1, 1, 1, 1, 0, 2),   # unbalanced
    ]
]

SHOWCASE = ModelParams(1, 5, 6, 8, 5, 1)
DOUBLE_ROOT = ModelParams(1, 1, 2, 1, 1, 0)
COMPLEX_UNIT = ModelParams(1, 1, 0, 1, 1, 1)
CLASSIC = ModelParams(0, 0, 0, 1, 1, 1)
LINEAR_BALANCED = ModelParams(0, 1, 1, 1, 1, 1)
CONSTANT_BALANCED = ModelParams(0, 2, 0, 3, 2, 1)

# Accepted but refused by asymptotics/LDP: no up-step ever has weight.
DEGENERATE = ModelParams(0, 1, 0, 0, 1, 2)
# Balanced quadratic drift (A = 1) with alpha0 = 0: the up-step leaving
# height 0 has zero weight, so the walk never leaves 0 although a > 0.
# Kept out of CORPUS, whose entries all have a nondegenerate law.
DEGENERATE_QUADRATIC = ModelParams(1, 1, 0, 0, 1, 1)


def balanced_corpus():
    return [p for p in CORPUS if is_balanced(p)]


def balanced_quadratic():
    return [p for p in balanced_corpus() if classify(p).is_quadratic]


def quadratic_interior():
    """Balanced quadratic entries away from the r = 0 / r2 = 0 boundary.

    At the boundary the singular time diverges as x -> 0+, the limit
    variance rate vanishes, and the sharp tail-decay thresholds for F' do
    not apply; those entries are still exercised by the exact engine and
    the closed-form consistency tests.
    """
    out = []
    for p in balanced_quadratic():
        from wmotzkin.closedform import SingularityMap

        if SingularityMap(p).domain_low < 0:
            out.append(p)
    return out
