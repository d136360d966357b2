"""The three cold-start workloads, as plans of calls made from a seed.

A plan is a JSON-able list of calls.  A "cli" call runs `horocycle <argv>`
in process and reads back the report written by `--json`.  An "api" call
runs a suite function with generated sample points, which the CLI has no
option for, and writes the same report layout the CLI writes.  Only the
generated inputs reach the program; the seed stays here.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("dy-cone", "coinvariant-ladder", "filtration-sweep")

# Sizes of each workload; the README explains the choice.
DY_CLI_DEFAULT_BOUND = 4
LADDER_EXPONENT_MAX_M = 6
LADDER_ASYMP_REP_BOUND = 4
LADDER_PARABOLIC_REP_BOUND = 3
FILTRATION_BOUNDS = {"rees": 16, "tau": 6, "grderv": 6, "pwfilt": 10, "vfilt": 16}


def _rational(rng: random.Random, signed: bool = True) -> Fraction:
    """A nonzero rational with numerator and denominator of one to two digits."""
    num = rng.randint(1, 99)
    if signed and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 99))


def det_one_point(rng: random.Random) -> tuple:
    a, b, c = _rational(rng), _rational(rng), _rational(rng)
    return (a, b, c, (1 + b * c) / a)


def cone_point(rng: random.Random) -> tuple:
    """A rank-one matrix u v^T with u, v nonzero, so det = 0 and not the origin."""
    u1, u2, v1, v2 = (_rational(rng) for _ in range(4))
    return (u1 * v1, u1 * v2, u2 * v1, u2 * v2)


def torus_fibre_point(rng: random.Random) -> tuple:
    return (_rational(rng), Fraction(0), Fraction(0), Fraction(0))


def _text(point) -> list:
    return [str(Fraction(x)) for x in point]


def plan(workload: str, seed: int) -> list[dict]:
    if workload == "dy-cone":
        return [{"kind": "cli", "suite": "dy", "argv": ["verify", "dy", "--quiet"],
                 "bound": DY_CLI_DEFAULT_BOUND}]
    if workload == "coinvariant-ladder":
        rng = random.Random(seed)
        det1, cone, torus = det_one_point(rng), cone_point(rng), torus_fibre_point(rng)
        calls = [
            {"kind": "cli", "suite": "exponents", "argv": ["exponents", "--m", str(m)], "m": m}
            for m in range(LADDER_EXPONENT_MAX_M + 1)
        ]
        calls.append({"kind": "api", "suite": "asymp-diagram", "rep_bound": LADDER_ASYMP_REP_BOUND,
                      "extra_points": [_text(det1), _text(cone)]})
        calls.append({"kind": "api", "suite": "parabolic", "rep_bound": LADDER_PARABOLIC_REP_BOUND,
                      "extra_points": [_text(torus)]})
        return calls
    if workload == "filtration-sweep":
        calls = [{"kind": "cli", "suite": s, "argv": ["verify", s, "--quiet"]}
                 for s in ("identities", "presentation")]
        for suite, bound in FILTRATION_BOUNDS.items():
            calls.append({"kind": "cli", "suite": suite, "bound": bound,
                          "argv": ["verify", suite, "--bound", str(bound), "--quiet"]})
        return calls
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
