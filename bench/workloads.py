"""Seeded job configs for the benchmark workloads, with expected verdicts.

Each generator turns a seed into a pool of job config documents, the
same JSON that ``nilgauss sweep`` and ``nilgauss report`` read, paired
with the verdicts a correct program must produce for it.  Generation uses
only the standard library, so timing the import of ``nilgauss`` in a
fresh process also times its import of numpy.

Every workload runs the numeric oracle on some of its jobs, so the
criterion-2 allowance is checked on all of them.  Jobs take well under
0.2 s and pools are small, so every job runs dozens of times in a run:
the benchmark times each job by its fastest run, and on a machine shared
with other tenants only short jobs find undisturbed stretches.
"""

from __future__ import annotations

import math
import random

HEIS3 = {"builtin": "heisenberg", "m": 1}


def _quaternionic_algebra() -> dict:
    """7-dim H-type algebra: V = quaternions, J(z) = left multiplication."""

    def qmul(p, q):
        w1, x1, y1, z1 = p
        w2, x2, y2, z2 = q
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    unit = [tuple(1.0 if k == a else 0.0 for k in range(4)) for a in range(4)]
    brackets = []
    for m in range(3):
        for a in range(4):
            image = qmul(unit[m + 1], unit[a])
            for b in range(a + 1, 4):
                if image[b] != 0.0:
                    brackets.append({"i": a + 1, "j": b + 1, "k": 5 + m, "c": image[b]})
    return {"dim_total": 7, "dim_center": 3, "brackets": brackets}


FREE5 = {
    "dim_total": 5,
    "dim_center": 2,
    "brackets": [{"i": 1, "j": 2, "k": 4, "c": 1.0}, {"i": 1, "j": 3, "k": 5, "c": 1.0}],
}

# (algebra document, parameter count n, closed-form methods valid for it,
# charts per pool).  Two thirds of the jobs have n = 6, so the median job
# lies inside that group rather than on the edge between the two sizes.
HIGHDIM_ALGEBRAS = (
    ({"builtin": "heisenberg", "m": 2}, 4, ["general", "h_type", "heisenberg"], 2),
    ({"builtin": "heisenberg", "m": 3}, 6, ["general", "h_type", "heisenberg"], 4),
    (_quaternionic_algebra(), 6, ["general", "h_type"], 4),
    (FREE5, 4, ["general"], 2),
)


def _round(x: float) -> float:
    return round(x, 6)


def _cylinder(rng: random.Random, checks) -> dict:
    r = _round(rng.uniform(0.8, 2.0))
    s0 = _round(rng.uniform(-math.pi, math.pi))
    half = _round(rng.uniform(0.5, 0.8))
    return {
        "algebra": HEIS3,
        "model": "nil_polarized",
        "chart": {
            "catalog": "nil_cylinder",
            "params": {"f1": f"{r}*cos(u1)", "f2": f"{r}*sin(u1)"},
        },
        "domain": [[_round(s0 - half), _round(s0 + half)], [-1.0, 1.0]],
        "checks": checks,
    }


def nil_dense(seed: int) -> list[tuple[dict, dict]]:
    """Circular cylinders on square grids: CMC with harmonic Gauss map."""
    rng = random.Random(f"nil_dense-{seed}")
    pool = []
    for _ in range(4):
        doc = _cylinder(rng, ["harmonicity", "prop3", "jacobi"])
        doc["grid"] = [2, 2]
        doc["methods"] = ["general", "heisenberg", "numeric_oracle"]
        doc["seed"] = seed
        pool.append((doc, {"harmonicity": "pass", "prop3": "pass", "jacobi": "pass"}))
    return pool


def highdim_oracle(seed: int) -> list[tuple[dict, dict]]:
    """One interior point per random graph chart, every method vs the oracle."""
    rng = random.Random(f"highdim_oracle-{seed}")
    pool = []
    for alg, n, methods, charts in HIGHDIM_ALGEBRAS:
        for index in range(charts):
            doc = {
                "algebra": alg,
                "model": "exp",
                "chart": {"catalog": "random_graph", "params": {"terms": 4, "index": index}},
                "point": [_round(rng.uniform(-0.45, 0.45)) for _ in range(n)],
                "methods": methods + ["numeric_oracle"],
                "checks": [],
                "seed": seed,
            }
            pool.append((doc, {}))
    return pool


def _interior(rng: random.Random, domain) -> list[float]:
    """Seeded point in the middle half of a box, clear of FD stencils."""
    return [_round(rng.uniform(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo))) for lo, hi in domain]


def nil_checks(seed: int) -> list[tuple[dict, dict]]:
    """One point per job where the checkers dominate, plus a negative control."""
    rng = random.Random(f"nil_checks-{seed}")
    pool = []
    for _ in range(3):
        leaf = {
            "algebra": HEIS3,
            "model": "nil_polarized",
            "chart": {"catalog": "nil_foliation_leaf", "params": {"z0": _round(rng.uniform(-1.0, 1.0))}},
            "domain": [[_round(rng.uniform(-2.5, -0.5)), _round(rng.uniform(0.5, 2.5))], [-0.5, 0.5]],
            "methods": ["general"],
            "checks": ["gauss_codazzi"],
            "seed": seed,
        }
        leaf["point"] = _interior(rng, leaf["domain"])
        pool.append((leaf, {"gauss_codazzi": "pass"}))

        cyl = _cylinder(rng, ["harmonicity", "corollary1", "jacobi"])
        cyl["point"] = _interior(rng, cyl["domain"])
        cyl["methods"] = ["general"]
        cyl["seed"] = seed
        pool.append((cyl, {"harmonicity": "pass", "corollary1": "pass", "jacobi": "pass"}))

        # A minimal but non-harmonic leaf: harmonicity must fail and the
        # gated corollary1 must skip, so a speed-up cannot pass it vacuously.
        control = {
            "algebra": HEIS3,
            "model": "nil_polarized",
            "chart": {"catalog": "nil_foliation_leaf", "params": {"z0": _round(rng.uniform(-1.0, 1.0))}},
            "domain": [[0.3, 2.0], [-0.5, 0.5]],
            "methods": ["general", "numeric_oracle"],
            "checks": ["harmonicity", "corollary1"],
            "seed": seed,
        }
        control["point"] = _interior(rng, control["domain"])
        pool.append((control, {"harmonicity": "fail", "corollary1": "skipped"}))
    return pool


WORKLOADS = {"nil_dense": nil_dense, "highdim_oracle": highdim_oracle, "nil_checks": nil_checks}
