#!/usr/bin/env python3
"""Stress the closed-form Laplacian against the numeric oracle.

Draws random graph charts over the 3-, 5- and 7-dimensional Heisenberg
groups H(m), chart k of H(m) from the integer seed charts * (seed + m) + k,
evaluates both routes at interior points drawn from numpy's
default_rng(seed + m), and prints the worst coefficient gap per group
(absolute, and relative to the acceptance allowance
max(5e-4, 5e-4 |closed|)).  Exits 1 when any gap reaches its allowance.
"""

import argparse
import sys
import time

import numpy as np

from nilgauss import evaluate_points, exp_model, heisenberg, random_graph_chart


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--charts", type=int, default=10)
    parser.add_argument("--points", type=int, default=5)
    args = parser.parse_args()

    overall = 0.0
    for m in (1, 2, 3):
        alg = heisenberg(m)
        model = exp_model(alg)
        rng = np.random.default_rng(args.seed + m)
        worst_abs = 0.0
        worst_rel = 0.0
        t0 = time.perf_counter()
        for k in range(args.charts):
            chart = random_graph_chart(model, args.charts * (args.seed + m) + k)
            points = rng.uniform(-0.45, 0.45, size=(args.points, alg.n))
            reports = evaluate_points(chart, points, ["general", "numeric_oracle"]).reports
            rep, num = reports["general"], reports["numeric_oracle"]
            gap = np.abs(rep.coeffs - num.coeffs)
            allowed = np.maximum(5e-4, 5e-4 * np.abs(rep.coeffs))
            worst_abs = max(worst_abs, gap.max())
            worst_rel = max(worst_rel, (gap / allowed).max())
        dt = time.perf_counter() - t0
        overall = max(overall, worst_rel)
        print(f"heisenberg({m}): {args.charts} charts x {args.points} points  "
              f"worst gap {worst_abs:.3e}  worst gap/allowance {worst_rel:.4f}  ({dt:.1f}s)")
    if overall >= 1.0:
        print(f"FAIL: a gap reaches its allowance (ratio {overall:.4f})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
