#!/usr/bin/env python3
"""Sweep the horizontal-leaf surface and print its extrinsic data.

For each x the closed-form Laplacian of the Gauss map is compared with
the numeric Laplace-Beltrami oracle, together with H, |B|^2 and the
harmonicity verdict.  The leaf is minimal everywhere but its Gauss map is
harmonic only at x = 0.
"""

import argparse

import numpy as np

from nilgauss import evaluate_points, foliation_leaf_chart
from nilgauss.cli import CHECKS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xmax", type=float, default=2.0)
    parser.add_argument("--count", type=int, default=9)
    args = parser.parse_args()

    chart = foliation_leaf_chart(x_range=(-args.xmax - 0.5, args.xmax + 0.5))
    print(f"{'x':>6} {'H':>10} {'|B|^2':>10} {'defect':>10} {'harmonic':>8} "
          f"{'normal(closed)':>15} {'normal(oracle)':>15} {'gap':>9}")
    xs = np.linspace(0.0, args.xmax, args.count)
    ev = evaluate_points(chart, np.stack([xs, np.zeros_like(xs)], axis=1), ["general", "numeric_oracle"])
    general, num = ev.reports["general"], ev.reports["numeric_oracle"]
    gaps = np.abs(general.coeffs - num.coeffs).max(axis=1)
    tol = CHECKS["harmonicity"][0]
    for row in zip(xs, ev.shape.h, ev.shape.norm_b2, general.tangential_norm,
                   general.normal_coeff, num.normal_coeff, gaps):
        x, h, norm_b2, defect, closed, oracle, gap = row
        # harmonic iff Delta G is parallel to G, whatever the Laplacian's sign convention
        print(f"{x:6.3f} {h:10.2e} {norm_b2:10.6f} {defect:10.6f} {'yes' if defect < tol else 'no':>8} "
              f"{closed:15.8f} {oracle:15.8f} {gap:9.2e}")


if __name__ == "__main__":
    main()
