#!/usr/bin/env python3
"""Sweep the horizontal-leaf surface and print its extrinsic data.

For each x the closed-form Laplacian of the Gauss map is compared with
the numeric Laplace-Beltrami oracle, together with H, |B|^2 and the
harmonicity defect.  The leaf is minimal everywhere but its Gauss map is
harmonic only at x = 0.
"""

import argparse

import numpy as np

from nilgauss import evaluate_points, foliation_leaf_chart, harmonicity


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xmax", type=float, default=2.0)
    parser.add_argument("--count", type=int, default=9)
    args = parser.parse_args()

    chart = foliation_leaf_chart(x_range=(-args.xmax - 0.5, args.xmax + 0.5))
    print(f"{'x':>6} {'H':>10} {'|B|^2':>10} {'defect':>10} "
          f"{'normal(closed)':>15} {'normal(oracle)':>15} {'gap':>9}")
    xs = np.linspace(0.0, args.xmax, args.count)
    points = np.stack([xs, np.zeros_like(xs)], axis=1)
    for x, ev in zip(xs, evaluate_points(chart, points, ["general", "numeric_oracle"])):
        rep, num, shape = ev.reports["general"], ev.reports["numeric_oracle"], ev.shape
        verdict = harmonicity(rep)
        gap = np.abs(rep.coeffs - num.coeffs).max()
        print(f"{x:6.3f} {shape.h:10.2e} {shape.norm_b2:10.6f} {verdict.defect:10.6f} "
              f"{rep.normal_coeff:15.8f} {num.normal_coeff:15.8f} {gap:9.2e}")


if __name__ == "__main__":
    main()
