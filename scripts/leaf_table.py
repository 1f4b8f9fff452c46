#!/usr/bin/env python3
"""Sweep the horizontal-leaf surface and print its extrinsic data.

For each x the closed-form Laplacian of the Gauss map is compared with
the numeric Laplace-Beltrami oracle, together with H, |B|^2 and the
harmonicity verdict.  The leaf is minimal everywhere but its Gauss map is
harmonic only at x = 0.
"""

import argparse
from dataclasses import dataclass

import numpy as np

from nilgauss import LaplacianReport, evaluate_points, foliation_leaf_chart


@dataclass(frozen=True)
class HarmonicityVerdict:
    """(N,) arrays: the tangential norm of Delta G, whether it is below tol, and the
    normal coefficient."""

    defect: np.ndarray
    harmonic: np.ndarray
    energy_coeff: np.ndarray


def harmonicity(report: LaplacianReport, tol: float = 1e-3) -> HarmonicityVerdict:
    """Harmonic iff the tangential part of Delta G vanishes within tol, at every point
    of a report over a stack.

    The criterion "Delta G parallel to G" is independent of sign
    conventions for the Laplacian; the normal coefficient is reported as
    the energy-type scalar.
    """
    defect = report.tangential_norm
    return HarmonicityVerdict(defect=defect, harmonic=defect < tol, energy_coeff=report.normal_coeff)


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
    num = ev.reports["numeric_oracle"]
    verdict = harmonicity(ev.reports["general"])
    gaps = np.abs(ev.reports["general"].coeffs - num.coeffs).max(axis=1)
    for row in zip(xs, ev.shape.h, ev.shape.norm_b2, verdict.defect, verdict.harmonic,
                   verdict.energy_coeff, num.normal_coeff, gaps):
        x, h, norm_b2, defect, harmonic, closed, oracle, gap = row
        print(f"{x:6.3f} {h:10.2e} {norm_b2:10.6f} {defect:10.6f} {'yes' if harmonic else 'no':>8} "
              f"{closed:15.8f} {oracle:15.8f} {gap:9.2e}")


if __name__ == "__main__":
    main()
