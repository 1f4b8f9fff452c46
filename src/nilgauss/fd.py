"""Richardson-extrapolated central differences on box domains.

A field ``f`` maps an (N, n) array of parameter points to an array of N
values, one row per point (each row a float or an array).  Both
differentiators build their whole stencil, every Richardson level
included, as one array of points and call the field once on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BoundaryError(ValueError):
    """FD stencil would leave the chart domain."""


@dataclass(frozen=True)
class FDParams:
    step: float = 1e-4
    levels: int = 2


def _richardson(estimates):
    # estimates[k] computed with step h / 2^k, leading error O(h^2)
    rows = list(estimates)
    for j in range(1, len(rows)):
        factor = 4.0**j
        rows = [
            (factor * rows[k + 1] - rows[k]) / (factor - 1.0)
            for k in range(len(rows) - 1)
        ]
    return rows[0]


def check_stencil(u, radius: float, domain) -> None:
    if domain is None:
        return
    for a, (lo, hi) in enumerate(domain):
        if u[a] - radius < lo or u[a] + radius > hi:
            raise BoundaryError(
                f"point {np.asarray(u).tolist()} too close to the domain "
                f"boundary for an FD stencil of radius {radius}"
            )


def _evaluate(f, points: np.ndarray) -> np.ndarray:
    values = np.asarray(f(points), dtype=float)
    if values.shape[:1] != (len(points),):
        raise ValueError(
            f"field returned shape {values.shape} for {len(points)} points; "
            "it must return one row per point"
        )
    return values


def directional_derivative(f, u, direction, fd: FDParams = FDParams(), domain=None):
    """Derivative of f along ``direction`` (not normalized here).

    The direction is normalized internally, differenced, and scaled back,
    so the step length in parameter space equals ``fd.step`` regardless of
    the magnitude of the direction vector.  ``direction`` is one vector
    (n,), giving an array of the field's row shape, or a stack (k, n),
    giving k such rows; all their stencils go to f in one call.
    """
    u = np.asarray(u, dtype=float)
    dirs = np.asarray(direction, dtype=float)
    stencil = []
    plan = []  # per direction: (scale, first stencil row), None if zero
    for d in np.atleast_2d(dirs):
        scale = float(np.linalg.norm(d))
        if scale == 0.0:
            plan.append(None)
            continue
        d = d / scale
        check_stencil(u, fd.step * np.abs(d).max(), domain)
        plan.append((scale, len(stencil)))
        for lvl in range(fd.levels):
            h = fd.step / 2.0**lvl
            stencil += [u + h * d, u - h * d]
    if None in plan:
        stencil.append(u)  # a zero direction differentiates to f(u) * 0
    values = _evaluate(f, np.array(stencil))
    out = []
    for item in plan:
        if item is None:
            out.append(values[-1] * 0.0)
            continue
        scale, first = item
        ests = []
        for lvl in range(fd.levels):
            h = fd.step / 2.0**lvl
            fp, fm = values[first + 2 * lvl], values[first + 2 * lvl + 1]
            ests.append((fp - fm) / (2.0 * h))
        out.append(scale * _richardson(ests))
    out = np.array(out)
    return out if dirs.ndim == 2 else out[0]


def gradient_hessian(f, u, fd: FDParams = FDParams(), domain=None):
    """Gradient and Hessian of a float- or vector-valued map of u.

    Returns arrays of shape ``out_shape + (n,)`` and ``out_shape + (n, n)``.
    Per level the stencil holds u +- h e_a, then u +- h e_a +- h e_b for
    a < b; the centre u is shared by all levels.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    check_stencil(u, fd.step, domain)
    ia, ib = np.triu_indices(n, 1)
    stencil = [u[None]]
    for lvl in range(fd.levels):
        h = fd.step / 2.0**lvl
        steps = np.eye(n) * h
        plus, minus = u + steps, u - steps
        stencil += [
            plus, minus,
            plus[ia] + steps[ib], plus[ia] - steps[ib],
            minus[ia] + steps[ib], minus[ia] - steps[ib],
        ]
    values = _evaluate(f, np.concatenate(stencil))
    f0 = values[0]
    shape = f0.shape
    pairs = len(ia)
    grads, hesss = [], []
    first = 1
    for lvl in range(fd.levels):
        h = fd.step / 2.0**lvl
        block = values[first:first + 2 * n + 4 * pairs]
        first += len(block)
        fp, fm = block[:n], block[n:2 * n]
        fpp, fpm, fmp, fmm = np.split(block[2 * n:], 4)
        # contiguous, as einsum's summation order follows the memory layout
        grad = np.ascontiguousarray(np.moveaxis((fp - fm) / (2.0 * h), 0, -1))
        hess = np.empty(shape + (n, n))
        hess[..., np.arange(n), np.arange(n)] = np.moveaxis((fp - 2.0 * f0 + fm) / h**2, 0, -1)
        mixed = np.moveaxis((fpp - fpm - fmp + fmm) / (4.0 * h**2), 0, -1)
        hess[..., ia, ib] = mixed
        hess[..., ib, ia] = mixed
        grads.append(grad)
        hesss.append(hess)
    return _richardson(grads), _richardson(hesss)
