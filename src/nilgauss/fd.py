"""Richardson-extrapolated central differences on box domains.

A field ``f`` maps an (N, n) array of parameter points to an array of N
values, one row per point (each row a float or an array).  Both
differentiators take one centre (n,) or a stack of M centres (M, n),
build the whole stencil of every centre, every Richardson level
included, as one array of points and call the field on it, in chunks of
at most ``FIELD_ROWS`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rows per field call: a chart field holds second-order jets for every row,
# which for all stencils of a large grid in high dimension take gigabytes.
FIELD_ROWS = 8192


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


def check_stencil(u, radius, domain) -> None:
    """Raise BoundaryError, naming the first offending centre, unless each
    centre of u, (n,) or (M, n), +- radius (broadcast to u) lies in the domain."""
    if domain is None:
        return
    u = np.atleast_2d(u)
    lo, hi = np.array(domain, dtype=float).T
    outside = (u - radius < lo) | (u + radius > hi)
    if outside.any():
        i, a = np.argwhere(outside)[0]
        raise BoundaryError(
            f"point {u[i].tolist()} too close to the domain boundary for an FD "
            f"stencil of radius {np.broadcast_to(radius, u.shape)[i, a]} along u{a + 1}"
        )


def _evaluate(f, points: np.ndarray) -> np.ndarray:
    chunks = []
    for first in range(0, len(points), FIELD_ROWS):
        block = points[first:first + FIELD_ROWS]
        values = np.asarray(f(block), dtype=float)
        if values.shape[:1] != (len(block),):
            raise ValueError(
                f"field returned shape {values.shape} for {len(block)} points; "
                "it must return one row per point"
            )
        chunks.append(values)
    return np.concatenate(chunks)


def directional_derivative(f, u, direction, fd: FDParams = FDParams(), domain=None):
    """Derivative of f along ``direction`` (not normalized here).

    The direction is normalized internally, differenced, and scaled back,
    so the step length in parameter space equals ``fd.step`` regardless of
    the magnitude of the direction vector.  ``u`` is one centre (n,) or a
    stack (M, n); ``direction`` starts with the centre axes of u and holds
    one vector per centre, ``u.shape[:-1] + (n,)``, or k of them,
    ``u.shape[:-1] + (k, n)``.  The result has shape ``direction.shape[:-1]``
    followed by the field's row shape.
    """
    u = np.asarray(u, dtype=float)
    dirs = np.asarray(direction, dtype=float)
    n = u.shape[-1]
    centres = u.reshape(-1, n)
    flat = dirs.reshape(len(centres), -1, n)  # (M, k, n)
    # np.linalg.norm of one vector, sqrt(d.d): a norm over an axis sums in another order
    scale = np.array([[math.sqrt(d.dot(d)) for d in ds] for ds in flat])
    unit = flat / np.where(scale == 0.0, 1.0, scale)[..., None]
    check_stencil(centres, fd.step * np.abs(unit).max(axis=1), domain)
    hs = fd.step / 2.0 ** np.arange(fd.levels)
    # u + h d and u - h d, as u + (+-h) d: the sign flips are exact
    steps = np.multiply.outer(hs, [1.0, -1.0])[:, :, None] * unit[:, :, None, None]
    stencil = centres[:, None, None, None] + steps  # (M, k, levels, 2, n)
    values = _evaluate(f, stencil.reshape(-1, n))
    values = values.reshape(stencil.shape[:4] + values.shape[1:])
    ests = [
        (values[:, :, lvl, 0] - values[:, :, lvl, 1]) / (2.0 * h)
        for lvl, h in enumerate(hs)
    ]
    row_axes = (1,) * (values.ndim - 4)
    out = scale.reshape(scale.shape + row_axes) * _richardson(ests)
    return out.reshape(dirs.shape[:-1] + out.shape[2:])


def gradient_hessian(f, u, fd: FDParams = FDParams(), domain=None):
    """Gradient and Hessian of a float- or vector-valued map of u.

    ``u`` is one centre (n,) or a stack (M, n).  Returns arrays of shape
    ``u.shape[:-1] + out_shape + (n,)`` and ``u.shape[:-1] + out_shape +
    (n, n)``.  Per level the stencil of a centre holds u +- h e_a, then
    u +- h e_a +- h e_b for a < b; the centre u is shared by all levels.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    centres = u.reshape(-1, 1, n)
    check_stencil(centres[:, 0], fd.step, domain)
    ia, ib = np.triu_indices(n, 1)
    stencil = [centres]
    for lvl in range(fd.levels):
        h = fd.step / 2.0**lvl
        steps = np.eye(n) * h
        plus, minus = centres + steps, centres - steps
        stencil += [
            plus, minus,
            plus[:, ia] + steps[ib], plus[:, ia] - steps[ib],
            minus[:, ia] + steps[ib], minus[:, ia] - steps[ib],
        ]
    stencil = np.concatenate(stencil, axis=1)
    values = _evaluate(f, stencil.reshape(-1, n))
    values = values.reshape(stencil.shape[:2] + values.shape[1:])
    f0 = values[:, :1]
    shape = values.shape[:1] + values.shape[2:]
    pairs = len(ia)
    grads, hesss = [], []
    first = 1
    for lvl in range(fd.levels):
        h = fd.step / 2.0**lvl
        block = values[:, first:first + 2 * n + 4 * pairs]
        first += block.shape[1]
        fp, fm = block[:, :n], block[:, n:2 * n]
        fpp, fpm, fmp, fmm = np.split(block[:, 2 * n:], 4, axis=1)
        # contiguous, as einsum's summation order follows the memory layout
        grad = np.ascontiguousarray(np.moveaxis((fp - fm) / (2.0 * h), 1, -1))
        hess = np.empty(shape + (n, n))
        hess[..., np.arange(n), np.arange(n)] = np.moveaxis((fp - 2.0 * f0 + fm) / h**2, 1, -1)
        mixed = np.moveaxis((fpp - fpm - fmp + fmm) / (4.0 * h**2), 1, -1)
        hess[..., ia, ib] = mixed
        hess[..., ib, ia] = mixed
        grads.append(grad)
        hesss.append(hess)
    grad, hess = _richardson(grads), _richardson(hesss)
    lead = u.shape[:-1]
    return grad.reshape(lead + grad.shape[1:]), hess.reshape(lead + hess.shape[1:])
