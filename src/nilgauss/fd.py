"""Richardson-extrapolated central differences on box domains, for the oracle's
``gradient_hessian`` of the Gauss map only: every other derivative is exact.

A field ``f`` maps an (N, n) array of parameter points to an array of N
values, one row per point (each row a float or an array).  Both
differentiators take one centre (n,) or a stack of M centres (M, n).
Richardson extrapolation is folded into fixed weights on differenced
values, so a constant field gives exactly zero.  The Hessian stencil
takes +-h e_a and +-h (e_a + e_b), n (n + 1) points per level, and reads
each mixed partial from the seven-point formula.  The stencils, every
level included, are built, evaluated and reduced one chunk of centres at
a time: a field call gets at most ``FIELD_ROWS`` rows, or one whole
centre's stencil if that is larger.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Rows per field call: a chart field holds jets for every row, which for
# all stencils of a large grid in high dimension take gigabytes.
# Chunks hold whole centres, so one centre's stencil may exceed it.
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


def _stencil_values(f, centres, size, offsets):
    """Field values at the stencils of ``centres``, (c, S) + row shape, for one
    chunk of c centres at a time: at most ``FIELD_ROWS`` rows per field call,
    but never less than one whole centre.  ``offsets(chunk)`` gives the S
    offsets of the centres in the slice ``chunk``, (S, n) or (c, S, n)."""
    n = centres.shape[1]
    per = max(1, FIELD_ROWS // size)
    for first in range(0, len(centres), per):
        chunk = slice(first, first + per)
        points = (centres[chunk, None] + offsets(chunk)).reshape(-1, n)
        values = np.asarray(f(points), dtype=float)
        if values.shape[:1] != (len(points),):
            raise ValueError(
                f"field returned shape {values.shape} for {len(points)} points; "
                "it must return one row per point"
            )
        yield values.reshape((-1, size) + values.shape[1:])


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
    # Richardson folded into one weight per level on (f(u + h d) - f(u - h d))
    weights = _richardson(np.diag(0.5 / hs))
    # u + h d and u - h d, as u + (+-h) d: the sign flips are exact
    signed = np.multiply.outer(hs, [1.0, -1.0])[:, :, None]
    k = flat.shape[1]
    size = 2 * k * fd.levels
    steps = lambda chunk: (signed * unit[chunk, :, None, None]).reshape(-1, size, n)
    outs = []
    for values in _stencil_values(f, centres, size, steps):
        values = values.reshape((len(values), k, fd.levels, 2) + values.shape[2:])
        diffs = values[:, :, :, 0] - values[:, :, :, 1]
        outs.append(sum(w * diffs[:, :, lvl] for lvl, w in enumerate(weights)))
    out = np.concatenate(outs)
    out = scale.reshape(scale.shape + (1,) * (out.ndim - 2)) * out
    return out.reshape(dirs.shape[:-1] + out.shape[2:])


@functools.lru_cache(maxsize=32)
def _hessian_table(n: int, fd: FDParams):
    """Stencil offsets (S, n) with the Richardson-folded weights of the gradient
    (n, S) and of the Hessian (n * n, S).

    Offset 0 is the centre; per level follow +-h e_a, then +-h (e_a + e_b)
    for a < b, n (n + 1) offsets in all.  The weights apply to values D
    differenced against the centre, so the centre itself has weight zero:
    f_aa = (D_{+a} + D_{-a}) / h^2 and, by the seven-point formula,
    f_ab = (D_{+ab} + D_{-ab} - D_{+a} - D_{-a} - D_{+b} - D_{-b}) / (2 h^2).
    """
    ia, ib = np.triu_indices(n, 1)
    pairs = len(ia)
    per_level = 2 * n + 2 * pairs
    size = 1 + fd.levels * per_level
    offsets = np.zeros((size, n))
    grads, hesss = [], []
    diag, rows = np.arange(n), np.arange(pairs)
    for lvl in range(fd.levels):
        h = fd.step / 2.0**lvl
        steps = np.eye(n) * h
        first = 1 + lvl * per_level
        offsets[first:first + per_level] = np.concatenate([
            steps, -steps, steps[ia] + steps[ib], -steps[ia] - steps[ib],
        ])
        grad = np.zeros((n, size))
        grad[diag, first + diag] = 0.5 / h
        grad[diag, first + n + diag] = -0.5 / h
        hess = np.zeros((n, n, size))
        hess[diag, diag, first + diag] = 1.0 / h**2
        hess[diag, diag, first + n + diag] = 1.0 / h**2
        pair = first + 2 * n + rows  # +(e_a + e_b); -(e_a + e_b) follows after all pairs
        for col, weight in (
            (pair, 0.5), (pair + pairs, 0.5),
            (first + ia, -0.5), (first + n + ia, -0.5), (first + ib, -0.5), (first + n + ib, -0.5),
        ):
            hess[ia, ib, col] = hess[ib, ia, col] = weight / h**2
        grads.append(grad)
        hesss.append(hess.reshape(n * n, size))
    tables = offsets, _richardson(grads), _richardson(hesss)
    for table in tables:
        table.setflags(write=False)
    return tables


def gradient_hessian(f, u, fd: FDParams = FDParams(), domain=None):
    """Gradient and Hessian of a float- or vector-valued map of u.

    ``u`` is one centre (n,) or a stack (M, n).  Returns arrays of shape
    ``u.shape[:-1] + out_shape + (n,)`` and ``u.shape[:-1] + out_shape +
    (n, n)``.  Every centre shares one stencil table (``_hessian_table``):
    the values, differenced against the centre's, meet two weight matrices.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    centres = u.reshape(-1, n)
    check_stencil(centres, fd.step, domain)
    offsets, wgrad, whess = _hessian_table(n, fd)
    grads, hesss = [], []
    for values in _stencil_values(f, centres, len(offsets), lambda chunk: offsets):
        diff = values - values[:, :1]
        rows = diff.shape[2:]
        flat = diff.reshape(diff.shape[:2] + (-1,))  # (c, S, R)
        grads.append(np.swapaxes(wgrad @ flat, 1, 2).reshape((-1,) + rows + (n,)))
        hesss.append(np.swapaxes(whess @ flat, 1, 2).reshape((-1,) + rows + (n, n)))
    # concatenate makes them contiguous: einsum's summation order follows the memory layout
    grad, hess = np.concatenate(grads), np.concatenate(hesss)
    lead = u.shape[:-1]
    return grad.reshape(lead + grad.shape[1:]), hess.reshape(lead + hess.shape[1:])
