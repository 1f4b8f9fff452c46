"""Richardson-extrapolated central differences on box domains, for the oracle's
``gradient_hessian`` of the Gauss map only: every other derivative is exact.

A field ``f`` maps an (N, n) array of parameter points to an array of N
values, one row per point (each row a float or an array).  There is one
differentiator, ``gradient_hessian``, and ``directional_derivative`` is its
gradient contracted with directions.  Both take one centre (n,) or a
stack of M centres (M, n).  Richardson extrapolation is folded into fixed
weights on differenced values, so a constant field gives exactly zero.
The stencil takes +-h e_a and +-h (e_a + e_b), n (n + 1) points per
level, and reads each mixed partial from the seven-point formula.  The
stencils, every level included, are built, evaluated and reduced one
chunk of centres at a time: a field call gets at most ``FIELD_ROWS``
rows, or one whole centre's stencil if that is larger.
"""

from __future__ import annotations

import functools
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


def _fold(weight: float, level: int, levels: int) -> float:
    """The folded weight of a raw ``weight`` on the estimate of step h / 2^level, out of
    ``levels``: the O(h^2) Richardson tableau run with every other level's estimate 0.0."""
    rows = [0.0] * levels
    rows[level] = weight
    for j in range(1, levels):
        factor = 4.0**j
        rows = [(factor * rows[k + 1] - rows[k]) / (factor - 1.0) for k in range(len(rows) - 1)]
    return rows[0]


def check_stencil(u, radius, domain) -> None:
    """Raise BoundaryError, naming the first offending centre, unless each
    centre of u, (n,) or (M, n), +- radius on every axis lies in the domain."""
    if domain is None:
        return
    u = np.atleast_2d(u)
    lo, hi = np.array(domain, dtype=float).T
    outside = (u - radius < lo) | (u + radius > hi)
    if outside.any():
        i, a = np.argwhere(outside)[0]
        raise BoundaryError(
            f"point {u[i].tolist()} too close to the domain boundary for an FD "
            f"stencil of radius {radius} along u{a + 1}"
        )


def _stencil_values(f, centres, offsets, per_centre=()):
    """Field values at the stencils of ``centres``, (c, S) + row shape, for one
    chunk of c centres at a time: at most ``FIELD_ROWS`` rows per field call,
    but never less than one whole centre.  ``offsets`` (S, n) are every
    centre's.  Each array of ``per_centre`` holds one row per centre; a field
    call gets, after its points, the rows of its centres, each repeated for
    its S points."""
    size, n = offsets.shape
    per = max(1, FIELD_ROWS // size)
    for first in range(0, len(centres), per):
        chunk = slice(first, first + per)
        points = (centres[chunk, None] + offsets).reshape(-1, n)
        values = np.asarray(f(points, *(np.repeat(arr[chunk], size, axis=0) for arr in per_centre)), dtype=float)
        if values.shape[:1] != (len(points),):
            raise ValueError(
                f"field returned shape {values.shape} for {len(points)} points; "
                "it must return one row per point"
            )
        yield values.reshape((-1, size) + values.shape[1:])


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
    offsets, grad, hess = np.zeros((size, n)), np.zeros((n, size)), np.zeros((n, n, size))
    diag, rows = np.arange(n), np.arange(pairs)
    for lvl in range(fd.levels):
        h = fd.step / 2.0**lvl
        steps = np.eye(n) * h
        first = 1 + lvl * per_level
        offsets[first:first + per_level] = np.concatenate([
            steps, -steps, steps[ia] + steps[ib], -steps[ia] - steps[ib],
        ])
        # each level owns its columns, so its weights are folded alone, straight into the tables
        fold = lambda weight: _fold(weight, lvl, fd.levels)
        grad[diag, first + diag] = fold(0.5 / h)
        grad[diag, first + n + diag] = fold(-0.5 / h)
        hess[diag, diag, first + diag] = hess[diag, diag, first + n + diag] = fold(1.0 / h**2)
        pair = first + 2 * n + rows  # +(e_a + e_b); -(e_a + e_b) follows after all pairs
        for col, weight in (
            (pair, 0.5), (pair + pairs, 0.5),
            (first + ia, -0.5), (first + n + ia, -0.5), (first + ib, -0.5), (first + n + ib, -0.5),
        ):
            hess[ia, ib, col] = hess[ib, ia, col] = fold(weight / h**2)
    tables = offsets, grad, hess.reshape(n * n, size)
    for table in tables:
        table.setflags(write=False)
    return tables


def gradient_hessian(f, u, fd: FDParams = FDParams(), domain=None, per_centre=()):
    """Gradient and Hessian of a float- or vector-valued map of u.

    ``u`` is one centre (n,) or a stack (M, n).  Returns arrays of shape
    ``u.shape[:-1] + out_shape + (n,)`` and ``u.shape[:-1] + out_shape +
    (n, n)``.  Every centre shares one stencil table (``_hessian_table``):
    the values, differenced against the centre's, meet two weight matrices.
    ``per_centre`` arrays (M, ...) of a stack reach the field as in
    ``_stencil_values``: ``f(points, *rows)``, each row its point's centre's.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    centres = u.reshape(-1, n)
    check_stencil(centres, fd.step, domain)
    offsets, wgrad, whess = _hessian_table(n, fd)
    grads, hesss = [], []
    for values in _stencil_values(f, centres, offsets, per_centre):
        diff = values - values[:, :1]
        rows = diff.shape[2:]
        flat = diff.reshape(diff.shape[:2] + (-1,))  # (c, S, R)
        grads.append(np.swapaxes(wgrad @ flat, 1, 2).reshape((-1,) + rows + (n,)))
        hesss.append(np.swapaxes(whess @ flat, 1, 2).reshape((-1,) + rows + (n, n)))
    # concatenate makes them contiguous: matmul picks its kernel by the memory layout
    grad, hess = np.concatenate(grads), np.concatenate(hesss)
    lead = u.shape[:-1]
    return grad.reshape(lead + grad.shape[1:]), hess.reshape(lead + hess.shape[1:])


def directional_derivative(f, u, direction, fd: FDParams = FDParams(), domain=None):
    """Derivative of f along ``direction`` (not normalized): the gradient of one
    ``gradient_hessian`` call, contracted with the directions.

    ``u`` is one centre (n,) or a stack (M, n); ``direction`` starts with the
    centre axes of u and holds one vector per centre, ``u.shape[:-1] + (n,)``,
    or k of them, ``u.shape[:-1] + (k, n)``.  The result has shape
    ``direction.shape[:-1]`` followed by the field's row shape.
    """
    u = np.asarray(u, dtype=float)
    dirs = np.asarray(direction, dtype=float)
    grad = gradient_hessian(f, u, fd, domain)[0]
    n, count = u.shape[-1], u.size // u.shape[-1]
    flat = dirs.reshape(count, -1, n) @ np.swapaxes(grad.reshape(count, -1, n), 1, 2)  # (M, k, n) @ (M, n, R)
    return flat.reshape(dirs.shape[:-1] + grad.shape[u.ndim - 1:-1])
