"""Left-invariant connection, curvature and Ricci tensor.

On a 2-step nilpotent group with left-invariant metric the covariant
derivative of left-invariant fields is a constant-coefficient bilinear
expression in the bracket and the J maps:

    grad_X Y  = [X, Y] / 2              X, Y horizontal
    grad_X Z = grad_Z X = -J(Z) X / 2   X horizontal, Z central
    grad_Z Z* = 0

so everything in this module is exact linear algebra (no derivatives are
taken).  ``connection``, ``curvature`` and ``ricci`` contract the tensors
a ``NilpotentAlgebra`` computes once: the curvature tensor comes from the
definition

    R(a, b) w = grad_a grad_b w - grad_b grad_a w - grad_[a,b] w,

the Ricci matrix from its closed block formula.  The test suite keeps
the independent cross-checks: Eberlein's closed case table for the
curvature, and the trace of curvature over the orthonormal basis for the
Ricci tensor.
"""

from __future__ import annotations

import numpy as np

from .algebra import NilpotentAlgebra


def _vectors(alg: NilpotentAlgebra, what: str, *vecs, stacks=False) -> list[np.ndarray]:
    out = [np.ascontiguousarray(v, dtype=float) for v in vecs]  # matmul's kernel follows strides
    if any((v.shape[-1:] if stacks else v.shape) != (alg.dim_total,) for v in out):
        raise ValueError(f"{what} arguments must have length dim_total")
    return out


def connection(alg: NilpotentAlgebra, a, b) -> np.ndarray:
    """Covariant derivative grad_a b of left-invariant fields."""
    a, b = _vectors(alg, "connection", a, b)
    return np.einsum("a,b,abk->k", a, b, alg.connection_tensor)


def curvature(alg: NilpotentAlgebra, x, y, w) -> np.ndarray:
    """R(x, y) w; x, y, w may be broadcast stacks, each row bit-equal to its single call."""
    x, y, w = _vectors(alg, "curvature", x, y, w, stacks=True)
    xy = x[..., :, None] * y[..., None, :]
    rxy = (xy.reshape(xy.shape[:-2] + (1, -1)) @ alg.curvature_rows).reshape(xy.shape)  # rows c, columns k
    return (w[..., None, :] @ rxy)[..., 0, :]


def ricci(alg: NilpotentAlgebra, a, b) -> float:
    """Ricci tensor of the ambient metric on left-invariant vectors.

    Horizontal block: sum_k <J(z_k)^2 a, b> / 2 over an orthonormal
    central basis.  Mixed block vanishes.  Central block:
    -Tr(J(a) J(b)) / 4.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a @ alg.ricci_matrix @ b)
