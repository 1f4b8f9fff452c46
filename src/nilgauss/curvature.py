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

the Ricci matrix from its closed block formula.  ``curvature_oracle``
evaluates the closed case table of Eberlein instead and is the
independent cross-check used by the test suite; the Ricci tensor carries
its own oracle in the tests, the trace of curvature over the orthonormal
basis.
"""

from __future__ import annotations

import numpy as np

from .algebra import NilpotentAlgebra


def _vectors(alg: NilpotentAlgebra, what: str, *vecs, stacks=False) -> list[np.ndarray]:
    out = [np.asarray(v, dtype=float) for v in vecs]
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
    return np.einsum("...a,...b,...c,abck->...k", x, y, w, alg.curvature_tensor)


def curvature_oracle(alg: NilpotentAlgebra, x, y, w) -> np.ndarray:
    """R(x, y) w from the closed case table, extended trilinearly."""
    x, y, w = _vectors(alg, "curvature", x, y, w)
    xx, zx = alg.v_part(x), alg.z_part(x)
    xy, zy = alg.v_part(y), alg.z_part(y)
    xw, zw = alg.v_part(w), alg.z_part(w)

    jm = alg.j_matrix
    br = alg.bracket

    out = np.zeros(alg.dim_total)
    # all-horizontal slots
    out += 0.5 * (jm(br(xx, xy)) @ xw)
    out += -0.25 * (jm(br(xy, xw)) @ xx)
    out += 0.25 * (jm(br(xx, xw)) @ xy)
    # horizontal pair, central target
    out += -0.25 * br(xx, jm(zw) @ xy) + 0.25 * br(xy, jm(zw) @ xx)
    # mixed first slots, horizontal target: R(X, Z)Y = -[X, J(Z)Y]/4
    out += -0.25 * br(xx, jm(zy) @ xw)
    out += 0.25 * br(xy, jm(zx) @ xw)
    # mixed first slots, central target: R(X, Z)Z* = -J(Z)J(Z*)X/4
    out += -0.25 * (jm(zy) @ (jm(zw) @ xx))
    out += 0.25 * (jm(zx) @ (jm(zw) @ xy))
    # central pair acting on a horizontal vector
    out += -0.25 * (jm(zy) @ (jm(zx) @ xw)) + 0.25 * (jm(zx) @ (jm(zy) @ xw))
    return out


def ricci(alg: NilpotentAlgebra, a, b) -> float:
    """Ricci tensor of the ambient metric on left-invariant vectors.

    Horizontal block: sum_k <J(z_k)^2 a, b> / 2 over an orthonormal
    central basis.  Mixed block vanishes.  Central block:
    -Tr(J(a) J(b)) / 4.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a @ alg.ricci_matrix @ b)


def ricci_identity_check(alg: NilpotentAlgebra, x, y, frame) -> float:
    """Residual of sum_i <J([x, f_i]) f_i, y> = 2 Ric(x, y).

    ``frame`` is a collection of horizontal vectors whose outer products
    sum to the identity on V; an orthonormal basis of V qualifies, and so
    does the horizontal part collection of an adapted surface frame.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    q = alg.dim_v
    if np.abs(frame[:, q:]).max(initial=0.0) > 1e-8:
        raise ValueError("frame vectors must be horizontal")
    gram = frame[:, :q].T @ frame[:, :q]
    if np.abs(gram - np.eye(q)).max() > 1e-8:
        raise ValueError("frame must resolve the identity on V")
    lhs = 0.0
    for f in frame:
        lhs += float((alg.j_matrix(alg.bracket(x, f)) @ f) @ y)
    return abs(lhs - 2.0 * ricci(alg, x, y))
