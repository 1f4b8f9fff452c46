import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nilgauss import NilpotentAlgebra, cli, heisenberg, ricci

_spec = importlib.util.spec_from_file_location(
    "reference_reports", Path(__file__).resolve().parent.parent / "scripts" / "reference_reports.py")
reference_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_reports)
# (file name, config document) of every committed report under tests/reference, in sorted name order
REFERENCE_JOBS = list(reference_reports.reference_jobs())


def basis(d, k):
    e = np.zeros(d)
    e[k] = 1.0
    return e


def free_two_step_5d() -> NilpotentAlgebra:
    """5-dim 2-step algebra with [e1,e2]=e4, [e1,e3]=e5; not Heisenberg type."""
    c = np.zeros((5, 5, 5))
    c[0, 1, 3] = 1.0
    c[1, 0, 3] = -1.0
    c[0, 2, 4] = 1.0
    c[2, 0, 4] = -1.0
    return NilpotentAlgebra(dim_total=5, dim_center=2, bracket_tensor=c)


def quaternion_mult(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quaternionic_heisenberg() -> NilpotentAlgebra:
    """7-dim Heisenberg-type algebra: V = quaternions, Z = imaginary part.

    J(z) x is left quaternion multiplication by the imaginary unit z, so
    J(z)^2 = -|z|^2 Id holds by associativity of the quaternions.
    """
    c = np.zeros((7, 7, 7))
    for m in range(3):
        z = np.zeros(4)
        z[m + 1] = 1.0
        for a in range(4):
            ea = np.zeros(4)
            ea[a] = 1.0
            ja = quaternion_mult(z, ea)
            c[a, :4, 4 + m] = ja
    return NilpotentAlgebra(dim_total=7, dim_center=3, bracket_tensor=c)


def abelian_3d() -> NilpotentAlgebra:
    """Flat comparison case; fails the non-abelian axiom on purpose."""
    return NilpotentAlgebra(dim_total=3, dim_center=1, bracket_tensor=np.zeros((3, 3, 3)))


@pytest.fixture(scope="session")
def h1():
    return heisenberg(1)


@pytest.fixture(scope="session")
def h2():
    return heisenberg(2)


@pytest.fixture(scope="session")
def free5():
    return free_two_step_5d()


@pytest.fixture(scope="session")
def quat7():
    return quaternionic_heisenberg()


def coordinate_metric(model, p):
    """g = Ainv^T Ainv of a coordinate model at p (d,) or a stack (N, d)."""
    ainv = model.frame_inverse(p)
    return np.swapaxes(ainv, -1, -2) @ ainv


def metric_derivatives(model, p):
    """dg[m, i, j] = d_m g_ij, exact: d_m Ainv is -frame_lin[:, :, m]."""
    half = -np.einsum("kim,...kj->...mij", model.frame_lin, model.frame_inverse(p))
    return half + np.swapaxes(half, -1, -2)


def random_unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


# Test references: single-vector helpers and case tables that no job runs.


def v_part(alg, vec):
    out = np.array(vec, dtype=float)
    out[alg.dim_v:] = 0.0
    return out


def z_part(alg, vec):
    out = np.array(vec, dtype=float)
    out[: alg.dim_v] = 0.0
    return out


def bracket(alg, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (alg.dim_total,) or y.shape != (alg.dim_total,):
        raise ValueError("bracket arguments must have length dim_total")
    return np.einsum("ijk,i,j->k", alg.bracket_tensor, x, y)


def curvature_oracle(alg, x, y, w):
    """R(x, y) w from the closed case table of Eberlein, extended trilinearly;
    reads the bracket and J only, not the package's connection or curvature tensors."""
    x, y, w = (np.asarray(v, dtype=float) for v in (x, y, w))
    if any(v.shape != (alg.dim_total,) for v in (x, y, w)):
        raise ValueError("curvature arguments must have length dim_total")
    xx, zx = v_part(alg, x), z_part(alg, x)
    xy, zy = v_part(alg, y), z_part(alg, y)
    xw, zw = v_part(alg, w), z_part(alg, w)

    jm, br = alg.j_matrix, functools.partial(bracket, alg)
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


def ricci_identity_check(alg, x, y, frame):
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
        lhs += float((alg.j_matrix(bracket(alg, x, f)) @ f) @ y)
    return abs(lhs - 2.0 * ricci(alg, x, y))


def multiply(model, p, q):
    """Group product p * q in the model's coordinates: p + q plus the quadratic part."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (model.dim,) or q.shape != (model.dim,):
        raise ValueError("points must have length dim_total")
    return p + q + np.einsum("kij,i,j->k", model.product_bilin, p, q)


def left_translation_jacobian(model, p):
    """d(p * q)/dq, constant in q because the product is affine in q."""
    return np.eye(model.dim) + np.einsum("kij,i->kj", model.product_bilin, np.asarray(p, dtype=float))


def meshgrid_points(chart, grid, fd):
    """The evaluation grid as np.meshgrid builds it: rows of an (N, n) array in C order."""
    margin = cli.GRID_MARGIN_STEPS * fd.step
    axes = [np.linspace(lo + margin, hi - margin, res) for (lo, hi), res in zip(chart.domain, grid)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def frame_x(frame, k):
    """Horizontal component vector X_k of an adapted frame, 1 <= k <= q (one-based)."""
    if not 1 <= k <= frame.q:
        raise IndexError("horizontal index out of range")
    return frame.x_q if k == frame.q else frame.ys[..., k - 1, :]


def lam(frame):
    """The factor x_n1 = lam x_q of an adapted frame, zero when undefined."""
    return np.divide(frame.s, frame.c, out=np.zeros_like(frame.s), where=frame.c > 0)[()]


def mu(frame):
    """The factor z_n1 = mu z_q of an adapted frame, zero when undefined."""
    return np.divide(frame.c, frame.s, out=np.zeros_like(frame.c), where=frame.s > 0)[()]


def gram_residual(frame):
    """Largest entry of ys ys^T - I: how far the frame's rows are from orthonormal."""
    gram = frame.ys @ np.swapaxes(frame.ys, -1, -2)
    return float(np.abs(gram - np.eye(frame.ys.shape[-1])).max())


def assert_oracle_allowance(ev):
    """Criterion 2's allowance: at every point of an ``evaluate_points`` record, each coefficient
    of the oracle's row lies within max(5e-4, 5e-4 |closed|) of ``general``'s."""
    closed = ev.reports["general"].coeffs
    gap = np.abs(closed - ev.reports["numeric_oracle"].coeffs)
    outside = ~(gap <= np.maximum(5e-4, 5e-4 * np.abs(closed))).all(axis=1)
    assert not outside.any(), (ev.u[outside].tolist(), gap.max())
