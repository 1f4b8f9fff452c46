import numpy as np
import pytest

from nilgauss import NilpotentAlgebra, heisenberg


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
