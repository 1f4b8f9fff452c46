import numpy as np
import pytest

from nilgauss import connection, exp_model, heisenberg, nil_polarized_model
from conftest import coordinate_metric, free_two_step_5d, left_translation_jacobian, metric_derivatives, multiply


@pytest.fixture(scope="module")
def exp_h1():
    return exp_model(heisenberg(1))


@pytest.fixture(scope="module")
def polar():
    return nil_polarized_model()


def test_frame_identity_at_origin(exp_h1, polar):
    for model in (exp_h1, polar):
        np.testing.assert_allclose(model.frame_field(np.zeros(model.dim)), np.eye(3))


def test_frame_invertible_and_metric_spd(exp_h1, polar):
    rng = np.random.default_rng(2)
    for model in (exp_h1, polar, exp_model(free_two_step_5d())):
        d = model.dim
        for _ in range(20):
            p = rng.uniform(-2, 2, d)
            a = model.frame_field(p)
            np.testing.assert_allclose(a @ model.frame_inverse(p), np.eye(d), atol=1e-13)
            g = coordinate_metric(model, p)
            np.testing.assert_allclose(g, g.T, atol=1e-14)
            assert np.linalg.eigvalsh(g).min() > 0.0


def test_exp_model_left_field_example(exp_h1):
    # at p along the first horizontal direction, the second field gains
    # half a central component: [K, L]/2 = Z/2
    p = np.array([1.0, 0.0, 0.0])
    col = exp_h1.frame_field(p)[:, 1]
    np.testing.assert_allclose(col, [0.0, 1.0, 0.5])


def test_abelian_exp_model_frame_constant():
    from conftest import abelian_3d

    model = exp_model(abelian_3d())
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.uniform(-3, 3, 3)
        np.testing.assert_allclose(model.frame_field(p), np.eye(3))


def test_polarized_frame_and_metric(polar):
    x, y, z = 0.7, -0.2, 1.1
    a = polar.frame_field([x, y, z])
    np.testing.assert_allclose(a[:, 1], [0.0, 1.0, x])  # d/dy + x d/dz
    np.testing.assert_allclose(a[:, 0], [1.0, 0.0, 0.0])
    # the frame depends on x only
    np.testing.assert_allclose(polar.frame_field([0.0, y, z]), np.eye(3))
    g = coordinate_metric(polar, [x, y, z])
    expected = np.array([[1, 0, 0], [0, 1 + x * x, -x], [0, -x, 1]])
    np.testing.assert_allclose(g, expected, atol=1e-14)
    # independent route: invert the frame matrix with numpy
    np.testing.assert_allclose(g, np.linalg.inv(a).T @ np.linalg.inv(a), atol=1e-13)


def test_multiply_examples(exp_h1, polar):
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(multiply(exp_h1, p, q), [1.0, 1.0, 0.5])
    np.testing.assert_allclose(multiply(polar, p, q), [1.0, 1.0, 1.0])
    rng = np.random.default_rng(4)
    r = rng.uniform(-1, 1, 3)
    np.testing.assert_allclose(multiply(exp_h1, r, np.zeros(3)), r)
    np.testing.assert_allclose(multiply(exp_h1, np.zeros(3), r), r)


def test_multiply_associative(exp_h1, polar):
    rng = np.random.default_rng(5)
    for model in (exp_h1, polar, exp_model(free_two_step_5d())):
        d = model.dim
        for _ in range(20):
            p, q, r = (rng.uniform(-2, 2, d) for _ in range(3))
            lhs = multiply(model, multiply(model, p, q), r)
            rhs = multiply(model, p, multiply(model, q, r))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_left_invariance_of_frame(exp_h1, polar):
    """Pushforward of the frame at q by translation with p lands at p*q."""
    rng = np.random.default_rng(6)
    for model in (exp_h1, polar, exp_model(free_two_step_5d())):
        d = model.dim
        for _ in range(20):
            p, q = rng.uniform(-1.5, 1.5, d), rng.uniform(-1.5, 1.5, d)
            dl = left_translation_jacobian(model, p)
            np.testing.assert_allclose(
                dl @ model.frame_field(q),
                model.frame_field(multiply(model, p, q)),
                atol=1e-9,
            )


def test_left_translation_jacobian_matches_fd(polar):
    rng = np.random.default_rng(7)
    p = rng.uniform(-1, 1, 3)
    q = rng.uniform(-1, 1, 3)
    dl = left_translation_jacobian(polar, p)
    h = 1e-6
    for j in range(3):
        dq = np.zeros(3)
        dq[j] = h
        fd = (multiply(polar, p, q + dq) - multiply(polar, p, q - dq)) / (2 * h)
        np.testing.assert_allclose(dl[:, j], fd, atol=1e-8)


def test_frame_orthonormal_under_metric(polar):
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = rng.uniform(-2, 2, 3)
        a = polar.frame_field(p)
        g = coordinate_metric(polar, p)
        np.testing.assert_allclose(a.T @ g @ a, np.eye(3), atol=1e-10)


def test_christoffels_symmetric_and_compatible(exp_h1, polar):
    rng = np.random.default_rng(9)
    for model in (exp_h1, polar, exp_model(free_two_step_5d())):
        d = model.dim
        p = rng.uniform(-1, 1, d)
        gamma = model.christoffels(p)
        np.testing.assert_allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-13)
        g = coordinate_metric(model, p)
        dg = metric_derivatives(model, p)
        # metric compatibility: d_k g_ij = g_lj Gamma^l_ki + g_il Gamma^l_kj
        recon = np.einsum("lj,lki->kij", g, gamma) + np.einsum("il,lkj->kij", g, gamma)
        np.testing.assert_allclose(dg, recon, atol=1e-12)


def test_metric_derivatives_match_fd(polar):
    p = np.array([0.4, -0.3, 0.2])
    dg = metric_derivatives(polar, p)
    h = 1e-6
    for m in range(3):
        dp = np.zeros(3)
        dp[m] = h
        fd = (coordinate_metric(polar, p + dp) - coordinate_metric(polar, p - dp)) / (2 * h)
        np.testing.assert_allclose(dg[m], fd, atol=1e-9)


def test_coordinate_connection_matches_invariant_connection(exp_h1, polar):
    """Covariant derivative of left-invariant fields, computed in coordinates,
    re-expressed in the frame, equals the algebraic connection."""
    rng = np.random.default_rng(10)
    for model in (exp_h1, polar, exp_model(free_two_step_5d())):
        alg = model.algebra
        d = model.dim
        for _ in range(20):
            p = rng.uniform(-1.5, 1.5, d)
            a_vec = rng.uniform(-1, 1, d)
            b_vec = rng.uniform(-1, 1, d)
            a_coord = model.frame_field(p) @ a_vec
            b_coord = model.frame_field(p) @ b_vec
            # d_i of the coordinate field of b is L_i b (frame is I + L(p))
            db = np.einsum("kji,j->ki", model.frame_lin, b_vec)
            gamma = model.christoffels(p)
            nabla = db @ a_coord + np.einsum("kij,i,j->k", gamma, a_coord, b_coord)
            np.testing.assert_allclose(
                model.frame_inverse(p) @ nabla,
                connection(alg, a_vec, b_vec),
                atol=1e-9,
            )


def test_model_tensors_immutable(polar):
    with pytest.raises(ValueError):
        polar.frame_lin[0, 0, 0] = 1.0
