"""Richardson central differences on stacked fields."""

import numpy as np
import pytest

from nilgauss.fd import BoundaryError, FDParams, directional_derivative, gradient_hessian

A = np.array([[2.0, -0.5, 0.3], [-0.5, 1.0, 0.7], [0.3, 0.7, -1.5]])
B = np.array([0.4, -1.2, 2.0])


def quadratic(pts):
    """Two quadratics per point: q(u) = u.A.u/2 + b.u + 1 and 3 q(u) - u1."""
    q = 0.5 * np.einsum("ni,ij,nj->n", pts, A, pts) + pts @ B + 1.0
    return np.stack([q, 3.0 * q - pts[:, 0]], axis=1)


def counted(field):
    def wrapper(pts):
        wrapper.calls += 1
        return field(pts)

    wrapper.calls = 0
    return wrapper


def test_gradient_hessian_exact_on_a_quadratic_vector_field():
    u = np.array([0.3, -0.2, 0.5])
    field = counted(quadratic)
    grad, hess = gradient_hessian(field, u, FDParams(step=1e-3, levels=2))
    g = A @ u + B
    np.testing.assert_allclose(grad, [g, 3.0 * g - [1.0, 0.0, 0.0]], atol=1e-9)
    np.testing.assert_allclose(hess, [A, 3.0 * A], atol=1e-6)
    assert field.calls == 1


def test_directional_derivative_exact_on_a_quadratic_vector_field():
    u = np.array([0.3, -0.2, 0.5])
    dirs = np.array([[1.0, 2.0, -1.0], [0.0, 0.5, 0.0]])
    field = counted(quadratic)
    out = directional_derivative(field, u, dirs, FDParams(step=1e-3, levels=2))
    g = A @ u + B
    expected = [[g @ d, (3.0 * g - [1.0, 0.0, 0.0]) @ d] for d in dirs]
    np.testing.assert_allclose(out, expected, atol=1e-9)
    assert field.calls == 1


def trig(pts):
    return np.sin(pts[:, 0]) * np.cos(pts[:, 1])


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_richardson_accuracy_on_a_trig_field(levels):
    """Each level removes one even power of the step: error O(h^(2 levels))."""
    x, y = 0.3, -0.7
    u = np.array([x, y])
    fd = FDParams(step=0.05, levels=levels)
    bound = fd.step ** (2 * levels)
    grad, hess = gradient_hessian(trig, u, fd)
    g = np.array([np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)])
    h = np.array(
        [
            [-np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)],
            [-np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y)],
        ]
    )
    assert np.abs(grad - g).max() < bound
    assert np.abs(hess - h).max() < bound
    d = np.array([1.0, 2.0])
    deriv = directional_derivative(trig, u, d, fd)
    assert abs(deriv - g @ d) < np.linalg.norm(d) * bound


def test_zero_direction_gives_zero_of_the_field_shape():
    u = np.array([0.3, -0.2, 0.5])
    out = directional_derivative(quadratic, u, np.zeros(3))
    np.testing.assert_array_equal(out, np.zeros(2))
    field = counted(quadratic)
    both = directional_derivative(field, u, [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(both[0], np.zeros(2))
    np.testing.assert_allclose(both[1], directional_derivative(quadratic, u, [0.0, 1.0, 0.0]))
    assert field.calls == 1


def test_stencil_leaving_the_domain_raises_before_evaluating():
    domain = [(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)]
    u = np.array([1.0 - 5e-5, 0.0, 0.0])
    field = counted(quadratic)
    with pytest.raises(BoundaryError):
        gradient_hessian(field, u, FDParams(step=1e-4), domain=domain)
    with pytest.raises(BoundaryError):
        directional_derivative(field, u, [1.0, 0.0, 0.0], FDParams(step=1e-4), domain=domain)
    assert field.calls == 0
    directional_derivative(field, u, [1.0, 0.0, 0.0], FDParams(step=1e-5), domain=domain)
    assert field.calls == 1


def test_output_shapes_follow_the_field_rows():
    n = 3
    u = np.array([0.1, 0.2, 0.3])
    field = lambda pts: np.einsum("ni,jk->njk", pts, np.ones((2, 4)))  # rows of shape (2, 4)
    grad, hess = gradient_hessian(field, u)
    assert grad.shape == (2, 4, n)
    assert hess.shape == (2, 4, n, n)
    assert directional_derivative(field, u, [1.0, 0.0, 0.0]).shape == (2, 4)
    assert directional_derivative(field, u, np.eye(n)).shape == (n, 2, 4)
    grad, hess = gradient_hessian(trig, u[:2])
    assert grad.shape == (2,) and hess.shape == (2, 2)


def test_pointwise_field_is_rejected():
    with pytest.raises(ValueError, match="one row per point"):
        gradient_hessian(lambda pt: 4.2, np.array([0.1, 0.2]))
