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


def test_stencil_room_is_checked_per_axis():
    """Close to the u1 edge, a derivative along u2 keeps its stencil inside."""
    domain = [(-1.0, 1.0), (-1.0, 1.0)]
    u = np.array([1.0 - 5e-5, 0.3])
    deriv = directional_derivative(trig, u, [0.0, 1.0], FDParams(), domain=domain)
    assert abs(deriv + np.sin(u[0]) * np.sin(u[1])) < 1e-8
    with pytest.raises(BoundaryError):
        directional_derivative(trig, u, [1.0, 1.0], FDParams(), domain=domain)


def polynomial(pts):
    """Two rows per point from elementwise products only, so every row is
    computed the same way whatever the stack around it."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return np.stack([x * y * z + 0.5 * x * x - y, z * z * z - 2.0 * x * z + y * y], axis=1)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_stacked_centres_equal_single_centre_calls(levels):
    rng = np.random.default_rng(4)
    centres = rng.uniform(-0.5, 0.5, (5, 3))
    dirs = rng.normal(size=(5, 2, 3))
    dirs[3, 1] = 0.0
    fd = FDParams(step=1e-3, levels=levels)
    field = counted(polynomial)
    grad, hess = gradient_hessian(field, centres, fd)
    assert field.calls == 1
    assert grad.shape == (5, 2, 3) and hess.shape == (5, 2, 3, 3)
    several = directional_derivative(field, centres, dirs, fd)
    assert field.calls == 2
    assert several.shape == (5, 2, 2)
    one_each = directional_derivative(field, centres, dirs[:, 0], fd)
    assert field.calls == 3
    assert one_each.shape == (5, 2)
    for i, u in enumerate(centres):
        g, h = gradient_hessian(polynomial, u, fd)
        np.testing.assert_array_equal(grad[i], g)
        np.testing.assert_array_equal(hess[i], h)
        np.testing.assert_array_equal(several[i], directional_derivative(polynomial, u, dirs[i], fd))
        np.testing.assert_array_equal(one_each[i], directional_derivative(polynomial, u, dirs[i, 0], fd))


def test_boundary_error_names_the_offending_centre():
    domain = [(-1.0, 1.0)] * 3
    centres = np.array([[0.0, 0.0, 0.0], [1.0 - 5e-5, 0.2, 0.0], [0.1, 1.0 - 5e-5, 0.0]])
    field = counted(polynomial)
    with pytest.raises(BoundaryError, match=r"point \[0\.99995, 0\.2, 0\.0\] .* along u1"):
        gradient_hessian(field, centres, FDParams(step=1e-4), domain=domain)
    along_u2 = np.tile([0.0, 1.0, 0.0], (3, 1))  # keeps the second centre's stencil inside
    with pytest.raises(BoundaryError, match=r"point \[0\.1, 0\.99995, 0\.0\] .* along u2"):
        directional_derivative(field, centres, along_u2, FDParams(step=1e-4), domain=domain)
    assert field.calls == 0


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_constant_field_gives_exact_zeros(levels):
    """Richardson weights meet differenced values, so no rounding is left over."""
    centres = np.array([[0.3, -0.2, 0.5], [0.1, 0.7, -0.4]])
    field = lambda pts: np.full((len(pts), 2), [1.0 / 3.0, -0.7])
    fd = FDParams(step=1e-4, levels=levels)
    grad, hess = gradient_hessian(field, centres, fd)
    assert grad.shape == (2, 2, 3) and not grad.any()
    assert hess.shape == (2, 2, 3, 3) and not hess.any()
    dirs = np.array([[[1.0, 2.0, -1.0], [0.0, 0.3, 0.0]], [[0.2, 0.0, 0.0], [1.0, 1.0, 1.0]]])
    deriv = directional_derivative(field, centres, dirs, fd)
    assert deriv.shape == (2, 2, 2) and not deriv.any()


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 30, 64])
def test_chunks_of_whole_centres_equal_single_centre_calls(monkeypatch, levels, rows):
    """Each field call holds whole centres, at most FIELD_ROWS rows unless one
    centre's stencil is larger, and every centre still equals its own call."""
    rng = np.random.default_rng(7)
    centres = rng.uniform(-0.5, 0.5, (5, 3))
    dirs = rng.normal(size=(5, 2, 3))
    fd = FDParams(step=1e-3, levels=levels)
    single = [
        (*gradient_hessian(polynomial, u, fd), directional_derivative(polynomial, u, dirs[i], fd))
        for i, u in enumerate(centres)
    ]
    monkeypatch.setattr("nilgauss.fd.FIELD_ROWS", rows)
    sizes = []
    field = lambda pts: sizes.append(len(pts)) or polynomial(pts)
    grad, hess = gradient_hessian(field, centres, fd)
    stencil = 1 + levels * 3 * 4  # centre, then 2n + 2 n(n-1)/2 = n(n+1) per level
    per = max(1, rows // stencil)
    assert sizes == [stencil * len(centres[i:i + per]) for i in range(0, 5, per)]
    sizes.clear()
    deriv = directional_derivative(field, centres, dirs, fd)
    per = max(1, rows // (2 * 2 * levels))
    assert sizes == [2 * 2 * levels * len(centres[i:i + per]) for i in range(0, 5, per)]
    for i, (g, h, d) in enumerate(single):
        np.testing.assert_array_equal(grad[i], g)
        np.testing.assert_array_equal(hess[i], h)
        np.testing.assert_array_equal(deriv[i], d)


def random_polynomial(rng, n, degree, count=12):
    """Monomials c * prod u_i^e_i of total degree 2 .. degree, mostly mixed,
    with their exact Hessian at a point."""
    terms = [
        (rng.uniform(-1.0, 1.0), rng.multinomial(deg, np.full(n, 1.0 / n)))
        for deg in np.linspace(2, degree, count).round().astype(int)
    ]

    def field(pts):
        return sum(c * np.prod(pts**e, axis=1) for c, e in terms)

    def hessian(u):
        out = np.zeros((n, n))
        for c, e in terms:
            for a in range(n):
                for b in range(n):
                    f = e.astype(float)
                    coef = c * f[a]
                    f[a] -= 1
                    coef *= f[b]
                    f[b] -= 1
                    if coef:
                        out[a, b] += coef * np.prod(u**f)
        return out

    return field, hessian


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("levels", [1, 2])
def test_hessian_exact_on_polynomials_of_degree_2_levels_plus_1(n, levels):
    """The seven-point mixed formula differences +-(e_a + e_b) in even powers of
    h, like the axes, so L levels leave no truncation error up to degree 2L + 1."""
    rng = np.random.default_rng(20 + 3 * n + levels)
    field, hessian = random_polynomial(rng, n, 2 * levels + 1)
    centres = rng.uniform(-0.5, 0.5, (4, n))
    _, hess = gradient_hessian(field, centres, FDParams(step=1e-2, levels=levels))
    for u, h in zip(centres, hess):
        np.testing.assert_allclose(h, hessian(u), rtol=0.0, atol=1e-9)
