import numpy as np
import pytest

from nilgauss import (
    ImmersionError,
    adapted_frame,
    cylinder_chart,
    expression_chart,
    exp_model,
    foliation_leaf_chart,
    gauss_map,
    graph_chart,
    heisenberg,
    mean_curvature,
    mean_curvature_derivatives,
    nil_polarized_model,
    parse_expression,
    random_graph_chart,
    shape_data,
    vertical_plane_chart,
)
from nilgauss.fd import BoundaryError, directional_derivative
from nilgauss.laplacian import oracle_laplacians
from nilgauss.surfaces import (
    IMMERSION_RANK_TOL,
    _second_fundamental,
    chart_coefficients,
    chart_jets,
    complex_derivative,
    complex_step_jets,
    induced_metric_with_gradient,
    stacked_chart_jets,
)
from nilgauss.fd import FDParams
from conftest import abelian_3d, basis, free_two_step_5d, quaternionic_heisenberg, random_unit


K, L, Z = (basis(3, i) for i in range(3))


def leaf_norm_b2(x):
    return (x * x - 1) ** 2 / (2 * (1 + x * x) ** 2)


# ---------------------------------------------------------------------------
# Gauss map


def test_vertical_plane_gauss_constant():
    chart = vertical_plane_chart()
    for u in ([0.0, 0.0], [0.5, -0.3], [-0.9, 0.8]):
        np.testing.assert_allclose(gauss_map(chart, u), L, atol=1e-14)


def test_foliation_leaf_gauss_formula():
    chart = foliation_leaf_chart()
    for x in (0.0, 0.5, 1.0, 2.0, -0.7):
        g = gauss_map(chart, [x, 0.3])
        expected = (x * L + Z) / np.sqrt(1 + x * x)
        np.testing.assert_allclose(g, expected, atol=1e-14)


def test_orientation_flip_negates_gauss():
    model = nil_polarized_model()
    comps = ["u1", "u2", "0.0"]
    dom = [(-1, 1), (-1, 1)]
    plus = expression_chart(model, comps, dom, orientation=1)
    minus = expression_chart(model, comps, dom, orientation=-1)
    u = [0.4, -0.2]
    np.testing.assert_allclose(gauss_map(plus, u), -gauss_map(minus, u), atol=1e-15)


def test_gauss_map_unit_and_orthogonal_random():
    rng = np.random.default_rng(31)
    model = exp_model(heisenberg(2))
    for _ in range(8):
        chart = random_graph_chart(model, rng)
        u = rng.uniform(-0.4, 0.4, 4)
        cj = chart_jets(chart, u)
        g = gauss_map(chart, u)
        assert abs(np.linalg.norm(g) - 1.0) < 1e-10
        assert np.abs(cj.tangents.T @ g).max() < 1e-9


def test_rank_deficient_chart_raises():
    model = nil_polarized_model()
    chart = expression_chart(model, ["u1", "u1", "0.0"], [(-1, 1), (-1, 1)])
    with pytest.raises(ImmersionError):
        gauss_map(chart, [0.0, 0.0])


def test_stacked_immersion_error_names_the_first_bad_point():
    # the second Jacobian column (0, 2 u2, 3 u2^2) vanishes at u2 = 0
    chart = expression_chart(nil_polarized_model(), ["u1", "u2^2", "u2^3"], [(-1, 1), (-1, 1)])
    stacked_chart_jets(chart, [[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ImmersionError, match=r"u=\[0\.3, 0\.0\]"):
        stacked_chart_jets(chart, [[0.1, 0.2], [0.3, 0.0], [-0.5, 0.0]])


@pytest.mark.parametrize("algebra", [heisenberg(1), heisenberg(2)])
def test_stacked_chart_layers_equal_single_points_bit_for_bit(algebra):
    rng = np.random.default_rng(5)
    chart = random_graph_chart(exp_model(algebra), rng, terms=4)
    pts = rng.uniform(-0.4, 0.4, (7, chart.param_dim))
    cj = stacked_chart_jets(chart, pts)
    normals = gauss_map(chart, pts)
    hs = mean_curvature(chart, pts)
    for i, u in enumerate(pts):
        single = chart_jets(chart, u)
        for name in ("point", "jac", "hess", "ainv", "tangents", "normal", "q", "r"):
            np.testing.assert_array_equal(getattr(cj, name)[i], getattr(single, name))
        np.testing.assert_array_equal(normals[i], gauss_map(chart, u))
        assert hs[i] == mean_curvature(chart, u)


def test_svd_only_on_uncertified_rows(monkeypatch):
    """The QR normal's determinant certifies well-conditioned rows; only the
    others get singular values, from one call without singular vectors."""
    rng = np.random.default_rng(6)
    chart = random_graph_chart(exp_model(heisenberg(2)), rng, terms=4)
    pts = rng.uniform(-0.4, 0.4, (5, chart.param_dim))
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((np.array(a), kwargs))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    stacked_chart_jets(chart, pts)
    gauss_map(chart, pts)
    assert calls == []
    # the u2-column (0, 3 u2^2 + 1.5e-8, 0) leaves smin ~ 1.5e-8 at u2 = 0 only
    near = expression_chart(nil_polarized_model(), ["u1", "u2^3 + 1.5e-8*u2", "0"], [(-1, 1), (-1, 1)])
    cj = stacked_chart_jets(near, [[0.1, 0.5], [0.2, 0.0], [-0.3, -0.4]])
    assert len(calls) == 1
    rows, kwargs = calls[0]
    assert kwargs == {"compute_uv": False}
    np.testing.assert_array_equal(rows, cj.tangents[[1]])
    singular = expression_chart(nil_polarized_model(), ["u1", "u2^3 + 5e-9*u2", "0"], [(-1, 1), (-1, 1)])
    with pytest.raises(ImmersionError, match=r"u=\[0\.2, 0\.0\] \(smallest tangent singular value 5\.0"):
        stacked_chart_jets(singular, [[0.1, 0.5], [0.2, 0.0], [-0.3, -0.4]])
    assert len(calls) == 2 and calls[1][0].shape == (1, 3, 2)


def lean_field_charts():
    """Charts whose components use different parameters, constants included."""
    rng = np.random.default_rng(8)
    charts = [random_graph_chart(exp_model(heisenberg(m)), rng, terms=4) for m in (1, 2, 3)]
    charts += [random_graph_chart(exp_model(free_two_step_5d()), rng, terms=4)]
    return charts + [
        cylinder_chart("cos(u1)", "2*sin(u1)", (-0.6, 0.6), (-1, 1)),
        foliation_leaf_chart(0.3),
        vertical_plane_chart(),
    ]


@pytest.mark.parametrize("chart", lean_field_charts())
@pytest.mark.parametrize("order", [1, 2])
def test_shared_seeds_equal_per_component_jets(chart, order):
    """One seed set for every component gives each component's own jets, bit for bit."""
    pts = np.random.default_rng(9).uniform(-0.5, 0.5, (6, chart.param_dim))
    cj = stacked_chart_jets(chart, pts, order)
    for k, comp in enumerate(chart.components):
        jet = comp.jets(pts, order)
        np.testing.assert_array_equal(cj.point[:, k], jet.val)
        np.testing.assert_array_equal(cj.jac[:, k], jet.grad)
        if order == 2:
            np.testing.assert_array_equal(cj.hess[:, k], jet.hess)
        else:
            assert cj.hess is None and jet.hess is None


@pytest.mark.parametrize("chart", lean_field_charts())
def test_first_order_chart_jets_match_second_order(chart):
    """The oracle's first-order Gauss map: the normals of the second-order
    evaluation, and its rows index like any stack with hess None."""
    pts = np.random.default_rng(10).uniform(-0.5, 0.5, (6, chart.param_dim))
    full, lean = stacked_chart_jets(chart, pts), stacked_chart_jets(chart, pts, order=1)
    np.testing.assert_array_equal(gauss_map(chart, pts), full.normal)
    names = ("point", "jac", "ainv", "tangents", "normal", "q", "r")
    for name in names:
        np.testing.assert_array_equal(getattr(lean, name), getattr(full, name))
    for i in range(len(pts)):
        row = lean[i]
        assert row.hess is None
        for name in names:
            np.testing.assert_array_equal(getattr(row, name), getattr(full, name)[i])


def test_first_order_gauss_map_raises_the_same_immersion_error():
    degenerate = expression_chart(nil_polarized_model(), ["u1", "u2^3 + 5e-9*u2", "0"], [(-1, 1), (-1, 1)])
    pts = [[0.1, 0.5], [0.2, 0.0], [-0.3, -0.4]]
    with pytest.raises(ImmersionError) as full:
        stacked_chart_jets(degenerate, pts)
    with pytest.raises(ImmersionError) as lean:
        gauss_map(degenerate, pts)
    assert str(lean.value) == str(full.value)


def test_chart_coefficients_solve_with_the_chart_jet_factors(monkeypatch):
    """The complete QR of stacked_chart_jets gives the reduced factors: no second QR."""
    cj, vecs, exact = random_tangent_vectors(2, 3)
    np.testing.assert_allclose(cj.q @ cj.r, cj.tangents, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(np.swapaxes(cj.q, 1, 2) @ cj.q, np.broadcast_to(np.eye(4), (len(vecs), 4, 4)), atol=1e-14)
    assert (np.tril(cj.r, -1) == 0.0).all()

    def forbidden(*args, **kwargs):
        raise AssertionError("chart_coefficients took its own QR")

    monkeypatch.setattr(np.linalg, "qr", forbidden)
    np.testing.assert_allclose(chart_coefficients(cj, vecs), exact, rtol=0.0, atol=1e-12)


def tangent_smin(chart, points):
    """Smallest singular value of each row's algebra tangents, straight from the jets."""
    jets = [comp.jets(np.asarray(points, dtype=float)) for comp in chart.components]
    jac = np.stack([jet.grad for jet in jets], axis=1)
    val = np.stack([jet.val for jet in jets], axis=1)
    return np.linalg.svd(chart.model.frame_inverse(val) @ jac, compute_uv=False)[:, -1]


def direct_svd_check(chart, points):
    """The ImmersionError message a check on every row's singular values gives, or None."""
    for u, s in zip(points, tangent_smin(chart, points)):
        if s <= IMMERSION_RANK_TOL:
            return (
                f"chart Jacobian nearly rank deficient at u={list(map(float, u))} "
                f"(smallest tangent singular value {s:.3e})"
            )
    return None


@pytest.mark.parametrize("c", [5e-9, 1e-8, 2e-8, 1e-6])
def test_certified_immersion_check_matches_a_direct_svd(c):
    """At u1 = 0 the chart (u1, c u2, 0) has smallest tangent singular value c."""
    chart = expression_chart(nil_polarized_model(), ["u1", f"{c!r}*u2", "0"], [(-1, 1), (-1, 1)])
    assert tangent_smin(chart, [[0.0, 0.3]])[0] == pytest.approx(c, rel=1e-12)
    assert (direct_svd_check(chart, [[0.0, 0.3]]) is None) == (c > IMMERSION_RANK_TOL)
    for points in ([[0.0, 0.3]], [[0.5, 0.3], [0.0, -0.2]]):
        expected = direct_svd_check(chart, points)
        if expected is None:
            stacked_chart_jets(chart, points)
        else:
            with pytest.raises(ImmersionError) as err:
                stacked_chart_jets(chart, points)
            assert str(err.value) == expected


# ---------------------------------------------------------------------------
# adapted frames


def test_adapted_frame_leaf_values():
    """Frame of the leaf normal matches the closed expressions."""
    alg = heisenberg(1)
    x = 0.8
    w = np.sqrt(1 + x * x)
    frame = adapted_frame(alg, (x * L + Z) / w)
    np.testing.assert_allclose(frame.x_n1, x * L / w, atol=1e-14)
    assert np.linalg.norm(frame.x_n1) == pytest.approx(x / w)
    assert np.linalg.norm(frame.z_n1) == pytest.approx(1 / w)
    # |X_q| = |Z_{n+1}| and |Z_q| = |X_{n+1}|
    assert np.linalg.norm(frame.x_q) == pytest.approx(np.linalg.norm(frame.z_n1))
    assert np.linalg.norm(frame.z_q) == pytest.approx(np.linalg.norm(frame.x_n1))
    assert frame.lam == pytest.approx(x)
    assert frame.mu == pytest.approx(1 / x)
    np.testing.assert_allclose(frame.ys[0], K, atol=1e-14)
    np.testing.assert_allclose(frame.ys[1], (L - x * Z) / w, atol=1e-14)
    assert frame.special_heisenberg


def test_adapted_frame_purely_central():
    alg = heisenberg(1)
    frame = adapted_frame(alg, Z)
    assert frame.lam == 0.0
    assert np.linalg.norm(frame.z_q) == 0.0
    assert np.abs(frame.ys[frame.q - 1][alg.dim_v:]).max() == 0.0  # Y_q horizontal
    assert frame.gram_residual() < 1e-10


def test_adapted_frame_purely_horizontal():
    alg = heisenberg(1)
    frame = adapted_frame(alg, K)
    assert np.linalg.norm(frame.x_q) == 0.0
    assert np.linalg.norm(frame.z_q) == pytest.approx(1.0)
    np.testing.assert_allclose(frame.ys[frame.q - 1], -frame.z_q, atol=1e-14)
    assert frame.gram_residual() < 1e-10


def test_adapted_frame_gram_and_alignment(h2, free5, quat7):
    rng = np.random.default_rng(12)
    for alg in (h2, free5, quat7):
        d = alg.dim_total
        for _ in range(25):
            frame = adapted_frame(alg, random_unit(rng, d))
            assert frame.gram_residual() < 1e-10
            lhs = alg.j_matrix(frame.z_q) @ frame.x_q
            rhs = alg.j_matrix(frame.z_n1) @ frame.x_n1
            assert np.abs(lhs - rhs).max() < 1e-10
            # decomposition identities of the normal and the norm swaps
            np.testing.assert_allclose(
                frame.normal, frame.x_n1 + frame.z_n1, atol=1e-12
            )
            assert np.linalg.norm(frame.x_q) == pytest.approx(
                np.linalg.norm(frame.z_n1), abs=1e-12
            )
            assert np.linalg.norm(frame.z_q) == pytest.approx(
                np.linalg.norm(frame.x_n1), abs=1e-12
            )
            if frame.lam > 0:
                np.testing.assert_allclose(
                    frame.x_n1, frame.lam * frame.x_q, atol=1e-12
                )
            if frame.mu > 0:
                np.testing.assert_allclose(
                    frame.z_n1, frame.mu * frame.z_q, atol=1e-12
                )


def test_adapted_frame_heisenberg_pairing(h2):
    """Special basis satisfies J(Z) X_i = X_{m+i} and the branch rules."""
    rng = np.random.default_rng(13)
    m = 2
    zu = basis(5, 4)
    for _ in range(20):
        g = random_unit(rng, 5)
        frame = adapted_frame(h2, g)
        assert frame.special_heisenberg
        z_dir = frame.z_n1 / np.linalg.norm(frame.z_n1) if np.linalg.norm(frame.z_n1) > 0 else zu
        jz = h2.j_matrix(z_dir)
        for i in range(1, m):
            np.testing.assert_allclose(
                jz @ frame.x(i), frame.x(m + i), atol=1e-12
            )
        s = np.linalg.norm(frame.x_n1)
        c = np.linalg.norm(frame.z_n1)
        if c > 1e-12:
            np.testing.assert_allclose(
                jz @ frame.x(m), frame.x(2 * m) / c, atol=1e-10
            )
        if s > 1e-12:
            np.testing.assert_allclose(
                jz @ frame.x(m), frame.x_n1 / s, atol=1e-10
            )


def test_adapted_frame_rejects_non_unit(h2):
    with pytest.raises(ValueError, match="unit"):
        adapted_frame(h2, 2.0 * basis(5, 0))


# ---------------------------------------------------------------------------
# shape data


def test_leaf_shape_values():
    chart = foliation_leaf_chart()
    for x in (0.0, 0.5, 1.0, 2.0):
        u = [x, 0.1]
        frame = adapted_frame(heisenberg(1), gauss_map(chart, u))
        shape = shape_data(chart, chart_jets(chart, u), frame)[0]
        assert shape.h == pytest.approx(0.0, abs=1e-12)
        assert shape.norm_b2 == pytest.approx(leaf_norm_b2(x), abs=1e-12)
        assert np.abs(shape.b - shape.b.T).max() < 1e-12


@pytest.mark.parametrize(
    "model",
    [
        nil_polarized_model(),
        *(exp_model(heisenberg(m)) for m in (1, 2, 3)),
        exp_model(free_two_step_5d()),
        exp_model(quaternionic_heisenberg()),
    ],
    ids=["nil_polarized", "exp_h1", "exp_h2", "exp_h3", "exp_free5", "exp_quat7"],
)
def test_second_fundamental_matches_coordinate_route(model):
    """h from the algebra connection equals <Ainv (hess + J^T Gamma J), normal>."""
    rng = np.random.default_rng(17)
    chart = random_graph_chart(model, rng)
    cj = stacked_chart_jets(chart, rng.uniform(-0.7, 0.7, (256, chart.param_dim)))
    jac = cj.jac[:, None]
    nabla = cj.hess + np.swapaxes(jac, -1, -2) @ model.christoffels(cj.point) @ jac
    expected = np.einsum("nkl,nlab,nk->nab", cj.ainv, nabla, cj.normal)
    h = _second_fundamental(chart, cj)
    assert np.abs(h - expected).max() <= 1e-13 * np.abs(expected).max()


def test_vertical_plane_shape_values():
    chart = vertical_plane_chart()
    u = [0.3, -0.2]
    frame = adapted_frame(heisenberg(1), gauss_map(chart, u))
    shape = shape_data(chart, chart_jets(chart, u), frame)[0]
    assert shape.h == pytest.approx(0.0, abs=1e-13)
    assert shape.norm_b2 == pytest.approx(0.5, abs=1e-12)
    # frame is (K, -Z, L); the mixed entry is b(K, -Z) = +1/2
    assert shape.b[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert shape.b[0, 0] == pytest.approx(0.0, abs=1e-13)
    assert shape.b[1, 1] == pytest.approx(0.0, abs=1e-13)


def test_abelian_affine_plane_flat():
    model = exp_model(abelian_3d())
    chart = expression_chart(
        model, ["u1", "u2", "0.3*u1 + 0.1*u2 - 0.2"], [(-1, 1), (-1, 1)]
    )
    u = [0.2, 0.4]
    frame = adapted_frame(model.algebra, gauss_map(chart, u))
    shape = shape_data(chart, chart_jets(chart, u), frame)[0]
    np.testing.assert_allclose(shape.b, np.zeros((2, 2)), atol=1e-12)


def test_shape_symmetry_on_random_charts(h2):
    rng = np.random.default_rng(14)
    model = exp_model(h2)
    for _ in range(10):
        chart = random_graph_chart(model, rng)
        u = rng.uniform(-0.4, 0.4, 4)
        frame = adapted_frame(h2, gauss_map(chart, u))
        shape = shape_data(chart, chart_jets(chart, u), frame)[0]
        assert np.abs(shape.b - shape.b.T).max() < 1e-8
        assert shape.h == pytest.approx(np.trace(shape.b) / 4, abs=1e-13)
        assert shape.norm_b2 == pytest.approx((shape.b**2).sum(), abs=1e-13)


def test_shape_frame_mismatch_rejected():
    chart = foliation_leaf_chart()
    frame = adapted_frame(heisenberg(1), gauss_map(chart, [0.5, 0.0]))
    with pytest.raises(ValueError, match="does not match"):
        shape_data(chart, chart_jets(chart, [1.0, 0.0]), frame)


def test_reparametrization_invariance():
    """Affine positive reparametrization preserves G, H and |B|^2."""
    base = ["sin(u1)*0.3 + u1", "u2 - 0.2*u1^2", "0.1*u1*u2"]
    model = nil_polarized_model()
    chart = expression_chart(model, base, [(-1.2, 1.2), (-1.2, 1.2)])
    amat = np.array([[0.8, 0.3], [-0.1, 0.9]])  # positive determinant
    shift = np.array([0.05, -0.1])
    sub = {
        1: parse_expression(f"{amat[0,0]}*u1 + {amat[0,1]}*u2 + {shift[0]}"),
        2: parse_expression(f"{amat[1,0]}*u1 + {amat[1,1]}*u2 + {shift[1]}"),
    }
    comps2 = [parse_expression(c).substitute(sub) for c in base]
    chart2 = expression_chart(model, comps2, [(-0.8, 0.8), (-0.8, 0.8)])
    rng = np.random.default_rng(15)
    alg = model.algebra
    for _ in range(6):
        v = rng.uniform(-0.5, 0.5, 2)
        u = amat @ v + shift
        np.testing.assert_allclose(
            gauss_map(chart, u), gauss_map(chart2, v), atol=1e-8
        )
        f1 = adapted_frame(alg, gauss_map(chart, u))
        f2 = adapted_frame(alg, gauss_map(chart2, v))
        s1 = shape_data(chart, chart_jets(chart, u), f1)[0]
        s2 = shape_data(chart2, chart_jets(chart2, v), f2)[0]
        assert s1.h == pytest.approx(s2.h, abs=1e-8)
        assert s1.norm_b2 == pytest.approx(s2.norm_b2, abs=1e-8)


# ---------------------------------------------------------------------------
# chart directions of tangent vectors


def random_tangent_vectors(m, seed, count=5, k=3):
    """Stacked chart jets of a random graph chart over H(m), k tangent vectors per row
    and their exact chart directions."""
    rng = np.random.default_rng(seed)
    chart = random_graph_chart(exp_model(heisenberg(m)), rng, terms=4)
    cj = stacked_chart_jets(chart, rng.uniform(-0.5, 0.5, (count, chart.param_dim)))
    exact = rng.normal(size=(count, k, chart.param_dim))
    return cj, np.einsum("ndj,nkj->nkd", cj.tangents, exact), exact


@pytest.mark.parametrize("m", [1, 2, 3])
def test_chart_coefficients_stack_equals_rows(m):
    cj, vecs, _ = random_tangent_vectors(m, 50 + m)
    stacked = chart_coefficients(cj, vecs)
    assert stacked.shape == vecs.shape[:2] + (2 * m,)
    for i in range(len(vecs)):
        np.testing.assert_array_equal(stacked[i], chart_coefficients(cj[i], vecs[i]))
    np.testing.assert_allclose(chart_coefficients(cj, vecs[:, :1]), stacked[:, :1], atol=1e-14)
    np.testing.assert_allclose(chart_coefficients(cj[0], vecs[0, 0]), stacked[0, 0], atol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_chart_coefficients_match_lstsq(m):
    for seed in range(3):
        cj, vecs, exact = random_tangent_vectors(m, 10 * m + seed)
        sol = chart_coefficients(cj, vecs)
        for i in range(len(vecs)):
            ref = np.linalg.lstsq(cj.tangents[i], vecs[i].T, rcond=None)[0].T
            np.testing.assert_allclose(sol[i], ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sol, exact, rtol=0.0, atol=1e-12)


def test_chart_coefficients_reject_the_normal():
    rng = np.random.default_rng(7)
    chart = random_graph_chart(exp_model(heisenberg(2)), rng, terms=4)
    pts = rng.uniform(-0.5, 0.5, (4, 4))
    cj, normals = stacked_chart_jets(chart, pts), gauss_map(chart, pts)
    with pytest.raises(ValueError, match="not tangent"):
        chart_coefficients(cj[0], normals[0])
    vecs = np.swapaxes(cj.tangents, 1, 2).copy()  # each row's tangent columns
    identity = np.broadcast_to(np.eye(4), (4, 4, 4))
    np.testing.assert_allclose(chart_coefficients(cj, vecs), identity, atol=1e-12)
    vecs[2, 1] = normals[2]  # one normal in the stack
    with pytest.raises(ValueError, match="not tangent"):
        chart_coefficients(cj, vecs)


# ---------------------------------------------------------------------------
# induced metric and directional derivatives


def test_vertical_plane_induced_metric_identity():
    chart = vertical_plane_chart()
    g = induced_metric_with_gradient(chart, chart_jets(chart, [0.4, 0.1]))[0]
    np.testing.assert_allclose(g, np.eye(2), atol=1e-14)


def test_directional_derivative_constant_field():
    chart = foliation_leaf_chart()
    u = [0.5, 0.0]
    field = lambda pts: np.full(len(pts), 4.2)
    val = directional_derivative(field, u, chart_coefficients(chart_jets(chart, u), K), domain=chart.domain)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_leaf_mean_curvature_derivatives_vanish():
    chart = foliation_leaf_chart()
    u = [0.7, 0.0]
    frame = adapted_frame(heisenberg(1), gauss_map(chart, u))
    coeffs = shape_data(chart, chart_jets(chart, u), frame)[1]
    dh = mean_curvature_derivatives(chart, u, coeffs)
    assert np.abs(dh).max() < 1e-10


def test_directional_derivative_linear_in_direction():
    chart = foliation_leaf_chart()
    u = [0.6, 0.2]
    frame = adapted_frame(heisenberg(1), gauss_map(chart, u))
    y1, y2 = frame.ys[0], frame.ys[1]
    field = lambda pts: np.sin(pts[:, 0]) * pts[:, 1] + 0.3 * pts[:, 0] ** 2
    cj = chart_jets(chart, u)
    d1, d2, combo = (
        directional_derivative(field, u, chart_coefficients(cj, y), domain=chart.domain)
        for y in (y1, y2, 0.7 * y1 + 1.3 * y2)
    )
    assert combo == pytest.approx(0.7 * d1 + 1.3 * d2, abs=1e-9)


def test_boundary_stencil_error():
    """The oracle's stencil may not leave the domain; Y_k(n H), by the complex
    step, needs no room."""
    chart = foliation_leaf_chart(x_range=(-1.0, 1.0))
    u = [1.0 - 1e-6, 0.0]
    frame = adapted_frame(heisenberg(1), gauss_map(chart, u))
    coeffs = shape_data(chart, chart_jets(chart, u), frame)[1]
    assert np.isfinite(mean_curvature_derivatives(chart, u, coeffs)).all()
    with pytest.raises(BoundaryError):
        oracle_laplacians(chart, stacked_chart_jets(chart, [u]), np.array([u]))


# a chart with every operation of the grammar: sin, cos, exp, sqrt, /, ^k and ^-k
ALL_OPS_GRAPH = (
    "0.2*sin(u1)*u2 + 0.1*cos(u2 - u3) + 0.05*exp(u4) + 0.1*sqrt(2 + u1^2)"
    " + 0.1*u3/(2 + u4) + 0.05*u2^3 - 0.02*(1.5 + u1)^-2"
)
REFERENCE_FD = FDParams(step=2e-3, levels=4)


def test_mean_curvature_derivatives_match_a_high_order_fd_reference():
    """Y_k(n H) by the complex step, against Richardson FD of n H along the same
    chart directions at step 2e-3 with 4 levels."""
    chart = graph_chart(exp_model(heisenberg(2)), ALL_OPS_GRAPH, [(-0.6, 0.6)] * 4)
    pts = np.random.default_rng(17).uniform(-0.4, 0.4, (5, 4))
    cj = stacked_chart_jets(chart, pts)
    coeffs = shape_data(chart, cj, [adapted_frame(heisenberg(2), nrm) for nrm in cj.normal])[1]
    dh = mean_curvature_derivatives(chart, pts, coeffs)
    reference = directional_derivative(lambda p: 4 * mean_curvature(chart, p), pts, coeffs, REFERENCE_FD)
    assert np.abs(dh).max() > 0.1
    assert np.abs(dh - reference).max() < 1e-11


@pytest.mark.parametrize("orientation", [1, -1])
def test_complex_step_normal_is_the_oriented_normal_and_its_derivative(orientation):
    """The real part of a complex-step row's normal is the point's oriented normal,
    and its imaginary part gives the Gauss map's derivative along the step."""
    chart = graph_chart(exp_model(heisenberg(2)), ALL_OPS_GRAPH, [(-0.6, 0.6)] * 4, orientation)
    pts = np.random.default_rng(18).uniform(-0.4, 0.4, (3, 4))
    normals = gauss_map(chart, pts)
    steps = complex_step_jets(chart, pts, normals)
    np.testing.assert_allclose(steps.normal.real, np.repeat(normals, 4, axis=0), atol=1e-15)
    reference = directional_derivative(lambda p: gauss_map(chart, p), pts, np.broadcast_to(np.eye(4), (3, 4, 4)),
                                       REFERENCE_FD)
    np.testing.assert_allclose(complex_derivative(steps.normal, 4), reference, atol=1e-10)


def test_mean_curvature_frame_free_matches_trace():
    rng = np.random.default_rng(16)
    model = exp_model(heisenberg(1))
    for _ in range(6):
        chart = random_graph_chart(model, rng)
        u = rng.uniform(-0.4, 0.4, 2)
        frame = adapted_frame(model.algebra, gauss_map(chart, u))
        shape = shape_data(chart, chart_jets(chart, u), frame)[0]
        assert mean_curvature(chart, u) == pytest.approx(shape.h, abs=1e-11)


# ---------------------------------------------------------------------------
# catalog


def test_cylinder_requires_nondegenerate_profile():
    with pytest.raises(ValueError, match="degenerate profile"):
        cylinder_chart("1.0", "2.0")


def test_cylinder_chart_points():
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-1, 1), (-1, 1))
    np.testing.assert_allclose(chart.point([0.0, 0.5]), [1.0, 0.0, 0.5])


def test_cylinder_tangent_frame_contains_central_direction():
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.8, 0.8), (-1, 1))
    alg = heisenberg(1)
    for s in (-0.5, 0.0, 0.5):
        frame = adapted_frame(alg, gauss_map(chart, [s, 0.0]))
        # normal purely horizontal, so the mixed vector degenerates to -Z_q
        assert np.linalg.norm(frame.x_q) < 1e-12
        assert np.abs(frame.ys[frame.q - 1][: alg.dim_v]).max() < 1e-12


def test_graph_chart_shape():
    model = exp_model(heisenberg(2))
    chart = graph_chart(model, "0.1*u1*u4 - 0.2*sin(u3)", [(-1, 1)] * 4)
    assert chart.param_dim == 4
    pt = chart.point([0.1, 0.2, 0.3, 0.4])
    assert pt[4] == pytest.approx(0.1 * 0.1 * 0.4 - 0.2 * np.sin(0.3))


def test_chart_validation_errors():
    model = nil_polarized_model()
    with pytest.raises(ValueError, match="component"):
        expression_chart(model, ["u1", "u2"], [(-1, 1), (-1, 1)])
    with pytest.raises(ValueError, match="domain"):
        expression_chart(model, ["u1", "u2", "0"], [(-1, 1)])
    with pytest.raises(ValueError, match="orientation"):
        expression_chart(model, ["u1", "u2", "0"], [(-1, 1), (-1, 1)], orientation=2)
    with pytest.raises(ValueError, match="u3"):
        expression_chart(model, ["u1", "u2", "u3"], [(-1, 1), (-1, 1)])
