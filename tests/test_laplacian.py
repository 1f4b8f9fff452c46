import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgauss import (
    adapted_frame,
    central_h_variation,
    closed_form_report,
    cylinder_chart,
    evaluate_point,
    evaluate_points,
    expression_chart,
    exp_model,
    foliation_leaf_chart,
    gauss_codazzi_residuals,
    gauss_map,
    graph_chart,
    harmonicity,
    harmonicity_cmc_residuals,
    heisenberg,
    jacobi_residuals,
    laplace_beltrami_scalar,
    laplacian_general,
    laplacian_h_type,
    laplacian_heisenberg,
    laplacian_numeric,
    mean_curvature_derivatives,
    nil_polarized_model,
    random_graph_chart,
    ricci,
    shape_data,
    vertical_plane_chart,
)
from nilgauss.expressions import expression_jets
from nilgauss.fd import FDParams, directional_derivative
from nilgauss.laplacian import _gc_field, oracle_laplacians
from nilgauss.surfaces import (
    ShapeData,
    chart_coefficients,
    chart_jets,
    mean_curvature,
    stacked_chart_jets,
)
from conftest import abelian_3d, free_two_step_5d, quaternionic_heisenberg, random_unit


def leaf_target(x):
    return np.array([0.0, -x / (1 + x * x) ** 2, -1.0 / (1 + x * x) ** 2])


def random_shape(rng, n):
    b = rng.uniform(-1, 1, (n, n))
    b = 0.5 * (b + b.T)
    return ShapeData(b=b, h=float(np.trace(b)) / n, norm_b2=float((b * b).sum()))


# ---------------------------------------------------------------------------
# closed form against known values


def test_abelian_sphere_patch():
    """Euclidean identity: Delta G = -|B|^2 G for a sphere normal."""
    model = exp_model(abelian_3d())
    chart = graph_chart(model, "-sqrt(4 - u1^2 - u2^2)", [(-0.6, 0.6), (-0.6, 0.6)])
    for u in ([0.0, 0.0], [0.3, -0.2]):
        rep, frame, shape = closed_form_report(chart, u)
        assert shape.norm_b2 == pytest.approx(0.5, abs=1e-10)  # 2 / R^2, R = 2
        assert rep.tangential_norm < 1e-10
        assert rep.normal_coeff == pytest.approx(-shape.norm_b2, abs=1e-12)
        num = laplacian_numeric(chart, u, frame=frame)
        np.testing.assert_allclose(num.coeffs, rep.coeffs, atol=5e-6)


def test_abelian_plane_all_zero():
    model = exp_model(abelian_3d())
    chart = expression_chart(
        model, ["u1", "u2", "0.4*u1 - 0.3*u2"], [(-1, 1), (-1, 1)]
    )
    rep, _, _ = closed_form_report(chart, [0.1, 0.2])
    np.testing.assert_allclose(rep.coeffs, np.zeros(3), atol=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0])
def test_leaf_laplacian_closed_form(x):
    chart = foliation_leaf_chart()
    rep, frame, shape = closed_form_report(chart, [x, 0.0])
    np.testing.assert_allclose(rep.coeffs, leaf_target(x), atol=1e-12)
    # same through the specialized Heisenberg form
    coeffs = shape_data(chart, chart_jets(chart, [x, 0.0]), frame)[1]
    dh = mean_curvature_derivatives(chart, [x, 0.0], coeffs)
    hrep = laplacian_heisenberg(heisenberg(1), frame, shape, dh)
    np.testing.assert_allclose(hrep.coeffs, rep.coeffs, atol=1e-12)


def test_leaf_laplacian_numeric_oracle():
    chart = foliation_leaf_chart()
    for x in (0.0, 0.5, 1.0, 2.0):
        num = laplacian_numeric(chart, [x, 0.0])
        np.testing.assert_allclose(num.coeffs, leaf_target(x), atol=5e-7)


def test_leaf_displayed_block_identities():
    """The three scalar blocks of the specialized form at the leaf."""
    chart = foliation_leaf_chart()
    alg = heisenberg(1)
    for x in (0.5, 1.0, 1.7):
        u = [x, 0.0]
        frame = adapted_frame(alg, gauss_map(chart, u))
        shape = shape_data(chart, chart_jets(chart, u), frame)[0]
        s = np.linalg.norm(frame.x_n1)
        c = np.linalg.norm(frame.z_n1)
        b = shape.b
        assert 2 * b[1, 1] * s * c == pytest.approx(0.0, abs=1e-12)
        assert s**3 * c - 2 * b[1, 0] * s * c == pytest.approx(
            x / (1 + x * x) ** 2, abs=1e-12
        )
        assert (
            shape.norm_b2 + 0.5 * c**2 - 0.5 * s**2 + s**4 - 2 * b[1, 0] * s**2
        ) == pytest.approx(1.0 / (1 + x * x) ** 2, abs=1e-12)


def test_vertical_plane_all_methods_zero():
    chart = vertical_plane_chart()
    u = [0.2, -0.4]
    rep, frame, shape = closed_form_report(chart, u)
    np.testing.assert_allclose(rep.coeffs, np.zeros(3), atol=1e-12)
    coeffs = shape_data(chart, chart_jets(chart, u), frame)[1]
    dh = mean_curvature_derivatives(chart, u, coeffs)
    for fn in (laplacian_h_type, laplacian_heisenberg):
        np.testing.assert_allclose(
            fn(heisenberg(1), frame, shape, dh).coeffs, np.zeros(3), atol=1e-12
        )
    num = laplacian_numeric(chart, u, frame=frame)
    assert np.abs(num.coeffs).max() < 1e-8


def test_report_terms_sum_to_coeffs():
    chart = foliation_leaf_chart()
    rep, _, _ = closed_form_report(chart, [0.9, 0.1])
    total = np.sum(list(rep.terms.values()), axis=0)
    np.testing.assert_allclose(total, rep.coeffs, atol=1e-12)
    assert rep.tangential_norm == pytest.approx(np.linalg.norm(rep.coeffs[:2]))
    assert rep.normal_coeff == rep.coeffs[2]


# ---------------------------------------------------------------------------
# specialization identities on random frame/shape samples


def test_specializations_on_random_samples():
    rng = np.random.default_rng(99)
    for alg in (heisenberg(1), heisenberg(2)):
        d, n = alg.dim_total, alg.n
        for _ in range(15):
            frame = adapted_frame(alg, random_unit(rng, d))
            shape = random_shape(rng, n)
            dh = rng.uniform(-1, 1, n)
            gen = laplacian_general(alg, frame, shape, dh)
            np.testing.assert_allclose(
                laplacian_h_type(alg, frame, shape, dh).coeffs, gen.coeffs, atol=1e-10
            )
            np.testing.assert_allclose(
                laplacian_heisenberg(alg, frame, shape, dh).coeffs,
                gen.coeffs,
                atol=1e-10,
            )
    quat = quaternionic_heisenberg()
    for _ in range(20):
        frame = adapted_frame(quat, random_unit(rng, 7))
        shape = random_shape(rng, quat.n)
        dh = rng.uniform(-1, 1, quat.n)
        gen = laplacian_general(quat, frame, shape, dh)
        np.testing.assert_allclose(
            laplacian_h_type(quat, frame, shape, dh).coeffs, gen.coeffs, atol=1e-10
        )


def test_h_type_central_normal_mixed_slot(h2):
    """Purely central normal: the mixed-slot coefficient is just -Y_q(nH)."""
    rng = np.random.default_rng(4)
    frame = adapted_frame(h2, np.eye(5)[4])
    shape = random_shape(rng, 4)
    dh = rng.uniform(-1, 1, 4)
    rep = laplacian_h_type(h2, frame, shape, dh)
    assert rep.coeffs[frame.q - 1] == pytest.approx(-dh[frame.q - 1], abs=1e-12)


def test_h_type_rejects_other_algebras(free5):
    rng = np.random.default_rng(1)
    frame = adapted_frame(free5, random_unit(rng, 5))
    shape = random_shape(rng, 4)
    with pytest.raises(ValueError, match="Heisenberg-type"):
        laplacian_h_type(free5, frame, shape, np.zeros(4))


def test_heisenberg_form_rejects_generic_frame(h2):
    rng = np.random.default_rng(2)
    frame = adapted_frame(h2, random_unit(rng, 5))
    object.__setattr__(frame, "special_heisenberg", False)
    with pytest.raises(ValueError, match="basis"):
        laplacian_heisenberg(h2, frame, random_shape(rng, 4), np.zeros(4))


# ---------------------------------------------------------------------------
# oracle equivalence on random charts (the central dual-route property)


@pytest.mark.parametrize("m,n_charts", [(1, 8), (2, 4)])
def test_oracle_equivalence_random_graphs(m, n_charts):
    alg = heisenberg(m)
    model = exp_model(alg)
    rng = np.random.default_rng(100 + m)
    n = alg.n
    for _ in range(n_charts):
        chart = random_graph_chart(model, rng)
        for u in rng.uniform(-0.45, 0.45, (3, n)):
            rep, frame, _ = closed_form_report(chart, u)
            num = laplacian_numeric(chart, u, frame=frame)
            gap = np.abs(rep.coeffs - num.coeffs)
            allowed = np.maximum(5e-4, 5e-4 * np.abs(rep.coeffs))
            assert (gap <= allowed).all()


def test_oracle_equivalence_multicenter(free5):
    """General form also matches the oracle when the center is 2-dimensional."""
    model = exp_model(free5)
    rng = np.random.default_rng(200)
    for _ in range(3):
        chart = random_graph_chart(model, rng)
        for u in rng.uniform(-0.4, 0.4, (2, 4)):
            rep, frame, _ = closed_form_report(chart, u)
            num = laplacian_numeric(chart, u, frame=frame)
            gap = np.abs(rep.coeffs - num.coeffs)
            allowed = np.maximum(5e-4, 5e-4 * np.abs(rep.coeffs))
            assert (gap <= allowed).all()


def test_oracle_equivalence_heisenberg_3():
    alg = heisenberg(3)
    model = exp_model(alg)
    rng = np.random.default_rng(77)
    chart = random_graph_chart(model, rng)
    for u in rng.uniform(-0.4, 0.4, (2, 6)):
        rep, frame, shape = closed_form_report(chart, u)
        num = laplacian_numeric(chart, u, frame=frame)
        assert np.abs(rep.coeffs - num.coeffs).max() < 5e-4
        coeffs = shape_data(chart, chart_jets(chart, u), frame)[1]
        dh = mean_curvature_derivatives(chart, u, coeffs)
        assert np.abs(laplacian_heisenberg(alg, frame, shape, dh).coeffs - rep.coeffs).max() < 1e-10


def test_oracle_equivalence_quaternionic_h_type():
    """3-dim center: exercises the central block and the h_type closed form."""
    quat = quaternionic_heisenberg()
    model = exp_model(quat)
    rng = np.random.default_rng(11)
    chart = random_graph_chart(model, rng)
    for u in rng.uniform(-0.35, 0.35, (2, 6)):
        rep, frame, shape = closed_form_report(chart, u)
        num = laplacian_numeric(chart, u, frame=frame)
        assert np.abs(rep.coeffs - num.coeffs).max() < 5e-4
        coeffs = shape_data(chart, chart_jets(chart, u), frame)[1]
        dh = mean_curvature_derivatives(chart, u, coeffs)
        assert np.abs(laplacian_h_type(quat, frame, shape, dh).coeffs - rep.coeffs).max() < 1e-10


def test_oracle_shares_nothing_with_the_closed_form(monkeypatch, h2):
    """The oracle runs with the closed form's second fundamental form and
    the coordinate Christoffels unavailable."""
    def unavailable(*args, **kwargs):
        raise AssertionError("the oracle reached closed-form geometry")

    monkeypatch.setattr("nilgauss.surfaces._second_fundamental", unavailable)
    monkeypatch.setattr("nilgauss.laplacian._second_fundamental", unavailable)
    monkeypatch.setattr("nilgauss.models.CoordinateModel.christoffels", unavailable)
    rng = np.random.default_rng(5)
    chart = random_graph_chart(exp_model(h2), rng)
    pts = rng.uniform(-0.4, 0.4, (3, 4))
    delta = oracle_laplacians(chart, stacked_chart_jets(chart, pts), pts)
    assert delta.shape == (3, 5) and np.isfinite(delta).all()
    assert np.isfinite(laplacian_numeric(chart, pts[0]).coeffs).all()


def test_frame_completion_robustness(h2):
    """Defect and normal coefficient ignore the Gram-Schmidt tie-break."""
    model = exp_model(h2)
    rng = np.random.default_rng(300)
    charts = [random_graph_chart(model, rng) for _ in range(3)]
    charts.append(graph_chart(model, "0", [(-0.5, 0.5)] * 4))  # central normal at 0
    for chart in charts:
        u = np.zeros(4)
        base = None
        for start in range(3):
            rep, frame, _ = closed_form_report(chart, u, completion_start=start)
            assert frame.gram_residual() < 1e-10
            if base is None:
                base = (rep.tangential_norm, rep.normal_coeff)
            else:
                assert rep.tangential_norm == pytest.approx(base[0], abs=1e-8)
                assert rep.normal_coeff == pytest.approx(base[1], abs=1e-8)


# ---------------------------------------------------------------------------
# harmonicity verdicts


def test_leaf_not_harmonic_at_0p7():
    chart = foliation_leaf_chart()
    rep, _, _ = closed_form_report(chart, [0.7, 0.0])
    verdict = harmonicity(rep, tol=1e-3)
    assert not verdict.harmonic
    assert verdict.defect == pytest.approx(0.7 / 1.49**2, abs=1e-12)
    assert verdict.energy_coeff == pytest.approx(-1.0 / 1.49**2, abs=1e-12)


def test_cylinders_harmonic():
    for f1, f2 in [("u1", "0"), ("cos(u1)", "sin(u1)")]:
        chart = cylinder_chart(f1, f2, (-0.6, 0.6), (-1, 1))
        rep, _, _ = closed_form_report(chart, [0.2, 0.3])
        assert harmonicity(rep, tol=1e-3).harmonic


def test_zero_report_harmonic():
    chart = vertical_plane_chart()
    rep, _, _ = closed_form_report(chart, [0.0, 0.0])
    verdict = harmonicity(rep)
    assert verdict.harmonic and verdict.defect == 0.0


# ---------------------------------------------------------------------------
# CMC/harmonicity coupling residuals


def test_coupling_residuals_vertical_plane():
    chart = vertical_plane_chart()
    u = [0.1, 0.1]
    frame = adapted_frame(heisenberg(1), gauss_map(chart, u))
    shape = shape_data(chart, chart_jets(chart, u), frame)[0]
    assert harmonicity_cmc_residuals(shape, frame) == (0.0, 0.0, 0.0)


def test_coupling_residual_leaf_value():
    """Second residual at the leaf is (1 + x^2)^(-3/2), nonzero off x = 0."""
    chart = foliation_leaf_chart()
    alg = heisenberg(1)
    for x in (0.7, 1.3):
        u = [x, 0.0]
        frame = adapted_frame(alg, gauss_map(chart, u))
        shape = shape_data(chart, chart_jets(chart, u), frame)[0]
        r1, r2, r3 = harmonicity_cmc_residuals(shape, frame)
        assert r1 == 0.0  # empty index set for m = 1
        assert r2 == pytest.approx((1 + x * x) ** -1.5, abs=1e-12)
        rep, _, _ = closed_form_report(chart, u)
        assert not harmonicity(rep).harmonic  # consistent with the residual


def test_coupling_residuals_cylinder_family():
    for f1, f2 in [("u1", "0.5*u1"), ("cos(u1)", "sin(u1)"), ("2*cos(u1)", "2*sin(u1)")]:
        chart = cylinder_chart(f1, f2, (-0.6, 0.6), (-1, 1))
        for s in (-0.4, 0.3):
            u = [s, 0.2]
            frame = adapted_frame(heisenberg(1), gauss_map(chart, u))
            shape = shape_data(chart, chart_jets(chart, u), frame)[0]
            assert max(harmonicity_cmc_residuals(shape, frame)) < 1e-6


def test_coupling_reverse_direction():
    """Structure equations plus constant H force a harmonic Gauss map."""
    # cylinders satisfy the structure equations identically; constant-curvature
    # profiles make H constant, so the defect must vanish
    chart = cylinder_chart("1 + cos(u1)", "sin(u1)", (0.3, 1.4), (-1, 1))
    for u in ([0.5, 0.0], [1.0, 0.4]):
        rep, frame, shape = closed_form_report(chart, u)
        assert max(harmonicity_cmc_residuals(shape, frame)) < 1e-6
        assert rep.tangential_norm < 5e-4


def test_evaluate_point_carries_general_and_matches_single_views():
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    u = [0.2, 0.1]
    ev = evaluate_point(chart, u, ["heisenberg", "numeric_oracle"])
    assert list(ev.reports) == ["general", "heisenberg", "numeric_oracle"]
    for method in ("general", "heisenberg"):
        rep, frame, shape = closed_form_report(chart, u, method)
        np.testing.assert_array_equal(rep.coeffs, ev.reports[method].coeffs)
        np.testing.assert_array_equal(frame.ys, ev.frame.ys)
        assert shape.h == ev.shape.h
    oracle = laplacian_numeric(chart, u, frame=ev.frame)
    np.testing.assert_array_equal(oracle.coeffs, ev.reports["numeric_oracle"].coeffs)


def test_coupling_requires_special_frame(free5):
    rng = np.random.default_rng(3)
    frame = adapted_frame(free5, random_unit(rng, 5))
    with pytest.raises(ValueError, match="basis"):
        harmonicity_cmc_residuals(random_shape(rng, 4), frame)


# ---------------------------------------------------------------------------
# Jacobi equation


def test_jacobi_vertical_plane():
    chart = vertical_plane_chart()
    pts = [np.array([s, t]) for s in (-0.4, 0.0, 0.4) for t in (-0.4, 0.4)]
    rep = jacobi_residuals(chart, [evaluate_point(chart, u) for u in pts], [0.0, 1.0, 0.0])
    assert rep.max_residual < 1e-12
    assert rep.min_w == pytest.approx(1.0)
    assert rep.cmc_ok and rep.harmonic_ok
    # the potential itself: Ric(L, L) + |B|^2 = -1/2 + 1/2 = 0
    alg = heisenberg(1)
    assert ricci(alg, np.array([0, 1.0, 0]), np.array([0, 1.0, 0])) == pytest.approx(-0.5)


def test_jacobi_direction_orthogonal_gives_zero():
    chart = vertical_plane_chart()
    pts = [np.array([0.0, 0.0]), np.array([0.3, -0.2])]
    evals = [evaluate_point(chart, u) for u in pts]
    rep = jacobi_residuals(chart, evals, [0.0, 0.0, 1.0])  # v orthogonal to G = L
    assert rep.max_residual < 1e-12
    assert abs(rep.min_w) < 1e-12


def test_jacobi_circular_arc_cylinder():
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    pts = [np.array([s, t]) for s in (-0.45, 0.0, 0.45) for t in (-0.5, 0.5)]
    mean_g = np.mean([gauss_map(chart, u) for u in pts], axis=0)
    rep = jacobi_residuals(
        chart, [evaluate_point(chart, u) for u in pts], mean_g / np.linalg.norm(mean_g)
    )
    assert rep.max_residual < 5e-4
    assert rep.min_w > 0.0  # image in an open hemisphere: stability certificate
    assert rep.cmc_ok and rep.harmonic_ok


def test_pointwise_subharmonicity_identity():
    """Delta <G, v> = -(|B|^2 + Ric(n, n)) <G, v> on harmonic CMC charts."""
    alg = heisenberg(1)
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    rng = np.random.default_rng(8)
    v = random_unit(rng, 3)
    for u in ([0.2, 0.1], [-0.3, -0.4]):
        w = float(gauss_map(chart, u) @ v)
        lw = laplace_beltrami_scalar(chart, u, lambda pts: gauss_map(chart, pts) @ v)
        frame = adapted_frame(alg, gauss_map(chart, u))
        shape = shape_data(chart, chart_jets(chart, u), frame)[0]
        pot = shape.norm_b2 + ricci(alg, frame.normal, frame.normal)
        assert lw == pytest.approx(-pot * w, abs=5e-4)


CYLINDER_PROFILES = [
    ("u1", "0"),
    ("u1", "0.5*u1"),
    ("cos(u1)", "sin(u1)"),
    ("2*cos(u1)", "2*sin(u1)"),
    ("1 + cos(u1)", "sin(u1)"),
]


@pytest.mark.parametrize("f1, f2", CYLINDER_PROFILES)
def test_jacobi_reads_the_oracle_laplacian(f1, f2):
    """Delta <G, v> from the oracle's Delta G equals the Laplace-Beltrami
    operator applied to the scalar field <G, v> itself."""
    alg = heisenberg(1)
    chart = cylinder_chart(f1, f2, (-0.6, 0.6), (-1.0, 1.0))
    pts = np.array([[s, t] for s in (-0.45, 0.0, 0.45) for t in (-0.5, 0.5)])
    evals = evaluate_points(chart, pts)
    v = np.mean([ev.frame.normal for ev in evals], axis=0)
    v /= np.linalg.norm(v)
    expected = 0.0
    for ev in evals:
        normal = ev.frame.normal
        lw = laplace_beltrami_scalar(chart, ev.u, lambda p: gauss_map(chart, p) @ v)
        pot = ev.shape.norm_b2 + ricci(alg, normal, normal)
        expected = max(expected, abs(lw + pot * float(normal @ v)))
    rep = jacobi_residuals(chart, evals, v)
    assert rep.max_residual == pytest.approx(expected, abs=1e-6)


def test_jacobi_makes_one_oracle_call_for_records_without_one(monkeypatch):
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    pts = np.array([[s, t] for s in (-0.45, 0.0, 0.45) for t in (-0.5, 0.5)])
    bare = evaluate_points(chart, pts)
    with_oracle = evaluate_points(chart, pts, ["numeric_oracle"])
    calls = []

    def counted(chart_, p):
        calls.append(len(p))
        return gauss_map(chart_, p)

    monkeypatch.setattr("nilgauss.laplacian.gauss_map", counted)
    v = [0.3, 0.9, 0.1]
    reference = jacobi_residuals(chart, with_oracle, v)
    assert calls == []
    assert jacobi_residuals(chart, bare, v) == reference
    assert calls == [len(pts) * 13]  # centre and 2 levels of 6 neighbours per point


def test_jacobi_without_oracle_reevaluates_no_centre(monkeypatch):
    """Records without an oracle Delta G: one gauss_map call, whose stencil of
    first-order chart rows is the only chart evaluation; the metric coefficients
    come from the records' ChartJet rows."""
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    pts = np.array([[s, t] for s in (-0.45, 0.0, 0.45) for t in (-0.5, 0.5)])
    bare = evaluate_points(chart, pts)
    reference = jacobi_residuals(chart, evaluate_points(chart, pts, ["numeric_oracle"]), [0.3, 0.9, 0.1])
    maps, rows = [], []

    def counted_map(chart_, p):
        maps.append(len(p))
        return gauss_map(chart_, p)

    def counted_jets(exprs, p, order=2):
        rows.append((len(p), order))
        return expression_jets(exprs, p, order)

    monkeypatch.setattr("nilgauss.laplacian.gauss_map", counted_map)
    monkeypatch.setattr("nilgauss.surfaces.expression_jets", counted_jets)
    assert jacobi_residuals(chart, bare, [0.3, 0.9, 0.1]) == reference
    assert maps == [len(pts) * 13]
    assert rows == [(len(pts) * 13, 1)]


# ---------------------------------------------------------------------------
# one batched evaluation against its one-point view

ALGEBRAS = {
    "h1": heisenberg(1),
    "h2": heisenberg(2),
    "free5": free_two_step_5d(),
    "quat7": quaternionic_heisenberg(),
}


def assert_same_record(a, b):
    np.testing.assert_array_equal(a.u, b.u)
    for name in ("ys", "x_q", "z_q", "x_n1", "z_n1"):
        np.testing.assert_array_equal(getattr(a.frame, name), getattr(b.frame, name))
    assert (a.frame.lam, a.frame.mu) == (b.frame.lam, b.frame.mu)
    np.testing.assert_array_equal(a.shape.b, b.shape.b)
    assert (a.shape.h, a.shape.norm_b2) == (b.shape.h, b.shape.norm_b2)
    np.testing.assert_array_equal(a.dh, b.dh)
    assert (a.delta is None) == (b.delta is None)
    if a.delta is not None:
        np.testing.assert_array_equal(a.delta, b.delta)
    assert list(a.reports) == list(b.reports)
    for method, rep in a.reports.items():
        np.testing.assert_array_equal(rep.coeffs, b.reports[method].coeffs)
        assert rep.tangential_norm == b.reports[method].tangential_norm


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(ALGEBRAS)),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    completion_start=st.integers(0, 2),
    data=st.data(),
)
def test_evaluate_points_rows_equal_evaluate_point(name, count, seed, completion_start, data):
    alg = ALGEBRAS[name]
    valid = ["general", "numeric_oracle"]
    valid += ["h_type"] if alg.is_h_type else []
    valid += ["heisenberg"] if alg.is_heisenberg else []
    methods = data.draw(st.lists(st.sampled_from(valid), min_size=1, unique=True))
    rng = np.random.default_rng(seed)
    chart = random_graph_chart(exp_model(alg), rng, terms=4)
    pts = rng.uniform(-0.45, 0.45, (count, chart.param_dim))
    evals = evaluate_points(chart, pts, methods, completion_start=completion_start)
    assert len(evals) == count
    for u, ev in zip(pts, evals):
        assert_same_record(ev, evaluate_point(chart, u, methods, completion_start=completion_start))


def test_evaluate_points_one_field_call_per_stage(monkeypatch):
    """Centres, Y_k(n H) rows and oracle stencils: one chart evaluation each."""
    chart = random_graph_chart(exp_model(heisenberg(2)), np.random.default_rng(2), terms=4)
    pts = np.random.default_rng(3).uniform(-0.4, 0.4, (6, 4))
    sizes = []

    def counted(exprs, p, order=2):
        sizes.append(len(p))
        return expression_jets(exprs, p, order)

    monkeypatch.setattr("nilgauss.surfaces.expression_jets", counted)
    evaluate_points(chart, pts, ["general", "numeric_oracle"])
    # one complex-step row per direction, n directions per point; the oracle
    # stencil holds the centre and levels * (2n + 2 n(n-1)/2) rows
    assert sizes == [6, 6 * 4, 6 * (1 + 2 * (8 + 12))]


def test_complex_step_rows_go_in_chunks_and_stay_only_in_3d(monkeypatch):
    """At most FIELD_ROWS / 2 complex-step rows per chart evaluation, whole points
    each, with the records unchanged bit for bit; a record outside a 3-dimensional
    model keeps no complex-step rows."""
    chart = random_graph_chart(exp_model(heisenberg(2)), np.random.default_rng(4), terms=4)
    pts = np.random.default_rng(5).uniform(-0.4, 0.4, (5, 4))
    whole = evaluate_points(chart, pts, ["general", "h_type"])
    sizes = []

    def counted(exprs, p, order=2):
        sizes.append(len(p))
        return expression_jets(exprs, p, order)

    monkeypatch.setattr("nilgauss.surfaces.expression_jets", counted)
    monkeypatch.setattr("nilgauss.laplacian.FIELD_ROWS", 16)  # two points of 4 rows
    chunked = evaluate_points(chart, pts, ["general", "h_type"])
    assert sizes == [5, 8, 8, 4]
    for a, b in zip(whole, chunked):
        assert_same_record(a, b)
        assert a.steps is None and b.steps is None


def test_fd_moves_no_closed_form_row_gauss_codazzi_or_corollary1():
    """fd reaches the oracle only: closed-form reports, Y_k(n H), Gauss-Codazzi
    results and corollary1 are bit for bit the same under any FDParams."""
    h2_chart = random_graph_chart(exp_model(heisenberg(2)), np.random.default_rng(5), terms=4)
    h2_pts = np.random.default_rng(6).uniform(-0.4, 0.4, (4, 4))
    cylinder = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    leaf = foliation_leaf_chart()
    grid = np.array([[x, y] for x in (-0.5, 0.3) for y in (-0.2, 0.4)])
    outcomes = []
    for fd in (FDParams(), FDParams(step=1e-3, levels=1)):
        evals = evaluate_points(h2_chart, h2_pts, ["general", "h_type", "heisenberg"], fd)
        rows = [(ev.dh, [rep.coeffs for rep in ev.reports.values()]) for ev in evals]
        gc = gauss_codazzi_residuals(leaf, evaluate_points(leaf, grid, fd=fd))
        corollary1 = central_h_variation(cylinder, evaluate_points(cylinder, grid, fd=fd))
        outcomes.append((rows, gc, corollary1))
    (rows, gc, corollary1), (rows_b, gc_b, corollary1_b) = outcomes
    for (dh, coeffs), (dh_b, coeffs_b) in zip(rows, rows_b):
        np.testing.assert_array_equal(dh, dh_b)
        for a, b in zip(coeffs, coeffs_b):
            np.testing.assert_array_equal(a, b)
    assert gc == gc_b and not gc[0].skipped
    assert corollary1 == corollary1_b and not corollary1.skipped


def test_complex_step_size_moves_nothing(monkeypatch):
    """Y_k(n H) and the Gauss-Codazzi results agree to rounding at h = 1e-20 and
    1e-30: the complex step takes no difference, so no step trades truncation
    against cancellation."""
    h2_chart = random_graph_chart(exp_model(heisenberg(2)), np.random.default_rng(7), terms=4)
    h2_pts = np.random.default_rng(8).uniform(-0.4, 0.4, (4, 4))
    leaf = GC_CHARTS["exp_h1"](1)
    gc_pts = np.array(GC_POINTS)
    outcomes = []
    for h in (1e-20, 1e-30):
        monkeypatch.setattr("nilgauss.surfaces.COMPLEX_STEP", h)
        dh = np.array([ev.dh for ev in evaluate_points(h2_chart, h2_pts)])
        gc = gauss_codazzi_residuals(leaf, evaluate_points(leaf, gc_pts))
        outcomes.append((dh, gc))
    (dh, gc), (dh_b, gc_b) = outcomes
    assert np.abs(dh).max() > 0.1
    np.testing.assert_allclose(dh_b, dh, rtol=1e-14, atol=1e-15)
    for one, other in zip(gc, gc_b):
        assert not one.skipped
        for field in ("codazzi_residual", "gauss_residual"):
            assert abs(getattr(one, field) - getattr(other, field)) <= 1e-15


def test_evaluate_points_one_chart_direction_solve(monkeypatch):
    """The frame vectors of all points go to one chart_coefficients call; no lstsq."""
    chart = random_graph_chart(exp_model(heisenberg(2)), np.random.default_rng(2), terms=4)
    pts = np.random.default_rng(3).uniform(-0.4, 0.4, (6, 4))
    shapes, lstsq_calls = [], []

    def counted(cj, vecs):
        shapes.append(np.shape(vecs))
        return chart_coefficients(cj, vecs)

    def counted_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return lstsq(*args, **kwargs)

    lstsq = np.linalg.lstsq
    monkeypatch.setattr("nilgauss.surfaces.chart_coefficients", counted)
    monkeypatch.setattr("nilgauss.laplacian.chart_coefficients", counted)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    evaluate_points(chart, pts, ["general", "h_type", "heisenberg", "numeric_oracle"])
    assert shapes == [(6, 4, 5)]
    assert lstsq_calls == []


# ---------------------------------------------------------------------------
# central mean-curvature variation


def test_central_variation_cylinder():
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    pts = [np.array([s, 0.0]) for s in (-0.3, 0.0, 0.3)]
    rep = central_h_variation(chart, [evaluate_point(chart, u) for u in pts])
    assert not rep.skipped
    assert rep.max_variation < 1e-8


def test_central_variation_skipped_for_non_harmonic():
    chart = foliation_leaf_chart()
    rep = central_h_variation(chart, [evaluate_point(chart, np.array([0.7, 0.0]))])
    assert rep.skipped
    assert rep.max_variation is None


def test_central_variation_harmonic_h2_chart(h2):
    model = exp_model(h2)
    chart = expression_chart(
        model, ["0", "u1", "u2", "u3", "u4"], [(-0.8, 0.8)] * 4
    )
    pts = [np.array([0.1, -0.2, 0.3, 0.0]), np.array([-0.2, 0.1, 0.0, 0.2])]
    rep = central_h_variation(chart, [evaluate_point(chart, u) for u in pts])
    assert not rep.skipped
    assert rep.max_variation < 5e-4


def test_central_variation_makes_no_chart_evaluation(monkeypatch):
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    evals = [evaluate_point(chart, np.array([s, 0.2])) for s in (-0.3, 0.3)]

    def no_evaluation(*args, **kwargs):
        raise AssertionError("the chart was evaluated")

    monkeypatch.setattr("nilgauss.surfaces.stacked_chart_jets", no_evaluation)
    rep = central_h_variation(chart, evals)
    assert not rep.skipped
    assert rep.max_variation < 1e-8


def test_central_variation_reads_central_frame_derivatives(free5):
    """With the gate open, the value is max |Z(H)| over central frame vectors Z."""
    chart = graph_chart(exp_model(free5), "0.3*u1*u2 + 0.2*sin(u3) + 0.1*u4*u1", [(-0.8, 0.8)] * 4)
    pts = [np.array([0.1, -0.2, 0.3, 0.0]), np.array([-0.2, 0.1, 0.0, 0.2])]
    evals = [evaluate_point(chart, u) for u in pts]
    rep = central_h_variation(chart, evals, tol=np.inf)
    h_field = lambda p: mean_curvature(chart, p)
    expected = 0.0
    for ev in evals:
        # tangent frame vectors with no horizontal part
        zs = [y for y in ev.frame.ys[:-1] if np.linalg.norm(y[: free5.dim_v]) < 1e-9]
        assert zs
        for z in zs:
            coeff = chart_coefficients(chart_jets(chart, ev.u), z)
            deriv = directional_derivative(h_field, ev.u, coeff, domain=chart.domain)
            expected = max(expected, abs(deriv))
    assert expected > 1e-5
    assert rep.max_variation == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# Gauss-Codazzi residuals


def test_gauss_codazzi_identity_exact():
    """<R(F1, F2) F1, normal> equals the product of the two normal norms."""
    chart = foliation_leaf_chart()
    for x in (0.4, 0.9, 1.6):
        res = gauss_codazzi_residuals(chart, evaluate_point(chart, [x, 0.0]))
        assert not res.skipped
        assert res.curvature_term == pytest.approx(res.ab_product, abs=1e-10)


def test_gauss_codazzi_leaf_residuals():
    chart = foliation_leaf_chart()
    for x in np.linspace(0.35, 2.0, 10):
        res = gauss_codazzi_residuals(chart, evaluate_point(chart, [x, 0.0]))
        assert res.codazzi_residual < 5e-4
        assert res.gauss_residual < 5e-4


def test_gauss_codazzi_skips_degenerate_normal():
    leaf, plane = foliation_leaf_chart(), vertical_plane_chart()
    assert gauss_codazzi_residuals(leaf, evaluate_point(leaf, [0.0, 0.0])).skipped
    assert gauss_codazzi_residuals(plane, evaluate_point(plane, [0.1, 0.1])).skipped


def test_gauss_codazzi_abelian_limit():
    model = exp_model(abelian_3d())
    chart = expression_chart(
        model, ["u1", "u2", "0.4*u1 + 0.7*u2"], [(-1, 1), (-1, 1)]
    )
    res = gauss_codazzi_residuals(chart, evaluate_point(chart, [0.1, -0.2]))
    assert not res.skipped
    assert res.codazzi_residual < 1e-8
    assert res.gauss_residual < 1e-8
    assert res.curvature_term == pytest.approx(0.0, abs=1e-12)


def test_gauss_codazzi_requires_3d():
    model = exp_model(heisenberg(2))
    chart = graph_chart(model, "0", [(-1, 1)] * 4)
    ev = evaluate_point(chart, [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="3-dimensional"):
        gauss_codazzi_residuals(chart, ev)


def forbid_chart_evaluation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a chart, frame or Gauss map was evaluated, or an FD stencil taken")

    for name in ("expression_jets", "adapted_frame", "gauss_map"):
        monkeypatch.setattr(f"nilgauss.surfaces.{name}", forbidden)
    for name in ("adapted_frame", "gauss_map", "gradient_hessian"):
        monkeypatch.setattr(f"nilgauss.laplacian.{name}", forbidden)
    monkeypatch.setattr("nilgauss.fd._stencil_values", forbidden)


def test_gauss_codazzi_evaluates_no_chart_and_no_frames(monkeypatch):
    """One record at a time: h, Gamma and their derivatives come from the record's
    ChartJet and complex-step rows; no chart, adapted frame or gauss_map call."""
    chart = foliation_leaf_chart()
    evals = [evaluate_point(chart, [x, 0.0]) for x in (0.0, 0.5, 1.2)]  # x = 0 is skipped
    forbid_chart_evaluation(monkeypatch)
    results = [gauss_codazzi_residuals(chart, ev) for ev in evals]
    assert [res.skipped for res in results] == [True, False, False]
    assert max(max(res.codazzi_residual, res.gauss_residual) for res in results[1:]) < 1e-13


GC_CHARTS = {
    "nil_graph": lambda orientation: graph_chart(
        nil_polarized_model(), "0.3*u1*u2 + 0.2*sin(u1) - 0.1*u2^2", [(-1, 1)] * 2, orientation
    ),
    "exp_h1": lambda orientation: expression_chart(
        exp_model(heisenberg(1)),
        ["u1 + 0.1*u2^2", "u2", "0.3*u1*u2 + 0.2*cos(u1)"],
        [(-1, 1)] * 2,
        orientation,
    ),
}
GC_POINTS = ([0.2, -0.3], [0.5, 0.4], [-0.4, 0.1])


@pytest.mark.parametrize("name", GC_CHARTS)
def test_gauss_codazzi_residuals_at_rounding_level(name):
    chart = GC_CHARTS[name](1)
    for u in GC_POINTS:
        res = gauss_codazzi_residuals(chart, evaluate_point(chart, u))
        assert not res.skipped
        assert res.codazzi_residual < 1e-10
        assert res.gauss_residual < 1e-10


@pytest.mark.parametrize("name", GC_CHARTS)
def test_gauss_codazzi_orientation_invariance(name):
    for u in GC_POINTS:
        plus, minus = (
            gauss_codazzi_residuals(chart, evaluate_point(chart, u))
            for chart in (GC_CHARTS[name](1), GC_CHARTS[name](-1))
        )
        assert minus.skipped == plus.skipped
        assert minus.codazzi_residual == pytest.approx(plus.codazzi_residual, abs=1e-10)
        assert minus.gauss_residual == pytest.approx(plus.gauss_residual, abs=1e-10)


def _nil_graph_central_point():
    """The point of the nil_graph chart where its normal is central: f_u1 = 0 and
    f_u2 = u1 for f = 0.3 u1 u2 + 0.2 sin u1 - 0.1 u2^2, so u2 = -3.5 u1."""
    x = 0.2
    for _ in range(8):
        x -= (-1.05 * x + 0.2 * np.cos(x)) / (-1.05 - 0.2 * np.sin(x))
    return [x, -3.5 * x]


GC_GRIDS = {
    # each grid holds skipped records: a central normal at u1 = 0 on the leaf,
    # at the origin of exp_h1 and at one computed point of nil_graph
    "leaf": (
        foliation_leaf_chart,
        [[x, y] for x in np.linspace(-1.5, 1.5, 5) for y in (-0.4, 0.0, 0.4)],
    ),
    "nil_graph": (
        lambda: GC_CHARTS["nil_graph"](1),
        [[x, y] for x in (-0.6, 0.1, 0.7) for y in (-0.5, 0.5)] + [_nil_graph_central_point()],
    ),
    "exp_h1": (
        lambda: GC_CHARTS["exp_h1"](1),
        [[x, y] for x in np.linspace(-0.8, 0.8, 5) for y in np.linspace(-0.8, 0.8, 3)],
    ),
}
GC_FIELDS = ("codazzi_residual", "gauss_residual", "curvature_term", "ab_product")


@pytest.mark.parametrize("name", GC_GRIDS)
def test_gauss_codazzi_list_equals_per_record_calls(name):
    build, points = GC_GRIDS[name]
    chart = build()
    evals = evaluate_points(chart, np.array(points))
    stacked = gauss_codazzi_residuals(chart, evals)
    single = [gauss_codazzi_residuals(chart, ev) for ev in evals]
    assert len(stacked) == len(evals)
    assert 0 < sum(res.skipped for res in single) < len(evals)
    for one, row in zip(single, stacked):
        assert row.skipped == one.skipped
        for field in GC_FIELDS:
            if one.skipped:
                assert getattr(row, field) is None
            else:
                assert abs(getattr(row, field) - getattr(one, field)) <= 1e-15


def test_gauss_codazzi_list_evaluates_no_chart(monkeypatch):
    """k evaluated records: one _gc_field call, on their 2 k complex-step rows, which
    gives h and Gamma (real parts) and their derivatives, and no chart evaluation."""
    chart = foliation_leaf_chart()
    evals = evaluate_points(chart, np.array([[x, 0.2] for x in (-1.0, 0.0, 0.4, 1.3)]))
    rows = []

    def counted(chart_, cj):
        rows.append((len(cj.point), np.iscomplexobj(cj.point)))
        return _gc_field(chart_, cj)

    forbid_chart_evaluation(monkeypatch)
    monkeypatch.setattr("nilgauss.laplacian._gc_field", counted)
    results = gauss_codazzi_residuals(chart, evals)
    assert [res.skipped for res in results] == [False, True, False, False]
    assert rows == [(2 * 3, True)]


def test_gauss_codazzi_all_skipped_evaluates_no_chart(monkeypatch):
    chart = foliation_leaf_chart()
    evals = evaluate_points(chart, np.array([[0.0, y] for y in (-0.5, 0.0, 0.5)]))

    def no_evaluation(*args, **kwargs):
        raise AssertionError("the chart was evaluated")

    for name in ("stacked_chart_jets", "chart_jets", "_gc_field", "complex_derivative"):
        monkeypatch.setattr(f"nilgauss.laplacian.{name}", no_evaluation)
    assert [res.skipped for res in gauss_codazzi_residuals(chart, evals)] == [True] * 3
    assert gauss_codazzi_residuals(chart, []) == []
