import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgauss import (
    adapted_frame,
    central_h_variation,
    closed_form_report,
    cylinder_chart,
    evaluate_points,
    expression_chart,
    exp_model,
    foliation_leaf_chart,
    gauss_codazzi_residuals,
    gauss_map,
    graph_chart,
    harmonicity_cmc_residuals,
    heisenberg,
    jacobi_residuals,
    laplace_beltrami_scalar,
    laplacian_general,
    laplacian_h_type,
    laplacian_heisenberg,
    laplacian_numeric,
    nil_polarized_model,
    random_graph_chart,
    ricci,
    shape_data,
    vertical_plane_chart,
)
from nilgauss.cli import NEEDS, load_config, run
from nilgauss.curvature import curvature
from nilgauss.expressions import expression_jets
from nilgauss.fd import FDParams, directional_derivative
from nilgauss.laplacian import _gc_field, oracle_laplacians
from nilgauss.surfaces import (
    ShapeData,
    _second_fundamental,
    chart_coefficients,
    chart_jets,
    complex_step_jets,
    induced_metric_with_gradient,
    mean_curvature,
    stacked_chart_jets,
)
from conftest import (abelian_3d, assert_oracle_allowance, free_two_step_5d, gram_residual, lam, mu,
                      quaternionic_heisenberg, random_unit)


def leaf_target(x):
    return np.array([0.0, -x / (1 + x * x) ** 2, -1.0 / (1 + x * x) ** 2])


def over_records(checker, records):
    """A checker's arrays over each record, concatenated: one row per point of the records."""
    return [np.concatenate(arrays) for arrays in zip(*map(checker, records))]


def random_shape(rng, n):
    """A random symmetric b as a ShapeData stack of one."""
    b = rng.uniform(-1, 1, (n, n))
    b = 0.5 * (b + b.T)
    return ShapeData(b=b[None], h=np.array([np.trace(b) / n]), norm_b2=np.array([(b * b).sum()]))


# ---------------------------------------------------------------------------
# closed form against known values


def test_abelian_sphere_patch():
    """Euclidean identity: Delta G = -|B|^2 G for a sphere normal."""
    model = exp_model(abelian_3d())
    chart = graph_chart(model, "-sqrt(4 - u1^2 - u2^2)", [(-0.6, 0.6), (-0.6, 0.6)])
    for u in ([0.0, 0.0], [0.3, -0.2]):
        rep, _, shape = closed_form_report(chart, u)
        assert shape.norm_b2 == pytest.approx(0.5, abs=1e-10)  # 2 / R^2, R = 2
        assert rep.tangential_norm < 1e-10
        assert rep.normal_coeff == pytest.approx(-shape.norm_b2, abs=1e-12)
        num = laplacian_numeric(chart, u)
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
    reports = evaluate_points(foliation_leaf_chart(), [[x, 0.0]], ["general", "heisenberg"]).reports
    np.testing.assert_allclose(reports["general"].coeffs[0], leaf_target(x), atol=1e-12)
    # same through the specialized Heisenberg form
    np.testing.assert_allclose(reports["heisenberg"].coeffs, reports["general"].coeffs, atol=1e-12)


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
        frame = adapted_frame(alg, gauss_map(chart, [u]))[0]
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
    ev = evaluate_points(vertical_plane_chart(), [[0.2, -0.4]], ["general", "h_type", "heisenberg", "numeric_oracle"])
    for method in ("general", "h_type", "heisenberg"):
        np.testing.assert_allclose(ev.reports[method].coeffs, np.zeros((1, 3)), atol=1e-12)
    assert np.abs(ev.reports["numeric_oracle"].coeffs).max() < 1e-8


def test_report_norms_are_read_off_coeffs():
    """The report's norms are read off its coefficients."""
    chart = foliation_leaf_chart()
    rep, _, _ = closed_form_report(chart, [0.9, 0.1])
    assert rep.tangential_norm == pytest.approx(np.linalg.norm(rep.coeffs[:2]))
    assert rep.normal_coeff == rep.coeffs[2]


# ---------------------------------------------------------------------------
# specialization identities on random frame/shape samples


def test_specializations_on_random_samples():
    rng = np.random.default_rng(99)
    for alg in (heisenberg(1), heisenberg(2)):
        d, n = alg.dim_total, alg.n
        for _ in range(15):
            frame = adapted_frame(alg, random_unit(rng, d)[None])
            shape = random_shape(rng, n)
            dh = rng.uniform(-1, 1, (1, n))
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
        frame = adapted_frame(quat, random_unit(rng, 7)[None])
        shape = random_shape(rng, quat.n)
        dh = rng.uniform(-1, 1, (1, quat.n))
        gen = laplacian_general(quat, frame, shape, dh)
        np.testing.assert_allclose(
            laplacian_h_type(quat, frame, shape, dh).coeffs, gen.coeffs, atol=1e-10
        )


def test_zero_dh_gives_no_negative_zero(quat7):
    """The central slots hold only -Y_k(n H): 0.0 when dh vanishes, never a -0.0 for the JSON."""
    rng = np.random.default_rng(8)
    frame, shape = adapted_frame(quat7, random_unit(rng, 7)[None]), random_shape(rng, quat7.n)
    for form in (laplacian_general, laplacian_h_type):
        central = form(quat7, frame, shape, np.zeros((1, quat7.n))).coeffs[0, quat7.dim_v:quat7.n]
        assert (central == 0.0).all() and not np.signbit(central).any()


def test_h_type_central_normal_mixed_slot(h2):
    """Purely central normal: the mixed-slot coefficient is just -Y_q(nH)."""
    rng = np.random.default_rng(4)
    frame = adapted_frame(h2, np.eye(5)[4:])
    shape = random_shape(rng, 4)
    dh = rng.uniform(-1, 1, (1, 4))
    rep = laplacian_h_type(h2, frame, shape, dh)
    assert rep.coeffs[0, frame.q - 1] == pytest.approx(-dh[0, frame.q - 1], abs=1e-12)


def test_h_type_rejects_other_algebras(free5):
    rng = np.random.default_rng(1)
    frame = adapted_frame(free5, random_unit(rng, 5)[None])
    shape = random_shape(rng, 4)
    with pytest.raises(ValueError, match="Heisenberg-type"):
        laplacian_h_type(free5, frame, shape, np.zeros((1, 4)))


def test_heisenberg_form_rejects_generic_frame(h2):
    rng = np.random.default_rng(2)
    frame = adapted_frame(h2, random_unit(rng, 5)[None])
    object.__setattr__(frame, "special_heisenberg", False)
    with pytest.raises(ValueError, match="basis"):
        laplacian_heisenberg(h2, frame, random_shape(rng, 4), np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# oracle equivalence on random charts (the central dual-route property)


@pytest.mark.parametrize("m,n_charts", [(1, 8), (2, 4)])
def test_oracle_equivalence_random_graphs(m, n_charts):
    alg = heisenberg(m)
    model = exp_model(alg)
    rng = np.random.default_rng(100 + m)
    n = alg.n
    for k in range(n_charts):
        chart = random_graph_chart(model, (100 + m) * 100 + k)
        points = rng.uniform(-0.45, 0.45, (3, n))
        assert_oracle_allowance(evaluate_points(chart, points, ["general", "numeric_oracle"]))


def test_oracle_equivalence_multicenter(free5):
    """General form also matches the oracle when the center is 2-dimensional."""
    model = exp_model(free5)
    rng = np.random.default_rng(200)
    for k in range(3):
        chart = random_graph_chart(model, 200 * 100 + k)
        points = rng.uniform(-0.4, 0.4, (2, 4))
        assert_oracle_allowance(evaluate_points(chart, points, ["general", "numeric_oracle"]))


def test_oracle_equivalence_heisenberg_3():
    alg = heisenberg(3)
    model = exp_model(alg)
    rng = np.random.default_rng(77)
    chart = random_graph_chart(model, 77)
    ev = evaluate_points(chart, rng.uniform(-0.4, 0.4, (2, 6)), ["general", "heisenberg", "numeric_oracle"])
    rep = ev.reports["general"]
    assert np.abs(rep.coeffs - ev.reports["numeric_oracle"].coeffs).max() < 5e-4
    assert np.abs(ev.reports["heisenberg"].coeffs - rep.coeffs).max() < 1e-10


def test_oracle_equivalence_quaternionic_h_type():
    """3-dim center: exercises the central block and the h_type closed form."""
    quat = quaternionic_heisenberg()
    model = exp_model(quat)
    rng = np.random.default_rng(11)
    chart = random_graph_chart(model, 11)
    ev = evaluate_points(chart, rng.uniform(-0.35, 0.35, (2, 6)), ["general", "h_type", "numeric_oracle"])
    rep = ev.reports["general"]
    assert np.abs(rep.coeffs - ev.reports["numeric_oracle"].coeffs).max() < 5e-4
    assert np.abs(ev.reports["h_type"].coeffs - rep.coeffs).max() < 1e-10


def test_oracle_shares_nothing_with_the_closed_form(monkeypatch, h2):
    """The oracle runs with the closed form's second fundamental form and
    the coordinate Christoffels unavailable."""
    def unavailable(*args, **kwargs):
        raise AssertionError("the oracle reached closed-form geometry")

    monkeypatch.setattr("nilgauss.surfaces._second_fundamental", unavailable)
    monkeypatch.setattr("nilgauss.laplacian._second_fundamental", unavailable)
    monkeypatch.setattr("nilgauss.models.CoordinateModel.christoffels", unavailable)
    rng = np.random.default_rng(5)
    chart = random_graph_chart(exp_model(h2), 5)
    pts = rng.uniform(-0.4, 0.4, (3, 4))
    delta = oracle_laplacians(chart, stacked_chart_jets(chart, pts), pts)
    assert delta.shape == (3, 5) and np.isfinite(delta).all()


def test_frame_completion_robustness(h2):
    """Defect and normal coefficient ignore the Gram-Schmidt tie-break."""
    model = exp_model(h2)
    charts = [random_graph_chart(model, 300 * 100 + k) for k in range(3)]
    charts.append(graph_chart(model, "0", [(-0.5, 0.5)] * 4))  # central normal at 0
    for chart in charts:
        u = np.zeros(4)
        base = None
        for start in range(3):
            rep, frame, _ = closed_form_report(chart, u, completion_start=start)
            assert gram_residual(frame) < 1e-10
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
    assert not rep.tangential_norm < 1e-3
    assert rep.tangential_norm == pytest.approx(0.7 / 1.49**2, abs=1e-12)
    assert rep.normal_coeff == pytest.approx(-1.0 / 1.49**2, abs=1e-12)


def test_cylinders_harmonic():
    for f1, f2 in [("u1", "0"), ("cos(u1)", "sin(u1)")]:
        chart = cylinder_chart(f1, f2, (-0.6, 0.6), (-1, 1))
        rep, _, _ = closed_form_report(chart, [0.2, 0.3])
        assert rep.tangential_norm < 1e-3


def test_zero_report_harmonic():
    chart = vertical_plane_chart()
    rep, _, _ = closed_form_report(chart, [0.0, 0.0])
    assert rep.tangential_norm < 1e-3 and rep.tangential_norm == 0.0


# ---------------------------------------------------------------------------
# CMC/harmonicity coupling residuals


def test_coupling_residuals_vertical_plane():
    chart = vertical_plane_chart()
    cj = stacked_chart_jets(chart, [[0.1, 0.1]])
    frame = adapted_frame(heisenberg(1), cj.normal)
    shape = shape_data(chart, cj, frame)[0]
    np.testing.assert_array_equal(harmonicity_cmc_residuals(shape, frame), np.zeros((3, 1)))


def test_coupling_residual_leaf_value():
    """Second residual at the leaf is (1 + x^2)^(-3/2), nonzero off x = 0."""
    chart = foliation_leaf_chart()
    xs = np.array([0.7, 1.3])
    ev = evaluate_points(chart, np.stack([xs, np.zeros(2)], axis=1))
    r1, r2, r3 = harmonicity_cmc_residuals(ev.shape, ev.frame)
    assert (r1 == 0.0).all()  # empty index set for m = 1
    assert r2 == pytest.approx((1 + xs * xs) ** -1.5, abs=1e-12)
    assert not (ev.reports["general"].tangential_norm < 1e-3).any()  # consistent with the residual


def test_coupling_residuals_cylinder_family():
    for f1, f2 in [("u1", "0.5*u1"), ("cos(u1)", "sin(u1)"), ("2*cos(u1)", "2*sin(u1)")]:
        chart = cylinder_chart(f1, f2, (-0.6, 0.6), (-1, 1))
        cj = stacked_chart_jets(chart, [[s, 0.2] for s in (-0.4, 0.3)])
        frame = adapted_frame(heisenberg(1), cj.normal)
        shape = shape_data(chart, cj, frame)[0]
        assert np.max(harmonicity_cmc_residuals(shape, frame)) < 1e-6


def test_coupling_reverse_direction():
    """Structure equations plus constant H force a harmonic Gauss map."""
    # cylinders satisfy the structure equations identically; constant-curvature
    # profiles make H constant, so the defect must vanish
    chart = cylinder_chart("1 + cos(u1)", "sin(u1)", (0.3, 1.4), (-1, 1))
    ev = evaluate_points(chart, np.array([[0.5, 0.0], [1.0, 0.4]]))
    assert np.max(harmonicity_cmc_residuals(ev.shape, ev.frame)) < 1e-6
    assert (ev.reports["general"].tangential_norm < 5e-4).all()


def test_evaluation_carries_general_and_matches_single_views():
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    u = [0.2, 0.1]
    ev = evaluate_points(chart, [u], ["heisenberg", "numeric_oracle"])
    assert list(ev.reports) == ["general", "heisenberg", "numeric_oracle"]
    for method in ("general", "heisenberg"):
        rep, frame, shape = closed_form_report(chart, u, method)
        np.testing.assert_array_equal(rep.coeffs, ev.reports[method].coeffs[0])
        np.testing.assert_array_equal(frame.ys, ev.frame.ys[0])
        assert shape.h == ev.shape.h[0]
    oracle = laplacian_numeric(chart, u)
    np.testing.assert_array_equal(oracle.coeffs, ev.reports["numeric_oracle"].coeffs[0])


def test_coupling_requires_special_frame(free5):
    rng = np.random.default_rng(3)
    frame = adapted_frame(free5, random_unit(rng, 5)[None])
    with pytest.raises(ValueError, match="basis"):
        harmonicity_cmc_residuals(random_shape(rng, 4), frame)


# ---------------------------------------------------------------------------
# Jacobi equation


def test_jacobi_vertical_plane():
    chart = vertical_plane_chart()
    pts = [np.array([s, t]) for s in (-0.4, 0.0, 0.4) for t in (-0.4, 0.4)]
    ev = evaluate_points(chart, np.array(pts), ["numeric_oracle"])
    residual, w = jacobi_residuals(chart, ev, [0.0, 1.0, 0.0])
    assert residual.max() < 1e-12
    assert w.min() == pytest.approx(1.0)
    assert np.ptp(ev.shape.h) <= 1e-3 and ev.reports["general"].tangential_norm.max() <= 1e-3
    # the potential itself: Ric(L, L) + |B|^2 = -1/2 + 1/2 = 0
    alg = heisenberg(1)
    assert ricci(alg, np.array([0, 1.0, 0]), np.array([0, 1.0, 0])) == pytest.approx(-0.5)


def test_jacobi_direction_orthogonal_gives_zero():
    chart = vertical_plane_chart()
    pts = [np.array([0.0, 0.0]), np.array([0.3, -0.2])]
    evals = evaluate_points(chart, np.array(pts), ["numeric_oracle"])
    residual, w = jacobi_residuals(chart, evals, [0.0, 0.0, 1.0])  # v orthogonal to G = L
    assert residual.max() < 1e-12
    assert abs(w.min()) < 1e-12


def test_jacobi_circular_arc_cylinder():
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    pts = [np.array([s, t]) for s in (-0.45, 0.0, 0.45) for t in (-0.5, 0.5)]
    mean_g = gauss_map(chart, np.array(pts)).mean(axis=0)
    ev = evaluate_points(chart, np.array(pts), ["numeric_oracle"])
    residual, w = jacobi_residuals(chart, ev, mean_g / np.linalg.norm(mean_g))
    assert residual.max() < 5e-4
    assert w.min() > 0.0  # image in an open hemisphere: stability certificate
    assert np.ptp(ev.shape.h) <= 1e-3 and ev.reports["general"].tangential_norm.max() <= 1e-3


def test_pointwise_subharmonicity_identity():
    """Delta <G, v> = -(|B|^2 + Ric(n, n)) <G, v> on harmonic CMC charts."""
    alg = heisenberg(1)
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    rng = np.random.default_rng(8)
    v = random_unit(rng, 3)
    for u in ([0.2, 0.1], [-0.3, -0.4]):
        normal = gauss_map(chart, [u])
        w = float(normal[0] @ v)
        lw = laplace_beltrami_scalar(chart, u, lambda pts: gauss_map(chart, pts) @ v)
        frame = adapted_frame(alg, normal)[0]
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
    evals = evaluate_points(chart, pts, ["numeric_oracle"])
    v = evals.frame.normal.mean(axis=0)
    v /= np.linalg.norm(v)
    expected = 0.0
    for u, normal, norm_b2 in zip(evals.u, evals.frame.normal, evals.shape.norm_b2):
        lw = laplace_beltrami_scalar(chart, u, lambda p: gauss_map(chart, p) @ v)
        pot = norm_b2 + ricci(alg, normal, normal)
        expected = max(expected, abs(lw + pot * float(normal @ v)))
    residual, _ = jacobi_residuals(chart, evals, v)
    assert residual.max() == pytest.approx(expected, abs=1e-6)


def test_jacobi_needs_the_oracle_laplacian():
    """Delta w comes from the record's oracle delta only: a record evaluated
    without ``numeric_oracle`` is refused, not re-evaluated."""
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    bare = evaluate_points(chart, np.array([[0.0, 0.5]]))
    assert bare.delta is None
    with pytest.raises(ValueError, match="numeric_oracle"):
        jacobi_residuals(chart, bare, [0.3, 0.9, 0.1])


# ---------------------------------------------------------------------------
# one batched evaluation against stacks of one

ALGEBRAS = {
    "h1": heisenberg(1),
    "h2": heisenberg(2),
    "free5": free_two_step_5d(),
    "quat7": quaternionic_heisenberg(),
}


def assert_same_record(a, b):
    """Two Evaluation stacks hold the same points, frames, shapes, dh and reports, bit for bit."""
    np.testing.assert_array_equal(a.u, b.u)
    for name in ("ys", "x_q", "z_q", "x_n1", "z_n1"):
        np.testing.assert_array_equal(getattr(a.frame, name), getattr(b.frame, name))
    for factor in (lam, mu):
        np.testing.assert_array_equal(factor(a.frame), factor(b.frame))
    for name in ("b", "h", "norm_b2"):
        np.testing.assert_array_equal(getattr(a.shape, name), getattr(b.shape, name))
    np.testing.assert_array_equal(a.dh, b.dh)
    assert (a.delta is None) == (b.delta is None)
    if a.delta is not None:
        np.testing.assert_array_equal(a.delta, b.delta)
    assert list(a.reports) == list(b.reports)
    for method, rep in a.reports.items():
        np.testing.assert_array_equal(rep.coeffs, b.reports[method].coeffs)
        np.testing.assert_array_equal(rep.tangential_norm, b.reports[method].tangential_norm)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(ALGEBRAS)),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    completion_start=st.integers(0, 2),
    data=st.data(),
)
def test_evaluate_points_rows_equal_stacks_of_one(name, count, seed, completion_start, data):
    alg = ALGEBRAS[name]
    valid = ["general", "numeric_oracle"]
    valid += ["h_type"] if alg.is_h_type else []
    valid += ["heisenberg"] if alg.is_heisenberg else []
    methods = data.draw(st.lists(st.sampled_from(valid), min_size=1, unique=True))
    rng = np.random.default_rng(seed)
    chart = random_graph_chart(exp_model(alg), seed, terms=4)
    pts = rng.uniform(-0.45, 0.45, (count, chart.param_dim))
    evals = evaluate_points(chart, pts, methods, completion_start=completion_start)
    assert len(evals) == count
    for i in range(count):
        assert_same_record(evals[i:i + 1], evaluate_points(chart, pts[i:i + 1], methods,
                                                           completion_start=completion_start))


def _degenerate_stacks():
    """(name, chart, points) whose stack mixes generic rows with rows of a central
    normal (s = 0: a graph through the origin, the leaf at u1 = 0) or of a horizontal
    one (c = 0: x_1 a function of the central parameters, at their zero)."""
    leaf = foliation_leaf_chart()
    yield "h1_polarized_central", leaf, [[0.0, 0.1], [0.5, -0.2], [0.0, -0.3], [-1.1, 0.4]]
    yield "h1_polarized_horizontal", expression_chart(
        nil_polarized_model(), ["0.3*u2^2", "u1", "u2"], [(-1, 1)] * 2), [[0.2, 0.0], [0.1, 0.3], [-0.4, 0.0]]
    for name in ("h2", "h3", "quat7", "free5"):
        alg = FRAME_ALGEBRAS[name]
        model, n, q = exp_model(alg), alg.n, alg.dim_v
        central = " + ".join(f"0.3*u{k}^2" for k in range(q, n + 1))  # x_1 = f(central parameters)
        rng = np.random.default_rng(len(name))
        pts = rng.uniform(-0.4, 0.4, (5, n))
        pts[[1, 3]] = 0.0
        yield f"{name}_central", graph_chart(model, "0.2*u1*u2 - 0.1*u1^2", [(-1, 1)] * n), pts
        pts = rng.uniform(-0.4, 0.4, (5, n))
        pts[[0, 2], q - 1:] = 0.0
        yield f"{name}_horizontal", expression_chart(
            model, [central] + [f"u{k}" for k in range(1, n + 1)], [(-1, 1)] * n), pts


FRAME_ALGEBRAS = {**ALGEBRAS, "h3": heisenberg(3)}
DEGENERATE_STACKS = {name: (chart, np.array(pts, dtype=float)) for name, chart, pts in _degenerate_stacks()}


@pytest.mark.parametrize("name", DEGENERATE_STACKS)
def test_stacked_frames_with_degenerate_rows(name):
    """A stack mixing generic rows with rows whose normal has s = 0 or c = 0: every
    row equals its evaluation as a stack of one bit for bit, every frame is orthonormal to
    1e-12, and the frame-free outputs do not depend on completion_start."""
    chart, pts = DEGENERATE_STACKS[name]
    alg = chart.model.algebra
    methods = ["general", "numeric_oracle"]
    methods += ["h_type"] if alg.is_h_type else []
    methods += ["heisenberg"] if alg.is_heisenberg else []
    outputs = []
    for start in range(3):
        evals = evaluate_points(chart, pts, methods, completion_start=start)
        zero = evals.frame.s if name.endswith("central") else evals.frame.c
        assert 0 < np.count_nonzero(zero == 0.0) < len(pts)
        ys = evals.frame.ys
        assert np.abs(ys @ np.swapaxes(ys, 1, 2) - np.eye(alg.dim_total)).max() < 1e-12
        for i in range(len(pts)):
            assert_same_record(evals[i:i + 1], evaluate_points(chart, pts[i:i + 1], methods, completion_start=start))
        outputs.append([evals.shape.h, evals.shape.norm_b2] + [
            x for rep in evals.reports.values() for x in (rep.tangential_norm, rep.normal_coeff)])
    for other in outputs[1:]:
        for a, b in zip(outputs[0], other):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)


def _matmul_stages(chart, cj):
    """The stages that contract by matmul on the model's and algebra's cached layouts, at a
    ChartJet stack or row, as name -> tuple of arrays; ``_gc_field`` takes a row as a stack of one."""
    alg, row = chart.model.algebra, cj.point.ndim == 1
    outputs = {
        "frame_inverse": (chart.model.frame_inverse(cj.point),),
        "induced_metric_with_gradient": induced_metric_with_gradient(chart, cj),
        "_second_fundamental": (_second_fundamental(chart, cj),),
        "curvature": (curvature(alg, cj.normal.real, cj.jac[..., 0].real, cj.point.real),),
    }
    if alg.dim_total == 3:
        field = _gc_field(chart, cj[None] if row else cj)
        outputs["_gc_field"] = (field[0] if row else field,)
    return outputs


def _strided(arr):
    """The values of arr in a view with a step on every axis."""
    big = arr
    for axis in range(arr.ndim):
        big = np.repeat(big, 2, axis=axis)
    return big[(slice(None, None, 2),) * arr.ndim]


def _transposed(arr):
    """The values of arr in a transposed copy: Fortran order."""
    return arr.T.copy().T


MATMUL_CHARTS = {
    "cylinder": cylinder_chart("cos(u1)", "2*sin(u1)"),
    **{name: random_graph_chart(exp_model(alg), 11, terms=4)
       for name, alg in ALGEBRAS.items()},
}


@pytest.mark.parametrize("layout", ["stepped", "transposed", "one"])
@pytest.mark.parametrize("name", MATMUL_CHARTS)
def test_matmul_stages_on_noncontiguous_stacks_equal_single_points(name, layout):
    """matmul picks its kernel by the operands' strides: a stack taken by a slice with a
    step, a stack from a transposed copy and a transposed stack of one give each row
    the bits of its point alone, at real points and at complex-step rows."""
    chart = MATMUL_CHARTS[name]
    pts = np.random.default_rng(4).uniform(-0.4, 0.4, (5, chart.param_dim))
    for cj in complex_step_jets(chart, pts):
        singles = [_matmul_stages(chart, cj[i]) for i in range(len(cj.point))]
        if layout == "one":
            cases = [(cj[i:i + 1].map(_transposed), [i]) for i in range(len(cj.point))]
        else:
            cases = [(cj.map(_strided if layout == "stepped" else _transposed), range(len(cj.point)))]
        for stack, rows in cases:
            for stage, outputs in _matmul_stages(chart, stack).items():
                for k, i in enumerate(rows):
                    for got, want in zip(outputs, singles[i][stage]):
                        assert got[k].tobytes() == want.tobytes(), (stage, i)


@pytest.mark.parametrize("name", ["h1", "h2", "h3", "quat7", "free5"])
def test_stacked_adapted_frame_rows_equal_single_frames(name):
    """Normals with s = 0, c = 0 and neither in one stack: each frame row is the
    frame of its normal alone as a stack of one, bit for bit, under every completion_start."""
    alg = FRAME_ALGEBRAS[name]
    d, q = alg.dim_total, alg.dim_v
    rng = np.random.default_rng(q)
    normals = np.array([random_unit(rng, d), np.eye(d)[-1], np.eye(d)[0], random_unit(rng, d),
                        -np.eye(d)[q], random_unit(rng, d)])
    for start in range(3):
        stacked = adapted_frame(alg, normals, start)
        np.testing.assert_array_equal(stacked.s == 0.0, [False, True, False, False, True, False])
        np.testing.assert_array_equal(stacked.c == 0.0, [False, False, True, False, False, False])
        for i in range(len(normals)):
            single = adapted_frame(alg, normals[i:i + 1], start)
            for field in ("ys", "x_q", "z_q", "x_n1", "z_n1", "s", "c"):
                np.testing.assert_array_equal(getattr(stacked, field)[i], getattr(single, field)[0])
            assert gram_residual(single) < 1e-12


def test_evaluate_points_one_field_call_per_stage(monkeypatch):
    """Complex-step rows, whose real parts give the centres, and oracle stencils:
    one chart evaluation each."""
    chart = random_graph_chart(exp_model(heisenberg(2)), 2, terms=4)
    pts = np.random.default_rng(3).uniform(-0.4, 0.4, (6, 4))
    sizes = []

    def counted(exprs, p, order=2):
        sizes.append(len(p))
        return expression_jets(exprs, p, order)

    monkeypatch.setattr("nilgauss.surfaces.expression_jets", counted)
    evaluate_points(chart, pts, ["general", "numeric_oracle"])
    # one complex-step row per direction, n directions per point; the oracle
    # stencil holds the centre and levels * (2n + 2 n(n-1)/2) rows
    assert sizes == [6 * 4, 6 * (1 + 2 * (8 + 12))]


def test_complex_step_rows_go_in_chunks_and_stay_only_in_3d(monkeypatch):
    """At most FIELD_ROWS / 2 complex-step rows per chart evaluation, whole points
    each, with the records unchanged bit for bit; a record outside a 3-dimensional
    model keeps no complex-step rows."""
    chart = random_graph_chart(exp_model(heisenberg(2)), 4, terms=4)
    pts = np.random.default_rng(5).uniform(-0.4, 0.4, (5, 4))
    whole = evaluate_points(chart, pts, ["general", "h_type"])
    sizes = []

    def counted(exprs, p, order=2):
        sizes.append(len(p))
        return expression_jets(exprs, p, order)

    monkeypatch.setattr("nilgauss.surfaces.expression_jets", counted)
    monkeypatch.setattr("nilgauss.laplacian.FIELD_ROWS", 16)  # two points of 4 rows
    chunked = evaluate_points(chart, pts, ["general", "h_type"])
    assert sizes == [8, 8, 4]
    assert_same_record(whole, chunked)
    assert whole.steps is None and chunked.steps is None


def record_arrays(ev):
    """Every array of an Evaluation, nested records and dicts included, in field order."""
    arrays = []
    ev.map(lambda arr: arrays.append(arr) or arr)
    return arrays


@pytest.mark.parametrize("three_dim", [True, False], ids=["leaf", "h2"])
def test_chunked_evaluation_equals_the_whole_one(monkeypatch, three_dim):
    """Centres, complex-step rows, frames, reports and the oracle's Delta G: every array
    of the record is the same bit for bit whatever the chunk of complex-step rows."""
    if three_dim:
        chart, pts = foliation_leaf_chart(), np.array([[x, y] for x in (-0.5, 0.3, 1.1) for y in (-0.2, 0.4)])
        methods = ["general", "heisenberg", "numeric_oracle"]
    else:
        chart = random_graph_chart(exp_model(heisenberg(2)), 26, terms=4)
        pts, methods = np.random.default_rng(27).uniform(-0.4, 0.4, (5, 4)), ["general", "h_type", "numeric_oracle"]
    whole = evaluate_points(chart, pts, methods)
    monkeypatch.setattr("nilgauss.laplacian.FIELD_ROWS", 2 * chart.param_dim)  # one point per chunk
    chunked = evaluate_points(chart, pts, methods)
    assert (whole.steps is None) != three_dim
    arrays, chunked_arrays = record_arrays(whole), record_arrays(chunked)
    assert len(arrays) == len(chunked_arrays) > 20
    for a, b in zip(arrays, chunked_arrays):
        np.testing.assert_array_equal(a, b)


def test_qr_and_det_once_per_chunk_of_centres_never_on_stencil_rows(monkeypatch):
    """A job with the oracle: the complete QR and its det run on the centres, one
    call per chunk of complex-step rows, and on none of the oracle's stencil rows."""
    chart = random_graph_chart(exp_model(heisenberg(2)), 28, terms=4)
    pts = np.random.default_rng(29).uniform(-0.4, 0.4, (5, 4))
    calls = []

    def counted(name, fn):
        def call(a, *args, **kwargs):
            calls.append((name, len(a)))
            return fn(a, *args, **kwargs)
        return call

    monkeypatch.setattr("nilgauss.laplacian.FIELD_ROWS", 16)  # two points of 4 rows
    monkeypatch.setattr("nilgauss.fd.FIELD_ROWS", 100)  # two centres of 41 stencil rows
    for name in ("qr", "det"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    evaluate_points(chart, pts, ["general", "h_type", "heisenberg", "numeric_oracle"])
    assert calls == [(name, size) for size in (2, 2, 1) for name in ("qr", "det")]


def test_fd_moves_no_closed_form_row_gauss_codazzi_or_corollary1():
    """fd reaches the oracle only: closed-form reports, Y_k(n H), Gauss-Codazzi
    results and corollary1 are bit for bit the same under any FDParams."""
    h2_chart = random_graph_chart(exp_model(heisenberg(2)), 5, terms=4)
    h2_pts = np.random.default_rng(6).uniform(-0.4, 0.4, (4, 4))
    cylinder = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    leaf = foliation_leaf_chart()
    grid = np.array([[x, y] for x in (-0.5, 0.3) for y in (-0.2, 0.4)])
    outcomes = []
    for fd in (FDParams(), FDParams(step=1e-3, levels=1)):
        evals = evaluate_points(h2_chart, h2_pts, ["general", "h_type", "heisenberg"], fd)
        rows = (evals.dh, [rep.coeffs for rep in evals.reports.values()])
        gc = gauss_codazzi_residuals(leaf, evaluate_points(leaf, grid, fd=fd))
        cylinder_ev = evaluate_points(cylinder, grid, fd=fd)
        corollary1 = central_h_variation(cylinder, cylinder_ev)[1]
        outcomes.append((rows, gc, corollary1, cylinder_ev.reports["general"].tangential_norm))
    ((dh, coeffs), gc, corollary1, defect), ((dh_b, coeffs_b), gc_b, corollary1_b, defect_b) = outcomes
    np.testing.assert_array_equal(dh, dh_b)
    for a, b in zip(coeffs, coeffs_b):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(gc, gc_b):
        np.testing.assert_array_equal(a, b)
    assert gc[0][0]  # the first point is evaluated
    np.testing.assert_array_equal(corollary1, corollary1_b)
    np.testing.assert_array_equal(defect, defect_b)  # the gate's input, the same under both
    assert defect.max() <= 1e-3  # harmonic: a job's corollary1 gate is open


def test_complex_step_size_moves_nothing(monkeypatch):
    """Y_k(n H) and the Gauss-Codazzi results agree to rounding at h = 1e-20 and
    1e-30: the complex step takes no difference, so no step trades truncation
    against cancellation."""
    # an H(2) graph curved enough that max |Y_k(n H)| at these points (0.16) clears the bound
    # below, so the comparison is not one of near-zeros
    h2_expr = "-0.192355*sin(u4) + 0.22486*u4*u1 + -0.155102*cos(u2) + 0.037448*u2*u3"
    h2_chart = graph_chart(exp_model(heisenberg(2)), h2_expr, [(-0.8, 0.8)] * 4)
    h2_pts = np.random.default_rng(8).uniform(-0.4, 0.4, (4, 4))
    leaf = GC_CHARTS["exp_h1"](1)
    gc_pts = np.array(GC_POINTS)
    outcomes = []
    for h in (1e-20, 1e-30):
        monkeypatch.setattr("nilgauss.surfaces.COMPLEX_STEP", h)
        dh = evaluate_points(h2_chart, h2_pts).dh
        gc = gauss_codazzi_residuals(leaf, evaluate_points(leaf, gc_pts))
        outcomes.append((dh, gc))
    (dh, gc), (dh_b, gc_b) = outcomes
    assert np.abs(dh).max() > 0.1
    np.testing.assert_allclose(dh_b, dh, rtol=1e-14, atol=1e-15)
    assert gc[0].all()
    for one, other in zip(gc[1:3], gc_b[1:3]):  # the codazzi and gauss residuals
        assert np.abs(one - other).max() <= 1e-15


def test_evaluate_points_one_chart_direction_solve(monkeypatch):
    """The frame vectors of all points go to one chart_coefficients call; no lstsq."""
    chart = random_graph_chart(exp_model(heisenberg(2)), 2, terms=4)
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
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    evaluate_points(chart, pts, ["general", "h_type", "heisenberg", "numeric_oracle"])
    assert shapes == [(6, 4, 5)]
    assert lstsq_calls == []


# ---------------------------------------------------------------------------
# central mean-curvature variation


def harmonic(ev):
    """The job's corollary1 gate at its default harmonicity tolerance: open."""
    return ev.reports["general"].tangential_norm.max() <= 1e-3


def test_central_variation_cylinder():
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    pts = [np.array([s, 0.0]) for s in (-0.3, 0.0, 0.3)]
    ev = evaluate_points(chart, np.array(pts))
    assert harmonic(ev)
    assert central_h_variation(chart, ev)[1].max() < 1e-8


def test_central_variation_skipped_for_non_harmonic():
    """The gate is the job's: corollary1 on a chart whose Gauss map is not harmonic
    reports skipped, with no value and no point evaluated, and passes."""
    doc = {"algebra": {"builtin": "heisenberg", "m": 1}, "model": "nil_polarized",
           "chart": {"catalog": "nil_foliation_leaf"}, "domain": [[-2.0, 2.0], [-0.5, 0.5]],
           "point": [0.7, 0.0], "methods": ["general"], "checks": ["corollary1"]}
    rep = run(load_config(doc))["summary"]["checks"]["corollary1"]
    assert rep["skipped"]
    assert rep["max_variation"] is None
    assert rep["points_evaluated"] == 0 and rep["pass"] is True


def test_central_variation_harmonic_h2_chart(h2):
    model = exp_model(h2)
    chart = expression_chart(
        model, ["0", "u1", "u2", "u3", "u4"], [(-0.8, 0.8)] * 4
    )
    pts = [np.array([0.1, -0.2, 0.3, 0.0]), np.array([-0.2, 0.1, 0.0, 0.2])]
    ev = evaluate_points(chart, np.array(pts))
    assert harmonic(ev)
    assert central_h_variation(chart, ev)[1].max() < 5e-4


def test_central_variation_makes_no_chart_evaluation(monkeypatch):
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    evals = evaluate_points(chart, np.array([[s, 0.2] for s in (-0.3, 0.3)]))

    def no_evaluation(*args, **kwargs):
        raise AssertionError("the chart was evaluated")

    monkeypatch.setattr("nilgauss.surfaces.stacked_chart_jets", no_evaluation)
    assert harmonic(evals)
    assert central_h_variation(chart, evals)[1].max() < 1e-8


def test_central_variation_reads_central_frame_derivatives(free5):
    """With the gate open, the value is max |Z(H)| over central frame vectors Z."""
    chart = graph_chart(exp_model(free5), "0.3*u1*u2 + 0.2*sin(u3) + 0.1*u4*u1", [(-0.8, 0.8)] * 4)
    pts = [np.array([0.1, -0.2, 0.3, 0.0]), np.array([-0.2, 0.1, 0.0, 0.2])]
    evals = evaluate_points(chart, np.array(pts))
    evaluated, variation = central_h_variation(chart, evals)
    assert evaluated.all()
    h_field = lambda p: mean_curvature(chart, p)
    expected = 0.0
    for u, ys in zip(evals.u, evals.frame.ys):
        # tangent frame vectors with no horizontal part
        zs = [y for y in ys[:-1] if np.linalg.norm(y[: free5.dim_v]) < 1e-9]
        assert zs
        for z in zs:
            coeff = chart_coefficients(chart_jets(chart, u), z[None])[0]
            deriv = directional_derivative(h_field, u, coeff, domain=chart.domain)
            expected = max(expected, abs(deriv))
    assert expected > 1e-5
    assert variation.max() == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# Gauss-Codazzi residuals


def test_gauss_codazzi_identity_exact():
    """<R(F1, F2) F1, normal> equals the product of the two normal norms."""
    chart = foliation_leaf_chart()
    ev = evaluate_points(chart, [[x, 0.0] for x in (0.4, 0.9, 1.6)])
    evaluated, _, _, term, ab = gauss_codazzi_residuals(chart, ev)
    assert evaluated.all()
    assert term == pytest.approx(ab, abs=1e-10)


def test_gauss_codazzi_leaf_residuals():
    chart = foliation_leaf_chart()
    points = np.array([[x, 0.0] for x in np.linspace(0.35, 2.0, 10)])
    _, codazzi, gauss, _, _ = gauss_codazzi_residuals(chart, evaluate_points(chart, points))
    assert codazzi.max() < 5e-4
    assert gauss.max() < 5e-4


def test_gauss_codazzi_skips_degenerate_normal():
    leaf, plane = foliation_leaf_chart(), vertical_plane_chart()
    assert not gauss_codazzi_residuals(leaf, evaluate_points(leaf, [[0.0, 0.0]]))[0][0]
    assert not gauss_codazzi_residuals(plane, evaluate_points(plane, [[0.1, 0.1]]))[0][0]


def test_gauss_codazzi_evaluates_a_normal_the_frame_splits():
    """A point is skipped only where the adapted frame sets a part of the normal
    to 0.0: at u1 = 5e-9 the leaf's horizontal part has norm 5e-9, above
    NORMAL_SPLIT_TOL, and the point is evaluated with rounding-level residuals."""
    chart = foliation_leaf_chart()
    ev = evaluate_points(chart, [[5e-9, 0.2]])
    assert ev.frame.s[0] == pytest.approx(5e-9, rel=1e-9)
    evaluated, codazzi, gauss, term, ab = gauss_codazzi_residuals(chart, ev)
    assert evaluated.tolist() == [True]
    assert term[0] == pytest.approx(5e-9, rel=1e-9) and ab[0] == pytest.approx(5e-9, rel=1e-9)
    assert codazzi[0] < 1e-13 and gauss[0] < 1e-13


def test_gauss_codazzi_abelian_limit():
    model = exp_model(abelian_3d())
    chart = expression_chart(
        model, ["u1", "u2", "0.4*u1 + 0.7*u2"], [(-1, 1), (-1, 1)]
    )
    evaluated, codazzi, gauss, term, _ = gauss_codazzi_residuals(chart, evaluate_points(chart, [[0.1, -0.2]]))
    assert evaluated[0]
    assert codazzi[0] < 1e-8
    assert gauss[0] < 1e-8
    assert term[0] == pytest.approx(0.0, abs=1e-12)


def test_gauss_codazzi_requires_3d():
    model = exp_model(heisenberg(2))
    chart = graph_chart(model, "0", [(-1, 1)] * 4)
    ev = evaluate_points(chart, np.zeros((1, 4)))
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
    evals = [evaluate_points(chart, [[x, 0.0]]) for x in (0.0, 0.5, 1.2)]  # x = 0 is skipped
    forbid_chart_evaluation(monkeypatch)
    evaluated, codazzi, gauss, _, _ = over_records(lambda ev: gauss_codazzi_residuals(chart, ev), evals)
    assert evaluated.tolist() == [False, True, True]
    assert max(codazzi[1:].max(), gauss[1:].max()) < 1e-13


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
    evaluated, codazzi, gauss, _, _ = gauss_codazzi_residuals(chart, evaluate_points(chart, GC_POINTS))
    assert evaluated.all()
    assert codazzi.max() < 1e-10
    assert gauss.max() < 1e-10


@pytest.mark.parametrize("name", GC_CHARTS)
def test_gauss_codazzi_orientation_invariance(name):
    plus, minus = (
        gauss_codazzi_residuals(chart, evaluate_points(chart, GC_POINTS))
        for chart in (GC_CHARTS[name](1), GC_CHARTS[name](-1))
    )
    np.testing.assert_array_equal(minus[0], plus[0])
    assert minus[1] == pytest.approx(plus[1], abs=1e-10)  # codazzi
    assert minus[2] == pytest.approx(plus[2], abs=1e-10)  # gauss


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
@pytest.mark.parametrize("name", GC_GRIDS)
def test_gauss_codazzi_list_equals_per_record_calls(name):
    build, points = GC_GRIDS[name]
    chart = build()
    evals = evaluate_points(chart, np.array(points))
    stacked = gauss_codazzi_residuals(chart, evals)
    single = over_records(lambda ev: gauss_codazzi_residuals(chart, ev), [evals[i:i + 1] for i in range(len(evals))])
    evaluated = single[0]
    assert len(stacked[0]) == len(evals)
    assert 0 < (~evaluated).sum() < len(evals)
    np.testing.assert_array_equal(stacked[0], evaluated)
    for row, one in zip(stacked[1:], single[1:]):  # codazzi, gauss, curvature_term, ab_product
        assert not row[~evaluated].any()
        assert np.abs(row - one).max() <= 1e-15


def test_gauss_codazzi_list_evaluates_no_chart(monkeypatch):
    """k evaluated records: one _gc_field call, on their 2 k complex-step rows, which
    gives Gamma (real parts) and its derivatives, and no chart evaluation."""
    chart = foliation_leaf_chart()
    evals = evaluate_points(chart, np.array([[x, 0.2] for x in (-1.0, 0.0, 0.4, 1.3)]))
    rows = []

    def counted(chart_, cj):
        rows.append((len(cj.point), np.iscomplexobj(cj.point)))
        return _gc_field(chart_, cj)

    forbid_chart_evaluation(monkeypatch)
    monkeypatch.setattr("nilgauss.laplacian._gc_field", counted)
    evaluated = gauss_codazzi_residuals(chart, evals)[0]
    assert evaluated.tolist() == [True, False, True, True]
    assert rows == [(2 * 3, True)]


@pytest.mark.parametrize("name", GC_GRIDS)
def test_gauss_codazzi_reads_the_records_second_fundamental_form(monkeypatch, name):
    """Gauss-Codazzi takes h_ab and its derivatives from the record's ``steps_h``, which
    is ``_second_fundamental`` of its ``steps`` rows bit for bit, makes no
    ``_second_fundamental`` call, and contracts the curvature twice: once for the
    Codazzi and Gauss terms, once for ``curvature_term``."""
    build, points = GC_GRIDS[name]
    chart = build()
    ev = evaluate_points(chart, np.array(points))
    assert ev.steps_h.shape == (len(ev), 2, 2, 2)
    assert ev.steps_h.tobytes() == _second_fundamental(chart, ev.steps).tobytes()
    expected = gauss_codazzi_residuals(chart, ev)
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return curvature(*args)

    def unavailable(*args, **kwargs):
        raise AssertionError("Gauss-Codazzi recomputed the second fundamental form")

    monkeypatch.setattr("nilgauss.surfaces._second_fundamental", unavailable)
    monkeypatch.setattr("nilgauss.laplacian._second_fundamental", unavailable)
    monkeypatch.setattr("nilgauss.laplacian.curvature", counted)
    for arr, want in zip(gauss_codazzi_residuals(chart, ev), expected):
        assert arr.tobytes() == want.tobytes()
    kept = expected[0].sum()
    assert 0 < kept < len(ev) and calls == [kept, kept]


@pytest.mark.parametrize("name", GC_GRIDS)
def test_gauss_codazzi_job_solves_its_chart_directions_once(monkeypatch, name):
    """A Gauss-Codazzi job solves for the chart directions of its frames once, in
    ``shape_data``; the checker reads them from the record's ``dirs``."""
    build, points = GC_GRIDS[name]
    chart = build()
    shapes = []

    def counted(cj, vecs):
        shapes.append(np.shape(vecs))
        return chart_coefficients(cj, vecs)

    # under both module names by which the pipeline could reach it
    monkeypatch.setattr("nilgauss.surfaces.chart_coefficients", counted)
    monkeypatch.setattr("nilgauss.laplacian.chart_coefficients", counted, raising=False)
    evaluated = gauss_codazzi_residuals(chart, evaluate_points(chart, np.array(points)))[0]
    assert evaluated.any()
    assert shapes == [(len(points), 2, 3)]


def test_gauss_codazzi_all_skipped_evaluates_no_chart(monkeypatch):
    chart = foliation_leaf_chart()
    evals = evaluate_points(chart, np.array([[0.0, y] for y in (-0.5, 0.0, 0.5)]))

    def no_evaluation(*args, **kwargs):
        raise AssertionError("the chart was evaluated")

    monkeypatch.setattr("nilgauss.surfaces.stacked_chart_jets", no_evaluation)
    for name in ("chart_jets", "_gc_field", "complex_derivative"):
        monkeypatch.setattr(f"nilgauss.laplacian.{name}", no_evaluation)
    assert gauss_codazzi_residuals(chart, evals)[0].tolist() == [False] * 3
    assert [arr.shape for arr in gauss_codazzi_residuals(chart, evals[:0])] == [(0,)] * 5


# ---------------------------------------------------------------------------
# checkers over a job's stack against its stacks of one

CHECKER_STACKS = {
    "nil_graph": GC_GRIDS["nil_graph"],
    "h2": (
        lambda: random_graph_chart(exp_model(heisenberg(2)), 31, terms=4),
        np.random.default_rng(32).uniform(-0.4, 0.4, (5, 4)),
    ),
    # a 2-dimensional center: corollary1 reads a central slot of dh at every point
    "free5": (
        lambda: graph_chart(exp_model(free_two_step_5d()), "0.3*u1*u2 + 0.2*sin(u3) + 0.1*u4*u1", [(-0.8, 0.8)] * 4),
        np.random.default_rng(33).uniform(-0.4, 0.4, (5, 4)),
    ),
}


@pytest.mark.parametrize("name", CHECKER_STACKS)
def test_checkers_over_a_stack_equal_their_rows(name):
    """Every array of the five checks a job runs on the chart's algebra and model (a
    Heisenberg algebra for prop3, 3 dimensions for Gauss-Codazzi) is, bit for bit, the
    concatenation of its arrays over each point's stack of one."""
    build, points = CHECKER_STACKS[name]
    chart = build()
    alg = chart.model.algebra
    ev = evaluate_points(chart, np.array(points), ["numeric_oracle"])
    rows = [ev[i:i + 1] for i in range(len(ev))]
    v = ev.frame.normal.mean(axis=0)
    checkers = {
        "harmonicity": lambda rec: (rec.reports["general"].tangential_norm,),
        "prop3": lambda rec: harmonicity_cmc_residuals(rec.shape, rec.frame),
        "corollary1": lambda rec: central_h_variation(chart, rec),
        "jacobi": lambda rec: jacobi_residuals(chart, rec, v),
        "gauss_codazzi": lambda rec: gauss_codazzi_residuals(chart, rec),
    }
    arrays = {}
    for check, checker in checkers.items():
        if check in NEEDS and not NEEDS[check][0](alg):
            continue
        arrays[check] = checker(ev)
        for stacked, joined in zip(arrays[check], over_records(checker, rows), strict=True):
            assert stacked.shape == (len(ev),)
            assert stacked.tobytes() == joined.tobytes(), check
    assert ("prop3" in arrays) == alg.is_heisenberg and ("gauss_codazzi" in arrays) == (alg.dim_total == 3)
    if "gauss_codazzi" in arrays:
        assert 0 < (~arrays["gauss_codazzi"][0]).sum() < len(rows)
    assert name != "free5" or arrays["corollary1"][1].max() > 1e-5
