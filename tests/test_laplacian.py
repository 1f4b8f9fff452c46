import itertools
import time

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
from nilgauss import laplacian
from nilgauss.cli import NEEDS, load_config, run
from nilgauss.curvature import curvature
from nilgauss.expressions import expression_jets
from nilgauss.fd import FDParams, directional_derivative
from nilgauss.laplacian import oracle_laplacians
from nilgauss.surfaces import (
    CATALOG,
    ShapeData,
    _second_fundamental,
    catalog_chart,
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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_coupling_residuals_read_the_general_slots(m):
    """In the symplectically adapted frame the tangential slots of ``general`` plus
    Y_k(n H) are -2 s b_{2m,m+k} (k < m), 2 s b_{2m,k} (m + k), -s c (n H + 2 b_{2m,2m})
    (m) and s c (2 b_{2m,m} - s^2) (2m), so 2 s r1, s r3 and s r2 are the largest of
    their slots, at every corner of random graphs over H(m)."""
    alg = heisenberg(m)
    n, last = alg.n, 2 * m - 1
    worst = 0.0
    for seed in range(6):
        chart = random_graph_chart(exp_model(alg), seed, terms=6)
        ev = evaluate_points(chart, np.array(list(itertools.product((-0.75, 0.75), repeat=n))))
        slots = np.abs(ev.reports["general"].coeffs[:, :n] + ev.dh)
        r1, r2, r3 = harmonicity_cmc_residuals(ev.shape, ev.frame)
        s = ev.frame.s
        off = np.concatenate([slots[:, :m - 1], slots[:, m:last]], axis=1).max(axis=1, initial=0.0)
        errors = [2.0 * s * r1 - off, s * r3 - slots[:, m - 1], s * r2 - slots[:, last]]
        worst = max(worst, np.abs(errors).max())
    assert worst <= 1e-14


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
    ev = evaluate_points(chart, np.array(pts))
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
    evals = evaluate_points(chart, np.array(pts))
    residual, w = jacobi_residuals(chart, evals, [0.0, 0.0, 1.0])  # v orthogonal to G = L
    assert residual.max() < 1e-12
    assert abs(w.min()) < 1e-12


def test_jacobi_circular_arc_cylinder():
    chart = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    pts = [np.array([s, t]) for s in (-0.45, 0.0, 0.45) for t in (-0.5, 0.5)]
    mean_g = gauss_map(chart, np.array(pts)).mean(axis=0)
    ev = evaluate_points(chart, np.array(pts))
    residual, w = jacobi_residuals(chart, ev, mean_g / np.linalg.norm(mean_g))
    assert residual.max() < 1e-14  # the closed form's Delta G: the equation holds to rounding
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
def test_jacobi_residual_matches_the_laplace_beltrami_of_w(f1, f2):
    """Delta <G, v> from the closed form's Delta G equals the Laplace-Beltrami
    operator applied to the scalar field <G, v> itself."""
    alg = heisenberg(1)
    chart = cylinder_chart(f1, f2, (-0.6, 0.6), (-1.0, 1.0))
    pts = np.array([[s, t] for s in (-0.45, 0.0, 0.45) for t in (-0.5, 0.5)])
    evals = evaluate_points(chart, pts)
    v = evals.frame.normal.mean(axis=0)
    v /= np.linalg.norm(v)
    expected = 0.0
    for u, normal, norm_b2 in zip(evals.u, evals.frame.normal, evals.shape.norm_b2):
        lw = laplace_beltrami_scalar(chart, u, lambda p: gauss_map(chart, p) @ v)
        pot = norm_b2 + ricci(alg, normal, normal)
        expected = max(expected, abs(lw + pot * float(normal @ v)))
    residual, _ = jacobi_residuals(chart, evals, v)
    assert residual.max() == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# one batched evaluation against stacks of one

ALGEBRAS = {
    "h1": heisenberg(1),
    "h2": heisenberg(2),
    "free5": free_two_step_5d(),
    "quat7": quaternionic_heisenberg(),
}


def assert_same_record(a, b):
    """Two Evaluation stacks hold the same points, frames, shapes, dh, reports and Gauss-Codazzi
    residuals, bit for bit."""
    np.testing.assert_array_equal(a.u, b.u)
    for name in ("ys", "x_q", "z_q", "x_n1", "z_n1"):
        np.testing.assert_array_equal(getattr(a.frame, name), getattr(b.frame, name))
    for factor in (lam, mu):
        np.testing.assert_array_equal(factor(a.frame), factor(b.frame))
    for name in ("b", "h", "norm_b2"):
        np.testing.assert_array_equal(getattr(a.shape, name), getattr(b.shape, name))
    np.testing.assert_array_equal(a.dh, b.dh)
    assert (a.gauss_codazzi is None) == (b.gauss_codazzi is None)
    if a.gauss_codazzi is not None:
        assert a.gauss_codazzi.tobytes() == b.gauss_codazzi.tobytes()
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
    checks = data.draw(st.sampled_from([(), ("gauss_codazzi",)]))
    rng = np.random.default_rng(seed)
    chart = random_graph_chart(exp_model(alg), seed, terms=4)
    pts = rng.uniform(-0.45, 0.45, (count, chart.param_dim))
    evals = evaluate_points(chart, pts, methods, completion_start=completion_start, checks=checks)
    assert len(evals) == count
    for i in range(count):
        assert_same_record(evals[i:i + 1], evaluate_points(chart, pts[i:i + 1], methods,
                                                           completion_start=completion_start, checks=checks))


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
    ChartJet stack or row, as name -> tuple of arrays."""
    return {
        "frame_inverse": (chart.model.frame_inverse(cj.point),),
        "induced_metric_with_gradient": induced_metric_with_gradient(chart, cj),
        "_second_fundamental": (_second_fundamental(chart, cj),),
        "curvature": (curvature(chart.model.algebra, cj.normal.real, cj.jac[..., 0].real, cj.point.real),),
    }


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


@pytest.mark.parametrize("layout", ["stepped", "transposed"])
@pytest.mark.parametrize("name", MATMUL_CHARTS)
def test_gauss_codazzi_on_noncontiguous_rows_equals_single_points(name, layout):
    """Complex-step rows and their h in a view with a step on every axis, or in a
    transposed copy: the checker gives each point the bits of its n rows alone."""
    chart = MATMUL_CHARTS[name]
    n = chart.param_dim
    rows = complex_step_jets(chart, np.random.default_rng(4).uniform(-0.4, 0.4, (5, n)))[1]
    h = _second_fundamental(chart, rows)
    singles = [gauss_codazzi_residuals(chart, rows[k:k + n], h[k:k + n]) for k in range(0, 5 * n, n)]
    move = _strided if layout == "stepped" else _transposed
    assert gauss_codazzi_residuals(chart, rows.map(move), move(h)).tobytes() == np.concatenate(singles).tobytes()


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


def test_complex_step_rows_go_in_chunks(monkeypatch):
    """At most FIELD_ROWS / 2 complex-step rows per chart evaluation, a quarter of that
    with Gauss-Codazzi, whole points each, with the records, Gauss-Codazzi residuals
    included, unchanged bit for bit."""
    chart = random_graph_chart(exp_model(heisenberg(2)), 4, terms=4)
    pts = np.random.default_rng(5).uniform(-0.4, 0.4, (5, 4))
    whole = evaluate_points(chart, pts, ["general", "h_type"], checks=["gauss_codazzi"])
    sizes = []

    def counted(exprs, p, order=2):
        sizes.append(len(p))
        return expression_jets(exprs, p, order)

    monkeypatch.setattr("nilgauss.surfaces.expression_jets", counted)
    monkeypatch.setattr("nilgauss.laplacian.FIELD_ROWS", 64)  # two points of 4 rows with Gauss-Codazzi
    chunked = evaluate_points(chart, pts, ["general", "h_type"], checks=["gauss_codazzi"])
    assert sizes == [8, 8, 4]
    assert_same_record(whole, chunked)


def record_arrays(ev):
    """Every array of an Evaluation, nested records and dicts included, in field order."""
    arrays = []
    ev.map(lambda arr: arrays.append(arr) or arr)
    return arrays


@pytest.mark.parametrize("three_dim", [True, False], ids=["leaf", "h2"])
def test_chunked_evaluation_equals_the_whole_one(monkeypatch, three_dim):
    """Centres, frames, reports, the oracle's and the Gauss-Codazzi residuals: every array
    of the record is the same bit for bit whatever the chunk of complex-step rows."""
    if three_dim:
        chart, pts = foliation_leaf_chart(), np.array([[x, y] for x in (-0.5, 0.3, 1.1) for y in (-0.2, 0.4)])
        methods = ["general", "heisenberg", "numeric_oracle"]
    else:
        chart = random_graph_chart(exp_model(heisenberg(2)), 26, terms=4)
        pts, methods = np.random.default_rng(27).uniform(-0.4, 0.4, (5, 4)), ["general", "h_type", "numeric_oracle"]
    whole = evaluate_points(chart, pts, methods, checks=["gauss_codazzi"])
    monkeypatch.setattr("nilgauss.laplacian.FIELD_ROWS", 2 * chart.param_dim)  # one point per chunk
    chunked = evaluate_points(chart, pts, methods, checks=["gauss_codazzi"])
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
    results, corollary1 and jacobi's residual and w are bit for bit the same
    under any FDParams."""
    h2_chart = random_graph_chart(exp_model(heisenberg(2)), 5, terms=4)
    h2_pts = np.random.default_rng(6).uniform(-0.4, 0.4, (4, 4))
    cylinder = cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1))
    leaf = foliation_leaf_chart()
    grid = np.array([[x, y] for x in (-0.5, 0.3) for y in (-0.2, 0.4)])
    outcomes, oracles = [], []
    for fd in (FDParams(), FDParams(step=1e-3, levels=1)):
        evals = evaluate_points(h2_chart, h2_pts, ["general", "h_type", "heisenberg"], fd)
        rows = (evals.dh, [rep.coeffs for rep in evals.reports.values()])
        gc = evaluate_points(leaf, grid, ["numeric_oracle"], fd, checks=["gauss_codazzi"]).gauss_codazzi
        cylinder_ev = evaluate_points(cylinder, grid, ["numeric_oracle"], fd)  # jacobi beside a moving oracle
        oracles.append(cylinder_ev.reports["numeric_oracle"].coeffs)
        corollary1 = central_h_variation(cylinder, cylinder_ev)[1]
        jacobi = jacobi_residuals(cylinder, cylinder_ev, [1.0, 0.0, 0.0])
        outcomes.append((rows, gc, corollary1, cylinder_ev.reports["general"].tangential_norm, jacobi))
    (((dh, coeffs), gc, corollary1, defect, jacobi),
     ((dh_b, coeffs_b), gc_b, corollary1_b, defect_b, jacobi_b)) = outcomes
    np.testing.assert_array_equal(dh, dh_b)
    for a, b in zip(coeffs, coeffs_b):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(gc, gc_b)
    np.testing.assert_array_equal(corollary1, corollary1_b)
    np.testing.assert_array_equal(defect, defect_b)  # the gate's input, the same under both
    assert defect.max() <= 1e-3  # harmonic: a job's corollary1 gate is open
    for a, b in zip(jacobi, jacobi_b, strict=True):  # the residual and w
        np.testing.assert_array_equal(a, b)
    assert jacobi[1].min() > 0.0
    assert np.abs(oracles[0] - oracles[1]).max() > 1e-8  # while the oracle moves


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
        gc = evaluate_points(leaf, gc_pts, checks=["gauss_codazzi"]).gauss_codazzi
        outcomes.append((dh, gc))
    (dh, gc), (dh_b, gc_b) = outcomes
    assert np.abs(dh).max() > 0.1
    np.testing.assert_allclose(dh_b, dh, rtol=1e-14, atol=1e-15)
    assert np.abs(gc - gc_b).max() <= 1e-15


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


def gauss_codazzi(chart, points):
    """The record's Gauss-Codazzi residual at each of the points, (N,)."""
    return evaluate_points(chart, np.asarray(points, dtype=float), checks=["gauss_codazzi"]).gauss_codazzi


def test_gauss_codazzi_identity_exact():
    """The ambient term the leaf's Gauss equation reads, <R(F1, F2) F1, normal> in
    the adapted frame, equals the product of the two normal norms."""
    chart = foliation_leaf_chart()
    ev = evaluate_points(chart, [[x, 0.0] for x in (0.4, 0.9, 1.6)])
    f1, f2, eta = np.moveaxis(ev.frame.ys, 1, 0)
    term = (curvature(chart.model.algebra, f1, f2, f1) * eta).sum(axis=1)
    assert term == pytest.approx(ev.frame.s * ev.frame.c, abs=1e-10)


def test_gauss_codazzi_leaf_residuals():
    chart = foliation_leaf_chart()
    assert gauss_codazzi(chart, [[x, 0.0] for x in np.linspace(0.35, 2.0, 10)]).max() < 5e-4


def test_gauss_codazzi_evaluates_a_normal_the_frame_splits():
    """At u1 = 5e-9 the leaf's horizontal part has norm 5e-9, above NORMAL_SPLIT_TOL,
    and the residual reads rounding, as at u1 = 0 where the frame drops it."""
    chart = foliation_leaf_chart()
    ev = evaluate_points(chart, [[5e-9, 0.2], [0.0, 0.2]], checks=["gauss_codazzi"])
    assert ev.frame.s.tolist() == [pytest.approx(5e-9, rel=1e-9), 0.0]
    assert ev.gauss_codazzi.max() < 1e-13


def test_gauss_codazzi_abelian_limit():
    model = exp_model(abelian_3d())
    chart = expression_chart(
        model, ["u1", "u2", "0.4*u1 + 0.7*u2"], [(-1, 1), (-1, 1)]
    )
    assert gauss_codazzi(chart, [[0.1, -0.2]])[0] < 1e-8


def _catalog_cases():
    """(name, chart, points) for every CATALOG entry each model admits: the nil_polarized
    model's five, and graph and random_graph over H(1..3), FREE5 and the quaternionic
    algebra; the leaf's points include u1 = 0, where its normal is central."""
    polarized = nil_polarized_model()
    rng = np.random.default_rng(42)
    params = {"nil_foliation_leaf": {"z0": 0.3}, "nil_vertical_plane": {},
              "nil_cylinder": {"f1": "cos(u1)", "f2": "2*sin(u1)"}, "graph": {"expr": "0.3*u1*u2 + 0.2*sin(u1)"},
              "random_graph": {"terms": 6}}
    for name, entry in CATALOG.items():
        domain = [(-0.8, 0.8)] * 2 if entry.domain is None else None
        points = rng.uniform(-0.5, 0.5, (4, 2))
        if name == "nil_foliation_leaf":
            points[:2, 0] = 0.0
        yield f"nil_polarized-{name}", catalog_chart(name, polarized, params[name], domain, seed=3), points
    for alg_name, alg in FRAME_ALGEBRAS.items():
        model = exp_model(alg)
        expr = f"0.3*u1*u2 + 0.2*sin(u{alg.n}) - 0.1*u2^2"
        for name, chart in (("graph", graph_chart(model, expr, [(-0.8, 0.8)] * alg.n)),
                            ("random_graph", random_graph_chart(model, 5, terms=6))):
            yield f"{alg_name}-{name}", chart, rng.uniform(-0.5, 0.5, (3, alg.n))


def test_gauss_codazzi_in_every_dimension():
    """Both equations hold to rounding at every point of every catalog chart over every
    algebra: the largest Codazzi or Gauss component is at most 1e-13."""
    start = time.perf_counter()
    worst = {name: gauss_codazzi(chart, points).max() for name, chart, points in _catalog_cases()}
    assert len(worst) == 5 + 2 * len(FRAME_ALGEBRAS)
    assert max(worst.values()) <= 1e-13, worst
    assert time.perf_counter() - start <= 5.0


def forbid_chart_evaluation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a chart, frame or Gauss map was evaluated, or an FD stencil taken")

    for name in ("expression_jets", "adapted_frame", "gauss_map"):
        monkeypatch.setattr(f"nilgauss.surfaces.{name}", forbidden)
    for name in ("adapted_frame", "gauss_map", "gradient_hessian"):
        monkeypatch.setattr(f"nilgauss.laplacian.{name}", forbidden)
    monkeypatch.setattr("nilgauss.fd._stencil_values", forbidden)


def test_gauss_codazzi_evaluates_no_chart_and_no_frames(monkeypatch):
    """h, g and their derivatives come from the complex-step rows and their h; no
    chart, adapted frame or gauss_map call."""
    chart = foliation_leaf_chart()
    rows = complex_step_jets(chart, np.array([[x, 0.0] for x in (0.0, 0.5, 1.2)]))[1]
    h = _second_fundamental(chart, rows)
    forbid_chart_evaluation(monkeypatch)
    assert gauss_codazzi_residuals(chart, rows, h).max() < 1e-13


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
    assert gauss_codazzi(GC_CHARTS[name](1), GC_POINTS).max() < 1e-10


@pytest.mark.parametrize("name", GC_CHARTS)
def test_gauss_codazzi_orientation_invariance(name):
    plus, minus = (gauss_codazzi(GC_CHARTS[name](sign), GC_POINTS) for sign in (1, -1))
    assert minus == pytest.approx(plus, abs=1e-10)


def _nil_graph_central_point():
    """The point of the nil_graph chart where its normal is central: f_u1 = 0 and
    f_u2 = u1 for f = 0.3 u1 u2 + 0.2 sin u1 - 0.1 u2^2, so u2 = -3.5 u1."""
    x = 0.2
    for _ in range(8):
        x -= (-1.05 * x + 0.2 * np.cos(x)) / (-1.05 - 0.2 * np.sin(x))
    return [x, -3.5 * x]


GC_GRIDS = {
    # each grid holds central normals: at u1 = 0 on the leaf, at the origin of
    # exp_h1 and at one computed point of nil_graph
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
    """A grid's residuals are, bit for bit, those of its points evaluated one by one."""
    build, points = GC_GRIDS[name]
    chart = build()
    stacked = gauss_codazzi(chart, points)
    single = np.concatenate([gauss_codazzi(chart, [u]) for u in points])
    assert stacked.shape == (len(points),)
    assert stacked.tobytes() == single.tobytes()
    assert stacked.max() < 1e-13


def test_gauss_codazzi_list_evaluates_no_chart(monkeypatch):
    """The check adds no chart evaluation to its job: its chunks are a quarter the
    size, the same complex-step rows in all, with one checker call on each chunk's
    2 k rows."""
    chart = foliation_leaf_chart()
    points = np.array([[x, 0.2] for x in (-1.0, 0.0, 0.4, 1.3)])
    walks, calls, checker = [], [], laplacian.gauss_codazzi_residuals

    def jets(exprs, p, order=2):
        walks.append(len(p))
        return expression_jets(exprs, p, order)

    def counted(chart_, rows, h):
        calls.append((len(rows.point), np.iscomplexobj(rows.point), h.shape))
        return checker(chart_, rows, h)

    monkeypatch.setattr("nilgauss.surfaces.expression_jets", jets)
    monkeypatch.setattr("nilgauss.laplacian.gauss_codazzi_residuals", counted)
    monkeypatch.setattr("nilgauss.laplacian.FIELD_ROWS", 48)  # 12 points of 2 rows per chunk, 3 with the check
    evaluate_points(chart, points)
    assert walks == [8]
    walks.clear()
    evaluate_points(chart, points, checks=["gauss_codazzi"])
    assert walks == [6, 2]
    assert calls == [(6, True, (6, 2, 2)), (2, True, (2, 2, 2))]


@pytest.mark.parametrize("name", GC_GRIDS)
def test_gauss_codazzi_reads_the_records_second_fundamental_form(monkeypatch, name):
    """Gauss-Codazzi takes h_ab and its derivatives from the chunk's one
    ``_second_fundamental`` call, which n H reads too: a job with the check makes the
    same two calls as one without it (the chunk's and ``shape_data``'s), and the checker
    contracts the curvature once."""
    build, points = GC_GRIDS[name]
    chart = build()
    seen, calls, forms = {}, [], []
    second_fundamental, checker = _second_fundamental, laplacian.gauss_codazzi_residuals

    def counted_form(chart_, cj):
        forms.append(second_fundamental(chart_, cj))
        return forms[-1]

    def counted_curvature(*args):
        calls.append(len(args[1]))
        return curvature(*args)

    def recorded(chart_, rows, h):
        seen["h"] = h
        return checker(chart_, rows, h)

    monkeypatch.setattr("nilgauss.surfaces._second_fundamental", counted_form)
    monkeypatch.setattr("nilgauss.laplacian._second_fundamental", counted_form)
    monkeypatch.setattr("nilgauss.laplacian.curvature", counted_curvature)
    monkeypatch.setattr("nilgauss.laplacian.gauss_codazzi_residuals", recorded)
    evaluate_points(chart, np.array(points))
    assert len(forms) == 2 and calls == []
    forms.clear()
    evaluate_points(chart, np.array(points), checks=["gauss_codazzi"])
    assert len(forms) == 2 and seen["h"] is forms[0]
    assert calls == [len(points)]


@pytest.mark.parametrize("name", GC_GRIDS)
def test_gauss_codazzi_job_solves_its_chart_directions_once(monkeypatch, name):
    """A Gauss-Codazzi job solves for the chart directions of its frames once, in
    ``shape_data``; the checker reads its orthonormal frame from g."""
    build, points = GC_GRIDS[name]
    chart = build()
    shapes = []

    def counted(cj, vecs):
        shapes.append(np.shape(vecs))
        return chart_coefficients(cj, vecs)

    # under both module names by which the pipeline could reach it
    monkeypatch.setattr("nilgauss.surfaces.chart_coefficients", counted)
    monkeypatch.setattr("nilgauss.laplacian.chart_coefficients", counted, raising=False)
    assert gauss_codazzi(chart, points).max() < 1e-13
    assert shapes == [(len(points), 2, 3)]


def test_gauss_codazzi_runs_only_when_listed(monkeypatch):
    """A record gets Gauss-Codazzi residuals only when ``checks`` lists the check."""
    chart = foliation_leaf_chart()
    points = np.array([[0.0, y] for y in (-0.5, 0.0, 0.5)])
    residual = gauss_codazzi(chart, points)
    assert residual.shape == (3,) and residual.max() < 1e-13

    def forbidden(*args, **kwargs):
        raise AssertionError("the checker ran")

    monkeypatch.setattr("nilgauss.laplacian.gauss_codazzi_residuals", forbidden)
    assert evaluate_points(chart, points, ["general", "heisenberg"], checks=["prop3"]).gauss_codazzi is None


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
    Heisenberg algebra for prop3) is, bit for bit, the concatenation of its arrays over
    each point's stack of one; Gauss-Codazzi, which runs inside the evaluation, over
    each point evaluated alone."""
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
        "gauss_codazzi": lambda rec: (gauss_codazzi(chart, rec.u),),
    }
    arrays = {}
    for check, checker in checkers.items():
        if check in NEEDS and not NEEDS[check][0](alg):
            continue
        arrays[check] = checker(ev)
        for stacked, joined in zip(arrays[check], over_records(checker, rows), strict=True):
            assert stacked.shape == (len(ev),)
            assert stacked.tobytes() == joined.tobytes(), check
    assert ("prop3" in arrays) == alg.is_heisenberg and "gauss_codazzi" in arrays
    assert name != "free5" or arrays["corollary1"][1].max() > 1e-5
