"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single CRITERION line with its timing so the suite
doubles as a human-readable gate.  Runtime budgets are asserted with the
stated limits.
"""

import time

import numpy as np
import pytest

from nilgauss import (
    adapted_frame,
    closed_form_report,
    curvature,
    cylinder_chart,
    evaluate_points,
    exp_model,
    foliation_leaf_chart,
    gauss_map,
    harmonicity_cmc_residuals,
    heisenberg,
    jacobi_residuals,
    laplacian_general,
    laplacian_h_type,
    laplacian_heisenberg,
    laplacian_numeric,
    mean_curvature,
    random_graph_chart,
    ricci,
    vertical_plane_chart,
)
from nilgauss.surfaces import ShapeData
from conftest import (assert_oracle_allowance, curvature_oracle, free_two_step_5d, gram_residual,
                      quaternionic_heisenberg, random_unit, ricci_identity_check, v_part)


class timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "FAIL" if exc_type else "PASS"
        print(f"CRITERION {self.label}: {status} ({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"runtime budget exceeded: {elapsed:.2f}s"


def test_criterion_1_worked_example_on_the_leaf():
    with timer("1 leaf worked example", 1.0):
        chart = foliation_leaf_chart()
        for x in (0.0, 0.5, 1.0, 2.0):
            u = [x, 0.0]
            rep, _, shape = closed_form_report(chart, u)
            assert abs(shape.h) < 1e-8
            expected_b2 = (x * x - 1) ** 2 / (2 * (1 + x * x) ** 2)
            assert shape.norm_b2 == pytest.approx(expected_b2, abs=1e-8)
            target = np.array(
                [0.0, -x / (1 + x * x) ** 2, -1.0 / (1 + x * x) ** 2]
            )
            np.testing.assert_allclose(rep.coeffs, target, atol=1e-6)
            num = laplacian_numeric(chart, u)
            np.testing.assert_allclose(num.coeffs, target, atol=5e-4)


def test_criterion_2_oracle_equivalence_random_charts():
    with timer("2 closed form vs numeric oracle", 60.0):
        for m, n_charts, seed in ((1, 20, 2024), (2, 10, 2025)):
            alg = heisenberg(m)
            model = exp_model(alg)
            rng = np.random.default_rng(seed)
            n = alg.n
            for k in range(n_charts):
                chart = random_graph_chart(model, seed * 100 + k)
                points = rng.uniform(-0.45, 0.45, size=(5, n))
                assert_oracle_allowance(evaluate_points(chart, points, ["general", "numeric_oracle"]))


def test_criterion_3_specialization_identities():
    with timer("3 specialized forms agree with the general form", 5.0):
        rng = np.random.default_rng(7)

        def sample(alg, check_heisenberg):
            d, n = alg.dim_total, alg.n
            frame = adapted_frame(alg, random_unit(rng, d)[None])
            b = rng.uniform(-1, 1, (n, n))
            b = 0.5 * (b + b.T)
            shape = ShapeData(b=b[None], h=np.array([np.trace(b) / n]), norm_b2=np.array([(b * b).sum()]))
            dh = rng.uniform(-1, 1, (1, n))
            gen = laplacian_general(alg, frame, shape, dh)
            ht = laplacian_h_type(alg, frame, shape, dh)
            assert np.abs(ht.coeffs - gen.coeffs).max() < 1e-10
            if check_heisenberg:
                hb = laplacian_heisenberg(alg, frame, shape, dh)
                assert np.abs(hb.coeffs - gen.coeffs).max() < 1e-10

        h1, h2, quat = heisenberg(1), heisenberg(2), quaternionic_heisenberg()
        for _ in range(15):
            sample(h1, check_heisenberg=True)
        for _ in range(15):
            sample(h2, check_heisenberg=True)
        for _ in range(20):
            sample(quat, check_heisenberg=False)


def test_criterion_4_curvature_and_ricci_suite():
    with timer("4 curvature/Ricci suite", 5.0):
        algebras = [heisenberg(1), heisenberg(2), free_two_step_5d()]
        rng = np.random.default_rng(11)
        for alg in algebras:
            d, q = alg.dim_total, alg.dim_v

            def ricci_trace(a, b):
                total = 0.0
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = 1.0
                    total += curvature(alg, e, a, b) @ e
                return total

            for _ in range(100):
                x, y, w, v = (rng.uniform(-1, 1, d) for _ in range(4))
                assert np.abs(curvature(alg, x, y, w) - curvature_oracle(alg, x, y, w)).max() < 1e-12
                bianchi = (
                    curvature(alg, x, y, w)
                    + curvature(alg, y, w, x)
                    + curvature(alg, w, x, y)
                )
                assert np.abs(bianchi).max() < 1e-12
                pair = curvature(alg, x, y, w) @ v - curvature(alg, w, v, x) @ y
                assert abs(pair) < 1e-12
                assert abs(ricci(alg, x, y) - ricci_trace(x, y)) < 1e-12
                rot, _ = np.linalg.qr(rng.normal(size=(q, q)))
                frame = np.zeros((q, d))
                frame[:, :q] = rot
                xv = v_part(alg, x)
                yv = v_part(alg, y)
                assert ricci_identity_check(alg, xv, yv, frame) < 1e-12


def test_criterion_5_cylinder_family():
    with timer("5 cylinder family", 20.0):
        profiles = [
            ("u1", "0"),
            ("u1", "0.5*u1"),
            ("cos(u1)", "sin(u1)"),
            ("2*cos(u1)", "2*sin(u1)"),
            ("1 + cos(u1)", "sin(u1)"),
        ]
        alg = heisenberg(1)
        for f1, f2 in profiles:
            chart = cylinder_chart(f1, f2, (-0.6, 0.6), (-1.0, 1.0))
            pts = [np.array([s, t]) for s in (-0.45, 0.0, 0.45) for t in (-0.5, 0.5)]
            hs = [mean_curvature(chart, u) for u in pts]
            assert max(hs) - min(hs) < 1e-6
            ev = evaluate_points(chart, np.array(pts), ["numeric_oracle"])
            assert (ev.reports["general"].tangential_norm < 1e-3).all()
            assert np.max(harmonicity_cmc_residuals(ev.shape, ev.frame)) < 1e-6
            normals = gauss_map(chart, np.array(pts))
            mean_g = normals.mean(axis=0)
            direction = mean_g / np.linalg.norm(mean_g)
            ws = normals @ direction
            assert ws.min() > 0.0  # image inside an open hemisphere
            residual, w = jacobi_residuals(chart, ev, direction)
            assert residual.max() < 5e-4
            assert w.min() > 0.0


def test_criterion_6_negative_control_leaf():
    with timer("6 non-harmonic minimal leaf", 1.0):
        chart = foliation_leaf_chart()
        x = 0.7
        rep, _, _ = closed_form_report(chart, [x, 0.0])
        assert not rep.tangential_norm < 1e-3
        assert rep.tangential_norm == pytest.approx(abs(x) / (1 + x * x) ** 2, abs=1e-4)


def test_criterion_7_gauss_codazzi_residuals():
    with timer("7 Gauss-Codazzi residuals on the leaf", 5.0):
        chart = foliation_leaf_chart()
        points = np.array([[x, 0.0] for x in np.linspace(0.0, 2.0, 10)])  # a central normal at x = 0
        ev = evaluate_points(chart, points, checks=["gauss_codazzi"])
        assert ev.gauss_codazzi.max() < 5e-4
        # the ambient term of the Gauss equation in the adapted frame: <R(F1, F2) F1, normal> = s c
        f1, f2, eta = np.moveaxis(ev.frame.ys, 1, 0)
        term = (curvature(chart.model.algebra, f1, f2, f1) * eta).sum(axis=1)
        assert term == pytest.approx(ev.frame.s * ev.frame.c, abs=1e-10)


def test_criterion_8_degenerate_frames():
    with timer("8 degenerate normals", 1.0):
        # purely central: the leaf at x = 0; purely horizontal: the plane
        leaf = foliation_leaf_chart()
        plane = vertical_plane_chart()
        cases = [(leaf, [0.0, 0.0]), (plane, [0.2, -0.1])]
        for chart, u in cases:
            ev = evaluate_points(chart, [u], ["general", "h_type", "heisenberg", "numeric_oracle"])
            assert gram_residual(ev.frame) < 1e-10
            for rep in ev.reports.values():
                assert np.isfinite(rep.coeffs).all()
        # synthetic degenerate normals in dimension five
        h2 = heisenberg(2)
        for normal in (np.eye(5)[4], np.eye(5)[1]):
            frame = adapted_frame(h2, normal[None])
            assert gram_residual(frame) < 1e-10
