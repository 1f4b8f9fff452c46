import numpy as np
import pytest

from nilgauss import adapted_frame, connection, curvature, heisenberg, ricci
from conftest import (basis, bracket, curvature_oracle, frame_x, free_two_step_5d, quaternionic_heisenberg,
                      random_unit, ricci_identity_check, v_part, z_part)


def ricci_trace_oracle(alg, a, b):
    """Independent Ricci: trace of curvature over the orthonormal basis."""
    total = 0.0
    for i in range(alg.dim_total):
        e = basis(alg.dim_total, i)
        total += curvature(alg, e, a, b) @ e
    return total


ALGEBRA_BUILDERS = {
    "h1": lambda: heisenberg(1),
    "h2": lambda: heisenberg(2),
    "free5": free_two_step_5d,
    "quat7": quaternionic_heisenberg,
}


@pytest.mark.parametrize("name", ["h1", "h2", "free5", "quat7"])
def test_geometry_tensors_are_cached_and_read_only(name):
    alg = ALGEBRA_BUILDERS[name]()
    d = alg.dim_total
    shapes = {
        "j_tensor": (d, d, d),
        "connection_tensor": (d, d, d),
        "curvature_tensor": (d, d, d, d),
        "ricci_matrix": (d, d),
    }
    for attr, shape in shapes.items():
        tensor = getattr(alg, attr)
        assert tensor.shape == shape
        assert getattr(alg, attr) is tensor
        with pytest.raises(ValueError):
            tensor[(0,) * tensor.ndim] = 1.0


def test_connection_examples(h1):
    K, L, Z = (basis(3, i) for i in range(3))
    np.testing.assert_allclose(connection(h1, K, L), 0.5 * Z)
    np.testing.assert_allclose(connection(h1, Z, Z), np.zeros(3))
    np.testing.assert_allclose(connection(h1, K, Z), -0.5 * L)
    np.testing.assert_allclose(connection(h1, Z, K), -0.5 * L)


def test_connection_metric_compatible_and_torsion_free(h1, h2, free5):
    rng = np.random.default_rng(11)
    for alg in (h1, h2, free5):
        d = alg.dim_total
        for _ in range(30):
            a, b, c = (rng.uniform(-1, 1, d) for _ in range(3))
            compat = connection(alg, a, b) @ c + b @ connection(alg, a, c)
            assert abs(compat) < 1e-12
            torsion = connection(alg, a, b) - connection(alg, b, a) - bracket(alg, a, b)
            assert np.abs(torsion).max() < 1e-12


def test_curvature_examples(h1):
    K, L, Z = (basis(3, i) for i in range(3))
    np.testing.assert_allclose(curvature(h1, K, Z, Z), 0.25 * K)
    np.testing.assert_allclose(curvature(h1, Z, Z, Z), np.zeros(3))
    np.testing.assert_allclose(curvature(h1, K, K, L), np.zeros(3))
    np.testing.assert_allclose(curvature_oracle(h1, K, Z, Z), 0.25 * K)


def test_oracle_central_triple_vanishes(free5):
    za, zb, zc = basis(5, 3), basis(5, 4), basis(5, 3) + basis(5, 4)
    np.testing.assert_allclose(curvature_oracle(free5, za, zb, zc), np.zeros(5))


@pytest.mark.parametrize("name", ["h1", "h2", "free5", "quat7"])
def test_curvature_suite_random(name):
    """Case table vs oracle, Bianchi, pair symmetry, Ricci trace, J identity."""
    alg = ALGEBRA_BUILDERS[name]()
    d = alg.dim_total
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(100):
        x, y, w, v = (rng.uniform(-1, 1, d) for _ in range(4))
        r_closed = curvature(alg, x, y, w)
        r_oracle = curvature_oracle(alg, x, y, w)
        assert np.abs(r_closed - r_oracle).max() < 1e-12
        anti = curvature(alg, x, y, w) + curvature(alg, y, x, w)
        assert np.abs(anti).max() < 1e-12
        bianchi = (
            curvature(alg, x, y, w)
            + curvature(alg, y, w, x)
            + curvature(alg, w, x, y)
        )
        assert np.abs(bianchi).max() < 1e-12
        pair = curvature(alg, x, y, w) @ v - curvature(alg, w, v, x) @ y
        assert abs(pair) < 1e-12
        assert abs(ricci(alg, x, y) - ricci_trace_oracle(alg, x, y)) < 1e-12


def test_ricci_values(h1, h2):
    K = basis(3, 0)
    Z = basis(3, 2)
    assert ricci(h1, K, K) == pytest.approx(-0.5, abs=1e-14)
    assert ricci(h1, Z, Z) == pytest.approx(0.5, abs=1e-14)
    assert ricci(h1, K, Z) == pytest.approx(0.0, abs=1e-14)
    assert ricci(h2, basis(5, 0), basis(5, 0)) == pytest.approx(-0.5, abs=1e-14)
    assert ricci(h2, basis(5, 4), basis(5, 4)) == pytest.approx(1.0, abs=1e-14)
    # trace oracle agrees on the closed values
    assert ricci_trace_oracle(h1, Z, Z) == pytest.approx(0.5, abs=1e-14)


def test_ricci_h_type_normal_formula(quat7):
    """Ric(normal, normal) = (q/4) c^2 - (n+1-q)/2 s^2 on Heisenberg type."""
    rng = np.random.default_rng(5)
    q = quat7.dim_v
    n = quat7.n
    for _ in range(20):
        g = random_unit(rng, 7)
        s = np.linalg.norm(v_part(quat7, g))
        c = np.linalg.norm(z_part(quat7, g))
        expected = (q / 4.0) * c**2 - 0.5 * (n + 1 - q) * s**2
        assert ricci(quat7, g, g) == pytest.approx(expected, abs=1e-12)


def test_ricci_identity_standard_basis(h1):
    K = basis(3, 0)
    L = basis(3, 1)
    assert ricci_identity_check(h1, K, K, [K, L]) < 1e-12
    assert ricci_identity_check(h1, np.zeros(3), K, [K, L]) == pytest.approx(0.0)


def test_ricci_identity_random_rotations(h1, h2, quat7):
    rng = np.random.default_rng(17)
    for alg in (h1, h2, quat7):
        d, q = alg.dim_total, alg.dim_v
        for _ in range(40):
            rot, _ = np.linalg.qr(rng.normal(size=(q, q)))
            frame = np.zeros((q, d))
            frame[:, :q] = rot
            x = v_part(alg, rng.uniform(-1, 1, d))
            y = v_part(alg, rng.uniform(-1, 1, d))
            assert ricci_identity_check(alg, x, y, frame) < 1e-10


def test_ricci_identity_adapted_collection(h2):
    """The horizontal parts X_1..X_q, X_{n+1} of an adapted frame qualify."""
    rng = np.random.default_rng(23)
    for _ in range(10):
        frame = adapted_frame(h2, random_unit(rng, 5)[None])[0]
        rows = [frame_x(frame, k) for k in range(1, frame.q + 1)] + [frame.x_n1]
        x = v_part(h2, rng.uniform(-1, 1, 5))
        y = v_part(h2, rng.uniform(-1, 1, 5))
        assert ricci_identity_check(h2, x, y, rows) < 1e-10


def test_ricci_identity_rejects_bad_frame(h1):
    K = basis(3, 0)
    with pytest.raises(ValueError, match="resolve the identity"):
        ricci_identity_check(h1, K, K, [K, 2.0 * K])


@pytest.mark.parametrize("name", ["h1", "h2", "free5", "quat7"])
def test_stacked_curvature_rows_equal_single_calls(name):
    """Stacks broadcast over leading axes; every row is the single call bit for bit."""
    alg = ALGEBRA_BUILDERS[name]()
    d = alg.dim_total
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, 6, 1, d))
    w = rng.uniform(-1, 1, (4, d))
    stacked = curvature(alg, x, y, w)
    assert stacked.shape == (6, 4, d)
    for i in range(6):
        for j in range(4):
            assert np.array_equal(stacked[i, j], curvature(alg, x[i, 0], y[i, 0], w[j]))
    with pytest.raises(ValueError, match="length dim_total"):
        curvature(alg, x[..., :-1], y, w)
    with pytest.raises(ValueError, match="length dim_total"):
        curvature_oracle(alg, x[:, 0], y[:, 0], x[:, 0])  # the reference takes single vectors
