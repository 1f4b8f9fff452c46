import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nilgauss import (
    NilpotentAlgebra,
    algebra_from_json,
    heisenberg,
    is_heisenberg_type,
    validate,
)
from conftest import abelian_3d, basis, bracket, quaternionic_heisenberg, v_part, z_part


def brute_force_j(alg, z, x):
    """Independent J(z)x: assemble <[x, e_j], z> coordinate by coordinate."""
    out = np.zeros(alg.dim_total)
    for j in range(alg.dim_total):
        out[j] = bracket(alg, x, basis(alg.dim_total, j)) @ z
    return out


def test_heisenberg_structure(h1):
    assert h1.dim_total == 3
    assert h1.dim_center == 1
    K, L, Z = (basis(3, i) for i in range(3))
    np.testing.assert_allclose(bracket(h1, K, L), Z)
    np.testing.assert_allclose(bracket(h1, Z, K), np.zeros(3))
    np.testing.assert_allclose(bracket(h1, L, Z), np.zeros(3))


def test_heisenberg_dims():
    h2 = heisenberg(2)
    assert (h2.dim_total, h2.dim_center) == (5, 1)
    assert validate(heisenberg(3)).ok
    with pytest.raises(ValueError):
        heisenberg(0)


def test_j_matrix_matches_brute_force(h1, h2):
    K, L, Z = (basis(3, i) for i in range(3))
    np.testing.assert_allclose(h1.j_matrix(Z) @ K, L)
    np.testing.assert_allclose(h1.j_matrix(Z) @ K, brute_force_j(h1, Z, K))
    np.testing.assert_allclose(h1.j_matrix(Z) @ L, -K)
    np.testing.assert_allclose(h1.j_matrix(Z) @ L, brute_force_j(h1, Z, L))
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = v_part(h2, rng.normal(size=5))
        z = z_part(h2, rng.normal(size=5))
        np.testing.assert_allclose(
            h2.j_matrix(z) @ x, brute_force_j(h2, z, x), atol=1e-13
        )


def test_j_of_zero_vanishes(h1):
    np.testing.assert_allclose(h1.j_matrix(np.zeros(3)) @ basis(3, 0), np.zeros(3))


def test_j_squared_is_minus_identity_on_h2(h2):
    z = basis(5, 4)
    for i in range(4):
        x = basis(5, i)
        np.testing.assert_allclose(h2.j_matrix(z) @ (h2.j_matrix(z) @ x), -x, atol=1e-13)


@given(
    x=arrays(float, 4, elements=st.floats(-2, 2)),
    y=arrays(float, 4, elements=st.floats(-2, 2)),
    z=arrays(float, 1, elements=st.floats(-2, 2)),
    alpha=st.floats(-2, 2),
)
@settings(max_examples=60, deadline=None)
def test_j_skew_and_linear(x, y, z, alpha):
    h2 = heisenberg(2)
    xv = np.concatenate([x, [0.0]])
    yv = np.concatenate([y, [0.0]])
    zv = np.concatenate([np.zeros(4), z])
    skew = (h2.j_matrix(zv) @ xv) @ yv + (h2.j_matrix(zv) @ yv) @ xv
    assert abs(skew) < 1e-12
    lin = h2.j_matrix(alpha * zv + zv) @ xv - (alpha * (h2.j_matrix(zv) @ xv) + (h2.j_matrix(zv) @ xv))
    assert np.abs(lin).max() < 1e-12
    duality = (h2.j_matrix(zv) @ xv) @ yv - bracket(h2, xv, yv) @ zv
    assert abs(duality) < 1e-12


@given(
    x=arrays(float, 3, elements=st.floats(-3, 3)),
    y=arrays(float, 3, elements=st.floats(-3, 3)),
)
@settings(max_examples=60, deadline=None)
def test_bracket_antisymmetry(x, y):
    h1 = heisenberg(1)
    np.testing.assert_allclose(bracket(h1, x, y), -bracket(h1, y, x), atol=1e-12)
    np.testing.assert_allclose(bracket(h1, x, x), np.zeros(3), atol=1e-12)


def test_trace_j_squared(h1, h2):
    for alg, m in ((h1, 1), (h2, 2)):
        z = basis(alg.dim_total, alg.dim_total - 1)
        j = alg.j_matrix(z)
        assert np.trace(j @ j) == pytest.approx(-2 * m, abs=1e-12)


def test_v_z_split(h2):
    rng = np.random.default_rng(3)
    v = rng.normal(size=5)
    np.testing.assert_allclose(v_part(h2, v) + z_part(h2, v), v)
    assert np.abs(v_part(h2, v)[4:]).max() == 0.0
    assert np.abs(z_part(h2, v)[:4]).max() == 0.0


def test_is_heisenberg_type_positive(h1, h2):
    assert is_heisenberg_type(h1)
    assert is_heisenberg_type(h2)
    assert is_heisenberg_type(heisenberg(3))
    assert is_heisenberg_type(quaternionic_heisenberg())


def test_is_heisenberg_type_abelian_factor_fails():
    # heisenberg(1) plus an extra horizontal direction that brackets to zero
    c = np.zeros((4, 4, 4))
    c[0, 1, 3] = 1.0
    c[1, 0, 3] = -1.0
    alg = NilpotentAlgebra(dim_total=4, dim_center=1, bracket_tensor=c)
    assert not is_heisenberg_type(alg)
    # the extra direction commutes with everything, so the declared center is wrong
    assert "true center" in validate(alg).names()


def test_is_heisenberg_type_scaled_fails(h1):
    alg = NilpotentAlgebra(3, 1, 2.0 * h1.bracket_tensor)
    assert not is_heisenberg_type(alg)
    assert validate(alg).ok


def test_is_heisenberg_type_free5_fails(free5):
    assert not is_heisenberg_type(free5)
    assert validate(free5).ok


def test_one_h_type_tolerance(h1):
    """The function and the cached flag that gates h_type, heisenberg and prop3 agree."""
    alg = NilpotentAlgebra(3, 1, (1.0 + 1e-10) * h1.bracket_tensor)
    assert is_heisenberg_type(alg)
    assert alg.is_h_type and alg.is_heisenberg


def test_heisenberg_flags(h1, h2, free5):
    assert h1.is_heisenberg and h2.is_heisenberg and h2.is_h_type
    quat = quaternionic_heisenberg()
    assert quat.is_h_type and not quat.is_heisenberg  # three-dimensional center
    assert not free5.is_h_type and not free5.is_heisenberg
    scaled = NilpotentAlgebra(3, 1, 2.0 * h1.bracket_tensor)
    assert not scaled.is_h_type and not scaled.is_heisenberg


def test_validate_clean(h1):
    assert validate(h1).ok


def test_validate_bracket_into_v():
    c = np.zeros((3, 3, 3))
    c[0, 1, 0] = 1.0
    c[1, 0, 0] = -1.0
    report = validate(NilpotentAlgebra(3, 1, c))
    assert "bracket lands in center" in report.names()


def test_validate_abelian():
    report = validate(abelian_3d())
    assert "non-abelian" in report.names()


def test_validate_center_not_central():
    c = np.zeros((3, 3, 3))
    c[0, 2, 2] = 1.0
    c[2, 0, 2] = -1.0
    report = validate(NilpotentAlgebra(3, 1, c))
    assert "center is central" in report.names()


def test_validate_antisymmetry():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # mirror entry missing
    report = validate(NilpotentAlgebra(3, 1, c))
    assert "antisymmetry" in report.names()


def test_constructor_guards():
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, 3, np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, 1, np.zeros((2, 2, 2)))


def test_algebra_from_json_heisenberg(h1):
    doc = {
        "dim_total": 3,
        "dim_center": 1,
        "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1.0}],
    }
    alg = algebra_from_json(doc)
    np.testing.assert_allclose(alg.bracket_tensor, h1.bracket_tensor)
    assert validate(alg).ok


def test_algebra_from_json_rejects_bad_entries():
    base = {"dim_total": 3, "dim_center": 1}
    with pytest.raises(ValueError, match="i < j"):
        algebra_from_json({**base, "brackets": [{"i": 2, "j": 1, "k": 3, "c": 1.0}]})
    with pytest.raises(ValueError, match="out of range"):
        algebra_from_json({**base, "brackets": [{"i": 1, "j": 4, "k": 3, "c": 1.0}]})
    with pytest.raises(ValueError, match="malformed"):
        algebra_from_json({"dim_center": 1})


def test_free5_is_valid_two_step(free5):
    assert validate(free5).ok
    e1, e2, e4 = basis(5, 0), basis(5, 1), basis(5, 3)
    np.testing.assert_allclose(bracket(free5, e1, e2), e4)
