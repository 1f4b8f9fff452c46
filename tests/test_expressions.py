import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgauss.expressions import MAX_DEPTH, Jet, ParseError, parse_expression


def test_basic_evaluation():
    assert parse_expression("cos(u1)")([0.0]) == 1.0
    assert parse_expression("2 + 3*4")([]) == 14.0
    assert parse_expression("(1+2)*4")([]) == 12.0
    assert parse_expression("u1 - u2/2")([3.0, 4.0]) == 1.0
    assert parse_expression("2^3")([]) == 8.0
    assert parse_expression("u1^-2")([2.0]) == 0.25


def test_precedence_power_binds_before_unary_minus():
    assert parse_expression("-u1^2")([3.0]) == -9.0
    assert parse_expression("(-u1)^2")([3.0]) == 9.0
    assert parse_expression("2*u1^2")([3.0]) == 18.0


def test_norm_b2_formula_of_the_leaf():
    expr = parse_expression("(u1^2 - 1)^2 / (2*(1 + u1^2)^2)")
    for x in (0.0, 0.5, 1.0, 2.0, -1.3):
        expected = (x * x - 1) ** 2 / (2 * (1 + x * x) ** 2)
        assert expr([x]) == pytest.approx(expected, abs=1e-15)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expression("u1 +")
    assert err.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("foo + 1")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("u0 + 1")


def test_arity_mismatch():
    with pytest.raises(ParseError, match="exactly one argument"):
        parse_expression("sin(u1, u2)")
    with pytest.raises(ParseError, match="expected"):
        parse_expression("sin u1")


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError, match="integer literal"):
        parse_expression("u1^2.5")
    with pytest.raises(ParseError, match="integer literal"):
        parse_expression("u1^u2")


def test_missing_parameters_detected():
    expr = parse_expression("u3 + 1")
    with pytest.raises(ValueError, match="u3"):
        expr([1.0, 2.0])


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_totality(text):
    try:
        parse_expression(text)
    except ParseError:
        pass  # structured diagnostics are the only acceptable failure


@pytest.mark.parametrize(
    "build",
    [
        lambda k: "(" * (k - 1) + "u1" + ")" * (k - 1),
        lambda k: "+".join(["u1"] * k),
        lambda k: "-" * (k - 1) + "u1",
        lambda k: "sin(" * (k - 1) + "u1" + ")" * (k - 1),
    ],
    ids=["parentheses", "sum", "minus", "function"],
)
def test_depth_bound(build):
    """Expressions up to MAX_DEPTH levels parse and evaluate; deeper ones are parse errors."""
    expr = parse_expression(build(MAX_DEPTH))
    assert expr.max_param == 1
    assert np.isfinite(expr.jets([[0.3], [0.4]]).hess).all()
    with pytest.raises(ParseError, match="deeper than"):
        parse_expression(build(MAX_DEPTH + 1))


@pytest.mark.parametrize(
    "source, max_param",
    [
        ("2*(1 - 0.5)^3 + sin(1)", 0),
        ("sin(u3)", 3),
        ("u1 + (u4 - 1)^5", 4),
        ("u1 * -u2", 2),
        ("u1 + u3", 3),
        ("u1 - u3", 3),
        ("u1 * u3", 3),
        ("u1 / u3", 3),
    ],
    ids=["constant", "fn", "pow", "neg", "add", "sub", "mul", "div"],
)
def test_max_param_reaches_every_node_kind(source, max_param):
    """The highest parameter index is found in every kind of node, and an exponent is not one."""
    assert parse_expression(source).max_param == max_param


@pytest.mark.parametrize(
    "source",
    [
        "sin(u1)*cos(u2) + u1^3",
        "exp(u1/4) - sqrt(u2 + 2)",
        "(u1^2 - 1)^2 / (2*(1 + u1^2)^2)",
        "u1*u2 - 0.5*u2^2 + cos(u1 - u2)",
    ],
)
def test_jet_derivatives_match_finite_differences(source):
    expr = parse_expression(source)
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        u = rng.uniform(-0.9, 0.9, size=2)
        jet = expr.jet(u)
        assert jet.val == pytest.approx(expr(u), abs=1e-14)
        for a in range(2):
            up, um = u.copy(), u.copy()
            up[a] += h
            um[a] -= h
            fd = (expr(up) - expr(um)) / (2 * h)
            assert jet.grad[a] == pytest.approx(fd, abs=1e-6)
            fd2 = (expr(up) - 2 * expr(u) + expr(um)) / h**2
            assert jet.hess[a, a] == pytest.approx(fd2, abs=2e-5)
        upp = u + [h, h]
        upm = u + [h, -h]
        ump = u + [-h, h]
        umm = u + [-h, -h]
        fd_mixed = (expr(upp) - expr(upm) - expr(ump) + expr(umm)) / (4 * h**2)
        assert jet.hess[0, 1] == pytest.approx(fd_mixed, abs=2e-5)
        assert jet.hess[0, 1] == jet.hess[1, 0]


def test_jet_division_and_power():
    expr = parse_expression("u1 / (1 + u2^2)")
    jet = expr.jet([2.0, 1.0])
    assert jet.val == pytest.approx(1.0)
    assert jet.grad[0] == pytest.approx(0.5)
    assert jet.grad[1] == pytest.approx(-1.0)


def test_jet_seed_and_const():
    jet = Jet.seed(2.0, 0, 3)
    assert jet.val == 2.0
    assert list(jet.grad) == [1.0, 0.0, 0.0]
    prod = jet * Jet.seed(5.0, 1, 3)
    assert prod.val == 10.0
    assert prod.hess[0, 1] == 1.0


@pytest.mark.parametrize(
    "source, bad, error",
    [
        ("sqrt(u1 + u2)", [-1.0, 0.5], ValueError),
        ("sqrt(u1)", [0.0, 0.3], ValueError),
        ("u2 / u1", [0.0, 0.3], ZeroDivisionError),
        ("1 / (u1 - u2)", [0.3, 0.3], ZeroDivisionError),
        ("1 / u1", [1e-200, 0.3], ZeroDivisionError),  # u1^2 underflows to 0
        ("sqrt(u1)", [1e-300, 0.3], ZeroDivisionError),  # so does u1 * sqrt(u1)
        ("u1^-2 + u2", [0.0, 0.3], ZeroDivisionError),
        ("exp(u1) * u2", [800.0, 0.3], OverflowError),
        ("u1^3", [1e200, 0.3], OverflowError),
        ("sin(u1) + u2", [math.inf, 0.3], ValueError),
        ("cos(u2) * u1", [0.3, -math.inf], ValueError),
    ],
)
def test_batched_jets_raise_like_single_point_jets(source, bad, error):
    expr = parse_expression(source)
    good = np.array([[0.4, 0.9], [1.2, 0.7]])
    expr.jets(good)
    with pytest.raises(error):
        expr.jet(bad)
    with pytest.raises(error):
        expr.jets(np.vstack([good[:1], [bad], good[1:]]))


_LEAVES = st.sampled_from(["u1", "u2", "u3", "0.5", "1.7", "3"])


def _grow(child):
    unary = st.builds(lambda f, a: f"{f}({a})", st.sampled_from(["sin", "cos", "exp", "sqrt", "-"]), child)
    binary = st.builds(
        lambda a, op, b: f"({a} {op} {b})", child, st.sampled_from(["+", "-", "*", "/"]), child
    )
    power = st.builds(lambda a, k: f"({a})^{k}", child, st.integers(-3, 3))
    return unary | binary | power


@given(
    source=st.recursive(_LEAVES, _grow, max_leaves=8),
    points=st.lists(
        st.tuples(*[st.floats(-1.5, 1.5, allow_nan=False)] * 3), min_size=1, max_size=6
    ),
)
@settings(max_examples=300, deadline=None)
# inf and nan arise where float arithmetic gives them too, silently
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_rows_equal_single_point_jets(source, points):
    expr = parse_expression(source)
    pts = np.array(points)
    try:
        singles = [expr.jet(p) for p in pts]
    except (ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises((ValueError, ZeroDivisionError, OverflowError)):
            expr.jets(pts)
        return
    batch = expr.jets(pts)
    for i, single in enumerate(singles):
        np.testing.assert_array_equal(batch.val[i], single.val)
        np.testing.assert_array_equal(batch.grad[i], single.grad)
        np.testing.assert_array_equal(batch.hess[i], single.hess)


JET_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


@given(
    source=st.recursive(_LEAVES, _grow, max_leaves=8),
    points=st.lists(
        st.tuples(*[st.floats(-1.5, 1.5, allow_nan=False)] * 3), min_size=1, max_size=6
    ),
)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_order_jets_equal_second_order_values_and_gradients(source, points):
    """Order 1 skips every Hessian term and nothing else: where it raises, order 2
    raises too; where order 2 succeeds, values and gradients agree bit for bit."""
    expr = parse_expression(source)
    pts = np.array(points)
    try:
        first = expr.jets(pts, order=1)
    except JET_ERRORS:
        with pytest.raises(JET_ERRORS):
            expr.jets(pts)
        return
    assert first.hess is None
    try:
        second = expr.jets(pts)
    except JET_ERRORS:
        return  # only a second derivative failed
    np.testing.assert_array_equal(first.val, second.val)
    np.testing.assert_array_equal(first.grad, second.grad)


@pytest.mark.parametrize(
    "source",
    [
        "sin(u1)*cos(u2) + u1^3",
        "exp(u1/4) - sqrt(u2 + 2)",
        "(u1^2 - 1)^2 / (2*(1 + u1^2)^2)",
        "u1^-2 * u2 + cos(u1 - u2)",
    ],
)
def test_complex_step_jets_carry_the_derivative_in_the_imaginary_part(source):
    """At u + i h e_a each jet entry has the real entry's value as its real part and
    its derivative along e_a, times h, as its imaginary part."""
    expr = parse_expression(source)
    pts = np.array([[0.4, 0.9], [1.2, -0.7]])
    jet = expr.jets(pts)
    for a in range(2):
        step = expr.jets(pts + 1j * 1e-20 * np.eye(2)[a])
        np.testing.assert_allclose(step.val.real, jet.val, rtol=1e-15)
        np.testing.assert_allclose(step.val.imag / 1e-20, jet.grad[:, a], rtol=1e-13)
        np.testing.assert_allclose(step.grad.real, jet.grad, rtol=1e-15)
        np.testing.assert_allclose(step.grad.imag / 1e-20, jet.hess[:, :, a], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize(
    "source, bad, error",
    [
        ("sqrt(u1)", -1.0 + 1e-20j, ValueError),
        ("sqrt(u1)", 0.0 + 1e-20j, ValueError),
        ("1 / u1", 0.0 + 1e-20j, ZeroDivisionError),
        ("u1^-2", 0.0 + 1e-20j, ZeroDivisionError),
    ],
)
def test_complex_jets_check_real_parts(source, bad, error):
    """The domain checks read the real part, so a complex step raises where its
    real point does."""
    with pytest.raises(error):
        parse_expression(source).jets(np.array([[bad]]))
