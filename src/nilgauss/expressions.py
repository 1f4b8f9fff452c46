"""Arithmetic expression trees with forward-mode derivatives.

Charts and profile curves are supplied as plain-text formulas in the
parameters ``u1 .. un``.  The grammar covers constants, parameters, the
four arithmetic operations, integer powers and the functions sin, cos,
exp, sqrt.  Precedence is power > unary minus > mul/div > add/sub.

Every tree evaluates either on floats or on jets over a batch of points:
second-order jets (value, gradient, Hessian) by default, or first-order
jets (value, gradient) where no Hessian is read.  ``expression_jets``
walks several trees once each for a whole (N, n) array of points, over
one set of seeds; ``Expr.jets`` is its one-expression view and
``Expr.jet`` the N = 1 row of that.  Jet evaluation is exact
forward-mode automatic differentiation (vector mode, with the stack of
points as the vector), which is how all chart derivatives in this
package are obtained.  On complex points, as the complex step takes
them, jets keep a complex dtype and map ``cmath``, and the zero and
``sqrt`` checks read real parts.  Finite differences appear only in the oracle.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Structured parse failure with a character offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


# ---------------------------------------------------------------------------
# jets of order one and two


class Jet:
    """Value, gradient and Hessian of a scalar quantity in n parameters.

    Leading axes are batch axes: ``val`` has a batch shape B, ``grad``
    B + (n,) and ``hess`` B + (n, n), with B = () for one point and (N,)
    for a stack of points.  A first-order jet has ``hess`` None, and every
    operation on it skips its Hessian term; values and gradients are the
    same at either order, bit for bit.  Every operation is the same float
    arithmetic applied row by row, so a row of a stack equals the jet of
    its point alone, bit for bit.  A plain float operand is a constant:
    its zero derivatives are never materialised.  Jets are never modified
    in place, so they may share arrays.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad: np.ndarray, hess: np.ndarray | None):
        self.val = val
        self.grad = grad
        self.hess = hess

    @classmethod
    def seed(cls, value, index: int, n: int, order: int = 2) -> "Jet":
        val = np.asarray(value, dtype=np.result_type(value, 1.0))
        grad = np.zeros(val.shape + (n,))
        grad[..., index] = 1.0
        return cls(val, grad, np.zeros(val.shape + (n, n)) if order == 2 else None)

    @classmethod
    def const(cls, value, n: int, order: int = 2) -> "Jet":
        val = np.asarray(value, dtype=np.result_type(value, 1.0))
        hess = np.zeros(val.shape + (n, n)) if order == 2 else None
        return cls(val, np.zeros(val.shape + (n,)), hess)

    def __add__(self, other):
        if isinstance(other, Jet):
            hess = None if self.hess is None else self.hess + other.hess
            return Jet(self.val + other.val, self.grad + other.grad, hess)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            hess = None if self.hess is None else self.hess - other.hess
            return Jet(self.val - other.val, self.grad - other.grad, hess)
        return Jet(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Jet(other - self.val, -self.grad, None if self.hess is None else -self.hess)

    def __neg__(self):
        return Jet(-self.val, -self.grad, None if self.hess is None else -self.hess)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.val * other, other * self.grad, None if self.hess is None else other * self.hess)
        grad = self.val[..., None] * other.grad + other.val[..., None] * self.grad
        if self.hess is None:
            return Jet(self.val * other.val, grad, None)
        cross = self.grad[..., :, None] * other.grad[..., None, :]
        return Jet(
            self.val * other.val,
            grad,
            self.val[..., None, None] * other.hess
            + other.val[..., None, None] * self.hess
            + cross
            + np.swapaxes(cross, -1, -2),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, k: int):
        return jet_pow(self, k)


def _floats(fn, x) -> np.ndarray:
    """fn, or on a complex x its ``cmath`` namesake, applied to every entry of x as a Python scalar.

    numpy's exp and integer powers differ from the float ones in the last
    bit, and return inf or nan where the float ones raise; mapping the
    float function keeps both its values and its exceptions.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        fn = getattr(cmath, fn.__name__, fn)  # power lambdas take complex values as they are
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _chain(x: Jet, f0, f1, f2) -> Jet:
    """Chain rule for a unary function applied to a jet, with its value f0 and
    first derivative f1 at x.val.  ``f2()`` gives the second derivative; it is
    called only on a second-order jet, so a first-order walk raises only what
    its values and gradients raise."""
    g = x.grad
    if x.hess is None:
        return Jet(f0, f1[..., None] * g, None)
    return Jet(
        f0,
        f1[..., None] * g,
        f1[..., None, None] * x.hess + f2()[..., None, None] * (g[..., :, None] * g[..., None, :]),
    )


def _divide(num: float, den: np.ndarray) -> np.ndarray:
    """num / den, raising ZeroDivisionError where float division of the real parts would."""
    if (np.real(den) == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    return num / den


def _reciprocal(x: Jet) -> Jet:
    return _chain(
        x,
        _divide(1.0, x.val),
        _divide(-1.0, _floats(lambda v: v**2, x.val)),
        lambda: _divide(2.0, _floats(lambda v: v**3, x.val)),
    )


def jet_pow(x: Jet, k: int) -> Jet:
    if k == 0:
        return Jet.const(np.ones_like(x.val), x.grad.shape[-1], 1 if x.hess is None else 2)
    if k == 1:
        return x
    if k < 0 and (np.real(x.val) == 0.0).any():
        raise ZeroDivisionError("negative power of zero")
    return _chain(
        x,
        _floats(lambda v: v**k, x.val),
        k * _floats(lambda v: v ** (k - 1), x.val),
        lambda: k * (k - 1) * _floats(lambda v: v ** (k - 2), x.val),
    )


def jet_sin(x: Jet) -> Jet:
    s = _floats(math.sin, x.val)
    return _chain(x, s, _floats(math.cos, x.val), lambda: -s)


def jet_cos(x: Jet) -> Jet:
    c = _floats(math.cos, x.val)
    return _chain(x, c, -_floats(math.sin, x.val), lambda: -c)


def jet_exp(x: Jet) -> Jet:
    e = _floats(math.exp, x.val)
    return _chain(x, e, e, lambda: e)


def jet_sqrt(x: Jet) -> Jet:
    if (np.real(x.val) <= 0.0).any():
        raise ValueError("sqrt argument must be positive for jet evaluation")
    r = np.sqrt(x.val)  # correctly rounded, like math.sqrt; the principal root on complex entries
    return _chain(x, r, _divide(0.5, r), lambda: _divide(-0.25, x.val * r))


_FUNCTIONS = {
    "sin": (math.sin, jet_sin),
    "cos": (math.cos, jet_cos),
    "exp": (math.exp, jet_exp),
    "sqrt": (math.sqrt, jet_sqrt),
}


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)

_PARAM_RE = re.compile(r"^u([1-9][0-9]*)$")

# Deepest accepted nesting and tree height.  The parser recurses seven frames
# per nesting level (about 710 at the bound) and ``_eval`` one per level, so
# both stay inside Python's default recursion limit of 1000.
MAX_DEPTH = 100


@dataclass
class _Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(source):
        if source[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}", i)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0  # nested unary() calls: parentheses, function arguments, minus signs

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        height, max_param = _walk(node)
        if height > MAX_DEPTH:
            raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
        return node, max_param

    def expr(self):
        return self.binary("+-", self.term)

    def term(self):
        return self.binary("*/", self.unary)

    def binary(self, ops: str, operand):
        """A left-associative chain operand (op operand)* over the operators in ``ops``."""
        node = operand()
        while self.peek().kind == "op" and self.peek().text in ops:
            node = (self.advance().text, node, operand())
        return node

    def unary(self):
        tok = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", tok.pos)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            node = ("neg", self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.advance()
                sign = -1
            etok = self.peek()
            if etok.kind != "num" or not etok.text.isdigit():
                raise ParseError("exponent must be an integer literal", etok.pos)
            self.advance()
            return ("pow", base, sign * int(etok.text))
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return ("num", float(tok.text))
        if tok.kind == "ident":
            self.advance()
            m = _PARAM_RE.match(tok.text)
            if m:
                return ("u", int(m.group(1)))
            if tok.text in _FUNCTIONS:
                nxt = self.peek()
                if not (nxt.kind == "op" and nxt.text == "("):
                    raise ParseError(f"expected '(' after {tok.text}", nxt.pos)
                self.advance()
                arg = self.expr()
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == ",":
                    raise ParseError(f"{tok.text} takes exactly one argument", nxt.pos)
                self.expect_op(")")
                return ("fn", tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def _walk(root) -> tuple[int, int]:
    """Number of levels and highest parameter index (0 for none) of a tree, without recursion."""
    height, max_param, stack = 0, 0, [(root, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if node[0] == "u":
            max_param = max(max_param, node[1])
        stack.extend((child, level + 1) for child in node[1:] if isinstance(child, tuple))
    return height, max_param


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval(node, vals):
    """A tree's value on floats or on jets: each operator is the one its operands define."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "u":
        return vals[node[1] - 1]
    if kind == "neg":
        return -_eval(node[1], vals)
    if kind == "pow":
        return _eval(node[1], vals) ** node[2]
    if kind == "fn":
        arg = _eval(node[2], vals)
        plain, jetted = _FUNCTIONS[node[1]]
        return jetted(arg) if isinstance(arg, Jet) else plain(arg)
    return _BINARY[kind](_eval(node[1], vals), _eval(node[2], vals))


@dataclass(frozen=True)
class Expr:
    """Parsed expression; callable on floats, jet()/jets() for derivatives."""

    root: tuple
    source: str
    max_param: int = field(default=0)

    def __call__(self, u) -> float:
        vals = [float(x) for x in u]
        if self.max_param > len(vals):
            raise ValueError(
                f"expression uses u{self.max_param} but only {len(vals)} parameters given"
            )
        return float(_eval(self.root, vals))

    def jets(self, points, order: int = 2) -> Jet:
        """Jets of ``order`` 1 or 2 at every row of an (N, n) array: the
        one-expression view of ``expression_jets``."""
        return expression_jets([self], points, order)[0]

    def jet(self, u) -> Jet:
        """Jet at one point: the single row of ``jets``."""
        out = self.jets([[float(x) for x in u]])
        return Jet(float(out.val[0]), out.grad[0], out.hess[0])


def expression_jets(exprs, points, order: int = 2) -> list[Jet]:
    """Jets of ``order`` 1 or 2 of each expression at every row of an (N, n)
    array, real or complex: one walk of each tree, all over one set of seeds."""
    points = np.asarray(points) * 1.0  # a float or complex copy: seed values are its columns
    if points.ndim != 2:
        raise ValueError("points must be an (N, n) array")
    n = points.shape[1]
    used = max((expr.max_param for expr in exprs), default=0)
    if used > n:
        raise ValueError(f"expression uses u{used} but only {n} parameters given")
    seeds = [Jet.seed(points[:, i], i, n, order) for i in range(used)]
    outs = [_eval(expr.root, seeds) for expr in exprs]
    return [
        out if isinstance(out, Jet) else Jet.const(np.full(len(points), float(out)), n, order)
        for out in outs
    ]


def parse_expression(text: str) -> Expr:
    root, max_param = _Parser(text).parse()
    return Expr(root, text, max_param)
