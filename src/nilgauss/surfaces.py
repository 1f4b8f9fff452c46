"""Parametric hypersurfaces in a coordinate model.

A chart is a tuple of expressions u -> r(u) into model coordinates over a
box domain.  Every named chart (``CATALOG``: the polarized model's leaves,
vertical plane and cylinders, graphs) is built by ``catalog_chart``, which
checks a request against its entry.  From first and second chart jets
everything extrinsic is computed exactly (no finite differences):
tangents expressed in the left-invariant frame, the induced metric with
its first derivatives, the second fundamental form from the connection,
and hence the mean curvature H and |B|^2.  Derived fields such as
u -> n H(u) are differentiated exactly too, by the complex step
(``complex_step_jets``); finite differences appear only in the oracle.

The Gauss map is the unit normal pulled back to the algebra by the
inverse frame: the one-dimensional orthogonal complement of the tangent
columns, sign-fixed by the chart orientation through the determinant of
(tangents | normal); near a centre whose oriented normal is known, as on
the oracle's stencils, by one solve against that normal instead.

``adapted_frame`` builds the pointwise orthonormal frame used by the
closed-form Laplacian: the normal splits into a horizontal part of norm s
and a central part of norm c, the frame contains a distinguished mixed
vector c*u - s*z built from the two unit directions, and the remaining
slots are completed by Gram-Schmidt in basis order (so the construction
is deterministic).  Over a Heisenberg algebra the horizontal completion
instead follows the symplectic pairing X -> J(Z) X, which is the basis the
specialized Laplacian formula is stated in.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import NilpotentAlgebra, _identity
from .expressions import MAX_DEPTH, Expr, expression_jets, parse_expression
from .models import CoordinateModel, nil_polarized_model
from .schema import ConfigError, Field, Table, between, check, fill

IMMERSION_RANK_TOL = 1e-8
# d_a f(u) = Im f(u + i h e_a) / h + O(h^2), f real-analytic: with no difference taken, exact
COMPLEX_STEP = 1e-20
# normal parts with a norm at or below this are treated as zero by adapted_frame
NORMAL_SPLIT_TOL = 1e-10
# random_graph_chart: coefficient range and half-width of the box domain
RANDOM_COEFF_SCALE = 0.35
RANDOM_DOMAIN_HALF = 0.8


class ImmersionError(ValueError):
    """Chart Jacobian is rank deficient at an evaluated point."""


@dataclass(frozen=True, eq=False)
class SurfaceChart:
    """Immersed hypersurface given by coordinate expressions of u1..un."""

    model: CoordinateModel
    components: tuple[Expr, ...]
    orientation: int = 1
    domain: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        d = self.model.dim
        comps = tuple(self.components)
        if len(comps) != d:
            raise ValueError(f"chart needs {d} component expressions")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        dom = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        if len(dom) != d - 1:
            raise ValueError(f"domain needs {d - 1} axis ranges")
        for lo, hi in dom:
            if not lo < hi:
                raise ValueError("domain bounds must satisfy lo < hi")
        for comp in comps:
            if comp.max_param > d - 1:
                raise ValueError(
                    f"component uses u{comp.max_param} but the chart has "
                    f"{d - 1} parameters"
                )
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "domain", dom)

    @property
    def param_dim(self) -> int:
        return self.model.dim - 1


class Stack:
    """A dataclass of arrays with a shared leading point axis (ChartJet, AdaptedFrame, ...).

    ``x[i]`` takes row i, or the rows of slice or index array i, of every array field,
    nested stacks and dicts of them included, and ``x[None]`` makes one point's value
    a stack of one; other fields (counts, flags, names) are kept.
    """

    def map(self, fn):
        """The same record with ``fn`` applied to every array."""
        return type(self)(**{key: _map(val, fn) for key, val in vars(self).items()})

    def __getitem__(self, i):
        return self.map(lambda arr: arr[i])


def _map(val, fn):
    if isinstance(val, Stack):
        return val.map(fn)
    if isinstance(val, dict):
        return {key: _map(v, fn) for key, v in val.items()}
    return fn(np.asarray(val)) if isinstance(val, (np.ndarray, np.floating, float)) else val


@dataclass(eq=False)
class ChartJet(Stack):
    """Chart data at one parameter point: value, jets, algebra tangents, normal.

    ``stacked_chart_jets`` fills the same fields for a stack of N points, each with a
    leading axis of length N.  ``smin`` is a certified lower bound on the tangents'
    smallest singular value, None on ``complex_step_jets`` rows.  A first-order
    evaluation has ``hess`` None.
    """

    point: np.ndarray   # (d,)
    jac: np.ndarray     # (d, n)
    hess: np.ndarray | None  # (d, n, n)
    ainv: np.ndarray    # inverse frame at point, (d, d)
    tangents: np.ndarray  # tangents in the algebra basis, (d, n)
    normal: np.ndarray  # oriented unit normal in the algebra basis, (d,)
    smin: np.ndarray | None  # float, a lower bound on the tangents' smallest singular value

    @staticmethod
    def join(stacks) -> "ChartJet":
        """Stacks as one; one stack is itself."""
        if len(stacks) == 1:
            return stacks[0]
        return ChartJet(**{key: None if val is None else np.concatenate([vars(row)[key] for row in stacks])
                           for key, val in vars(stacks[0]).items()})


def _chart_walk(chart: SurfaceChart, points, order: int):
    """Value, Jacobian and Hessian (None at order 1) at (N, n) rows: one tree walk
    per component, all components over one set of seeds."""
    count, n, d = len(points), chart.param_dim, chart.model.dim
    val = np.empty((count, d), points.dtype)
    jac = np.empty((count, d, n), points.dtype)
    hess = np.empty((count, d, n, n), points.dtype) if order == 2 else None
    for k, jet in enumerate(expression_jets(chart.components, points, order)):
        val[:, k] = jet.val
        jac[:, k] = jet.grad
        if hess is not None:
            hess[:, k] = jet.hess
    return val, jac, hess


def _tangents(chart: SurfaceChart, val, jac):
    """Inverse frame at the values and the algebra tangents Ainv J."""
    ainv = chart.model.frame_inverse(val)
    return ainv, ainv @ jac


def _oriented_jets(chart: SurfaceChart, points, val, jac, hess) -> ChartJet:
    """The ChartJet stack of real (N, n) rows from their walk's value, Jacobian and Hessian.

    The normal is the last column of a complete QR of the algebra tangents
    T, signed by the orientation through det(T | normal).  That determinant
    also certifies the immersion check on most rows; the rest get the
    singular values of T (the frame is unipotent, so T has the Jacobian's
    rank).  Raises ImmersionError naming the first point where T is nearly
    rank deficient.
    """
    n = chart.param_dim
    ainv, tangents = _tangents(chart, val, jac)
    normal = np.linalg.qr(tangents, mode="complete")[0][..., -1]
    det = np.linalg.det(np.concatenate([tangents, normal[..., None]], axis=-1))
    # |det| is the product of T's n singular values, each at most |T|_F, so
    # smin >= |det| / |T|_F^(n-1); rows not certified by a margin of 2 get an SVD
    scale = np.sqrt((tangents * tangents).sum(axis=(-2, -1))) ** (n - 1)
    certified = np.abs(det) > 2.0 * IMMERSION_RANK_TOL * scale
    smin = np.divide(np.abs(det), scale, out=np.zeros_like(det), where=certified)
    unsure = np.flatnonzero(~certified)
    if len(unsure):
        smin[unsure] = np.linalg.svd(tangents[unsure], compute_uv=False)[:, -1]
        bad = smin[unsure] <= IMMERSION_RANK_TOL
        if bad.any():
            i = unsure[np.argmax(bad)]
            raise ImmersionError(
                f"chart Jacobian nearly rank deficient at u={points[i].tolist()} "
                f"(smallest tangent singular value {smin[i]:.3e})"
            )
    normal = np.where((det * chart.orientation < 0.0)[:, None], -normal, normal)
    return ChartJet(point=val, jac=jac, hess=hess, ainv=ainv, tangents=tangents, normal=normal, smin=smin)


def stacked_chart_jets(chart: SurfaceChart, points, order: int = 2) -> ChartJet:
    """Chart jets of ``order`` 1 or 2 at every row of an (N, n) array, one
    tree walk per component, all components over one set of seeds, with
    each row's oriented normal and immersion check (``_oriented_jets``).
    """
    points = np.asarray(points, dtype=float)
    n = chart.param_dim
    if points.ndim != 2 or points.shape[1] != n:
        raise ValueError(f"parameter points must be rows of length {n}")
    return _oriented_jets(chart, points, *_chart_walk(chart, points, order))


def complex_step_jets(chart: SurfaceChart, points) -> tuple[ChartJet, ChartJet]:
    """The ChartJet stack at the rows u of an (N, n) array and second-order chart
    jets at u + i COMPLEX_STEP e_a, a = 1..n (N n rows, each point's n together),
    from one walk, at the complex rows only.

    f(u + i h e_1) = f(u) - h^2 f_11(u) / 2 + i h f_1(u) + O(h^3), so the real
    parts of each point's first row are the point's value, Jacobian and Hessian:
    bit for bit but where h^2 f_11 ~ 1e-40 reaches half an ulp of f, and within
    a few ulp for integer powers k >= 3, which the complex walk takes by complex
    multiplication.  ``_oriented_jets`` finishes them, its immersion check included.

    A complex row's normal is normalise(eta0 - T g^-1 T^T eta0), eta0 its point's
    oriented normal, T the row's tangents, g = T^T T, with no conjugation:
    analytic in u, the oriented normal at real u, and no QR, det or SVD of a
    complex entry.  The rows share their point's immersion check.
    """
    n = chart.param_dim
    points = np.asarray(points, dtype=float)
    rows = (points[:, None] + 1j * COMPLEX_STEP * _identity(n)).reshape(-1, n)
    val, jac, hess = _chart_walk(chart, rows, 2)
    # copies: a view would keep every complex row alive with the centres
    centres = _oriented_jets(chart, points, *(np.ascontiguousarray(arr[::n].real) for arr in (val, jac, hess)))
    ainv, tangents = _tangents(chart, val, jac)
    eta = np.repeat(centres.normal, n, axis=0)[..., None]
    tt = np.swapaxes(tangents, -1, -2)
    normal = (eta - tangents @ np.linalg.solve(tt @ tangents, tt @ eta))[..., 0]
    normal /= np.sqrt((normal * normal).sum(axis=-1))[:, None]
    return centres, ChartJet(point=val, jac=jac, hess=hess, ainv=ainv, tangents=tangents, normal=normal, smin=None)


def complex_derivative(values, n: int) -> np.ndarray:
    """d_a of a quantity from its values at ``complex_step_jets`` rows: (N n,) + S -> (N, n) + S."""
    return (values.imag / COMPLEX_STEP).reshape((-1, n) + values.shape[1:])


def chart_jets(chart: SurfaceChart, u) -> ChartJet:
    """Chart jets at one point: the single row of ``stacked_chart_jets``."""
    return stacked_chart_jets(chart, np.asarray(u, dtype=float)[None])[0]


def gauss_map(chart: SurfaceChart, u, near=None) -> np.ndarray:
    """Unit normals at the rows r(u) of an (N, n) array in the algebra basis, (N, d),
    from a first-order chart evaluation.

    ``near`` is (normals eta0 (N, d), tangents T_c (N, d, n),
    ``smin`` bounds (N,)) of a ChartJet stack at nearby centres, one per row.  A row
    whose tangents T have |T - T_c|_F below its centre's bound minus 2
    IMMERSION_RANK_TOL keeps, by Weyl's inequality, every singular value above
    2 IMMERSION_RANK_TOL on the way from T_c, so eta0 never enters its tangent
    space and eta0's side is its oriented side: its normal is y / |y| from one
    solve [T | eta0]^T y = e_d, with no QR or det.  Every other row takes the
    route of ``stacked_chart_jets``, and its ImmersionError.
    """
    if near is None:
        return stacked_chart_jets(chart, u, order=1).normal
    u = np.asarray(u, dtype=float)
    eta, centre_t, bound = near
    val, jac, _ = _chart_walk(chart, u, 1)
    tangents = _tangents(chart, val, jac)[1]
    drift = np.sqrt(((tangents - centre_t) ** 2).sum(axis=(-2, -1)))
    sure = drift < bound - 2.0 * IMMERSION_RANK_TOL
    normal = np.empty_like(eta)
    if not sure.all():
        rest = ~sure
        normal[rest] = _oriented_jets(chart, u[rest], val[rest], jac[rest], None).normal
        tangents, eta = tangents[sure], eta[sure]
    # y is orthogonal to T, and eta0 . y = 1 puts it on eta0's side
    lhs = np.swapaxes(np.concatenate([tangents, eta[..., None]], axis=-1), -1, -2)
    y = np.linalg.solve(lhs, _identity(eta.shape[-1])[:, -1:])[..., 0]
    normal[sure] = y / np.sqrt((y * y).sum(axis=-1))[:, None]
    return normal


def induced_metric_with_gradient(chart: SurfaceChart, cj: ChartJet):
    """Induced metric g_ab and its exact gradient dg[c, a, b], one ChartJet row or a stack."""
    # matmul picks its kernel by the operands' strides: on C-contiguous inputs each row
    # of any stack sums in the order of the row alone
    jac, hess, ainv, t = map(np.ascontiguousarray, (cj.jac, cj.hess, cj.ainv, cj.tangents))
    lead, (d, n) = jac.shape[:-2], jac.shape[-2:]
    # d_c tangent_a = Ainv d^2_{ac} r - L(d_c r) d_a r as dtan[k, a, c], with lc[k, j, c] = L(d_c r)[k, j]
    lc = (chart.model._lin_rows @ jac).reshape(lead + (d, d, n))
    dtan = ((ainv @ hess.reshape(lead + (d, n * n))).reshape(hess.shape)
            - (lc.swapaxes(-1, -2) @ jac[..., None, :, :]).swapaxes(-1, -2))
    # rows (a, c) of dtan^T t hold <d_c t_a, t_b>; dg adds its transpose <t_a, d_c t_b>
    dt = (dtan.reshape(lead + (d, n * n)).swapaxes(-1, -2) @ t).reshape(lead + (n, n, n)).swapaxes(-3, -2)
    return t.swapaxes(-1, -2) @ t, dt + dt.swapaxes(-1, -2)


def _second_fundamental(chart: SurfaceChart, cj: ChartJet):
    """h_ab = <d_b t_a + nabla_{t_b} t_a, normal> for the tangents t_a, one point or a stack.

    d_b t_a = Ainv d_ab r - L(d_b r) d_a r, and nabla is the algebra's
    connection; both are contracted with the normal first.
    """
    # C-contiguous, as in induced_metric_with_gradient
    eta, ainv, jac, hess, t = map(np.ascontiguousarray, (cj.normal, cj.ainv, cj.jac, cj.hess, cj.tangents))
    lead, (d, n) = jac.shape[:-2], jac.shape[-2:]
    row = eta[..., None, :]
    # sum_k eta_k L_k and (b, a) -> <g_ab, eta>, from one product with the model's rows
    blocks = (row @ chart.model._normal_rows).reshape(lead + (2, d, d))
    h = (row @ ainv @ hess.reshape(lead + (d, n * n))).reshape(lead + (n, n))
    return h - jac.swapaxes(-1, -2) @ blocks[..., 0, :, :] @ jac + t.swapaxes(-1, -2) @ blocks[..., 1, :, :] @ t


def _n_mean_curvature(cj: ChartJet, h):
    """n H = tr(g^-1 h) at a ChartJet row or stack, given its ``_second_fundamental`` h."""
    g = np.swapaxes(cj.tangents, -1, -2) @ cj.tangents
    return np.trace(np.linalg.solve(g, h), axis1=-2, axis2=-1)


def mean_curvature(chart: SurfaceChart, u):
    """Frame-independent mean curvature H = tr(g^-1 h) / n: a float at one
    point (n,), or (N,) at the rows of (N, n)."""
    u = np.asarray(u, dtype=float)
    cj = stacked_chart_jets(chart, np.atleast_2d(u))
    hs = _n_mean_curvature(cj, _second_fundamental(chart, cj)) / chart.param_dim
    return hs if u.ndim == 2 else float(hs[0])


# ---------------------------------------------------------------------------
# adapted frames


@dataclass(frozen=True, eq=False)
class AdaptedFrame(Stack):
    """Pointwise orthonormal frames adapted to the normal's V/Z split, over a stack.

    ``ys`` holds rows Y_1 .. Y_{n+1}; rows 1..q-1 are horizontal, row q is
    the mixed vector x_q - z_q, rows q+1..n are central, the last row is
    the unit normal x_n1 + z_n1.  s and c are the norms of the normal's
    horizontal and central parts, 0 when at most NORMAL_SPLIT_TOL.  A row
    view ``frame[i]`` has the same fields without the point axis.
    """

    q: int
    ys: np.ndarray  # (N, d, d)
    x_q: np.ndarray  # (N, d), as the next three
    z_q: np.ndarray
    x_n1: np.ndarray
    z_n1: np.ndarray
    s: np.ndarray  # (N,), as c
    c: np.ndarray
    special_heisenberg: bool = False

    @property
    def normal(self) -> np.ndarray:
        return self.ys[..., -1, :]


def _gs_complete(block: range, start: int, fixed, count: int) -> list[np.ndarray]:
    """``count`` more orthonormal rows, each (N, 1, d), for the orthonormal rows of the
    stacks ``fixed`` (N, k_i, d): each the first basis vector of ``block``, in the order
    rotated by ``start``, whose rejection from the rows so far has a norm above 1e-8,
    all stack rows at once.

    The rejection P = I - sum f^T f is applied twice, e P P, so that a candidate
    close to the fixed span still comes out orthogonal to working precision.
    """
    if not count:
        return []
    span = np.concatenate(fixed, axis=1)
    proj = _identity(span.shape[-1]) - np.swapaxes(span, -1, -2) @ span
    order, rows, picks = [block[(k + start) % len(block)] for k in range(len(block))], np.arange(len(span)), []
    for k in range(count):
        v = proj[:, order] @ proj
        sq = np.add.reduce(v * v, axis=-1)
        first = (sq > 1e-16).argmax(axis=1)
        sq = sq[rows, first]
        if np.count_nonzero(sq <= 1e-16):
            raise ValueError("Gram-Schmidt completion ran out of candidates")
        picks.append((v[rows, first] / np.sqrt(sq)[:, None])[:, None])
        if k + 1 < count:
            proj -= np.swapaxes(picks[-1], -1, -2) @ picks[-1]
    return picks


def adapted_frame(alg: NilpotentAlgebra, normal, completion_start: int = 0) -> AdaptedFrame:
    """Build the adapted orthonormal frames of a stack of unit normals (N, d), each
    row as it would be alone.

    ``completion_start`` rotates the Gram-Schmidt candidate order for the
    free frame directions; aggregate outputs of the Laplacian must not
    depend on it.  A part of the normal of norm at most NORMAL_SPLIT_TOL
    counts as zero, and its direction is the first candidate of its block.
    """
    d = alg.dim_total
    q = alg.dim_v
    nrm = np.asarray(normal, dtype=float)
    if nrm.ndim != 2 or nrm.shape[-1] != d:
        raise ValueError("normals must be rows of length dim_total")
    xn = nrm.copy()
    xn[:, q:] = 0.0
    zn = nrm - xn
    sc = np.sqrt(np.add.reduceat(nrm * nrm, [0, q], axis=1))  # the norms s, c of the two parts
    if np.count_nonzero(np.abs(np.hypot(sc[:, 0], sc[:, 1]) - 1.0) > 1e-8):
        raise ValueError("normal must be a unit vector")
    s, c = sc.T
    u_dir = xn / np.maximum(s, NORMAL_SPLIT_TOL)[:, None]
    z_dir = zn / np.maximum(c, NORMAL_SPLIT_TOL)[:, None]
    v_block, z_block = range(q), range(q, d)
    zero = sc <= NORMAL_SPLIT_TOL
    if np.count_nonzero(zero):  # a part that counts as zero: norm 0, direction the first candidate
        sc[zero] = 0.0
        for unit, block, rows in ((u_dir, v_block, zero[:, 0]), (z_dir, z_block, zero[:, 1])):
            unit[rows] = _identity(d)[block[completion_start % len(block)]]
    x_q, z_q = c[:, None] * u_dir, s[:, None] * z_dir
    x_n1, z_n1 = s[:, None] * u_dir, c[:, None] * z_dir
    y_q = (x_q - z_q)[:, None]

    if alg.is_heisenberg:
        # J(z_dir) as a map of rows: row v to the row of J(z_dir) v
        jz_rows = np.swapaxes((z_dir[:, None] @ alg.j_tensor.reshape(d, d * d)).reshape(-1, d, d), -1, -2)
        x_m = -(u_dir[:, None] @ jz_rows)
        fixed, firsts, seconds = [u_dir[:, None], x_m], [], []
        for _ in range(q // 2 - 1):
            firsts += _gs_complete(v_block, completion_start, fixed, 1)
            seconds.append(firsts[-1] @ jz_rows)
            fixed += [firsts[-1], seconds[-1]]
        rows = firsts + [x_m] + seconds + [y_q]
    else:
        rows = _gs_complete(v_block, completion_start, [u_dir[:, None]], q - 1) + [y_q]
        rows += _gs_complete(z_block, completion_start, [z_dir[:, None]], d - 1 - q)
    ys = np.concatenate(rows + [nrm[:, None]], axis=1)
    return AdaptedFrame(q, ys, x_q, z_q, x_n1, z_n1, s, c, special_heisenberg=alg.is_heisenberg)


# ---------------------------------------------------------------------------
# shape data in an adapted frame


@dataclass(frozen=True, eq=False)
class ShapeData(Stack):
    """Second fundamental form b_ij in the adapted tangent frames of a stack, with H
    and |B|^2: b (N, n, n), h and norm_b2 (N,)."""

    b: np.ndarray
    h: np.ndarray
    norm_b2: np.ndarray


def chart_coefficients(cj: ChartJet, vecs) -> np.ndarray:
    """Chart directions c with T c = y of tangent algebra vectors y, T the tangent columns.

    ``cj`` is one ChartJet row or a stack; ``vecs`` are vectors (..., k, d)
    broadcast against it, giving (..., k, n).
    One solve against the square [T | N], N the unit normal, covers every
    vector: y = T c + a N, and since N is orthogonal to T the normal share
    |a| is the distance |T c - y| of y from the tangent space.
    """
    square = np.concatenate([cj.tangents, cj.normal[..., None]], axis=-1)
    sol = np.swapaxes(np.linalg.solve(square, np.swapaxes(np.asarray(vecs, dtype=float), -1, -2)), -1, -2)
    if (np.abs(sol[..., -1]) > 1e-6).any():
        raise ValueError("vector is not tangent to the chart at this point")
    return sol[..., :-1]


def shape_data(chart: SurfaceChart, cj: ChartJet, frame: AdaptedFrame):
    """b_ij = <nabla_{Y_i} Y_j, normal> at a ChartJet row with its frame, or at a
    stack with the stack's frames; the frame's normal must match the chart's.

    The form is tensorial, so the chart directions of Y_1 .. Y_n, from one
    ``chart_coefficients`` call, contract its coordinate form to the frame
    value.  Also returns those directions, (n, n) or (N, n, n), along which
    Y_k(n H) is taken.
    """
    ys = frame.ys
    if (np.linalg.norm(ys[..., -1, :] - cj.normal, axis=-1) > 1e-8).any():
        raise ValueError("adapted frame normal does not match the chart normal")
    coeffs = chart_coefficients(cj, ys[..., :-1, :])
    b = coeffs @ _second_fundamental(chart, cj) @ np.swapaxes(coeffs, -1, -2)
    return ShapeData(b=b, h=np.trace(b, axis1=-2, axis2=-1) / b.shape[-1], norm_b2=(b * b).sum(axis=(-2, -1))), coeffs


def mean_curvature_derivatives(chart: SurfaceChart, u, coeffs):
    """Y_k(n H) at one point u, or at every row of an (N, n) array, exact by the complex step.

    ``coeffs`` (n, n), or (N, n, n), are the chart directions of Y_1 .. Y_n, as
    ``shape_data`` returns them: Y_k(n H) = coeffs[k] @ grad(n H).
    """
    rows = complex_step_jets(chart, np.atleast_2d(np.asarray(u, dtype=float)))[1]
    grad = complex_derivative(_n_mean_curvature(rows, _second_fundamental(chart, rows)), chart.param_dim)
    return (coeffs @ grad.reshape(np.shape(coeffs)[:-1] + (1,)))[..., 0]


# ---------------------------------------------------------------------------
# chart catalog


def expression_chart(model: CoordinateModel, components, domain, orientation: int = 1) -> SurfaceChart:
    exprs = tuple(comp if isinstance(comp, Expr) else parse_expression(comp) for comp in components)
    return SurfaceChart(model=model, components=exprs, orientation=orientation, domain=tuple(domain))


@dataclass(frozen=True)
class CatalogEntry:
    components: Callable  # (model, params, domain, seed) -> component expressions
    params: dict  # name -> Field
    nil_polarized: bool  # built on the nil_polarized model only
    domain: tuple | None  # default axis ranges, the last repeated over further axes; None: required
    sign: int = 1  # the chart's orientation is this times the requested one


def _cylinder_components(model, params, domain, seed):
    """(f1(u1), f2(u1), u2); the profile derivative must not vanish on the u1-range."""
    e1, e2 = parse_expression(params["f1"]), parse_expression(params["f2"])
    for e in (e1, e2):
        if e.max_param > 1:
            raise ValueError("profile expressions may only use u1")
    samples = np.linspace(domain[0][0], domain[0][1], 17)[:, None]
    d1, d2 = (jet.grad[:, 0] for jet in expression_jets([e1, e2], samples, order=1))
    degenerate = d1**2 + d2**2 <= 1e-16
    if degenerate.any():
        raise ValueError(f"degenerate profile derivative at s={samples[degenerate.argmax(), 0]}")
    return [e1, e2, "u2"]


def _graph_components(model, params, domain, seed):
    return [f"u{i}" for i in range(1, model.dim)] + [params["expr"]]


RANDOM_TERMS = ("{c}*u{a}", "{c}*u{a}*u{b}", "{c}*sin(u{a})", "{c}*cos(u{a})")
# A sum of k terms has k - 1 levels of '+' above its first term, and a term is at
# most 4 levels deep (-c*u1*u2 is *, *, neg, c), so up to MAX_DEPTH - 3 terms parse.
RANDOM_MAX_TERMS = MAX_DEPTH - 3


def _random_graph_components(model, params, domain, seed):
    """A graph of a random sum of RANDOM_TERMS, each term four draws of ``random()``
    from ``random.Random(seed + index)``, whose sequence Python keeps the same for a
    seed in every version; ``seed`` is an integer, a numpy one too."""
    if not isinstance(seed, numbers.Integral):
        raise ValueError(f"chart seed must be an integer, not {type(seed).__name__}")
    seed = int(seed) + params["index"]  # Random takes no numpy integer
    if seed < 0:
        raise ValueError("expected non-negative integer")
    rng = random.Random(seed)
    parts = []
    for _ in range(params["terms"]):
        kind = int(4 * rng.random())
        a = 1 + int((model.dim - 1) * rng.random())
        b = 1 + int((model.dim - 1) * rng.random())
        coeff = round(RANDOM_COEFF_SCALE * (2 * rng.random() - 1), 6)
        parts.append(RANDOM_TERMS[kind].format(c=coeff, a=a, b=b))
    return _graph_components(model, {"expr": " + ".join(parts)}, domain, seed)


EXPRESSION = Field("expression", required=True)
CATALOG = {
    "nil_foliation_leaf": CatalogEntry(
        lambda model, params, domain, seed: ["u1", "u2", repr(float(params["z0"]))],
        {"z0": Field("number", default=0.0)}, nil_polarized=True, domain=((-2.5, 2.5), (-1.0, 1.0)),
    ),
    "nil_vertical_plane": CatalogEntry(
        lambda model, params, domain, seed: ["u1", "0", "u2"],
        {}, nil_polarized=True, domain=((-1.0, 1.0),), sign=-1,
    ),
    "nil_cylinder": CatalogEntry(
        _cylinder_components, {"f1": EXPRESSION, "f2": EXPRESSION}, nil_polarized=True, domain=((-1.0, 1.0),),
    ),
    "graph": CatalogEntry(_graph_components, {"expr": EXPRESSION}, nil_polarized=False, domain=None),
    "random_graph": CatalogEntry(
        _random_graph_components,
        {
            "terms": Field("integer", default=3, span=between(1, RANDOM_MAX_TERMS)),
            "index": Field("integer", default=0),
        },
        nil_polarized=False, domain=((-RANDOM_DOMAIN_HALF, RANDOM_DOMAIN_HALF),),
    ),
}


def catalog_chart(name, model, params, domain=None, orientation=1, seed=0) -> SurfaceChart:
    """Catalog entry ``name`` over ``domain`` (default: the entry's), oriented by
    ``orientation`` times the entry's sign; ``seed`` is an integer.  The request is
    checked against the entry before any expression is parsed, and ConfigError
    lists every problem."""
    entry = CATALOG.get(name)
    if entry is None:
        raise ConfigError([f"unknown chart catalog entry {name!r}"])
    table = Table(entry.params, name="chart param {!r}", unknown=f"chart {name!r} has no param {{}}",
                  missing=f"chart {name!r} needs param {{!r}}")
    problems = check(params, Field("object", items=table), "chart params")
    if entry.nil_polarized and model.name != "nil_polarized":
        problems.append(f"chart {name!r} needs the nil_polarized model")
    if domain is None and entry.domain is None:
        problems.append(f"chart {name!r} needs a domain")
    if problems:
        raise ConfigError(problems)
    if domain is None:
        domain = entry.domain + entry.domain[-1:] * (model.dim - 1 - len(entry.domain))
    comps = entry.components(model, fill(params, table), domain, seed)
    return expression_chart(model, comps, domain, entry.sign * orientation)


def graph_chart(model: CoordinateModel, expr, domain, orientation: int = 1) -> SurfaceChart:
    """Hypersurface with the last coordinate a function of the others."""
    return catalog_chart("graph", model, {"expr": expr}, domain, orientation)


def foliation_leaf_chart(z_level: float = 0.0, x_range=(-2.5, 2.5), y_range=(-1.0, 1.0)) -> SurfaceChart:
    """Horizontal leaf {z = const} of the polarized 3-dimensional model.

    Its normal direction is (u1 * Y + Z)/sqrt(1 + u1^2) in the
    left-invariant frame, a minimal surface with non-constant |B|^2.
    """
    return catalog_chart("nil_foliation_leaf", nil_polarized_model(), {"z0": z_level}, (x_range, y_range))


def vertical_plane_chart(s_range=(-1.0, 1.0), t_range=(-1.0, 1.0)) -> SurfaceChart:
    """The plane r(s, t) = (s, 0, t) in the polarized model; Gauss map = Y."""
    return catalog_chart("nil_vertical_plane", nil_polarized_model(), {}, (s_range, t_range))


def cylinder_chart(f1, f2, s_range=(-1.0, 1.0), t_range=(-1.0, 1.0), orientation=1) -> SurfaceChart:
    """Surface r(s, t) = (f1(s), f2(s), t) in the polarized model, invariant under central translations."""
    params = {"f1": f1, "f2": f2}
    return catalog_chart("nil_cylinder", nil_polarized_model(), params, (s_range, t_range), orientation)


def random_graph_chart(model: CoordinateModel, seed: int, terms: int = 3) -> SurfaceChart:
    """Random graph chart with bounded polynomial/trig height, drawn from an integer seed."""
    return catalog_chart("random_graph", model, {"terms": terms}, seed=seed)
