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
(tangents | normal).

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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import NilpotentAlgebra
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

    def point(self, u) -> np.ndarray:
        vals = [float(x) for x in u]
        return np.array([c(vals) for c in self.components])


@dataclass(eq=False)
class ChartJet:
    """Chart data at one parameter point: value, jets, algebra tangents, normal.

    ``stacked_chart_jets`` fills the same fields for a stack of N points, each with a
    leading axis of length N.  ``q`` and ``r`` are the reduced QR factors of the tangents,
    None on ``complex_step_jets`` rows.  A first-order evaluation has ``hess`` None.
    """

    point: np.ndarray   # (d,)
    jac: np.ndarray     # (d, n)
    hess: np.ndarray | None  # (d, n, n)
    ainv: np.ndarray    # inverse frame at point, (d, d)
    tangents: np.ndarray  # tangents in the algebra basis, (d, n)
    normal: np.ndarray  # oriented unit normal in the algebra basis, (d,)
    q: np.ndarray | None  # tangents = q @ r, q (d, n) with orthonormal columns
    r: np.ndarray | None  # upper triangular, (n, n)

    def __getitem__(self, i) -> "ChartJet":
        """Row i, or the rows of slice i, of a stacked ChartJet."""
        return ChartJet(**{key: None if val is None else val[i] for key, val in vars(self).items()})

    @staticmethod
    def join(rows, how=np.array) -> "ChartJet":
        """ChartJet rows as one stack, or stacks as one with ``how`` = np.concatenate."""
        return ChartJet(**{key: None if val is None else how([vars(row)[key] for row in rows])
                           for key, val in vars(rows[0]).items()})


def _chart_values(chart: SurfaceChart, points, order: int):
    """Value, Jacobian, Hessian (None at order 1), inverse frame and tangents at (N, n) rows."""
    count, n, d = len(points), chart.param_dim, chart.model.dim
    val = np.empty((count, d), points.dtype)
    jac = np.empty((count, d, n), points.dtype)
    hess = np.empty((count, d, n, n), points.dtype) if order == 2 else None
    for k, jet in enumerate(expression_jets(chart.components, points, order)):
        val[:, k] = jet.val
        jac[:, k] = jet.grad
        if hess is not None:
            hess[:, k] = jet.hess
    ainv = chart.model.frame_inverse(val)
    return val, jac, hess, ainv, ainv @ jac


def stacked_chart_jets(chart: SurfaceChart, points, order: int = 2) -> ChartJet:
    """Chart jets of ``order`` 1 or 2 at every row of an (N, n) array, one
    tree walk per component, all components over one set of seeds.

    The normal is the last column of a complete QR of the algebra tangents
    T, signed by the orientation through det(T | normal); the first n
    columns and rows of the factors are T's reduced QR.  That determinant
    also certifies the immersion check on most rows; the rest get the
    singular values of T (the frame is unipotent, so T has the Jacobian's
    rank).  Raises ImmersionError naming the first point where T is nearly
    rank deficient.
    """
    points = np.asarray(points, dtype=float)
    n = chart.param_dim
    if points.ndim != 2 or points.shape[1] != n:
        raise ValueError(f"parameter points must be rows of length {n}")
    val, jac, hess, ainv, tangents = _chart_values(chart, points, order)
    qfull, rfull = np.linalg.qr(tangents, mode="complete")
    normal = qfull[..., -1]
    det = np.linalg.det(np.concatenate([tangents, normal[..., None]], axis=-1))
    # |det| is the product of T's n singular values, each at most |T|_F, so
    # smin >= |det| / |T|_F^(n-1); rows not certified by a margin of 2 get an SVD
    frob = np.sqrt((tangents * tangents).sum(axis=(-2, -1)))
    unsure = np.flatnonzero(~(np.abs(det) > 2.0 * IMMERSION_RANK_TOL * frob ** (n - 1)))
    if len(unsure):
        smin = np.linalg.svd(tangents[unsure], compute_uv=False)[:, -1]
        bad = smin <= IMMERSION_RANK_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise ImmersionError(
                f"chart Jacobian nearly rank deficient at u={points[unsure[i]].tolist()} "
                f"(smallest tangent singular value {smin[i]:.3e})"
            )
    normal = np.where((det * chart.orientation < 0.0)[:, None], -normal, normal)
    return ChartJet(
        point=val, jac=jac, hess=hess, ainv=ainv, tangents=tangents, normal=normal,
        q=qfull[..., :n], r=rfull[..., :n, :],
    )


def complex_step_jets(chart: SurfaceChart, points, normals) -> ChartJet:
    """Second-order chart jets at u + i COMPLEX_STEP e_a, a = 1..n, for every row u
    of an (N, n) array: N n rows, each point's n together.

    A row's normal is normalise(eta0 - T g^-1 T^T eta0), eta0 the point's real
    oriented normal (``normals``, (N, d)), T the row's tangents, g = T^T T, with no
    conjugation: analytic in u, the oriented normal at real u, and no QR, det or
    SVD of a complex entry.  The rows share their point's immersion check.
    """
    n = chart.param_dim
    rows = (np.asarray(points, dtype=float)[:, None] + 1j * COMPLEX_STEP * np.eye(n)).reshape(-1, n)
    val, jac, hess, ainv, tangents = _chart_values(chart, rows, 2)
    eta = np.repeat(normals, n, axis=0)[..., None]
    tt = np.swapaxes(tangents, -1, -2)
    normal = (eta - tangents @ np.linalg.solve(tt @ tangents, tt @ eta))[..., 0]
    normal /= np.sqrt((normal * normal).sum(axis=-1))[:, None]
    return ChartJet(point=val, jac=jac, hess=hess, ainv=ainv, tangents=tangents, normal=normal, q=None, r=None)


def complex_derivative(values, n: int) -> np.ndarray:
    """d_a of a quantity from its values at ``complex_step_jets`` rows: (N n,) + S -> (N, n) + S."""
    return (values.imag / COMPLEX_STEP).reshape((-1, n) + values.shape[1:])


def chart_jets(chart: SurfaceChart, u) -> ChartJet:
    """Chart jets at one point: the single row of ``stacked_chart_jets``."""
    return stacked_chart_jets(chart, np.asarray(u, dtype=float)[None])[0]


def gauss_map(chart: SurfaceChart, u) -> np.ndarray:
    """Unit normal at r(u) in the algebra basis: (n,) -> (d,), or (N, n) -> (N, d),
    from a first-order chart evaluation."""
    u = np.asarray(u, dtype=float)
    normal = stacked_chart_jets(chart, np.atleast_2d(u), order=1).normal
    return normal if u.ndim == 2 else normal[0]


def induced_metric_with_gradient(chart: SurfaceChart, cj: ChartJet):
    """Induced metric g_ab and its exact gradient dg[c, a, b], one ChartJet row or a stack."""
    fl = chart.model.frame_lin
    # d_c tangent_a = -L(d_c r) d_a r + Ainv d^2_{ac} r
    lc = np.einsum("kji,...ic->...kjc", fl, cj.jac)
    dtan = -np.einsum("...kjc,...ja->...kac", lc, cj.jac) + np.einsum(
        "...kj,...jac->...kac", cj.ainv, cj.hess
    )
    t = cj.tangents
    g = np.swapaxes(t, -1, -2) @ t
    dg = np.einsum("...kac,...kb->...cab", dtan, t) + np.einsum("...ka,...kbc->...cab", t, dtan)
    return g, dg


def _second_fundamental(chart: SurfaceChart, cj: ChartJet):
    """h_ab = <d_b t_a + nabla_{t_b} t_a, normal> for the tangents t_a, one point or a stack.

    d_b t_a = Ainv d_ab r - L(d_b r) d_a r, and nabla is the algebra's
    connection; both are contracted with the normal first.
    """
    eta = cj.normal
    lin = np.einsum("...k,kji->...ji", eta, chart.model.frame_lin)
    conn = np.einsum("abk,...k->...ba", chart.model.algebra.connection_tensor, eta)
    jac, t = cj.jac, cj.tangents
    h = np.einsum("...j,...jab->...ab", np.einsum("...k,...kj->...j", eta, cj.ainv), cj.hess)
    return h - np.swapaxes(jac, -1, -2) @ lin @ jac + np.swapaxes(t, -1, -2) @ conn @ t


def _n_mean_curvature(chart: SurfaceChart, cj: ChartJet):
    """n H = tr(g^-1 h) at a ChartJet row or stack."""
    g = np.swapaxes(cj.tangents, -1, -2) @ cj.tangents
    return np.trace(np.linalg.solve(g, _second_fundamental(chart, cj)), axis1=-2, axis2=-1)


def mean_curvature(chart: SurfaceChart, u):
    """Frame-independent mean curvature H = tr(g^-1 h) / n: a float at one
    point (n,), or (N,) at the rows of (N, n)."""
    u = np.asarray(u, dtype=float)
    hs = _n_mean_curvature(chart, stacked_chart_jets(chart, np.atleast_2d(u))) / chart.param_dim
    return hs if u.ndim == 2 else float(hs[0])


# ---------------------------------------------------------------------------
# adapted frames


@dataclass(frozen=True, eq=False)
class AdaptedFrame:
    """Pointwise orthonormal frame adapted to the normal's V/Z split.

    ``ys`` holds rows Y_1 .. Y_{n+1}; rows 1..q-1 are horizontal, row q is
    the mixed vector x_q - z_q, rows q+1..n are central, the last row is
    the unit normal x_n1 + z_n1.  lam and mu are the proportionality
    factors x_n1 = lam * x_q and z_n1 = mu * z_q (zero when undefined).
    """

    q: int
    ys: np.ndarray
    x_q: np.ndarray
    z_q: np.ndarray
    x_n1: np.ndarray
    z_n1: np.ndarray
    lam: float
    mu: float
    special_heisenberg: bool = False

    @property
    def dim(self) -> int:
        return self.ys.shape[0]

    @property
    def normal(self) -> np.ndarray:
        return self.ys[-1]

    def x(self, k: int) -> np.ndarray:
        """Horizontal component vector X_k, 1 <= k <= q (one-based)."""
        if not 1 <= k <= self.q:
            raise IndexError("horizontal index out of range")
        return self.x_q if k == self.q else self.ys[k - 1]

    def gram_residual(self) -> float:
        gram = self.ys @ self.ys.T
        return float(np.abs(gram - np.eye(self.dim)).max())


def _completion_candidates(indices, start: int):
    k = start % len(indices)
    return list(indices[k:]) + list(indices[:k])


def _gs_pick(dim: int, indices, fixed, start: int) -> np.ndarray:
    """First basis candidate with a nonzero rejection from ``fixed``.

    ``fixed`` must be orthonormal; the rejection is applied twice so that
    a candidate close to the fixed span still comes out orthogonal to
    working precision.
    """
    for idx in _completion_candidates(indices, start):
        v = np.zeros(dim)
        v[idx] = 1.0
        for _ in range(2):
            for f in fixed:
                v -= (v @ f) * f
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm
    raise ValueError("Gram-Schmidt completion ran out of candidates")


def _gs_complete(dim: int, indices, fixed, count: int, start: int) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    fixed = list(fixed)
    for _ in range(count):
        v = _gs_pick(dim, indices, fixed, start)
        out.append(v)
        fixed.append(v)
    return out


def adapted_frame(
    alg: NilpotentAlgebra,
    normal,
    completion_start: int = 0,
) -> AdaptedFrame:
    """Build the adapted orthonormal frame for a unit normal direction.

    ``completion_start`` rotates the Gram-Schmidt candidate order for the
    free frame directions; aggregate outputs of the Laplacian must not
    depend on it.
    """
    d = alg.dim_total
    q = alg.dim_v
    nrm = np.asarray(normal, dtype=float)
    if nrm.shape != (d,):
        raise ValueError("normal must have length dim_total")
    if abs(np.linalg.norm(nrm) - 1.0) > 1e-8:
        raise ValueError("normal must be a unit vector")

    xn = alg.v_part(nrm)
    zn = alg.z_part(nrm)
    s = float(np.linalg.norm(xn))
    c = float(np.linalg.norm(zn))
    v_indices = range(q)
    z_indices = range(q, d)

    if s > NORMAL_SPLIT_TOL:
        u_dir = xn / s
    else:
        s = 0.0
        u_dir = _gs_pick(d, v_indices, [], completion_start)
    if c > NORMAL_SPLIT_TOL:
        z_dir = zn / c
    else:
        c = 0.0
        z_dir = _gs_pick(d, z_indices, [], completion_start)

    x_q = c * u_dir
    z_q = s * z_dir
    x_n1 = s * u_dir
    z_n1 = c * z_dir
    lam = s / c if c > NORMAL_SPLIT_TOL else 0.0
    mu = c / s if s > NORMAL_SPLIT_TOL else 0.0
    y_q = x_q - z_q

    if alg.is_heisenberg:
        m = q // 2
        jz = alg.j_matrix(z_dir)
        x_m = -(jz @ u_dir)
        firsts: list[np.ndarray] = []
        fixed = [u_dir, x_m]
        for _ in range(m - 1):
            cand = _gs_pick(d, v_indices, fixed, completion_start)
            firsts.append(cand)
            fixed.extend([cand, jz @ cand])
        seconds = [jz @ v for v in firsts]
        rows = firsts + [x_m] + seconds + [y_q, nrm]
    else:
        v_comp = _gs_complete(d, v_indices, [u_dir], q - 1, completion_start)
        z_comp = _gs_complete(d, z_indices, [z_dir], d - 1 - q, completion_start)
        rows = v_comp + [y_q] + z_comp + [nrm]

    return AdaptedFrame(
        q=q,
        ys=np.array(rows),
        x_q=x_q,
        z_q=z_q,
        x_n1=x_n1,
        z_n1=z_n1,
        lam=lam,
        mu=mu,
        special_heisenberg=alg.is_heisenberg,
    )


# ---------------------------------------------------------------------------
# shape data in an adapted frame


@dataclass(frozen=True, eq=False)
class ShapeData:
    """Second fundamental form b_ij in the adapted tangent frame."""

    b: np.ndarray
    h: float
    norm_b2: float


def chart_coefficients(cj: ChartJet, vecs) -> np.ndarray:
    """Chart directions c with T c = y of tangent algebra vectors y, T the tangent columns.

    ``cj`` is one ChartJet row or a stack; ``vecs`` is one (d,) vector or
    vectors (..., k, d) broadcast against the stack, giving (..., k, n).
    One solve with the tangents' QR factors, which the ChartJet carries,
    covers every vector.
    """
    t, y, qm, rm = cj.tangents, np.asarray(vecs, dtype=float), cj.q, cj.r
    sol = np.swapaxes(np.linalg.solve(rm, np.swapaxes(np.atleast_2d(y) @ qm, -1, -2)), -1, -2)
    if (np.linalg.norm(sol @ np.swapaxes(t, -1, -2) - y, axis=-1) > 1e-6).any():
        raise ValueError("vector is not tangent to the chart at this point")
    return sol[..., 0, :] if y.ndim == 1 else sol


def shape_data(chart: SurfaceChart, cj: ChartJet, frames):
    """b_ij = <nabla_{Y_i} Y_j, normal> at a ChartJet row with its frame, or a list
    of them at a stack with one frame per row; each frame's normal must match.

    The form is tensorial, so the chart directions of Y_1 .. Y_n, from one
    ``chart_coefficients`` call, contract its coordinate form to the frame
    value.  Also returns those directions, (n, n) or (N, n, n), along which
    Y_k(n H) is taken.
    """
    one = cj.point.ndim == 1
    ys = frames.ys if one else np.array([frame.ys for frame in frames])
    if (np.linalg.norm(ys[..., -1, :] - cj.normal, axis=-1) > 1e-8).any():
        raise ValueError("adapted frame normal does not match the chart normal")
    coeffs = chart_coefficients(cj, ys[..., :-1, :])
    b = coeffs @ _second_fundamental(chart, cj) @ np.swapaxes(coeffs, -1, -2)
    hs, norms = np.trace(b, axis1=-2, axis2=-1) / b.shape[-1], (b * b).sum(axis=(-2, -1))
    if one:
        return ShapeData(b=b, h=float(hs), norm_b2=float(norms)), coeffs
    return [ShapeData(b=x, h=float(h), norm_b2=float(nb)) for x, h, nb in zip(b, hs, norms)], coeffs


def mean_curvature_derivatives(chart: SurfaceChart, u, coeffs):
    """Y_k(n H) at one point u, or at every row of an (N, n) array, exact by the complex step.

    ``coeffs`` (n, n), or (N, n, n), are the chart directions of Y_1 .. Y_n, as
    ``shape_data`` returns them: Y_k(n H) = coeffs[k] @ grad(n H).  ``u`` may instead
    be the points' ``complex_step_jets`` rows, which are then not evaluated again.
    """
    if not isinstance(u, ChartJet):
        points = np.atleast_2d(np.asarray(u, dtype=float))
        u = complex_step_jets(chart, points, gauss_map(chart, points))
    grad = complex_derivative(_n_mean_curvature(chart, u), chart.param_dim)
    return (coeffs @ grad.reshape(np.shape(coeffs)[:-1] + (1,)))[..., 0]


# ---------------------------------------------------------------------------
# chart catalog


def expression_chart(model: CoordinateModel, components, domain, orientation: int = 1) -> SurfaceChart:
    exprs = tuple(comp if isinstance(comp, Expr) else parse_expression(comp) for comp in components)
    return SurfaceChart(model=model, components=exprs, orientation=orientation, domain=tuple(domain))


@dataclass(frozen=True)
class CatalogEntry:
    components: Callable  # (model, params, domain, rng) -> component expressions
    params: dict  # name -> Field
    nil_polarized: bool  # built on the nil_polarized model only
    domain: tuple | None  # default axis ranges, the last repeated over further axes; None: required
    sign: int = 1  # the chart's orientation is this times the requested one


def _cylinder_components(model, params, domain, rng):
    """(f1(u1), f2(u1), u2); the profile derivative must not vanish on the u1-range."""
    e1, e2 = (f if isinstance(f, Expr) else parse_expression(f) for f in (params["f1"], params["f2"]))
    for e in (e1, e2):
        if e.max_param > 1:
            raise ValueError("profile expressions may only use u1")
    for sval in np.linspace(domain[0][0], domain[0][1], 17):
        if sum(e.jet([sval, 0.0]).grad[0] ** 2 for e in (e1, e2)) <= 1e-16:
            raise ValueError(f"degenerate profile derivative at s={sval}")
    return [e1, e2, "u2"]


def _graph_components(model, params, domain, rng):
    return [f"u{i}" for i in range(1, model.dim)] + [params["expr"]]


RANDOM_TERMS = ("{c}*u{a}", "{c}*u{a}*u{b}", "{c}*sin(u{a})", "{c}*cos(u{a})")
# A sum of k terms has k - 1 levels of '+' above its first term, and a term is at
# most 4 levels deep (-c*u1*u2 is *, *, neg, c), so up to MAX_DEPTH - 3 terms parse.
RANDOM_MAX_TERMS = MAX_DEPTH - 3


def _random_graph_components(model, params, domain, rng):
    """A graph of a seeded random sum of RANDOM_TERMS; an integer ``rng`` is a
    seed, to which the ``index`` param is added."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng + params["index"])
    elif params["index"]:
        raise ValueError("chart param 'index' offsets an integer seed, not a Generator")
    parts = []
    for _ in range(params["terms"]):
        kind = int(rng.integers(0, 4))
        a = int(rng.integers(1, model.dim))
        b = int(rng.integers(1, model.dim))
        coeff = float(np.round(rng.uniform(-RANDOM_COEFF_SCALE, RANDOM_COEFF_SCALE), 6))
        parts.append(RANDOM_TERMS[kind].format(c=coeff, a=a, b=b))
    return _graph_components(model, {"expr": " + ".join(parts)}, domain, rng)


EXPRESSION = Field("expression", required=True)
CATALOG = {
    "nil_foliation_leaf": CatalogEntry(
        lambda model, params, domain, rng: ["u1", "u2", repr(float(params["z0"]))],
        {"z0": Field("number", default=0.0)}, nil_polarized=True, domain=((-2.5, 2.5), (-1.0, 1.0)),
    ),
    "nil_vertical_plane": CatalogEntry(
        lambda model, params, domain, rng: ["u1", "0", "u2"],
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


def catalog_chart(name, model, params, domain=None, orientation=1, rng=0) -> SurfaceChart:
    """Catalog entry ``name`` over ``domain`` (default: the entry's), oriented by
    ``orientation`` times the entry's sign; ``rng`` is a Generator or an integer seed.
    The request is checked against the entry before any expression is parsed, and
    ConfigError lists every problem."""
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
    comps = entry.components(model, fill(params, table), domain, rng)
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


def random_graph_chart(model: CoordinateModel, rng: np.random.Generator, terms: int = 3) -> SurfaceChart:
    """Seeded random graph chart with bounded polynomial/trig height."""
    return catalog_chart("random_graph", model, {"terms": terms}, rng=rng)
