"""Parametric hypersurfaces in a coordinate model.

A chart is a tuple of expressions u -> r(u) into model coordinates over a
box domain.  From first and second chart jets everything extrinsic is
computed exactly (no finite differences): tangents expressed in the
left-invariant frame, the induced metric with its first derivatives, the
second fundamental form from the connection, and hence the mean
curvature H and |B|^2.  Finite differences appear only for derivatives
of derived scalar fields such as u -> n H(u).

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

import numpy as np

from .algebra import NilpotentAlgebra
from .expressions import Expr, expression_jets, parse_expression
from .fd import FDParams, directional_derivative
from .models import CoordinateModel, nil_polarized_model

IMMERSION_RANK_TOL = 1e-8
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

    ``stacked_chart_jets`` fills the same fields for a stack of N points,
    each with a leading axis of length N.  ``q`` and ``r`` are the reduced
    QR factors of the tangents.  A first-order evaluation has ``hess`` None.
    """

    point: np.ndarray   # (d,)
    jac: np.ndarray     # (d, n)
    hess: np.ndarray | None  # (d, n, n)
    ainv: np.ndarray    # inverse frame at point, (d, d)
    tangents: np.ndarray  # tangents in the algebra basis, (d, n)
    normal: np.ndarray  # oriented unit normal in the algebra basis, (d,)
    q: np.ndarray       # tangents = q @ r, q (d, n) with orthonormal columns
    r: np.ndarray       # upper triangular, (n, n)

    def __getitem__(self, i) -> "ChartJet":
        """Row i of a stacked ChartJet."""
        return ChartJet(**{key: None if val is None else val[i] for key, val in vars(self).items()})


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
    d = chart.model.dim
    if points.ndim != 2 or points.shape[1] != n:
        raise ValueError(f"parameter points must be rows of length {n}")
    count = len(points)
    val = np.empty((count, d))
    jac = np.empty((count, d, n))
    hess = np.empty((count, d, n, n)) if order == 2 else None
    for k, jet in enumerate(expression_jets(chart.components, points, order)):
        val[:, k] = jet.val
        jac[:, k] = jet.grad
        if hess is not None:
            hess[:, k] = jet.hess
    ainv = chart.model.frame_inverse(val)
    tangents = ainv @ jac
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


def mean_curvature(chart: SurfaceChart, u):
    """Frame-independent mean curvature H = tr(g^-1 h) / n: a float at one
    point (n,), or (N,) at the rows of (N, n)."""
    u = np.asarray(u, dtype=float)
    cj = stacked_chart_jets(chart, np.atleast_2d(u))
    g = np.swapaxes(cj.tangents, -1, -2) @ cj.tangents
    h = _second_fundamental(chart, cj)
    hs = np.trace(np.linalg.solve(g, h), axis1=-2, axis2=-1) / chart.param_dim
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
    Y_k(n H) is differenced.
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


def mean_curvature_derivatives(chart: SurfaceChart, u, coeffs, fd=FDParams()):
    """Y_k(n H) at one point u, or at every row of an (N, n) array, by Richardson FD.

    ``coeffs`` (n, n), or (N, n, n), are the chart directions of the frame
    vectors Y_1 .. Y_n, as ``shape_data`` returns them; the stencils of all
    rows go to one FD call.
    """
    n = chart.param_dim
    field = lambda pts: n * mean_curvature(chart, pts)
    return directional_derivative(field, u, coeffs, fd, domain=chart.domain)


# ---------------------------------------------------------------------------
# chart catalog


def expression_chart(
    model: CoordinateModel,
    components,
    domain,
    orientation: int = 1,
) -> SurfaceChart:
    exprs = tuple(
        comp if isinstance(comp, Expr) else parse_expression(comp) for comp in components
    )
    return SurfaceChart(model=model, components=exprs, orientation=orientation, domain=tuple(domain))


def graph_chart(
    model: CoordinateModel,
    expr,
    domain,
    orientation: int = 1,
) -> SurfaceChart:
    """Hypersurface with the last coordinate a function of the others."""
    n = model.dim - 1
    comps = [f"u{i}" for i in range(1, n + 1)]
    comps.append(expr if isinstance(expr, str) else expr.source)
    return expression_chart(model, comps, domain, orientation)


def foliation_leaf_chart(
    z_level: float = 0.0,
    x_range=(-2.5, 2.5),
    y_range=(-1.0, 1.0),
) -> SurfaceChart:
    """Horizontal leaf {z = const} of the polarized 3-dimensional model.

    Its normal direction is (u1 * Y + Z)/sqrt(1 + u1^2) in the
    left-invariant frame, a minimal surface with non-constant |B|^2.
    """
    return expression_chart(
        nil_polarized_model(),
        ["u1", "u2", repr(float(z_level))],
        [x_range, y_range],
        orientation=1,
    )


def vertical_plane_chart(s_range=(-1.0, 1.0), t_range=(-1.0, 1.0)) -> SurfaceChart:
    """The plane r(s, t) = (s, 0, t) in the polarized model; Gauss map = Y."""
    return expression_chart(
        nil_polarized_model(),
        ["u1", "0", "u2"],
        [s_range, t_range],
        orientation=-1,
    )


def cylinder_chart(
    f1,
    f2,
    s_range=(-1.0, 1.0),
    t_range=(-1.0, 1.0),
    orientation: int = 1,
) -> SurfaceChart:
    """Surface r(s, t) = (f1(s), f2(s), t) in the polarized model.

    Invariant under central translations; the profile derivative must not
    vanish on the s-range.
    """
    e1 = f1 if isinstance(f1, Expr) else parse_expression(f1)
    e2 = f2 if isinstance(f2, Expr) else parse_expression(f2)
    for e in (e1, e2):
        if e.max_param > 1:
            raise ValueError("profile expressions may only use u1")
    lo, hi = float(s_range[0]), float(s_range[1])
    for sval in np.linspace(lo, hi, 17):
        j1 = e1.jet([sval, 0.0]).grad[0]
        j2 = e2.jet([sval, 0.0]).grad[0]
        if j1 * j1 + j2 * j2 <= 1e-16:
            raise ValueError(f"degenerate profile derivative at s={sval}")
    return expression_chart(
        nil_polarized_model(),
        [e1, e2, parse_expression("u2")],
        [(lo, hi), t_range],
        orientation=orientation,
    )


def random_graph_chart(
    model: CoordinateModel,
    rng: np.random.Generator,
    terms: int = 3,
) -> SurfaceChart:
    """Seeded random graph chart with bounded polynomial/trig height."""
    n = model.dim - 1
    parts = []
    for _ in range(max(1, terms)):
        kind = int(rng.integers(0, 4))
        a = int(rng.integers(1, n + 1))
        b = int(rng.integers(1, n + 1))
        coeff = float(np.round(rng.uniform(-RANDOM_COEFF_SCALE, RANDOM_COEFF_SCALE), 6))
        if kind == 0:
            parts.append(f"{coeff}*u{a}")
        elif kind == 1:
            parts.append(f"{coeff}*u{a}*u{b}")
        elif kind == 2:
            parts.append(f"{coeff}*sin(u{a})")
        else:
            parts.append(f"{coeff}*cos(u{a})")
    height = " + ".join(parts)
    domain = [(-RANDOM_DOMAIN_HALF, RANDOM_DOMAIN_HALF)] * n
    return graph_chart(model, height, domain)
