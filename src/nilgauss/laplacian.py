"""Laplacian of the Gauss map: closed forms, numeric oracle, checkers.

The closed general form expresses the components of Delta G in the
adapted frame {Y_1 .. Y_{n+1}} through four kinds of terms per slot:

* the derivative of the mean curvature along the frame vector,
* sums of J/bracket contractions weighted by second fundamental form
  entries,
* an ambient curvature term 4 <R(X_k, Z) Z, X> built from the normal's
  central part,
* and for the normal slot the scalar -|B|^2 - Ric(normal, normal).

``laplacian_h_type`` and ``laplacian_heisenberg`` are algebraic
specializations (Heisenberg-type algebras, and Heisenberg groups in the
symplectically adapted basis); they must agree with the general form to
machine precision on their domains, which the test suite enforces.

``laplacian_numeric`` is the independent oracle: it applies the
Laplace-Beltrami operator of the induced metric componentwise to the
Gauss map in the fixed algebra basis,

    Delta f = g^{ab} d2f/du_a du_b + c^b df/du_b,
    c^b = (det g)^{-1/2} d_a ((det g)^{1/2} g^{ab}),

with metric coefficients exact (from chart jets) and only the derivatives
of the Gauss map taken by Richardson finite differences.  Closed forms
and oracle share no code path beyond chart evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NilpotentAlgebra
from .curvature import curvature, ricci
from .fd import FDParams, directional_derivative, gradient_hessian
from .surfaces import (
    AdaptedFrame,
    ChartJet,
    ShapeData,
    SurfaceChart,
    _second_fundamental,
    adapted_frame,
    chart_coefficients,
    chart_jets,
    gauss_map,
    induced_metric_with_gradient,
    mean_curvature_derivatives,
    shape_data,
    stacked_chart_jets,
)

TERM_KEYS = ("dh", "bracket_j", "curvature", "norm_b2_ric")


@dataclass(frozen=True, eq=False)
class LaplacianReport:
    """Coefficients of Delta G in the adapted frame, with a term breakdown."""

    coeffs: np.ndarray
    terms: dict[str, np.ndarray]
    tangential_norm: float
    normal_coeff: float
    method: str

    @classmethod
    def from_terms(cls, terms: dict[str, np.ndarray], method: str) -> "LaplacianReport":
        coeffs = np.sum([np.asarray(v, dtype=float) for v in terms.values()], axis=0)
        return cls(
            coeffs=coeffs,
            terms={k: np.asarray(v, dtype=float) for k, v in terms.items()},
            tangential_norm=float(np.linalg.norm(coeffs[:-1])),
            normal_coeff=float(coeffs[-1]),
            method=method,
        )


def _term_arrays(d: int) -> dict[str, np.ndarray]:
    return {key: np.zeros(d) for key in TERM_KEYS}


def _horizontal_rows(frame: AdaptedFrame) -> np.ndarray:
    """X_1 .. X_q as rows."""
    return np.array([frame.x(i) for i in range(1, frame.q + 1)])


def _b_form(alg: NilpotentAlgebra, frame: AdaptedFrame, b: np.ndarray) -> np.ndarray:
    """The linear form in t of the b sums, as a vector:

        t -> sum_i 2 b_iq <J(z_q) X_i, t> - sum_{i, j > q} 2 b_ij <J(Z_j) X_i, t>.
    """
    q, n = frame.q, frame.dim - 1
    zs = np.vstack([frame.z_q, frame.ys[q:n]])  # z_q, Z_{q+1} .. Z_n
    weights = 2.0 * b[:q, q - 1:n] * np.r_[1.0, -np.ones(n - q)]
    # <J(Z) X, t> = <[X, t], Z>
    return np.einsum("ij,abk,ia,jk->b", weights, alg.bracket_tensor, _horizontal_rows(frame), zs)


def laplacian_general(
    alg: NilpotentAlgebra,
    frame: AdaptedFrame,
    shape: ShapeData,
    dh,
) -> LaplacianReport:
    """Closed-form Delta G for any 2-step algebra, in the adapted frame.

    ``dh`` holds the n derivatives Y_k(n H).
    """
    d = alg.dim_total
    n = alg.n
    q = frame.q
    dh = np.asarray(dh, dtype=float)
    if dh.shape != (n,):
        raise ValueError(f"dh must hold {n} frame derivatives of nH")
    if frame.ys.shape != (d, d):
        raise ValueError("frame dimension does not match the algebra")
    x_n1, z_n1 = frame.x_n1, frame.z_n1
    c = alg.bracket_tensor
    xs = _horizontal_rows(frame)

    # Each slot evaluates linear forms at its target t = X_k (k <= q) or x_n1:
    # sum_{j<q} <J([t, X_j]) X_j, x_n1> = sum_{j<q} <[t, X_j], [X_j, x_n1]>,
    # the b sums, n H <J(z_n1) x_n1, t> (k <= q only) and 4 <R(t, z_n1) z_n1, x_n1>.
    pair_brackets = np.einsum("abk,ja,b->jk", c, xs[:-1], x_n1)
    bracket_form = np.einsum("abk,jb,jk->a", c, xs[:-1], pair_brackets)
    bracket_form += _b_form(alg, frame, shape.b)
    mean_form = n * shape.h * (alg.j_matrix(z_n1) @ x_n1)
    curvature_form = 4.0 * np.einsum("abck,b,c,k->a", alg.curvature_tensor, z_n1, z_n1, x_n1)

    terms = _term_arrays(d)
    terms["dh"][:n] = -dh
    terms["bracket_j"][:q] = xs @ (bracket_form + mean_form)
    terms["bracket_j"][n] = bracket_form @ x_n1
    terms["curvature"][:q] = xs @ curvature_form
    terms["curvature"][n] = curvature_form @ x_n1
    terms["norm_b2_ric"][n] = -shape.norm_b2 - ricci(alg, frame.normal, frame.normal)
    return LaplacianReport.from_terms(terms, "general")


def laplacian_h_type(
    alg: NilpotentAlgebra,
    frame: AdaptedFrame,
    shape: ShapeData,
    dh,
) -> LaplacianReport:
    """Specialized Delta G for Heisenberg-type algebras.

    The bracket and curvature sums collapse into closed factors built
    from the norms of the normal's two parts; the result must agree with
    the general form coefficient by coefficient.
    """
    if not alg.is_h_type:
        raise ValueError("laplacian_h_type requires a Heisenberg-type algebra")
    d = alg.dim_total
    n = alg.n
    q = frame.q
    dh = np.asarray(dh, dtype=float)
    a_x = float(np.linalg.norm(frame.x_n1))
    a_z = float(np.linalg.norm(frame.z_n1))
    b_form = _b_form(alg, frame, shape.b)
    mean_form = n * shape.h * (alg.j_matrix(frame.z_n1) @ frame.x_n1)

    terms = _term_arrays(d)
    terms["dh"][:n] = -dh
    terms["bracket_j"][:q] = _horizontal_rows(frame) @ (b_form + mean_form)
    terms["bracket_j"][n] = b_form @ frame.x_n1
    terms["curvature"][q - 1] = a_z * a_x * (q - n - 1 + a_z**2)
    terms["norm_b2_ric"][n] = (
        -shape.norm_b2 - (q / 4.0) * a_z**2 + a_x**2 * (0.5 * (q - n - 1) + a_z**2)
    )
    return LaplacianReport.from_terms(terms, "h_type")


def laplacian_heisenberg(
    alg: NilpotentAlgebra,
    frame: AdaptedFrame,
    shape: ShapeData,
    dh,
) -> LaplacianReport:
    """Delta G over a Heisenberg group in the symplectically adapted basis.

    Writing s and c for the norms of the horizontal and central parts of
    the normal and m for half the horizontal dimension, the coefficients
    reduce to combinations of the last row of b.  Two bookkeeping points
    are fixed by the requirement of exact agreement with the general
    form: the block carrying Y_{m+k}(2mH) multiplies the frame vector
    Y_{m+k}, and the mean-curvature term in the Y_m slot carries the
    product s*c.
    """
    if not alg.is_heisenberg:
        raise ValueError("laplacian_heisenberg requires a Heisenberg algebra")
    if not frame.special_heisenberg:
        raise ValueError("frame was not built in the symplectically adapted basis")
    d = alg.dim_total
    n = alg.n
    q = frame.q
    m = q // 2
    dh = np.asarray(dh, dtype=float)
    b = shape.b
    nH = n * shape.h
    s = float(np.linalg.norm(frame.x_n1))
    c = float(np.linalg.norm(frame.z_n1))

    terms = _term_arrays(d)
    terms["dh"][:n] = -dh
    last = 2 * m - 1  # zero-based row of the mixed frame vector
    for k in range(1, m):
        terms["bracket_j"][k - 1] = -2.0 * b[last, m + k - 1] * s
        terms["bracket_j"][m + k - 1] = 2.0 * b[last, k - 1] * s
    terms["bracket_j"][m - 1] = -nH * s * c - 2.0 * b[last, last] * s * c
    terms["bracket_j"][2 * m - 1] = 2.0 * b[last, m - 1] * s * c
    terms["curvature"][2 * m - 1] = -(s**3) * c
    terms["bracket_j"][n] = 2.0 * b[last, m - 1] * s**2
    terms["norm_b2_ric"][n] = (
        -shape.norm_b2 - (m / 2.0) * c**2 + 0.5 * s**2 - s**4
    )
    return LaplacianReport.from_terms(terms, "heisenberg")


# ---------------------------------------------------------------------------
# numeric oracle


def laplace_beltrami_coefficients(chart: SurfaceChart, cj: ChartJet):
    """Exact g^{ab} and first-order coefficients c^b of the operator, at a ChartJet row or a stack."""
    g, dg = induced_metric_with_gradient(chart, cj)
    ginv = np.linalg.inv(g)
    # c^b = d_a g^{ab} + g^{ab} tr(g^-1 d_a g) / 2, with d_a g^-1 = -g^-1 (d_a g) g^-1
    # matmul and trace rather than einsum: each row then sums in the same order
    # in a stack as alone
    ginv_a = ginv[..., None, :, :]
    term1 = -np.trace(ginv_a @ dg @ ginv_a, axis1=-3, axis2=-2)
    traces = np.trace(ginv_a @ dg, axis1=-2, axis2=-1)
    term2 = 0.5 * (traces[..., None, :] @ ginv)[..., 0, :]
    return ginv, term1 + term2


def laplace_beltrami_scalar(
    chart: SurfaceChart, u, field, fd: FDParams = FDParams()
) -> float:
    """Laplace-Beltrami operator of a scalar field on the chart.

    ``field`` maps an (N, n) array of points to N values.
    """
    ginv, cvec = laplace_beltrami_coefficients(chart, chart_jets(chart, u))
    grad, hess = gradient_hessian(field, u, fd, domain=chart.domain)
    return float(np.einsum("ab,ab->", ginv, hess) + cvec @ grad)


def oracle_laplacians(chart: SurfaceChart, cj: ChartJet, points, fd=FDParams()) -> np.ndarray:
    """Numeric Delta G in the algebra basis, (N, d), at every row of an (N, n) array.

    ``cj`` holds the stacked chart jets at the points, which give the
    metric coefficients exactly, one stacked inverse for all rows; the
    Gauss map is differenced on its own stencils, those of all points in
    one ``gradient_hessian`` call.
    """
    field = lambda pts: gauss_map(chart, pts)
    grad, hess = gradient_hessian(field, points, fd, domain=chart.domain)
    ginv, cvec = laplace_beltrami_coefficients(chart, cj)
    count, d, n = grad.shape
    second = hess.reshape(count, d, n * n) @ ginv.reshape(count, n * n, 1)
    return (second + grad @ cvec[..., None])[..., 0]


def laplacian_numeric(
    chart: SurfaceChart,
    u,
    fd: FDParams = FDParams(),
    frame: AdaptedFrame | None = None,
) -> LaplacianReport:
    """Numeric Delta G, re-expressed in the adapted frame at u: the
    one-point view of ``oracle_laplacians``."""
    u = np.asarray(u, dtype=float)
    cj = stacked_chart_jets(chart, u[None])
    if frame is None:
        frame = adapted_frame(chart.model.algebra, cj.normal[0])
    delta = oracle_laplacians(chart, cj, u[None], fd)[0]
    return LaplacianReport.from_terms({"numeric": frame.ys @ delta}, "numeric_oracle")


CLOSED_FORMS = {
    "general": laplacian_general,
    "h_type": laplacian_h_type,
    "heisenberg": laplacian_heisenberg,
}


@dataclass(frozen=True, eq=False)
class PointEval:
    """Frame, shape, Y_k(n H) and one Laplacian report per method at a chart point,
    with the oracle's Delta G in the algebra basis as ``delta`` (None without it)."""

    u: np.ndarray
    frame: AdaptedFrame
    shape: ShapeData
    dh: np.ndarray
    reports: dict[str, LaplacianReport]
    delta: np.ndarray | None


def evaluate_points(
    chart: SurfaceChart,
    points,
    methods=("general",),
    fd: FDParams = FDParams(),
    completion_start: int = 0,
) -> list[PointEval]:
    """Frame, shape and a report per method at every row of an (N, n) array.

    The one pipeline: one stacked chart evaluation at the N points, one
    FD call for the Y_k(n H) stencils of all of them and one for the
    oracle's.  ``general`` is always evaluated, because the checkers read
    it.  The oracle shares only the chart jets at the points with the
    closed forms, and gets the frame only to re-express Delta G.
    """
    alg = chart.model.algebra
    points = np.asarray(points, dtype=float)
    cj = stacked_chart_jets(chart, points)
    frames = [adapted_frame(alg, nrm, completion_start=completion_start) for nrm in cj.normal]
    shapes, coeffs = shape_data(chart, cj, frames)
    dhs = mean_curvature_derivatives(chart, points, coeffs, fd)
    deltas = [None] * len(points)
    if "numeric_oracle" in methods:
        deltas = oracle_laplacians(chart, cj, points, fd)
    evals = []
    for u, frame, shape, dh, delta in zip(points, frames, shapes, dhs, deltas):
        reports = {"general": laplacian_general(alg, frame, shape, dh)}
        for mth in methods:
            if mth == "numeric_oracle":
                reports[mth] = LaplacianReport.from_terms({"numeric": frame.ys @ delta}, mth)
            elif mth not in reports:
                reports[mth] = CLOSED_FORMS[mth](alg, frame, shape, dh)
        evals.append(PointEval(u=u, frame=frame, shape=shape, dh=dh, reports=reports, delta=delta))
    return evals


def evaluate_point(
    chart: SurfaceChart,
    u,
    methods=("general",),
    fd: FDParams = FDParams(),
    completion_start: int = 0,
) -> PointEval:
    """Frame, shape and a report per method at u: the one-point view of
    ``evaluate_points``."""
    return evaluate_points(chart, np.asarray(u, dtype=float)[None], methods, fd, completion_start)[0]


def closed_form_report(
    chart: SurfaceChart,
    u,
    method: str = "general",
    fd: FDParams = FDParams(),
    completion_start: int = 0,
):
    """Frame, shape and Laplacian report at one chart point."""
    ev = evaluate_point(chart, u, [method], fd, completion_start)
    return ev.reports[method], ev.frame, ev.shape


# ---------------------------------------------------------------------------
# verdicts and checkers


@dataclass(frozen=True)
class HarmonicityVerdict:
    defect: float
    harmonic: bool
    energy_coeff: float


def harmonicity(report: LaplacianReport, tol: float = 1e-3) -> HarmonicityVerdict:
    """Harmonic iff the tangential part of Delta G vanishes within tol.

    The criterion "Delta G parallel to G" is independent of sign
    conventions for the Laplacian; the normal coefficient is reported as
    the energy-type scalar.
    """
    defect = report.tangential_norm
    return HarmonicityVerdict(
        defect=defect, harmonic=bool(defect < tol), energy_coeff=report.normal_coeff
    )


def harmonicity_cmc_residuals(shape: ShapeData, frame: AdaptedFrame):
    """Three residuals coupling CMC and harmonicity over a Heisenberg group.

    In the symplectically adapted basis the harmonicity of the Gauss map
    of a CMC hypersurface is equivalent to: the off-pair entries of the
    last row of b vanish; c * (s^2 - 2 b_{2m,m}) = 0; and
    c * (b_11 + .. + b_{2m-1,2m-1} + 3 b_{2m,2m}) = 0.
    """
    if not frame.special_heisenberg:
        raise ValueError("residuals require the symplectically adapted basis")
    q = frame.q
    m = q // 2
    b = shape.b
    s = float(np.linalg.norm(frame.x_n1))
    c = float(np.linalg.norm(frame.z_n1))
    last = 2 * m - 1
    off_idx = [k - 1 for k in range(1, m)] + [k - 1 for k in range(m + 1, 2 * m)]
    r1 = float(np.abs(b[last, off_idx]).max()) if off_idx else 0.0
    r2 = abs(c * (s**2 - 2.0 * b[last, m - 1]))
    diag = float(np.trace(b)) - b[last, last]
    r3 = abs(c * (diag + 3.0 * b[last, last]))
    return r1, r2, r3


@dataclass(frozen=True)
class JacobiReport:
    max_residual: float
    min_w: float
    h_spread: float
    max_defect: float
    cmc_ok: bool
    harmonic_ok: bool


def jacobi_residuals(
    chart: SurfaceChart,
    evals,
    direction,
    fd: FDParams = FDParams(),
    tol: float = 1e-3,
) -> JacobiReport:
    """Residual of (Delta + |B|^2 + Ric(normal, normal)) w, w = <G, v>.

    ``evals`` are ``evaluate_point`` records; the chart is expected to be
    CMC with harmonic Gauss map, both checked within tol and reported.  A
    strictly positive w over the grid is the stability certificate.
    Delta w is read from each record's oracle ``delta``; the records
    without one get it from one ``oracle_laplacians`` call with ``fd``.
    """
    alg = chart.model.algebra
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    missing = np.array([ev.u for ev in evals if ev.delta is None])
    if len(missing):
        computed = iter(oracle_laplacians(chart, stacked_chart_jets(chart, missing), missing, fd))
    max_res = 0.0
    min_w = np.inf
    hs = []
    max_defect = 0.0
    for ev in evals:
        normal, shape = ev.frame.normal, ev.shape
        hs.append(shape.h)
        max_defect = max(max_defect, ev.reports["general"].tangential_norm)
        w = float(normal @ v)
        delta = next(computed) if ev.delta is None else ev.delta
        lw = float(delta @ v)  # v is constant: Delta <G, v> = <Delta G, v>
        pot = shape.norm_b2 + ricci(alg, normal, normal)
        max_res = max(max_res, abs(lw + pot * w))
        min_w = min(min_w, w)
    spread = float(max(hs) - min(hs)) if hs else 0.0
    return JacobiReport(
        max_residual=float(max_res),
        min_w=float(min_w),
        h_spread=spread,
        max_defect=float(max_defect),
        cmc_ok=bool(spread <= tol),
        harmonic_ok=bool(max_defect <= tol),
    )


@dataclass(frozen=True)
class CentralVariationReport:
    skipped: bool
    max_variation: float | None
    max_defect: float


def central_h_variation(
    chart: SurfaceChart,
    evals,
    tol: float = 1e-3,
) -> CentralVariationReport:
    """Largest rate of change of H along a central tangent direction.

    When the Gauss map is harmonic, Z(H) = 0 for every tangent frame
    vector Z lying in the center.  The check is gated on the ``general``
    reports of the ``evaluate_point`` records: for a non-harmonic chart it
    reports skipped.  Otherwise the value is the largest |Y_k(n H)| / n
    over the central slots k of each record's ``dh``: Y_{q+1} .. Y_n, and
    the mixed vector Y_q where its horizontal part vanishes.
    """
    alg = chart.model.algebra
    q, n = alg.dim_v, alg.n
    max_defect = max((ev.reports["general"].tangential_norm for ev in evals), default=0.0)
    if max_defect > tol:
        return CentralVariationReport(skipped=True, max_variation=None, max_defect=max_defect)
    max_var = 0.0
    for ev in evals:
        idx = list(range(q, n))
        if np.linalg.norm(ev.frame.x_q) < 1e-9:
            idx.append(q - 1)  # mixed vector degenerates to a central one
        for k in idx:
            max_var = max(max_var, abs(ev.dh[k]) / n)
    return CentralVariationReport(skipped=False, max_variation=float(max_var), max_defect=max_defect)


@dataclass(frozen=True)
class GaussCodazziResult:
    skipped: bool
    codazzi_residual: float | None
    gauss_residual: float | None
    curvature_term: float | None
    ab_product: float | None


def _gc_field(chart: SurfaceChart, cj: ChartJet) -> np.ndarray:
    """Rows of h_ab (4 entries), then the induced Christoffels Gamma^c_ab (8), at a ChartJet stack."""
    h = _second_fundamental(chart, cj)
    g, dg = induced_metric_with_gradient(chart, cj)
    # Gamma^c_ab = g^cd (d_a g_db + d_b g_da - d_d g_ab) / 2
    lower = np.einsum("nadb->ndab", dg) + np.einsum("nbda->ndab", dg) - dg
    gamma = 0.5 * np.einsum("ncd,ndab->ncab", np.linalg.inv(g), lower)
    return np.concatenate([h.reshape(-1, 4), gamma.reshape(-1, 8)], axis=1)


def _dot(x, y) -> np.ndarray:
    """Row-wise x[i] @ y[i] of two stacks, each row summed as the single product sums it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def gauss_codazzi_residuals(chart: SurfaceChart, evals, fd: FDParams = FDParams()):
    """Compatibility residuals of a surface in a 3-dimensional model, in chart coordinates.

    ``evals`` is one ``evaluate_point`` record, giving one result, or a list of
    them, giving one result per record: one stacked chart evaluation gives h_ab
    and Gamma^c_ab exactly, one FD call along u1 and u2 their derivatives.
    Residual one is the worse of the Codazzi lines T(d1, d2, d1), T(d2, d1, d2),
    T_abc = nabla_a h_bc - nabla_b h_ac - <R(t_a, t_b) t_c, normal>, with d1, d2
    the chart directions of the record's Y_1, Y_2.  Residual two is the Gauss
    equation K = det h / det g + the ambient sectional curvature.  Records where
    either part of the normal vanishes are skipped (the adapted frame is not smooth there).
    """
    if isinstance(evals, PointEval):
        return gauss_codazzi_residuals(chart, [evals], fd)[0]
    alg = chart.model.algebra
    if alg.dim_total != 3:
        raise ValueError("gauss_codazzi_residuals requires a 3-dimensional model")
    norms = [(float(np.linalg.norm(ev.frame.x_n1)), float(np.linalg.norm(ev.frame.z_n1))) for ev in evals]
    kept = [i for i, (a, bb) in enumerate(norms) if not (a < 1e-8 or bb < 1e-8)]
    results = [GaussCodazziResult(True, None, None, None, None)] * len(evals)
    if not kept:
        return results

    u, ys = np.array([evals[i].u for i in kept]), np.array([evals[i].frame.ys for i in kept])
    cj = stacked_chart_jets(chart, u)
    centre = _gc_field(chart, cj)
    field = lambda pts: _gc_field(chart, stacked_chart_jets(chart, pts))
    eyes = np.broadcast_to(np.eye(2), (len(u), 2, 2))
    deriv = directional_derivative(field, u, eyes, fd, domain=chart.domain)
    h, dh = centre[:, :4].reshape(-1, 2, 2), deriv[..., :4].reshape(-1, 2, 2, 2)  # dh[:, a] = d_a h
    gamma, dgamma = centre[:, 4:].reshape(-1, 2, 2, 2), deriv[..., 4:].reshape(-1, 2, 2, 2, 2)
    t = np.swapaxes(cj.tangents, -1, -2)  # rows t_1, t_2
    f1, f2, eta = np.moveaxis(ys, 1, 0)

    nabla_h = dh - np.einsum("neab,nec->nabc", gamma, h) - np.einsum("neac,nbe->nabc", gamma, h)
    ambient = np.einsum("abck,nia,njb,nlc,nk->nijl", alg.curvature_tensor, t, t, t, eta)
    tensor = nabla_h - nabla_h.transpose(0, 2, 1, 3) - ambient
    dirs = chart_coefficients(cj, ys[:, :2])  # rows d1, d2
    codazzi = np.abs(np.einsum("nabc,nla,nlb,nlc->nl", tensor, dirs, dirs[:, ::-1], dirs)).max(axis=1)

    # R^d_101 = d_0 Gamma^d_11 - d_1 Gamma^d_01 + Gamma^d_0e Gamma^e_11 - Gamma^d_1e Gamma^e_01
    riem = dgamma[:, 0, :, 1, 1] - dgamma[:, 1, :, 0, 1]
    riem += (gamma[:, :, 0] @ gamma[:, :, 1, 1, None] - gamma[:, :, 1] @ gamma[:, :, 0, 1, None])[..., 0]
    g = t @ cj.tangents
    sectional = _dot(curvature(alg, t[:, 0], t[:, 1], t[:, 1]), t[:, 0])
    gauss_res = np.abs(_dot(g[:, 0], riem) - np.linalg.det(h) - sectional) / np.linalg.det(g)

    values = zip(codazzi.tolist(), gauss_res.tolist(), _dot(curvature(alg, f1, f2, f1), eta).tolist())
    for i, (cod, gau, term) in zip(kept, values):
        results[i] = GaussCodazziResult(False, cod, gau, term, norms[i][0] * norms[i][1])
    return results
