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
from .curvature import connection, curvature, ricci
from .fd import FDParams, directional_derivative, gradient_hessian
from .surfaces import (
    AdaptedFrame,
    ShapeData,
    SurfaceChart,
    _gauss_from_tangents,
    adapted_frame,
    chart_coefficients,
    chart_jets,
    gauss_map,
    induced_metric_with_gradient,
    mean_curvature,
    mean_curvature_derivatives,
    shape_data,
    stacked_gauss_map,
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
    b = shape.b
    nH = n * shape.h
    x_n1, z_n1, z_qv = frame.x_n1, frame.z_n1, frame.z_q
    jm = alg.j_matrix
    br = alg.bracket

    terms = _term_arrays(d)
    j_zn1_xn1 = jm(z_n1) @ x_n1
    # J(Z_j) X_i contractions reused across target slots
    jz_x = {
        j: np.array([jm(frame.z(j)) @ frame.x(i) for i in range(1, q + 1)])
        for j in range(q + 1, n + 1)
    }
    jzq_x = np.array([jm(z_qv) @ frame.x(i) for i in range(1, q + 1)])

    def bracket_block(target: np.ndarray, with_mean_term: bool) -> float:
        total = 0.0
        for j in range(1, q):
            xj = frame.x(j)
            total += float((jm(br(target, xj)) @ xj) @ x_n1)
        for j in range(q + 1, n + 1):
            col = jz_x[j]
            total += -2.0 * float(b[: q, j - 1] @ (col @ target))
        total += 2.0 * float(b[: q, q - 1] @ (jzq_x @ target))
        if with_mean_term:
            total += nH * float(j_zn1_xn1 @ target)
        return total

    for k in range(1, q + 1):
        xk = frame.x(k)
        terms["dh"][k - 1] = -dh[k - 1]
        terms["bracket_j"][k - 1] = bracket_block(xk, with_mean_term=True)
        terms["curvature"][k - 1] = 4.0 * float(curvature(alg, xk, z_n1, z_n1) @ x_n1)
    for k in range(q + 1, n + 1):
        terms["dh"][k - 1] = -dh[k - 1]
    terms["bracket_j"][n] = bracket_block(x_n1, with_mean_term=False)
    terms["curvature"][n] = 4.0 * float(curvature(alg, x_n1, z_n1, z_n1) @ x_n1)
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
    b = shape.b
    nH = n * shape.h
    a_x = float(np.linalg.norm(frame.x_n1))
    a_z = float(np.linalg.norm(frame.z_n1))
    jm = alg.j_matrix
    x_n1, z_n1, z_qv = frame.x_n1, frame.z_n1, frame.z_q
    j_zn1_xn1 = jm(z_n1) @ x_n1

    terms = _term_arrays(d)

    def b_sums(target: np.ndarray) -> float:
        total = 0.0
        for j in range(q + 1, n + 1):
            zj = frame.z(j)
            for i in range(1, q + 1):
                total += -2.0 * b[i - 1, j - 1] * float((jm(zj) @ frame.x(i)) @ target)
        for i in range(1, q + 1):
            total += 2.0 * b[i - 1, q - 1] * float((jm(z_qv) @ frame.x(i)) @ target)
        return total

    closed = q - n - 1 + a_z**2
    for k in range(1, q + 1):
        xk = frame.x(k)
        terms["dh"][k - 1] = -dh[k - 1]
        terms["bracket_j"][k - 1] = b_sums(xk) + nH * float(j_zn1_xn1 @ xk)
        if k == q:
            terms["curvature"][k - 1] = a_z * a_x * closed
    for k in range(q + 1, n + 1):
        terms["dh"][k - 1] = -dh[k - 1]
    terms["bracket_j"][n] = b_sums(x_n1)
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
    for k in range(1, n + 1):
        terms["dh"][k - 1] = -dh[k - 1]
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


def laplace_beltrami_coefficients(chart: SurfaceChart, u):
    """Exact g^{ab}(u) and first-order coefficients c^b(u) of the operator."""
    g, dg = induced_metric_with_gradient(chart, u)
    ginv = np.linalg.inv(g)
    # c^b = d_a g^{ab} + g^{ab} tr(g^-1 d_a g) / 2
    dg_inv = -np.einsum("xy,ayz,zw->axw", ginv, dg, ginv)
    term1 = np.einsum("aab->b", dg_inv)
    traces = np.einsum("xy,ayx->a", ginv, dg)
    term2 = 0.5 * np.einsum("ab,a->b", ginv, traces)
    return ginv, term1 + term2


def laplace_beltrami_scalar(
    chart: SurfaceChart, u, field, fd: FDParams = FDParams()
) -> float:
    """Laplace-Beltrami operator of a scalar field on the chart.

    ``field`` maps an (N, n) array of points to N values.
    """
    ginv, cvec = laplace_beltrami_coefficients(chart, u)
    grad, hess = gradient_hessian(field, u, fd, domain=chart.domain)
    return float(np.einsum("ab,ab->", ginv, hess) + cvec @ grad)


def laplacian_numeric(
    chart: SurfaceChart,
    u,
    fd: FDParams = FDParams(),
    frame: AdaptedFrame | None = None,
) -> LaplacianReport:
    """Numeric Delta G, re-expressed in the adapted frame at u."""
    alg = chart.model.algebra
    if frame is None:
        frame = adapted_frame(alg, gauss_map(chart, u))
    ginv, cvec = laplace_beltrami_coefficients(chart, u)
    field = lambda pts: stacked_gauss_map(chart, pts)
    grad, hess = gradient_hessian(field, u, fd, domain=chart.domain)
    delta = np.einsum("ab,kab->k", ginv, hess) + np.einsum("b,kb->k", cvec, grad)
    coeffs = frame.ys @ delta
    return LaplacianReport(
        coeffs=coeffs,
        terms={"numeric": coeffs.copy()},
        tangential_norm=float(np.linalg.norm(coeffs[:-1])),
        normal_coeff=float(coeffs[-1]),
        method="numeric_oracle",
    )


CLOSED_FORMS = {
    "general": laplacian_general,
    "h_type": laplacian_h_type,
    "heisenberg": laplacian_heisenberg,
}


@dataclass(frozen=True, eq=False)
class PointEval:
    """Frame, shape and one Laplacian report per method at a chart point."""

    u: np.ndarray
    frame: AdaptedFrame
    shape: ShapeData
    reports: dict[str, LaplacianReport]


def evaluate_point(
    chart: SurfaceChart,
    u,
    methods=("general",),
    fd: FDParams = FDParams(),
    completion_start: int = 0,
) -> PointEval:
    """Frame, shape and a report per method at u: the one per-point pipeline.

    ``general`` is always evaluated, because the checkers read it.  The
    oracle gets only the frame: the two routes share nothing past chart
    evaluation.
    """
    alg = chart.model.algebra
    u = np.asarray(u, dtype=float)
    frame = adapted_frame(alg, gauss_map(chart, u), completion_start=completion_start)
    shape = shape_data(chart, u, frame)
    dh = mean_curvature_derivatives(chart, u, frame, fd)
    reports = {"general": laplacian_general(alg, frame, shape, dh)}
    for mth in methods:
        if mth == "numeric_oracle":
            reports[mth] = laplacian_numeric(chart, u, fd, frame=frame)
        elif mth not in reports:
            reports[mth] = CLOSED_FORMS[mth](alg, frame, shape, dh)
    return PointEval(u=u, frame=frame, shape=shape, reports=reports)


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
    """
    alg = chart.model.algebra
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    # one dot per row: a matrix-vector product sums in another order
    w_field = lambda pts: np.array([float(g @ v) for g in stacked_gauss_map(chart, pts)])
    max_res = 0.0
    min_w = np.inf
    hs = []
    max_defect = 0.0
    for ev in evals:
        normal, shape = ev.frame.normal, ev.shape
        hs.append(shape.h)
        max_defect = max(max_defect, ev.reports["general"].tangential_norm)
        w = float(normal @ v)
        lw = laplace_beltrami_scalar(chart, ev.u, w_field, fd)
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
    span: float = 0.25,
    steps: int = 16,
) -> CentralVariationReport:
    """Mean curvature variation along curves tangent to central directions.

    When the Gauss map is harmonic, H must be constant along every curve
    in the surface whose tangent is a central frame vector.  The check is
    gated on the ``general`` reports of the ``evaluate_point`` records:
    for a non-harmonic chart it reports skipped.  Tangent frame vectors
    lying in the center are followed by RK4 integration of their chart
    coefficient field, from each evaluated point, and H is sampled along
    the way.
    """
    alg = chart.model.algebra
    q = alg.dim_v
    max_defect = max((ev.reports["general"].tangential_norm for ev in evals), default=0.0)
    if max_defect > tol:
        return CentralVariationReport(skipped=True, max_variation=None, max_defect=max_defect)

    def central_indices(frame: AdaptedFrame) -> list[int]:
        idx = list(range(q, alg.n))
        if np.linalg.norm(frame.x_q) < 1e-9:
            idx.append(q - 1)  # mixed vector degenerates to a central one
        return idx

    def coeff_field(u, k, ref):
        """Chart coefficients of the k-th frame vector, sign-aligned to ref."""
        cj = chart_jets(chart, u)
        frame = adapted_frame(alg, _gauss_from_tangents(cj.tangents, chart.orientation))
        vec = chart_coefficients(cj, frame.ys[k])
        if ref is not None and float(vec @ ref) < 0.0:
            vec = -vec
        return vec

    def inside(u):
        return all(lo <= u[a] <= hi for a, (lo, hi) in enumerate(chart.domain))

    max_var = 0.0
    dt = span / steps
    for ev in evals:
        for k in central_indices(ev.frame):
            for sign in (1.0, -1.0):
                u = ev.u.copy()
                ref = None
                hs = [mean_curvature(chart, u)]
                for _ in range(steps):
                    try:
                        v1 = coeff_field(u, k, ref)
                        v2 = coeff_field(u + 0.5 * dt * sign * v1, k, v1)
                        v3 = coeff_field(u + 0.5 * dt * sign * v2, k, v1)
                        v4 = coeff_field(u + dt * sign * v3, k, v1)
                    except ValueError:
                        break
                    nxt = u + sign * (dt / 6.0) * (v1 + 2 * v2 + 2 * v3 + v4)
                    if not inside(nxt):
                        break
                    u = nxt
                    ref = v1
                    hs.append(mean_curvature(chart, u))
                max_var = max(max_var, max(hs) - min(hs))
    return CentralVariationReport(skipped=False, max_variation=float(max_var), max_defect=max_defect)


@dataclass(frozen=True)
class GaussCodazziResult:
    skipped: bool
    codazzi_residual: float | None
    gauss_residual: float | None
    curvature_term: float | None
    ab_product: float | None


def gauss_codazzi_residuals(
    chart: SurfaceChart,
    u,
    fd: FDParams = FDParams(),
) -> GaussCodazziResult:
    """Compatibility residuals of a surface in a 3-dimensional model.

    Uses the frame F_1 = Y_1, F_2 = Y_2 (the adapted tangent frame) with
    geodesic curvature functions k1 = <nabla_{F_1} F_1, F_2> and
    k2 = <nabla_{F_2} F_2, F_1> of the integral curves.  Residual one is
    the worse of the two Codazzi lines relating derivatives of b to
    ambient curvature; residual two compares the intrinsic curvature
    F_1(k2) + F_2(k1) - k1^2 - k2^2 against det b plus the ambient
    sectional term.  Points where either part of the normal vanishes are
    reported as skipped (the frame field is not smooth there).
    """
    alg = chart.model.algebra
    if alg.dim_total != 3:
        raise ValueError("gauss_codazzi_residuals requires a 3-dimensional model")
    u = np.asarray(u, dtype=float)
    frame0 = adapted_frame(alg, gauss_map(chart, u))
    a = float(np.linalg.norm(frame0.x_n1))
    bb = float(np.linalg.norm(frame0.z_n1))
    if a < 1e-8 or bb < 1e-8:
        return GaussCodazziResult(True, None, None, None, None)

    def frames(pts) -> list[AdaptedFrame]:
        return [adapted_frame(alg, g) for g in stacked_gauss_map(chart, pts)]

    def aligned(fr: AdaptedFrame, i: int) -> np.ndarray:
        # keep the field single-valued across the FD stencil
        vec = fr.ys[i]
        return -vec if float(vec @ frame0.ys[i]) < 0.0 else vec

    def b_entries(pts) -> np.ndarray:
        rows = []
        for uu, fr in zip(pts, frames(pts)):
            sh = shape_data(chart, uu, fr)
            # diagonal entries are insensitive to frame sign flips; the mixed
            # entry needs the same alignment as the frame vectors
            s1 = 1.0 if float(fr.ys[0] @ frame0.ys[0]) >= 0.0 else -1.0
            s2 = 1.0 if float(fr.ys[1] @ frame0.ys[1]) >= 0.0 else -1.0
            rows.append([sh.b[0, 0], s1 * s2 * sh.b[1, 0], sh.b[1, 1]])
        return np.array(rows)

    def kappa(uu, i: int, j: int) -> float:
        """<nabla_{F_i} F_i, F_j> at uu: component FD plus the invariant part."""
        fr = frames(uu[None])[0]
        fi = aligned(fr, i)
        direction = chart_coefficients(chart_jets(chart, uu), fi)
        comp = directional_derivative(
            lambda pts: np.array([aligned(f, i) for f in frames(pts)]),
            uu, direction, fd, domain=chart.domain,
        )
        return float((comp + connection(alg, fi, fi)) @ aligned(fr, j))

    def kappa_derivative(i: int, j: int, direction) -> float:
        field = lambda pts: np.array([kappa(vv, i, j) for vv in pts])
        return float(directional_derivative(field, u, direction, fd, domain=chart.domain))

    f1 = frame0.ys[0]
    f2 = frame0.ys[1]
    eta = frame0.normal
    b11, b21, b22 = b_entries(u[None])[0]
    k1 = kappa(u, 0, 1)
    k2 = kappa(u, 1, 0)
    cj = chart_jets(chart, u)
    d1 = chart_coefficients(cj, f1)
    d2 = chart_coefficients(cj, f2)

    # row r: the three entries of b differentiated along d_{r+1}
    db = directional_derivative(b_entries, u, [d1, d2], fd, domain=chart.domain)
    f1_b21, f2_b11, f2_b21, f1_b22 = db[0, 1], db[1, 0], db[1, 1], db[0, 2]

    r_121 = float(curvature(alg, f1, f2, f1) @ eta)
    r_212 = float(curvature(alg, f2, f1, f2) @ eta)
    cod1 = (f1_b21 + k1 * (b11 - b22)) - (f2_b11 + 2.0 * k2 * b21) - r_121
    cod2 = (f2_b21 + k2 * (b22 - b11)) - (f1_b22 + 2.0 * k1 * b21) - r_212

    f1_k2 = kappa_derivative(1, 0, d1)
    f2_k1 = kappa_derivative(0, 1, d2)
    k_intrinsic = f1_k2 + f2_k1 - k1**2 - k2**2
    k_extrinsic = b11 * b22 - b21**2
    sectional = float(curvature(alg, f1, f2, f2) @ f1)
    gauss_res = abs(k_intrinsic - k_extrinsic - sectional)

    return GaussCodazziResult(
        skipped=False,
        codazzi_residual=float(max(abs(cod1), abs(cod2))),
        gauss_residual=float(gauss_res),
        curvature_term=r_121,
        ab_product=a * bb,
    )
