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

``oracle_laplacians`` is the independent oracle, and ``laplacian_numeric``
its row of an ``evaluate_points`` record: it applies the Laplace-Beltrami
operator of the induced metric componentwise to the Gauss map in the
fixed algebra basis,

    Delta f = g^{ab} d2f/du_a du_b + c^b df/du_b,
    c^b = (det g)^{-1/2} d_a ((det g)^{1/2} g^{ab}),

with metric coefficients exact (from chart jets) and only the derivatives
of the Gauss map taken by Richardson finite differences.  Closed forms
and oracle share no code path beyond chart evaluation.  Nothing else is
differenced: Y_k(n H) and Gauss-Codazzi take the exact complex step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NilpotentAlgebra
from .curvature import curvature
from .fd import FIELD_ROWS, FDParams, gradient_hessian
from .surfaces import (
    AdaptedFrame,
    ChartJet,
    ShapeData,
    Stack,
    SurfaceChart,
    _n_mean_curvature,
    _second_fundamental,
    adapted_frame,
    chart_jets,
    complex_derivative,
    complex_step_jets,
    gauss_map,
    induced_metric_with_gradient,
    shape_data,
)

@dataclass(frozen=True, eq=False)
class LaplacianReport(Stack):
    """Coefficients of Delta G in the adapted frames of a stack: (N, d), with
    ``tangential_norm`` and ``normal_coeff`` (N,)."""

    coeffs: np.ndarray
    tangential_norm: np.ndarray
    normal_coeff: np.ndarray

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray) -> "LaplacianReport":
        return cls(coeffs, np.sqrt((coeffs[..., :-1] ** 2).sum(axis=-1)), coeffs[..., -1])


# Row-wise products over a stack, by matmul: each row then sums in the same order in a
# stack as alone, which einsum does not promise.
def _dot(x, y) -> np.ndarray:
    """x[i] @ y[i] of two stacks of vectors, (N, d) -> (N,); either may be one vector."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _apply(rows, vecs) -> np.ndarray:
    """rows[i] @ vecs[i]: (N, k, d) and (N, d) -> (N, k)."""
    return (rows @ vecs[..., None])[..., 0]


def _dh_coeffs(frame: AdaptedFrame, dh) -> np.ndarray:
    """The coefficients (N, d) a closed form adds its terms to, in a fixed order
    (bracket/J, curvature, then -|B|^2 - Ric): -Y_k(n H) in the tangent slots,
    subtracted from zeros so that a zero dh gives 0.0, not -0.0, in a report."""
    coeffs = np.zeros(frame.ys.shape[:2])
    coeffs[:, :-1] -= dh
    return coeffs


def _horizontal_rows(frame: AdaptedFrame) -> np.ndarray:
    """X_1 .. X_q as rows, (N, q, d)."""
    return np.concatenate([frame.ys[:, :frame.q - 1], frame.x_q[:, None]], axis=1)


def _j_forms(alg: NilpotentAlgebra, frame: AdaptedFrame, b, h) -> tuple[np.ndarray, np.ndarray]:
    """The linear forms in t of the b sums and of the mean-curvature term, (N, d) each:

        t -> sum_i 2 b_iq <J(z_q) X_i, t> - sum_{i, j > q} 2 b_ij <J(Z_j) X_i, t>,
        t -> n H <J(z_n1) x_n1, t>.
    """
    d, n, q = alg.dim_total, alg.n, frame.q
    zs = np.concatenate([frame.z_q[:, None], frame.ys[:, q:n]], axis=1)  # z_q, Z_{q+1} .. Z_n
    weights = 2.0 * b[:, :q, q - 1:n]
    weights[..., 1:] *= -1.0
    pairs = np.stack([  # <J(Z) X, t> = <[X, t], Z>: sums of outer products X (x) Z
        np.swapaxes(_horizontal_rows(frame), -1, -2) @ weights @ zs,
        (n * h)[:, None, None] * (frame.x_n1[:, :, None] @ frame.z_n1[:, None]),
    ], axis=1)
    forms = pairs.reshape(-1, 2, d * d) @ alg.layouts[2]
    return forms[:, 0], forms[:, 1]


def _ricci_normal(alg: NilpotentAlgebra, normal) -> np.ndarray:
    """Ric(normal, normal) at each row of an (N, d) stack."""
    return _dot(_apply(alg.ricci_matrix, normal), normal)


def laplacian_general(alg: NilpotentAlgebra, frame: AdaptedFrame, shape: ShapeData, dh) -> LaplacianReport:
    """Closed-form Delta G for any 2-step algebra, in the adapted frames of a stack.

    ``dh`` (N, n) holds the derivatives Y_k(n H).
    """
    d, n, q = alg.dim_total, alg.n, frame.q
    if dh.shape[1:] != (n,):
        raise ValueError(f"dh must hold {n} frame derivatives of nH")
    if frame.ys.shape[1:] != (d, d):
        raise ValueError("frame dimension does not match the algebra")
    x_n1, z_n1 = frame.x_n1, frame.z_n1
    ad, bracket_rows, _, curvature_rows = alg.layouts
    xs = _horizontal_rows(frame)

    # Each slot evaluates linear forms at its target t = X_k (k <= q) or x_n1:
    # sum_{j<q} <J([t, X_j]) X_j, x_n1> = sum_{j<q} <[t, X_j], [X_j, x_n1]>,
    # the b sums, n H <J(z_n1) x_n1, t> (k <= q only) and 4 <R(t, z_n1) z_n1, x_n1>.
    pair_brackets = xs[:, :-1] @ (x_n1[:, None] @ ad).reshape(-1, d, d)  # rows [X_j, x_n1]
    outer = (np.swapaxes(xs[:, :-1], -1, -2) @ pair_brackets).reshape(-1, 1, d * d)
    bracket_form = (outer @ bracket_rows)[:, 0]
    b_form, mean_form = _j_forms(alg, frame, shape.b, shape.h)
    bracket_form += b_form
    zz = (z_n1[:, :, None] @ z_n1[:, None]).reshape(-1, 1, d * d)
    curv_map = (zz @ curvature_rows).reshape(-1, d, d)
    curvature_form = 4.0 * _apply(curv_map, x_n1)

    coeffs = _dh_coeffs(frame, dh)
    coeffs[:, :q] += _apply(xs, bracket_form + mean_form)
    coeffs[:, n] += _dot(bracket_form, x_n1)
    coeffs[:, :q] += _apply(xs, curvature_form)
    coeffs[:, n] += _dot(curvature_form, x_n1)
    coeffs[:, n] += -shape.norm_b2 - _ricci_normal(alg, frame.normal)
    return LaplacianReport.from_coeffs(coeffs)


def laplacian_h_type(alg: NilpotentAlgebra, frame: AdaptedFrame, shape: ShapeData, dh) -> LaplacianReport:
    """Specialized Delta G for Heisenberg-type algebras, over a stack.

    The bracket and curvature sums collapse into closed factors built
    from the norms of the normal's two parts; the result must agree with
    the general form coefficient by coefficient.
    """
    if not alg.is_h_type:
        raise ValueError("laplacian_h_type requires a Heisenberg-type algebra")
    n, q = alg.n, frame.q
    a_x, a_z = frame.s, frame.c
    b_form, mean_form = _j_forms(alg, frame, shape.b, shape.h)

    coeffs = _dh_coeffs(frame, dh)
    coeffs[:, :q] += _apply(_horizontal_rows(frame), b_form + mean_form)
    coeffs[:, n] += _dot(b_form, frame.x_n1)
    coeffs[:, q - 1] += a_z * a_x * (q - n - 1 + a_z**2)
    coeffs[:, n] += -shape.norm_b2 - (q / 4.0) * a_z**2 + a_x**2 * (0.5 * (q - n - 1) + a_z**2)
    return LaplacianReport.from_coeffs(coeffs)


def laplacian_heisenberg(alg: NilpotentAlgebra, frame: AdaptedFrame, shape: ShapeData, dh) -> LaplacianReport:
    """Delta G over a Heisenberg group in the symplectically adapted basis, over a stack.

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
    n, m = alg.n, frame.q // 2
    last = 2 * m - 1  # zero-based row of the mixed frame vector
    row = shape.b[:, last]
    nH = n * shape.h
    s, c = frame.s, frame.c

    coeffs = _dh_coeffs(frame, dh)
    coeffs[:, :m - 1] += -2.0 * row[:, m:last] * s[:, None]  # slots k = 1 .. m-1
    coeffs[:, m:last] += 2.0 * row[:, :m - 1] * s[:, None]  # slots m + k
    coeffs[:, m - 1] += -nH * s * c - 2.0 * row[:, last] * s * c
    coeffs[:, last] += 2.0 * row[:, m - 1] * s * c
    coeffs[:, last] += -(s**3) * c  # curvature
    coeffs[:, n] += 2.0 * row[:, m - 1] * s**2
    coeffs[:, n] += -shape.norm_b2 - (m / 2.0) * c**2 + 0.5 * s**2 - s**4
    return LaplacianReport.from_coeffs(coeffs)


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


def laplace_beltrami_scalar(chart: SurfaceChart, u, field) -> float:
    """Laplace-Beltrami operator of a scalar field on the chart.

    ``field`` maps an (N, n) array of points to N values.
    """
    ginv, cvec = laplace_beltrami_coefficients(chart, chart_jets(chart, u))
    grad, hess = gradient_hessian(field, u, domain=chart.domain)
    return float(np.einsum("ab,ab->", ginv, hess) + cvec @ grad)


def oracle_laplacians(chart: SurfaceChart, cj: ChartJet, points, fd=FDParams()) -> np.ndarray:
    """Numeric Delta G in the algebra basis, (N, d), at every row of an (N, n) array.

    ``cj`` holds the stacked chart jets at the points, which give the
    metric coefficients exactly, one stacked inverse for all rows; the
    Gauss map, which reads first-order chart jets only, is differenced on
    its own stencils, those of all points in one ``gradient_hessian`` call.
    Each stencil row gets its centre's normal, tangents and ``smin`` bound,
    which orient its normal and certify its immersion (``gauss_map``'s ``near``).
    """
    field = lambda pts, *near: gauss_map(chart, pts, near=near)
    grad, hess = gradient_hessian(field, points, fd, domain=chart.domain,
                                  per_centre=(cj.normal, cj.tangents, cj.smin))
    ginv, cvec = laplace_beltrami_coefficients(chart, cj)
    count, d, n = grad.shape
    second = hess.reshape(count, d, n * n) @ ginv.reshape(count, n * n, 1)
    return (second + grad @ cvec[..., None])[..., 0]


def _oracle_report(frame: AdaptedFrame, delta) -> LaplacianReport:
    """The oracle's Delta G (N, d) re-expressed in the stack's adapted frames."""
    return LaplacianReport.from_coeffs(_apply(frame.ys, delta))


CLOSED_FORMS = {"general": laplacian_general, "h_type": laplacian_h_type, "heisenberg": laplacian_heisenberg}


@dataclass(frozen=True, eq=False)
class Evaluation(Stack):
    """One job's evaluation at its N points, as arrays with a leading point axis.

    ``u`` (N, n); ``frame``: ``ys`` (N, d, d), the normal parts ``x_q``, ``z_q``,
    ``x_n1``, ``z_n1`` (N, d) and their norms ``s``, ``c`` (N,); ``shape``: ``b``
    (N, n, n), ``h`` and ``norm_b2`` (N,); ``dirs`` (N, n, n), the chart
    directions of Y_1 .. Y_n; ``dh`` (N, n), the derivatives Y_k(n H);
    ``reports``, one per method: ``coeffs`` (N, d), ``tangential_norm`` and
    ``normal_coeff`` (N,); ``delta`` (N, d), the
    oracle's Delta G in the algebra basis, None without it; ``jet``, the centre
    ChartJet stack; ``steps``, in a 3-dimensional model, the complex-step rows with
    leading axes (N, n), and ``steps_h`` (N, n, n, n), the second fundamental form
    h_ab at those rows, both None elsewhere.  ``ev[kept]`` is the record at the
    points ``kept``.
    """

    u: np.ndarray
    frame: AdaptedFrame
    shape: ShapeData
    dirs: np.ndarray
    dh: np.ndarray
    reports: dict[str, LaplacianReport]
    delta: np.ndarray | None
    jet: ChartJet
    steps: ChartJet | None
    steps_h: np.ndarray | None

    def __len__(self) -> int:
        return len(self.u)


def evaluate_points(chart: SurfaceChart, points, methods=("general",), fd: FDParams = FDParams(),
                    completion_start: int = 0) -> Evaluation:
    """Frames, shapes and a report per method at every row of an (N, n) array, as one record.

    The one pipeline: one second-order chart walk at the points' N n
    ``complex_step_jets`` rows (FIELD_ROWS / 2 at a time, the bytes of an FD
    field call), whose real parts give the ChartJet stack at the points and
    whose h_ab, one ``_second_fundamental`` call per chunk, gives n H there,
    whose imaginary parts give grad(n H), so Y_k(n H) = coeffs @ grad(n H)
    exactly; then the oracle's FD call, moved by ``fd``, with one first-order
    walk per chunk of its stencil.  Frames and closed forms run over the whole
    stack.  ``general`` is always evaluated, because the checkers read it.  The
    oracle shares only the chart jets at the points with the closed forms, and
    gets the frames only to re-express Delta G.  Each row equals the
    evaluation of its point as a stack of one, bit for bit.  Raises
    FloatingPointError naming the first point whose h, |B|^2, dh or report
    of a method is not finite, as a chart whose jets overflow gives.
    """
    alg = chart.model.algebra
    points = np.asarray(points, dtype=float)
    n = chart.param_dim
    centres, grads, steps, forms, per = [], [], [], [], max(1, FIELD_ROWS // (2 * n))
    for k in range(0, len(points), per):
        cj, rows = complex_step_jets(chart, points[k:k + per])
        h = _second_fundamental(chart, rows)
        centres.append(cj)
        grads.append(complex_derivative(_n_mean_curvature(rows, h), n))
        if n == 2:  # kept for Gauss-Codazzi, which runs in 3 dimensions only; elsewhere n times the jets for nothing
            steps.append(rows)
            forms.append(h)
    cj = ChartJet.join(centres)
    frame = adapted_frame(alg, cj.normal, completion_start)
    shape, dirs = shape_data(chart, cj, frame)
    dh = (dirs @ np.concatenate(grads)[..., None])[..., 0]
    steps = ChartJet.join(steps).map(lambda arr: arr.reshape((-1, n) + arr.shape[1:])) if steps else None
    steps_h = np.concatenate(forms).reshape(-1, n, n, n) if forms else None
    reports, delta = {"general": laplacian_general(alg, frame, shape, dh)}, None
    for mth in methods:
        if mth in reports:
            continue
        if mth == "numeric_oracle":
            delta = oracle_laplacians(chart, cj, points, fd)
            reports[mth] = _oracle_report(frame, delta)
        else:
            reports[mth] = CLOSED_FORMS[mth](alg, frame, shape, dh)
    values = [shape.h[:, None], shape.norm_b2[:, None], dh]
    values += [arr for rep in reports.values() for arr in (rep.coeffs, rep.tangential_norm[:, None])]
    finite = np.isfinite(np.concatenate(values, axis=1))
    if not finite.all():
        raise FloatingPointError(f"non-finite evaluation at u={points[np.argmin(finite.all(axis=1))].tolist()}")
    return Evaluation(u=points, frame=frame, shape=shape, dirs=dirs, dh=dh, reports=reports, delta=delta, jet=cj,
                      steps=steps, steps_h=steps_h)


def closed_form_report(chart: SurfaceChart, u, method: str = "general", completion_start: int = 0):
    """Frame, shape and Laplacian report at one chart point: row views of ``evaluate_points``."""
    ev = evaluate_points(chart, np.asarray(u, dtype=float)[None], [method], completion_start=completion_start)[0]
    return ev.reports[method], ev.frame, ev.shape


def laplacian_numeric(chart: SurfaceChart, u) -> LaplacianReport:
    """Numeric Delta G at one chart point, in its adapted frame: the oracle row of ``evaluate_points``."""
    ev = evaluate_points(chart, np.asarray(u, dtype=float)[None], ["numeric_oracle"])
    return ev.reports["numeric_oracle"][0]


# ---------------------------------------------------------------------------
# checkers


def harmonicity_cmc_residuals(shape: ShapeData, frame: AdaptedFrame):
    """Three residuals coupling CMC and harmonicity over a Heisenberg group, (N,) each.

    In the symplectically adapted basis the harmonicity of the Gauss map
    of a CMC hypersurface is equivalent to: the off-pair entries of the
    last row of b vanish; c * (s^2 - 2 b_{2m,m}) = 0; and
    c * (b_11 + .. + b_{2m-1,2m-1} + 3 b_{2m,2m}) = 0.
    """
    if not frame.special_heisenberg:
        raise ValueError("residuals require the symplectically adapted basis")
    m = frame.q // 2
    last = 2 * m - 1
    row = shape.b[:, last]
    s, c = frame.s, frame.c
    off = np.abs(np.concatenate([row[:, :m - 1], row[:, m:last]], axis=1))  # the pairs k, m + k
    r1 = off.max(axis=1, initial=0.0)
    r2 = np.abs(c * (s**2 - 2.0 * row[:, m - 1]))
    diag = np.trace(shape.b, axis1=1, axis2=2) - row[:, last]
    r3 = np.abs(c * (diag + 3.0 * row[:, last]))
    return r1, r2, r3


def jacobi_residuals(chart: SurfaceChart, ev: Evaluation, direction) -> tuple[np.ndarray, np.ndarray]:
    """|(Delta + |B|^2 + Ric(normal, normal)) w| and w = <G, v> at each point, (N,) each.

    ``ev`` is an ``evaluate_points`` record with the oracle's ``delta``, from
    which Delta w is read; the chart is expected to be CMC with harmonic Gauss
    map.  A strictly positive w over the stack is the stability certificate.
    """
    if ev.delta is None:
        raise ValueError("jacobi_residuals reads the oracle's delta: evaluate with 'numeric_oracle'")
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    normal = ev.frame.normal
    w = _dot(normal, v)
    lw = _dot(ev.delta, v)  # v is constant: Delta <G, v> = <Delta G, v>
    pot = ev.shape.norm_b2 + _ricci_normal(chart.model.algebra, normal)
    return np.abs(lw + pot * w), w


def central_h_variation(chart: SurfaceChart, ev: Evaluation) -> tuple[np.ndarray, np.ndarray]:
    """Largest rate of change of H along a central tangent direction at each point,
    as ``(evaluated, variation)``, (N,) each.

    When the Gauss map is harmonic, Z(H) = 0 for every tangent frame vector Z
    lying in the center, so the value means something only at a harmonic
    chart.  It is the largest |Y_k(n H)| / n over the central slots k of the
    record's ``dh``: Y_{q+1} .. Y_n, and the mixed vector Y_q at the points
    where the frame's ``c`` is 0.0, a central part of norm at most
    NORMAL_SPLIT_TOL, so that Y_q is central.  ``evaluated`` marks the points
    with at least one central slot; the others read 0.0.
    """
    alg = chart.model.algebra
    q, n = alg.dim_v, alg.n
    dh = np.abs(ev.dh)
    degenerate = ev.frame.c == 0.0  # the mixed vector degenerates to a central one
    mixed = np.where(degenerate, dh[:, q - 1], 0.0)
    return degenerate | (n > q), np.maximum(dh[:, q:n].max(axis=1, initial=0.0), mixed) / n


def _gc_field(chart: SurfaceChart, cj: ChartJet) -> np.ndarray:
    """The induced Christoffels Gamma^c_ab, (M, 2, 2, 2) indexed [c, a, b], at a ChartJet stack."""
    g, dg = induced_metric_with_gradient(chart, cj)
    # Gamma^c_ab = g^cd (d_a g_db + d_b g_da - d_d g_ab) / 2
    lower = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg
    return (0.5 * (np.linalg.inv(g) @ lower.reshape(-1, 2, 4))).reshape(-1, 2, 2, 2)


def gauss_codazzi_residuals(chart: SurfaceChart, ev: Evaluation):
    """Compatibility residuals of a surface in a 3-dimensional model, in chart coordinates.

    ``ev`` is an ``evaluate_points`` record; the result is five (N,) arrays,
    ``(evaluated, codazzi, gauss, curvature_term, ab_product)``, with one row
    per point.  No chart is evaluated: the record's ``steps_h`` gives h_ab (real
    parts) and its derivatives along u1 and u2 (imaginary parts), and one
    ``_gc_field`` call on its ``steps`` rows gives Gamma^c_ab and their
    derivatives, all exact.  ``codazzi`` is the worse of the Codazzi lines
    T(d1, d2, d1), T(d2, d1, d2),
    T_abc = nabla_a h_bc - nabla_b h_ac - <R(t_a, t_b) t_c, normal>, with d1, d2
    the chart directions of the point's Y_1, Y_2, read from the record's
    ``dirs``.  ``gauss`` is the Gauss equation K = det h / det g + the ambient
    sectional curvature, which comes from the same ``curvature`` contraction as
    the Codazzi term.  ``curvature_term`` <R(F1, F2) F1, normal> should equal
    ``ab_product``, the product of the two normal norms.  Points where the
    frame's ``s`` or ``c`` is 0.0, a part of the normal of norm at most
    NORMAL_SPLIT_TOL, are not evaluated (the adapted frame is not smooth
    there) and read 0.0 in every residual; when every point is
    evaluated, the record's arrays are read in place.
    """
    alg = chart.model.algebra
    if alg.dim_total != 3:
        raise ValueError("gauss_codazzi_residuals requires a 3-dimensional model")
    s, c = ev.frame.s, ev.frame.c
    evaluated = (s > 0.0) & (c > 0.0)
    kept = np.flatnonzero(evaluated)
    values = np.zeros((4, len(ev)))  # codazzi, gauss, curvature_term, ab_product
    if not len(kept):
        return evaluated, *values

    cj, ys, dirs, steps, forms = ev.jet, ev.frame.ys, ev.dirs, ev.steps, ev.steps_h
    if len(kept) < len(ev):
        cj, ys, dirs, steps, forms = cj[kept], ys[kept], dirs[kept], steps[kept], forms[kept]
    field = _gc_field(chart, steps.map(lambda arr: arr.reshape((-1,) + arr.shape[2:])))
    # f(u) = Re f(u + i h e_1) + O(h^2); dh[:, a] = d_a h
    h, dh = forms[:, 0].real, complex_derivative(forms.reshape(-1, 2, 2), 2)
    gamma, dgamma = field[::2].real, complex_derivative(field, 2)
    t = np.swapaxes(cj.tangents, -1, -2)  # rows t_1, t_2
    f1, f2, eta = ys[:, 0], ys[:, 1], ys[:, 2]
    rt = curvature(alg, t[:, :, None, None], t[:, None, :, None], t[:, None, None, :])  # R(t_a, t_b) t_c

    # nabla_a h_bc = d_a h_bc - Gamma^e_ab h_ec - Gamma^e_ac h_be
    flat = gamma.reshape(-1, 2, 4)  # rows e, columns (a, b)
    nabla_h = (dh - (np.swapaxes(flat, 1, 2) @ h).reshape(-1, 2, 2, 2)
               - np.swapaxes((h @ flat).reshape(-1, 2, 2, 2), 1, 2))
    tensor = nabla_h - nabla_h.transpose(0, 2, 1, 3) - _dot(rt, eta[:, None, None, None])
    lines = (dirs @ tensor.reshape(-1, 2, 4)).reshape(-1, 2, 2, 2)  # T(d_l, ., .)
    codazzi = np.abs(_dot(dirs[:, ::-1], _apply(lines, dirs))).max(axis=1)

    # R^d_101 = d_0 Gamma^d_11 - d_1 Gamma^d_01 + Gamma^d_0e Gamma^e_11 - Gamma^d_1e Gamma^e_01
    riem = dgamma[:, 0, :, 1, 1] - dgamma[:, 1, :, 0, 1]
    riem += (gamma[:, :, 0] @ gamma[:, :, 1, 1, None] - gamma[:, :, 1] @ gamma[:, :, 0, 1, None])[..., 0]
    g = t @ cj.tangents
    sectional = _dot(rt[:, 0, 1, 1], t[:, 0])  # <R(t_1, t_2) t_2, t_1>
    gauss_res = np.abs(_dot(g[:, 0], riem) - np.linalg.det(h) - sectional) / np.linalg.det(g)

    values[:, kept] = codazzi, gauss_res, _dot(curvature(alg, f1, f2, f1), eta), (s * c)[kept]
    return evaluated, *values
