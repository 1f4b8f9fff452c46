"""Gauss map Laplacians for hypersurfaces in 2-step nilpotent Lie groups.

The package computes the Laplacian of the Gauss map of a parametric
hypersurface in closed form (general 2-step groups, Heisenberg-type
groups, and Heisenberg groups in an adapted basis) and validates it
against an independent Laplace-Beltrami oracle built from Richardson
finite differences on the chart.  On top of the Laplacian sit checkers
for harmonicity of the Gauss map, the coupling between harmonicity and
constant mean curvature over Heisenberg groups, mean curvature variation
along central directions, the Jacobi stability equation, and the
Gauss-Codazzi compatibility residuals of surfaces in 3-dimensional
models.
"""

from .algebra import (
    NilpotentAlgebra,
    ValidationReport,
    Violation,
    algebra_from_json,
    heisenberg,
    is_heisenberg_type,
    validate,
)
from .curvature import connection, curvature, ricci
from .expressions import Expr, Jet, ParseError, parse_expression
from .fd import BoundaryError, FDParams
from .laplacian import (
    Evaluation,
    LaplacianReport,
    central_h_variation,
    closed_form_report,
    evaluate_points,
    gauss_codazzi_residuals,
    harmonicity_cmc_residuals,
    jacobi_residuals,
    laplace_beltrami_scalar,
    laplacian_general,
    laplacian_h_type,
    laplacian_heisenberg,
    laplacian_numeric,
)
from .models import CoordinateModel, exp_model, nil_polarized_model
from .surfaces import (
    AdaptedFrame,
    ImmersionError,
    ShapeData,
    SurfaceChart,
    adapted_frame,
    cylinder_chart,
    expression_chart,
    foliation_leaf_chart,
    gauss_map,
    graph_chart,
    mean_curvature,
    mean_curvature_derivatives,
    random_graph_chart,
    shape_data,
    vertical_plane_chart,
)

__version__ = "0.1.0"
