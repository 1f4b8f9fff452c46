"""Command-line harness: job configs, grid sweeps, machine-readable reports.

A job is a JSON document selecting an algebra, a coordinate model, a
chart (catalog entry or raw component expressions), a box domain with a
grid resolution, the Laplacian methods to evaluate and the checks to
run.  Reports echo the config, carry one row per grid point and method,
and end with a summary block whose check verdicts drive the exit code:
0 when every requested check passes, 1 on a check failure, 2 on a
configuration or parse error or a chart that cannot be evaluated on its
grid.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import ALGEBRA, NilpotentAlgebra, algebra_from_json, heisenberg, validate
from .fd import FDParams
from .laplacian import (
    central_h_variation,
    evaluate_points,
    gauss_codazzi_residuals,
    harmonicity_cmc_residuals,
    jacobi_residuals,
)
from .models import exp_model, nil_polarized_model
from .schema import POSITIVE, ConfigError, Field, Table, between, check, fill, one_of
from .surfaces import SurfaceChart, catalog_chart, expression_chart

METHOD_NAMES = ("general", "h_type", "heisenberg", "numeric_oracle")
CHECK_NAMES = ("harmonicity", "prop3", "corollary1", "jacobi", "gauss_codazzi")

# largest algebra dimension; one oracle stencil's first-order chart jets take ~5 MB at 16 and
# ~0.1 GB at 32, and a FIELD_ROWS / 2 chunk of dh's complex-step second-order ones ~0.5 GB at 16
MAX_DIM_TOTAL = 16
# most grid points per job; the centre stack's second-order chart jets take
# points * d * (1 + n + n^2) * 8 bytes, ~0.5 GB at this bound and d = MAX_DIM_TOTAL
MAX_GRID_POINTS = 2**14
# most Richardson levels; one centre's oracle stencil has 1 + levels * n (n + 1) rows, and at
# n = MAX_DIM_TOTAL - 1 = 15 up to 34 levels keep it within one fd.FIELD_ROWS (8192) field call
MAX_FD_LEVELS = 34
# grid points and report points keep this many FD steps from the domain edge
GRID_MARGIN_STEPS = 4.0

# a job document, every key it may hold at every level; algebra.ALGEBRA is an inline algebra
NUMBER = Field("number")
NUMBERS = Field("list", items=NUMBER, must="a list of finite numbers")
FD = Table(
    {"step": Field("number", default=FDParams.step, span=POSITIVE),
     "levels": Field("integer", default=FDParams.levels, span=between(1, MAX_FD_LEVELS))},
    name="fd {}", unknown="unknown fd key {}",
)
TOLERANCES = Table(
    {key: Field("number", default=tol, span=POSITIVE) for key, tol in {
        "harmonicity": 1e-3, "prop3": 1e-6, "corollary1": 5e-4,
        "jacobi": 5e-4, "gauss_codazzi": 5e-4, "oracle_gap": 5e-4,
    }.items()},
    name="tolerance {!r}", unknown="unknown tolerance {}",
)
BUILTIN_ALGEBRA = Table(
    {"builtin": Field("string", True, span=one_of(("heisenberg",))),
     "m": Field("integer", default=1, span=between(1))},
    name="algebra {}", unknown="an algebra with 'builtin' takes no {}", tag="builtin",
)
COMPONENT_CHART = Table(
    {"components": Field("list", True, items=Field("expression"), must="a list of expression strings")},
    name="chart {}", unknown="a chart with 'components' takes no {}", tag="components",
)
CATALOG_CHART = Table(
    {"catalog": Field("string", True), "params": Field("object", default={})},
    name="chart {}", unknown="a chart with 'catalog' takes no {}", missing="chart needs {!r}",
)
DOCUMENT = Table(
    {
        "algebra": Field("object", True, items=(BUILTIN_ALGEBRA, ALGEBRA)),
        "model": Field("string", default="exp", span=one_of(("exp", "nil_polarized"))),
        "chart": Field("object", True, items=(COMPONENT_CHART, CATALOG_CHART)),
        "domain": Field("list", items=Field("list", items=NUMBER, span=(lambda r: len(r) == 2, " of length 2")),
                        must="a list of [lo, hi] pairs of finite numbers"),
        "grid": Field("list", default=[], items=Field("integer", span=between(2)),
                      must="a list of integers of at least 2"),
        "methods": Field("list", default=[], items=Field("string", span=one_of(METHOD_NAMES))),
        "checks": Field("list", default=[], items=Field("string", span=one_of(CHECK_NAMES))),
        "tolerances": Field("object", default={}, items=TOLERANCES),
        "fd": Field("object", default={}, items=FD),
        "point": NUMBERS,
        "jacobi_direction": NUMBERS,
        "orientation": Field("integer", default=1, span=(lambda x: x in (1, -1), " 1 or -1")),
        "seed": Field("integer", default=0),
    },
    unknown="unknown config key {}", missing="missing {} specification",
)
CONFIG = Field("object", items=DOCUMENT, must="a JSON object")


@dataclass
class JobConfig:
    algebra: NilpotentAlgebra
    chart: SurfaceChart
    grid: list[int]
    methods: list[str]
    checks: list[str]
    tolerances: dict[str, float]
    fd: FDParams
    point: list[float] | None
    jacobi_direction: list[float] | None
    raw: dict


def _build_algebra(spec, problems) -> NilpotentAlgebra | None:
    """The algebra of a checked algebra document, if it has at most MAX_DIM_TOTAL dimensions."""
    builtin = "builtin" in spec
    dim = 2 * spec.get("m", 1) + 1 if builtin else spec["dim_total"]
    if dim > MAX_DIM_TOTAL:
        problems.append(f"algebra dimension {dim} exceeds the limit of {MAX_DIM_TOTAL}")
        return None
    try:
        return heisenberg(spec.get("m", 1)) if builtin else algebra_from_json(spec)
    except ValueError as exc:  # an index out of range, i >= j, or dim_center >= dim_total
        problems.append(str(exc))
        return None


def _build_chart(fields, alg, problems) -> SurfaceChart | None:
    """The chart on the model of a checked document, over its algebra ``alg``."""
    spec, domain, orientation = fields["chart"], fields["domain"], fields["orientation"]
    if fields["model"] == "exp":
        model = exp_model(alg) if alg is not None else None
    else:
        model = nil_polarized_model()
        if alg is not None and not np.array_equal(alg.bracket_tensor, model.algebra.bracket_tensor):
            problems.append("nil_polarized model requires the 3-dimensional Heisenberg algebra")
            return None
    if model is None:
        return None
    if domain is not None and len(domain) != model.dim - 1:
        problems.append(f"domain needs {model.dim - 1} axis ranges")
        return None
    if "components" in spec and domain is None:
        problems.append("expression charts need a domain")
        return None
    try:
        if "components" in spec:
            return expression_chart(model, spec["components"], domain, orientation)
        params = spec.get("params", {})
        return catalog_chart(spec["catalog"], model, params, domain, orientation, fields["seed"])
    except ConfigError as exc:
        problems.extend(exc.problems)
    except ValueError as exc:
        problems.append(f"bad chart specification: {exc}")
    return None


def load_config(doc: dict) -> JobConfig:
    """Check a config document against DOCUMENT before anything is built, then
    build the job, collecting every problem of the rules between fields."""
    problems = check(doc, CONFIG, "config")
    if problems:
        raise ConfigError(problems)
    fields = fill(doc, DOCUMENT)
    alg = _build_algebra(fields["algebra"], problems)
    if alg is not None and not (report := validate(alg)).ok:
        problems.append("algebra axioms violated: " + ", ".join(report.names()))
        alg = None
    chart = _build_chart(fields, alg, problems)
    grid, methods, checks, point = fields["grid"], fields["methods"], fields["checks"], fields["point"]
    fdp = FDParams(**fill(fields["fd"], FD))
    if math.prod(grid) > MAX_GRID_POINTS:
        problems.append(f"grid has {math.prod(grid)} points, above the limit of {MAX_GRID_POINTS}")
    if chart is not None:
        grid = grid or [3] * chart.param_dim
        if len(grid) != chart.param_dim:
            problems.append(f"grid needs {chart.param_dim} axis resolutions")
        margin = GRID_MARGIN_STEPS * fdp.step  # grid and point keep it inside the domain
        if any(hi - lo <= 2.0 * margin for lo, hi in chart.domain):
            problems.append(f"fd step {fdp.step} too large: 8*step must be below every domain width")
        elif point is not None and len(point) != chart.param_dim:
            problems.append(f"point needs {chart.param_dim} coordinates")
        elif point is not None and not all(lo + margin <= x <= hi - margin
                                           for x, (lo, hi) in zip(point, chart.domain)):
            problems.append(f"point must lie at least 4*step = {margin} inside the domain")
    if not methods:
        problems.append("no methods requested")
    direction = fields["jacobi_direction"]
    if direction is not None and not (any(direction) and (alg is None or len(direction) == alg.dim_total)):
        problems.append("jacobi_direction must be dim_total numbers, not all zero")

    if alg is not None and chart is not None:
        if "heisenberg" in methods and not alg.is_heisenberg:
            problems.append("method 'heisenberg' requires a Heisenberg algebra")
        if "h_type" in methods and not alg.is_h_type:
            problems.append("method 'h_type' requires a Heisenberg-type algebra")
        if "prop3" in checks and not alg.is_heisenberg:
            problems.append("check 'prop3' requires a Heisenberg algebra")
        if "gauss_codazzi" in checks and alg.dim_total != 3:
            problems.append("check 'gauss_codazzi' requires a 3-dimensional model")

    if problems:
        raise ConfigError(problems)
    tolerances = {key: float(tol) for key, tol in fill(fields["tolerances"], TOLERANCES).items()}
    return JobConfig(alg, chart, grid, methods, checks, tolerances, fdp, point, direction, doc)


def grid_points(chart: SurfaceChart, grid, fd: FDParams, point=None) -> np.ndarray:
    """Evaluation points as rows of an (N, n) array, in grid (C) order."""
    if point is not None:
        return np.array([point], dtype=float)
    margin = GRID_MARGIN_STEPS * fd.step
    axes = [
        np.linspace(lo + margin, hi - margin, res)
        for (lo, hi), res in zip(chart.domain, grid)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def run(config: JobConfig) -> dict:
    """Evaluate all requested methods and checks; deterministic output.

    A row's ``h`` and ``norm_b2`` are the point's values from the chart's exact
    second fundamental form, the same on every method's row, ``numeric_oracle``
    included: an oracle row takes only ``coeffs``, ``tangential_norm`` and
    ``normal_coeff`` from the oracle.
    """
    chart = config.chart
    fdp = config.fd
    tols = config.tolerances
    points = grid_points(chart, config.grid, fdp, config.point)

    evals = evaluate_points(chart, points, config.methods, fdp)
    rows = [
        {
            "point": [float(x) for x in ev.u],
            "method": mth,
            "coeffs": [float(c) for c in ev.reports[mth].coeffs],
            "tangential_norm": ev.reports[mth].tangential_norm,
            "normal_coeff": ev.reports[mth].normal_coeff,
            "h": ev.shape.h,
            "norm_b2": ev.shape.norm_b2,
        }
        for ev in evals
        for mth in config.methods
    ]
    preferred = next((m for m in config.methods if m != "numeric_oracle"), None)
    defects = [ev.reports[preferred].tangential_norm for ev in evals] if preferred else []
    gaps = []
    if preferred and "numeric_oracle" in config.methods:
        gaps = [
            float(np.abs(ev.reports[preferred].coeffs - ev.reports["numeric_oracle"].coeffs).max())
            for ev in evals
        ]

    checks: dict[str, dict] = {}
    if "harmonicity" in config.checks:
        source = preferred or config.methods[0]
        worst = max((ev.reports[source].tangential_norm for ev in evals), default=0.0)
        checks["harmonicity"] = {
            "pass": bool(worst < tols["harmonicity"]),
            "max_defect": worst,
            "tol": tols["harmonicity"],
        }
    if "prop3" in config.checks:
        worst = max((max(harmonicity_cmc_residuals(ev.shape, ev.frame)) for ev in evals), default=0.0)
        checks["prop3"] = {
            "pass": bool(worst < tols["prop3"]),
            "max_residual": worst,
            "tol": tols["prop3"],
        }
    if "corollary1" in config.checks:
        rep = central_h_variation(chart, evals, tol=tols["harmonicity"])
        checks["corollary1"] = {
            "pass": bool(rep.skipped or rep.max_variation < tols["corollary1"]),
            "skipped": rep.skipped,
            "max_variation": rep.max_variation,
            "tol": tols["corollary1"],
        }
    if "jacobi" in config.checks:
        direction = config.jacobi_direction
        if direction is None:
            mean_g = np.mean([ev.frame.normal for ev in evals], axis=0)
            direction = mean_g / np.linalg.norm(mean_g)
        rep = jacobi_residuals(chart, evals, direction, fdp, tol=tols["harmonicity"])
        checks["jacobi"] = {
            "pass": bool(rep.max_residual < tols["jacobi"]),
            "max_residual": rep.max_residual,
            "min_w": rep.min_w,
            "direction": [float(x) for x in np.asarray(direction, dtype=float)],
            "tol": tols["jacobi"],
        }
    if "gauss_codazzi" in config.checks:
        results = [res for res in gauss_codazzi_residuals(chart, evals) if not res.skipped]
        worst = max((max(res.codazzi_residual, res.gauss_residual) for res in results), default=0.0)
        identity = max((abs(res.curvature_term - res.ab_product) for res in results), default=0.0)
        checks["gauss_codazzi"] = {
            "pass": bool(not results or worst < tols["gauss_codazzi"]),
            "max_residual": worst,
            "identity_residual": identity,
            "points_evaluated": len(results),
            "tol": tols["gauss_codazzi"],
        }

    summary = {
        "points": len(points),
        "max_defect": max(defects) if defects else None,
        "max_oracle_gap": max(gaps) if gaps else None,
        "checks": checks,
    }
    return {"config_echo": config.raw, "rows": rows, "summary": summary}


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def document_to_csv(doc: dict) -> str:
    """One row per grid point: coordinates, H, |B|^2, defect, normal coeffs."""
    rows = doc["rows"]
    by_point: dict[tuple, dict] = {}
    methods: list[str] = []
    for row in rows:
        key = tuple(row["point"])
        rec = by_point.setdefault(
            key, {"h": row["h"], "norm_b2": row["norm_b2"], "normals": {}, "defect": None}
        )
        rec["normals"][row["method"]] = row["normal_coeff"]
        if row["method"] != "numeric_oracle" and rec["defect"] is None:
            rec["defect"] = row["tangential_norm"]
        if row["method"] not in methods:
            methods.append(row["method"])
    n = len(rows[0]["point"]) if rows else 0
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [f"u{i}" for i in range(1, n + 1)]
        + ["h", "norm_b2", "defect"]
        + [f"normal_{m}" for m in methods]
    )
    for key in by_point:
        rec = by_point[key]
        writer.writerow(
            [repr(x) for x in key]
            + [repr(rec["h"]), repr(rec["norm_b2"]), repr(rec["defect"])]
            + [repr(rec["normals"].get(m)) for m in methods]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# built-in example jobs

EXAMPLE_JOBS: dict[str, tuple[str, dict]] = {
    "nil_foliation_example": (
        "horizontal leaf of the polarized model: minimal but not harmonic",
        {
            "algebra": {"builtin": "heisenberg", "m": 1},
            "model": "nil_polarized",
            "chart": {"catalog": "nil_foliation_leaf", "params": {"z0": 0.0}},
            "domain": [[-2.0, 2.0], [-0.5, 0.5]],
            "grid": [9, 3],
            "methods": ["general", "heisenberg", "numeric_oracle"],
            "checks": ["gauss_codazzi"],
            "seed": 0,
        },
    ),
    "nil_vertical_plane": (
        "vertical plane with constant Gauss map; minimal, Jacobi-stable",
        {
            "algebra": {"builtin": "heisenberg", "m": 1},
            "model": "nil_polarized",
            "chart": {"catalog": "nil_vertical_plane"},
            "domain": [[-1.0, 1.0], [-1.0, 1.0]],
            "grid": [3, 3],
            "methods": ["general", "heisenberg", "numeric_oracle"],
            "checks": ["harmonicity", "prop3", "jacobi"],
            "jacobi_direction": [0.0, 1.0, 0.0],
            "seed": 0,
        },
    ),
    "nil_cylinder_circle": (
        "circular-arc profile cylinder: CMC with harmonic Gauss map",
        {
            "algebra": {"builtin": "heisenberg", "m": 1},
            "model": "nil_polarized",
            "chart": {
                "catalog": "nil_cylinder",
                "params": {"f1": "cos(u1)", "f2": "sin(u1)"},
            },
            "domain": [[-0.6, 0.6], [-1.0, 1.0]],
            "grid": [5, 3],
            "methods": ["general", "heisenberg", "numeric_oracle"],
            "checks": ["harmonicity", "prop3", "corollary1", "jacobi"],
            "seed": 0,
        },
    ),
}


# ---------------------------------------------------------------------------
# entry points


def _emit(doc: dict, args) -> None:
    text = document_to_csv(doc) if args.format == "csv" else document_to_json(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for name, result in doc["summary"]["checks"].items():
        status = "PASS" if result["pass"] else "FAIL"
        print(f"check {name}: {status}", file=sys.stderr)


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _apply_overrides(doc, args) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a JSON object"])
    doc = dict(doc)
    if args.tol is not None and isinstance(doc.get("tolerances", {}), dict):
        doc["tolerances"] = {**doc.get("tolerances", {}), **dict.fromkeys(TOLERANCES.fields, args.tol)}
    if args.seed is not None:
        doc["seed"] = args.seed
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nilgauss",
        description="Gauss map Laplacians on hypersurfaces of 2-step nilpotent groups",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("validate", "report", "sweep", "compare", "examples"):
        p = sub.add_parser(verb)
        if verb == "examples":
            p.add_argument("name", nargs="?")
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float)
        p.add_argument("--seed", type=int)
        if verb == "report":
            p.add_argument("--point", help="comma-separated chart parameters")
    args = parser.parse_args(argv)

    if args.verb == "examples":
        if args.name is None:
            for name, (desc, _) in EXAMPLE_JOBS.items():
                print(f"{name}: {desc}")
            return 0
        if args.name not in EXAMPLE_JOBS:
            print(f"unknown example {args.name!r}", file=sys.stderr)
            return 2
    try:
        raw = EXAMPLE_JOBS[args.name][1] if args.verb == "examples" else _load_config_file(args.config)
        doc = _apply_overrides(raw, args)
        if args.verb == "validate":
            problems = check(doc, CONFIG, "config")
            alg = None if problems else _build_algebra(doc["algebra"], problems)
            if alg is None:
                raise ConfigError(problems)
            report = validate(alg)
            violations = [{"name": v.name, "magnitude": v.magnitude} for v in report.violations]
            sys.stdout.write(document_to_json({"valid": report.ok, "violations": violations}))
            if report.ok:
                load_config(doc)  # axioms hold; now surface any config problems
            return 0 if report.ok else 1
        if args.verb == "report" and args.point:
            try:
                doc["point"] = [float(x) for x in args.point.split(",")]
            except ValueError:
                raise ConfigError(["--point must be comma-separated numbers"]) from None
        if args.verb == "compare":
            methods = doc.get("methods", [])
            if isinstance(methods, list) and "numeric_oracle" not in methods:
                doc["methods"] = methods + ["numeric_oracle"]

        config = load_config(doc)
        if args.verb == "report" and config.point is None:
            config.point = [0.5 * (lo + hi) for lo, hi in config.chart.domain]
        if args.verb == "compare" and all(m == "numeric_oracle" for m in config.methods):
            raise ConfigError(["compare needs at least one closed-form method"])
        result = run(config)
        if args.verb == "compare":
            gap = result["summary"]["max_oracle_gap"]
            tol = config.tolerances["oracle_gap"]
            result["summary"]["checks"]["oracle_gap"] = {
                "pass": bool(gap is not None and gap < tol),
                "max_oracle_gap": gap,
                "tol": tol,
            }
        _emit(result, args)
        return 1 if any(not res["pass"] for res in result["summary"]["checks"].values()) else 0
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ArithmeticError, RecursionError) as exc:
        # besides parse errors, a config nested too deeply to parse, and unreadable or unwritable
        # files: a chart that cannot be evaluated on its grid (not immersed, a jet outside its domain, overflow)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
