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

from .algebra import NilpotentAlgebra, algebra_from_json, heisenberg, validate
from .expressions import ParseError
from .fd import FDParams
from .laplacian import (
    central_h_variation,
    evaluate_points,
    gauss_codazzi_residuals,
    harmonicity_cmc_residuals,
    jacobi_residuals,
)
from .models import CoordinateModel, exp_model, nil_polarized_model
from .surfaces import (
    SurfaceChart,
    cylinder_chart,
    expression_chart,
    foliation_leaf_chart,
    graph_chart,
    random_graph_chart,
    vertical_plane_chart,
)

METHOD_NAMES = ("general", "h_type", "heisenberg", "numeric_oracle")
NIL_CHARTS = ("nil_foliation_leaf", "nil_vertical_plane", "nil_cylinder")
CHECK_NAMES = ("harmonicity", "prop3", "corollary1", "jacobi", "gauss_codazzi")

DEFAULT_TOLERANCES = {
    "harmonicity": 1e-3,
    "prop3": 1e-6,
    "corollary1": 5e-4,
    "jacobi": 5e-4,
    "gauss_codazzi": 5e-4,
    "oracle_gap": 5e-4,
}
# largest algebra dimension; one oracle stencil's first-order chart jets take ~5 MB at 16 and
# ~0.1 GB at 32, and a FIELD_ROWS chunk of the dh field's second-order ones ~0.5 GB at 16
MAX_DIM_TOTAL = 16
# grid points and report points keep this many FD steps from the domain edge
GRID_MARGIN_STEPS = 4.0


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class JobConfig:
    algebra: NilpotentAlgebra
    model: CoordinateModel
    chart: SurfaceChart
    grid: list[int]
    methods: list[str]
    checks: list[str]
    tolerances: dict[str, float]
    fd: FDParams
    seed: int
    point: list[float] | None
    jacobi_direction: list[float] | None
    raw: dict


def _build_algebra(spec, problems) -> NilpotentAlgebra | None:
    if not isinstance(spec, dict):
        missing = spec is None
        problems.append("missing algebra specification" if missing else "algebra must be an object")
        return None
    builtin = "builtin" in spec
    if builtin and spec["builtin"] != "heisenberg":
        problems.append(f"unknown builtin algebra {spec['builtin']!r}")
        return None
    sizes = ("m",) if builtin else ("dim_total", "dim_center")
    bad = [f"algebra {key} must be an integer" for key in sizes if not _is_int(spec.get(key, 1))]
    if bad:
        problems.extend(bad)
        return None
    dim = 2 * spec.get("m", 1) + 1 if builtin else spec.get("dim_total", 1)
    if dim > MAX_DIM_TOTAL:
        problems.append(f"algebra dimension {dim} exceeds the limit of {MAX_DIM_TOTAL}")
        return None
    try:
        return heisenberg(spec.get("m", 1)) if builtin else algebra_from_json(spec)
    except ValueError as exc:
        problems.append(f"bad heisenberg parameter: {exc}" if builtin else str(exc))
        return None


def _build_model(name, alg, problems) -> CoordinateModel | None:
    if name == "exp":
        return exp_model(alg) if alg is not None else None
    if name == "nil_polarized":
        model = nil_polarized_model()
        if alg is not None and (
            alg.dim_total != 3 or np.abs(alg.bracket_tensor - model.algebra.bracket_tensor).max() > 0
        ):
            problems.append("nil_polarized model requires the 3-dimensional Heisenberg algebra")
            return None
        return model
    problems.append(f"unknown model {name!r} (expected 'exp' or 'nil_polarized')")
    return None


def _build_chart(spec, model, orientation, domain, seed, problems) -> SurfaceChart | None:
    if spec is None:
        problems.append("missing chart specification")
        return None
    if not isinstance(spec, dict):
        problems.append("chart must be an object")
        return None
    if domain is not None and not (
        isinstance(domain, (list, tuple))
        and all(isinstance(r, (list, tuple)) and len(r) == 2 and all(map(_is_number, r)) for r in domain)
    ):
        problems.append("domain must be a list of [lo, hi] pairs of finite numbers")
        return None
    if model is None:
        return None
    try:
        if domain is not None and len(domain) != model.dim - 1:
            problems.append(f"domain needs {model.dim - 1} axis ranges")
            return None
        if "components" in spec:
            if domain is None:
                problems.append("expression charts need a domain")
                return None
            return expression_chart(model, spec["components"], domain, orientation)
        name = spec.get("catalog")
        params = spec.get("params", {})
        if name in NIL_CHARTS and model.name != "nil_polarized":
            problems.append(f"chart {name!r} needs the nil_polarized model")
            return None
        rules = _NUMERIC_PARAMS.get(name, {})
        bad = [key for key, (check, _) in rules.items() if key in params and not check(params[key])]
        if bad:
            problems.extend(f"chart param {key!r} must be {rules[key][1]}" for key in bad)
            return None
        if name == "nil_foliation_leaf":
            kwargs = {}
            if "z0" in params:
                kwargs["z_level"] = float(params["z0"])
            if domain is not None:
                kwargs["x_range"], kwargs["y_range"] = domain
            return foliation_leaf_chart(**kwargs)
        if name == "nil_vertical_plane":
            if domain is not None:
                return vertical_plane_chart(*domain)
            return vertical_plane_chart()
        if name == "nil_cylinder":
            kwargs = {"f1": params["f1"], "f2": params["f2"]}
            if domain is not None:
                kwargs["s_range"], kwargs["t_range"] = domain
            kwargs["orientation"] = orientation
            return cylinder_chart(**kwargs)
        if name == "graph":
            if domain is None:
                problems.append("graph charts need a domain")
                return None
            return graph_chart(model, params["expr"], domain, orientation)
        if name == "random_graph":
            rng = np.random.default_rng(seed + params.get("index", 0))
            return random_graph_chart(model, rng, terms=params.get("terms", 3))
        problems.append(f"unknown chart catalog entry {name!r}")
        return None
    except (AttributeError, KeyError, TypeError, ValueError, ParseError) as exc:
        problems.append(f"bad chart specification: {exc}")
        return None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# numeric chart params of the catalog entries that read them: check and wording
_NUMERIC_PARAMS = {
    "nil_foliation_leaf": {"z0": (_is_number, "a finite number")},
    "random_graph": {"terms": (_is_int, "an integer"), "index": (_is_int, "an integer")},
}


def _name_list(doc, key, known, problems) -> list:
    names = doc.get(key, [])
    if not isinstance(names, list):
        problems.append(f"{key} must be a list")
        return []
    for name in names:
        if name not in known:
            problems.append(f"unknown {key[:-1]} {name!r}")
    return names


def _build_tolerances(spec, problems) -> dict[str, float]:
    tolerances = dict(DEFAULT_TOLERANCES)
    if not isinstance(spec, dict):
        problems.append("tolerances must be an object")
        return tolerances
    for key, val in spec.items():
        if key not in DEFAULT_TOLERANCES:
            problems.append(f"unknown tolerance {key!r}")
        elif not (_is_number(val) and val > 0):
            problems.append(f"tolerance {key!r} must be a finite number > 0")
        else:
            tolerances[key] = float(val)
    return tolerances


def _build_fd(spec, problems) -> FDParams | None:
    levels = spec.get("levels", 2) if isinstance(spec, dict) else None
    step = spec.get("step", 1e-4) if isinstance(spec, dict) else None
    ok = True
    if not (_is_number(step) and step > 0.0):
        problems.append("fd step must be a finite number > 0")
        ok = False
    if not _is_int(levels) or levels < 1:
        problems.append("fd levels must be an integer >= 1")
        ok = False
    return FDParams(step=float(step), levels=levels) if ok else None


def _check_stencil_room(chart, fdp, point, problems) -> None:
    """Grid and point must keep the 4*step FD margin inside the domain."""
    margin = GRID_MARGIN_STEPS * fdp.step
    if any(hi - lo <= 2.0 * margin for lo, hi in chart.domain):
        problems.append(f"fd step {fdp.step} too large: 8*step must be below every domain width")
    elif point is not None:
        if len(point) != chart.param_dim:
            problems.append(f"point needs {chart.param_dim} coordinates")
        elif not all(lo + margin <= x <= hi - margin for x, (lo, hi) in zip(point, chart.domain)):
            problems.append(f"point must lie at least 4*step = {margin} inside the domain")


def load_config(doc: dict) -> JobConfig:
    """Validate a config document, collecting every problem before failing."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a JSON object"])

    alg = _build_algebra(doc.get("algebra"), problems)
    model = _build_model(doc.get("model", "exp"), alg, problems)
    orientation = doc.get("orientation", 1)
    if not _is_int(orientation) or orientation not in (1, -1):
        problems.append("orientation must be the integer 1 or -1")
        orientation = 1
    seed = doc.get("seed", 0)
    if not _is_int(seed):
        problems.append("seed must be an integer")
        seed = 0
    domain = doc.get("domain")
    chart = _build_chart(doc.get("chart"), model, orientation, domain, seed, problems)

    methods = _name_list(doc, "methods", METHOD_NAMES, problems)
    if not methods:
        problems.append("no methods requested")
    checks = _name_list(doc, "checks", CHECK_NAMES, problems)

    grid = doc.get("grid", [])
    if not isinstance(grid, list) or not all(_is_int(g) for g in grid):
        problems.append("grid must be a list of integers")
        grid = []
    if chart is not None:
        if not grid:
            grid = [3] * chart.param_dim
        if len(grid) != chart.param_dim:
            problems.append(f"grid needs {chart.param_dim} axis resolutions")
        elif any(g < 2 for g in grid):
            problems.append("grid resolution must be at least 2 per axis")

    tolerances = _build_tolerances(doc.get("tolerances", {}), problems)
    fdp = _build_fd(doc.get("fd", {}), problems)

    point = doc.get("point")
    if point is not None:
        ok = isinstance(point, list) and all(_is_number(x) for x in point)
        if not ok:
            problems.append("point must be a list of finite numbers")
        point = [float(x) for x in point] if ok else None
    if chart is not None and fdp is not None:
        _check_stencil_room(chart, fdp, point, problems)

    direction = doc.get("jacobi_direction")
    if direction is not None:
        ok = isinstance(direction, list) and all(_is_number(x) for x in direction)
        ok = ok and any(direction) and (alg is None or len(direction) == alg.dim_total)
        if not ok:
            problems.append("jacobi_direction must be dim_total finite numbers, not all zero")
        direction = [float(x) for x in direction] if ok else None

    if alg is not None and chart is not None:
        if "heisenberg" in methods and not alg.is_heisenberg:
            problems.append("method 'heisenberg' requires a Heisenberg algebra")
        if "h_type" in methods and not alg.is_h_type:
            problems.append("method 'h_type' requires a Heisenberg-type algebra")
        if "prop3" in checks and not alg.is_heisenberg:
            problems.append("check 'prop3' requires a Heisenberg algebra")
        if "gauss_codazzi" in checks and alg.dim_total != 3:
            problems.append("check 'gauss_codazzi' requires a 3-dimensional model")
        report = validate(alg)
        if not report.ok:
            problems.append("algebra axioms violated: " + ", ".join(report.names()))

    if problems:
        raise ConfigError(problems)
    return JobConfig(
        algebra=alg,
        model=model,
        chart=chart,
        grid=grid,
        methods=methods,
        checks=checks,
        tolerances=tolerances,
        fd=fdp,
        seed=seed,
        point=point,
        jacobi_direction=direction,
        raw=doc,
    )


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
        results = [res for res in gauss_codazzi_residuals(chart, evals, fdp) if not res.skipped]
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


def _exit_code(doc: dict) -> int:
    checks = doc["summary"]["checks"]
    return 1 if any(not res["pass"] for res in checks.values()) else 0


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _apply_overrides(doc, args) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a JSON object"])
    doc = dict(doc)
    if args.tol is not None and isinstance(doc.get("tolerances", {}), dict):
        tols = dict(doc.get("tolerances", {}))
        for key in CHECK_NAMES + ("oracle_gap",):
            tols[key] = args.tol
        doc["tolerances"] = tols
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
            problems: list[str] = []
            alg = _build_algebra(doc.get("algebra"), problems)
            if problems or alg is None:
                raise ConfigError(problems)
            report = validate(alg)
            out = {
                "valid": report.ok,
                "violations": [
                    {"name": v.name, "magnitude": v.magnitude} for v in report.violations
                ],
            }
            sys.stdout.write(document_to_json(out))
            if not report.ok:
                return 1
            load_config(doc)  # axioms hold; now surface any config problems
            return 0
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
        return _exit_code(result)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ArithmeticError) as exc:
        # besides parse errors and unreadable or unwritable files: a chart that
        # cannot be evaluated on its grid (not immersed, a jet outside its domain, overflow)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
