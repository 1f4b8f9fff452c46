"""Command-line harness: job configs, grid sweeps, machine-readable reports.

A job is a JSON document selecting an algebra, a coordinate model, a
chart (catalog entry or raw component expressions), a box domain with a
grid resolution, the Laplacian methods to evaluate and the checks to
run.  Reports echo the document, which run again gives the same report, carry
one row per grid point and method, and end with a summary block whose
check verdicts drive the exit code: 0 when every requested check passes,
1 on a check failure or a check that evaluated no point, 2 on a
configuration or parse error or a chart that cannot be evaluated on its grid.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import ALGEBRA, NilpotentAlgebra, algebra_from_json, heisenberg, validate
from .fd import FIELD_ROWS, FDParams
from .laplacian import (
    central_h_variation,
    evaluate_points,
    harmonicity_cmc_residuals,
    jacobi_residuals,
)
from .models import exp_model, nil_polarized_model
from .schema import POSITIVE, ConfigError, Field, Table, between, check, fill, one_of
from .surfaces import SurfaceChart, catalog_chart, expression_chart

METHOD_NAMES = ("general", "h_type", "heisenberg", "numeric_oracle")
# check -> (default tolerance, key of its value), in verdict order; a check passes when the value is below
# its tolerance or None (corollary1 skipped), jacobi only where w = <G, v> > 0 at every point as well (the
# stability certificate), and has no verdict, null, when it evaluated no point (corollary1 with no central slot)
CHECKS = {
    "harmonicity": (1e-3, "max_defect"), "prop3": (1e-6, "max_residual"),
    "corollary1": (5e-4, "max_variation"), "jacobi": (5e-4, "max_residual"),
    "gauss_codazzi": (5e-4, "max_residual"), "oracle_gap": (5e-4, "max_oracle_gap"),
}
# method or check -> (holds of the job's algebra, wording of the requirement)
NEEDS = {
    "heisenberg": (lambda alg: alg.is_heisenberg, "a Heisenberg algebra"),
    "h_type": (lambda alg: alg.is_h_type, "a Heisenberg-type algebra"),
    "prop3": (lambda alg: alg.is_heisenberg, "a Heisenberg algebra"),
}

# largest algebra dimension; one oracle stencil's first-order chart jets take ~5 MB at 16 and
# ~0.1 GB at 32, and a FIELD_ROWS / 2 chunk of dh's complex-step second-order ones ~0.5 GB at 16
MAX_DIM_TOTAL = 16
# most grid points per job; the centre stack's second-order chart jets take
# points * d * (1 + n + n^2) * 8 bytes, ~0.5 GB at this bound and d = MAX_DIM_TOTAL
MAX_GRID_POINTS = 2**14
# most Richardson levels (34): those that keep one centre's oracle stencil, 1 + levels * n (n + 1)
# rows at n = MAX_DIM_TOTAL - 1, within one fd.FIELD_ROWS field call
MAX_FD_LEVELS = (FIELD_ROWS - 1) // ((MAX_DIM_TOTAL - 1) * MAX_DIM_TOTAL)
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
    {key: Field("number", default=tol, span=POSITIVE) for key, (tol, _) in CHECKS.items()},
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
        "checks": Field("list", default=[], items=Field("string", span=one_of(CHECKS))),
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
    if alg is not None and chart is not None:  # one algebra per job; a nil_polarized model brings its own
        alg = chart.model.algebra
    grid, methods, checks, point = fields["grid"], fields["methods"], fields["checks"], fields["point"]
    fdp = FDParams(**fill(fields["fd"], FD))
    swept = grid or ([3] * chart.param_dim if chart is not None and point is None else [])
    if math.prod(swept) > MAX_GRID_POINTS:  # the grid the job sweeps, and its own beside a point
        problems.append(f"grid has {math.prod(swept)} points, above the limit of {MAX_GRID_POINTS}")
    if chart is not None:
        grid = grid or [3] * chart.param_dim
        if len(grid) != chart.param_dim:
            problems.append(f"grid needs {chart.param_dim} axis resolutions")
        margin = GRID_MARGIN_STEPS * fdp.step  # grid and point keep it inside the domain
        step_fits = all(hi - lo > 2.0 * margin for lo, hi in chart.domain)
        if not step_fits:
            problems.append(f"fd step {fdp.step} too large: {2 * GRID_MARGIN_STEPS:g}*step must be below "
                            "every domain width")
        if point is not None and len(point) != chart.param_dim:
            problems.append(f"point needs {chart.param_dim} coordinates")
        elif point is not None and step_fits and not all(lo + margin <= x <= hi - margin
                                                         for x, (lo, hi) in zip(point, chart.domain)):
            problems.append(f"point must lie at least {GRID_MARGIN_STEPS:g}*step = {margin} inside the domain")
    if not methods:
        problems.append("no methods requested")
    if "oracle_gap" in checks and not ("numeric_oracle" in methods and set(methods) - {"numeric_oracle"}):
        problems.append("check 'oracle_gap' requires numeric_oracle and a closed-form method")
    for key, names in (("method", methods), ("check", checks)):  # entries are known strings by now
        problems += [f"{key} {name!r} is listed more than once"
                     for name in dict.fromkeys(names) if names.count(name) > 1]
    direction = fields["jacobi_direction"]
    if direction is not None:
        v = np.asarray(direction, dtype=float)
        with np.errstate(over="ignore"):  # jacobi_residuals divides by the root of this sum
            sq = float(v @ v)
        if not (math.isfinite(sq) and sq >= sys.float_info.min and (alg is None or len(v) == alg.dim_total)):
            problems.append("jacobi_direction must be dim_total numbers whose squared length is a normal float")

    if alg is not None and chart is not None:
        problems += [f"{'method' if name in METHOD_NAMES else 'check'} {name!r} requires {wording}"
                     for name, (holds, wording) in NEEDS.items() if name in methods + checks and not holds(alg)]

    if problems:
        raise ConfigError(problems)
    tolerances = {key: float(tol) for key, tol in fill(fields["tolerances"], TOLERANCES).items()}
    return JobConfig(chart, grid, methods, checks, tolerances, fdp, point, direction, doc)


def grid_points(chart: SurfaceChart, grid, fd: FDParams, point=None) -> np.ndarray:
    """Evaluation points as rows of an (N, n) array, in grid (C) order."""
    if point is not None:
        return np.array([point], dtype=float)
    margin = GRID_MARGIN_STEPS * fd.step
    points = np.empty((*grid, len(grid)))
    for k, ((lo, hi), res) in enumerate(zip(chart.domain, grid)):  # axis k broadcast over the others
        points[..., k] = np.linspace(lo + margin, hi - margin, res).reshape((-1,) + (1,) * (len(grid) - 1 - k))
    return points.reshape(-1, len(grid))


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

    ev = evaluate_points(chart, points, config.methods, fdp, checks=config.checks)
    columns = {mth: list(zip(rep.coeffs.tolist(), rep.tangential_norm.tolist(), rep.normal_coeff.tolist()))
               for mth, rep in ev.reports.items() if mth in config.methods}
    rows = [
        {
            "point": u,
            "method": mth,
            "coeffs": columns[mth][i][0],
            "tangential_norm": columns[mth][i][1],
            "normal_coeff": columns[mth][i][2],
            "h": h,
            "norm_b2": norm_b2,
        }
        for i, (u, h, norm_b2) in enumerate(zip(points.tolist(), ev.shape.h.tolist(), ev.shape.norm_b2.tolist()))
        for mth in config.methods
    ]
    preferred = next((m for m in config.methods if m != "numeric_oracle"), None)
    max_defect = float(ev.reports[preferred].tangential_norm.max()) if preferred else None
    max_gap = None
    if preferred and "numeric_oracle" in config.methods:
        max_gap = float(np.abs(ev.reports[preferred].coeffs - ev.reports["numeric_oracle"].coeffs).max())

    # every checker returns (N,) arrays, one row per point; here alone they become report values
    values: dict[str, dict] = {}  # check -> what it reports, the value CHECKS names among it
    if "harmonicity" in config.checks:
        source = ev.reports[preferred or config.methods[0]]
        values["harmonicity"] = {"max_defect": float(source.tangential_norm.max())}
    if "prop3" in config.checks:
        values["prop3"] = {"max_residual": float(np.max(harmonicity_cmc_residuals(ev.shape, ev.frame)))}
    if "corollary1" in config.checks:
        # Z(H) = 0 is a consequence of harmonicity: a chart that is not harmonic skips the check
        skipped = bool(ev.reports["general"].tangential_norm.max() > tols["harmonicity"])
        values["corollary1"] = {"skipped": skipped, "max_variation": None, "points_evaluated": 0}
        if not skipped:
            evaluated, variation = central_h_variation(chart, ev)  # 0.0 at the points with no central slot
            values["corollary1"].update(max_variation=float(variation.max()), points_evaluated=int(evaluated.sum()))
    if "jacobi" in config.checks:
        direction = config.jacobi_direction
        if direction is None:
            mean_g = ev.frame.normal.mean(axis=0)
            direction = mean_g / np.linalg.norm(mean_g)
        residual, w = jacobi_residuals(chart, ev, direction)
        values["jacobi"] = {"max_residual": float(residual.max()), "min_w": float(w.min()),
                            "direction": [float(x) for x in np.asarray(direction, dtype=float)]}
    if "gauss_codazzi" in config.checks:
        values["gauss_codazzi"] = {"max_residual": float(ev.gauss_codazzi.max())}
    if "oracle_gap" in config.checks:
        values["oracle_gap"] = {"max_oracle_gap": max_gap}
    checks = {}
    for name, (_, key) in CHECKS.items():
        if name in values:
            value, tol = values[name][key], tols[name]
            evidence = values[name].get("skipped") or values[name].get("points_evaluated") != 0
            verdict = (value is None or value < tol) and values[name].get("min_w", 1.0) > 0.0 if evidence else None
            checks[name] = {"pass": verdict, **values[name], "tol": tol}

    summary = {
        "points": len(points),
        "max_defect": max_defect,
        "max_oracle_gap": max_gap,
        "checks": checks,
    }
    return {"config_echo": config.raw, "rows": rows, "summary": summary}


def document_to_json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline.

    ``json`` serves ``indent`` only from its pure-Python encoder; ``_json_text``
    writes the same text for what reports and ``validate`` output hold, and
    leaves anything else to ``json.dumps``, its output or its exception.
    """
    try:
        return _json_text(doc, "\n") + "\n"
    except (TypeError, RecursionError):  # a type or key left to json, or a cycle or deep nesting
        pass
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"  # outside the handler: no chained traceback


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


@functools.lru_cache(maxsize=256)
def _key_prefixes(keys: tuple) -> tuple:
    """(key, its encoded '"key": ' prefix) of each key, in sorted order; TypeError
    unless every key is a str."""
    return tuple((key, encode_basestring_ascii(key) + ": ") for key in sorted(keys))


def _json_text(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it on a line that
    starts with ``nl``; TypeError on a type it leaves to ``json``."""
    if isinstance(obj, float):  # subclasses such as np.float64 too, as json writes them
        text = float.__repr__(obj)
        return _NON_FINITE[text] if "n" in text else text
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        if isinstance(obj[0], float):
            try:
                text = sep.join(map(float.__repr__, obj))
            except TypeError:  # an item that is not a float
                pass
            else:
                if "n" not in text:  # no nan or inf, which need json's spelling
                    return "[" + inner + text + nl + "]"
        return "[" + inner + sep.join([_json_text(item, inner) for item in obj]) + nl + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        items = [prefix + _json_text(obj[key], inner) for key, prefix in _key_prefixes(tuple(obj))]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    raise TypeError(f"{kind.__name__} is left to json")


def document_to_csv(doc: dict) -> str:
    """One row per grid point: coordinates, H, |B|^2, defect, normal coeffs.

    ``run`` writes each point's rows together, one per method in the job's order;
    the defect is the first closed-form method's."""
    rows = doc["rows"]
    methods = list(dict.fromkeys(row["method"] for row in rows))
    n = len(rows[0]["point"]) if rows else 0
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [f"u{i}" for i in range(1, n + 1)]
        + ["h", "norm_b2", "defect"]
        + [f"normal_{m}" for m in methods]
    )
    for group in zip(*[iter(rows)] * len(methods)):  # one point's rows
        first = group[0]
        defect = next((row["tangential_norm"] for row in group if row["method"] != "numeric_oracle"), None)
        writer.writerow(
            [repr(x) for x in first["point"]]
            + [repr(first["h"]), repr(first["norm_b2"]), repr(defect)]
            + [repr(row["normal_coeff"]) for row in group]
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


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, args) -> None:
    _write(document_to_csv(doc) if args.format == "csv" else document_to_json(doc), args.out)
    for name, result in doc["summary"]["checks"].items():
        status = {True: "PASS", False: "FAIL", None: "NO VERDICT (no point evaluated)"}[result["pass"]]
        print(f"check {name}: {status}", file=sys.stderr)


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nilgauss",
        description="Gauss map Laplacians on hypersurfaces of 2-step nilpotent groups",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("validate", "sweep", "examples"):
        p = sub.add_parser(verb)
        if verb == "examples":
            p.add_argument("name", nargs="?")
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--out")
        if verb != "validate":  # validate writes one JSON document
            p.add_argument("--format", choices=("json", "csv"), default="json")
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
        doc = EXAMPLE_JOBS[args.name][1] if args.verb == "examples" else _load_config_file(args.config)
        if not isinstance(doc, dict):
            raise ConfigError(["config must be a JSON object"])
        if args.verb == "validate":
            problems = check(doc, CONFIG, "config")
            alg = None if problems else _build_algebra(doc["algebra"], problems)
            if alg is None:
                raise ConfigError(problems)
            report = validate(alg)
            if report.ok:
                load_config(doc)  # axioms hold; any other config problem exits 2 before a word is written
            violations = [{"name": v.name, "magnitude": v.magnitude} for v in report.violations]
            _write(document_to_json({"valid": report.ok, "violations": violations}), args.out)
            return 0 if report.ok else 1
        config = load_config(doc)
        # the one error line stands for numpy's overflow warnings, which evaluate_points turns into
        # FloatingPointError; ComplexWarning, a dropped imaginary part, is not a floating-point state
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = run(config)
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
