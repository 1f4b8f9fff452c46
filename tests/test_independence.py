"""The closed form and the oracle share nothing past chart evaluation.

Reference jobs, one for each pair of catalog entry and algebra, plus a
``graph`` job (no reference job uses that entry), run through ``cli.run``
under ``sys.setprofile``.  Every ``nilgauss`` function called inside
``evaluate_points`` is put on one of two routes: the oracle's, when it runs
inside ``oracle_laplacians``, or the closed form's otherwise, except inside
``gauss_codazzi_residuals``, a checker that is neither.  The functions
on both routes must be exactly ``SHARED``, and the oracle may read only
``ORACLE_READS`` of the centre ChartJet it is given.
"""

import importlib
import json
import pkgutil
import sys
import types
from dataclasses import fields

import numpy as np

import nilgauss
from nilgauss import cli, laplacian
from nilgauss.surfaces import CATALOG, ChartJet
from conftest import REFERENCE_JOBS

CHART = "chart evaluation: the oracle's stencil rows and the closed form's complex-step rows walk the same chart"
WALK = "the expression walk that evaluates the chart's components as jets"
FRAME = "the model's left-invariant frame, which turns chart jets into algebra tangents"
SHARED = {
    "expressions.Jet.__add__": WALK,
    "expressions.Jet.__init__": WALK,
    "expressions.Jet.__mul__": WALK,
    "expressions.Jet.const": WALK,
    "expressions.Jet.seed": WALK,
    "expressions._chain": WALK,
    "expressions._eval": WALK,
    "expressions._floats": WALK,
    "expressions.expression_jets": WALK,
    "expressions.jet_cos": WALK,
    "expressions.jet_sin": WALK,
    "models.CoordinateModel.dim": FRAME,
    "models.CoordinateModel.frame_correction": FRAME,
    "models.CoordinateModel.frame_inverse": FRAME,
    "surfaces.SurfaceChart.param_dim": CHART,
    "surfaces._chart_walk": CHART,
    "surfaces._tangents": CHART,
}
# g^{ab} and c^b come from jac, hess, ainv and tangents; normal, tangents and smin
# orient and certify the stencil rows' normals
ORACLE_READS = {"jac", "hess", "ainv", "tangents", "normal", "smin"}
FIELDS = {f.name for f in fields(ChartJet)}

GRAPH_JOB = {
    "algebra": {"builtin": "heisenberg", "m": 1},
    "model": "exp",
    "chart": {"catalog": "graph", "params": {"expr": "0.3*u1*u2 + 0.2*sin(u1)"}},
    "domain": [[-0.8, 0.8], [-0.8, 0.8]],
    "grid": [2, 2],
    "methods": ["general", "h_type", "heisenberg", "numeric_oracle"],
    "checks": [],
}


def jobs():
    """The first reference job of each (catalog entry, algebra) pair, and GRAPH_JOB."""
    first = {}
    for _, doc in REFERENCE_JOBS:
        first.setdefault((doc["chart"]["catalog"], json.dumps(doc["algebra"], sort_keys=True)), doc)
    return list(first.values()) + [GRAPH_JOB]


def function_names() -> dict:
    """Code object -> "module.qualname" of every function of the package, nested ones
    as "outer.<locals>.inner"; lambdas and comprehensions count as their caller."""
    names = {}

    def add(code, name):
        names[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                add(const, f"{name}.<locals>.{const.co_name}")

    for info in pkgutil.iter_modules(nilgauss.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"nilgauss.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for fn in members:
                # static and class methods, properties and cached properties hold a function
                fn = next((getattr(fn, key) for key in ("__func__", "fget", "func") if hasattr(fn, key)), fn)
                fn = getattr(fn, "__wrapped__", fn)
                if isinstance(fn, types.FunctionType):
                    add(fn.__code__, f"{info.name}.{fn.__qualname__}")
    return names


def routes(monkeypatch):
    """(closed-form route, oracle route, ChartJet fields the oracle read, unnamed package frames)."""
    names = function_names()
    evaluate, oracle = laplacian.evaluate_points.__code__, laplacian.oracle_laplacians.__code__
    checker = laplacian.gauss_codazzi_residuals.__code__
    closed_route, oracle_route, reads, unnamed = set(), set(), set(), set()
    depth = {evaluate: 0, oracle: 0, checker: 0}

    def profile(frame, event, arg):
        code = frame.f_code
        if event not in ("call", "return"):
            return
        if code in depth:
            depth[code] += 1 if event == "call" else -1
        if event != "call" or not depth[evaluate] or depth[checker]:
            return
        name = names.get(code)
        if name is not None:
            (oracle_route if depth[oracle] else closed_route).add(name)
        elif frame.f_globals.get("__name__", "").startswith("nilgauss") and not code.co_name.startswith("<"):
            unnamed.add(code.co_name)

    class Recorded(ChartJet):
        def __getattribute__(self, name):
            if name in FIELDS:
                reads.add(name)
            return super().__getattribute__(name)

    original = laplacian.oracle_laplacians

    def recorded_oracle(chart, cj, *args, **kwargs):
        return original(chart, Recorded(**{name: getattr(cj, name) for name in FIELDS}), *args, **kwargs)

    monkeypatch.setattr(laplacian, "oracle_laplacians", recorded_oracle)
    configs = [cli.load_config(doc) for doc in jobs()]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for config in configs:
            cli.run(config)
    finally:
        sys.setprofile(previous)
    return closed_route, oracle_route, reads, unnamed


def test_the_oracle_shares_only_chart_evaluation_with_the_closed_form(monkeypatch):
    charts = {(doc["chart"]["catalog"], json.dumps(doc["algebra"], sort_keys=True)) for doc in jobs()}
    assert {entry for entry, _ in charts} == set(CATALOG)
    assert len({algebra for _, algebra in charts}) == 5  # H(1), H(2), H(3), quaternionic and FREE5
    closed_route, oracle_route, reads, unnamed = routes(monkeypatch)
    assert unnamed == set()
    assert "laplacian.laplacian_general" in closed_route and "laplacian.oracle_laplacians" in oracle_route
    assert closed_route & oracle_route == set(SHARED)
    assert reads == ORACLE_READS


def test_the_oracle_gap_is_the_same_in_the_algebra_basis():
    """The oracle's report is only a change of basis: on every reference job with
    an oracle, the gap |ys^T c_general - Delta_oracle| taken in the algebra basis
    equals the report's |c_general - c_oracle|, in the adapted frame."""
    rows, worst = 0, 0.0
    for _, doc in REFERENCE_JOBS:
        if "numeric_oracle" not in doc["methods"]:
            continue
        config = cli.load_config(doc)
        points = cli.grid_points(config.chart, config.grid, config.fd, config.point)
        ev = laplacian.evaluate_points(config.chart, points, config.methods, config.fd)
        delta = laplacian.oracle_laplacians(config.chart, ev.jet, points, config.fd)
        general, oracle = ev.reports["general"].coeffs, ev.reports["numeric_oracle"].coeffs
        in_algebra = np.linalg.norm((general[:, None] @ ev.frame.ys)[:, 0] - delta, axis=1)
        in_frame = np.linalg.norm(general - oracle, axis=1)
        worst = max(worst, np.abs(in_algebra - in_frame).max())
        rows += len(points)
    assert rows == 144
    assert worst <= 1e-14
