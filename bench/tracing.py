"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced function by a wrapper that
records one span per call: function, start, end, parent span and job id.
A function is replaced under every name a ``nilgauss`` module binds it
to, including the values of module-level tables such as
``laplacian.CLOSED_FORMS``, because ``cli`` and ``laplacian`` import
``chart_jets``, ``gauss_map`` and others by name.  Methods are replaced
on their class.  Wrappers pass arguments, results and exceptions through
unchanged, so a traced job must serialise to the same bytes as an
untraced one.

Spans live in flat arrays until the run ends; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# layer (module of src/nilgauss) -> traced functions, ``Class.method`` for methods
LAYERS = {
    "expressions": ("Expr.jet", "parse_expression"),
    "fd": ("gradient_hessian", "directional_derivative"),
    "surfaces": (
        "chart_jets",
        "gauss_map",
        "shape_data",
        "mean_curvature",
        "mean_curvature_derivatives",
        "adapted_frame",
        "chart_coefficients",
    ),
    "models": ("CoordinateModel.christoffels", "CoordinateModel.frame_inverse"),
    "algebra": ("validate", "is_heisenberg_type", "NilpotentAlgebra.j_matrix"),
    "curvature": ("curvature", "ricci", "connection"),
    "laplacian": (
        "laplacian_general",
        "laplacian_h_type",
        "laplacian_heisenberg",
        "closed_form_report",
        "laplacian_numeric",
        "laplace_beltrami_scalar",
        "jacobi_residuals",
        "central_h_variation",
        "gauss_codazzi_residuals",
    ),
    "cli": ("load_config", "run", "document_to_json"),
}

# functions whose second argument is a chart point: count calls at a point
# not yet seen in the same job
NEW_POINT = {"expressions.Expr.jet", "surfaces.chart_jets"}
# functions whose first argument is a field they evaluate: count evaluations
FIELD_EVALS = {"fd.gradient_hessian", "fd.directional_derivative"}
# functions whose raised exceptions are meaningful events
RAISED = {
    "surfaces.chart_jets",
    "surfaces.chart_coefficients",
    "fd.gradient_hessian",
    "fd.directional_derivative",
}

NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.field_evals = [0] * len(NAMES)
        self.new_points = [0] * len(NAMES)
        self.job_id = -1
        self._stack = [-1]
        self._seen: set = set()
        self._setup = (0, list(self.new_points), list(self.field_evals))

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self._seen = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import nilgauss  # noqa: F401  (loads every submodule)

        modules = [
            mod for key, mod in sys.modules.items()
            if key == "nilgauss" or key.startswith("nilgauss.")
        ]
        for fid, name in enumerate(NAMES):
            layer, _, qual = name.partition(".")
            owner = sys.modules[f"nilgauss.{layer}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(fid, name, cls.__dict__[attr]))
                continue
            original = getattr(owner, qual)
            wrapper = self._wrap(fid, name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(val, dict):
                        for k, v in val.items():
                            if v is original:
                                val[k] = wrapper

    def _wrap(self, fid: int, name: str, fn):
        fn_arr, parent, job, start, end, raised = (
            self.fn, self.parent, self.job, self.start, self.end, self.raised
        )
        stack = self._stack
        tracer = self
        track_points = name in NEW_POINT
        count_evals = name in FIELD_EVALS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_points:
                key = (fid, id(args[0]), tuple(np.asarray(args[1], dtype=float).tolist()))
                if key not in tracer._seen:
                    tracer._seen.add(key)
                    tracer.new_points[fid] += 1
            if count_evals:
                field = args[0]

                def counted(*a, **k):
                    tracer.field_evals[fid] += 1
                    return field(*a, **k)

                args = (counted,) + args[1:]
            idx = len(fn_arr)
            fn_arr.append(fid)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    # -- results -----------------------------------------------------------

    def end_setup(self) -> None:
        """Mark the end of set-up; later spans belong to the timed rounds."""
        self._setup = (len(self.fn), list(self.new_points), list(self.field_evals))

    def metrics(self, pool_points: int, pool_jobs: int, rounds: int) -> dict:
        """Per-point figures for one pass: set-up amortised over the pool's
        points, plus the timed rounds per point processed.

        Every timed round repeats the same jobs, so each count per point is
        the same whatever the number of rounds, and the counts repeat
        exactly between traced runs.  Self times come from each pool job's
        fastest traced run, as the end-to-end times do; timed job ids are
        ``pool_jobs * (round + 1) + index``.
        """
        n_setup, setup_new, setup_evals = self._setup
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        job = np.frombuffer(self.job, dtype=np.int32)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(len(fn))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child

        k = len(NAMES)
        setup, timed = slice(0, n_setup), slice(n_setup, None)

        def split(weights=None) -> tuple[np.ndarray, np.ndarray]:
            w_setup = None if weights is None else weights[setup]
            w_timed = None if weights is None else weights[timed]
            return (np.bincount(fn[setup], weights=w_setup, minlength=k),
                    np.bincount(fn[timed], weights=w_timed, minlength=k))

        job_own = np.bincount(job[timed], weights=own[timed])
        fastest = np.zeros(len(job_own), dtype=bool)
        ids = np.arange(len(job_own))
        for i in range(pool_jobs):
            runs = ids[(ids >= pool_jobs) & (ids % pool_jobs == i)]
            fastest[runs[np.argmin(job_own[runs])]] = True
        keep = fastest[job[timed]]
        self_s = (np.bincount(fn[setup], weights=own[setup], minlength=k)
                  + np.bincount(fn[timed][keep], weights=own[timed][keep], minlength=k))

        calls = split()
        fails = split(raised.astype(float))
        counters = {
            "new_points": (np.array(setup_new), np.array(self.new_points) - setup_new),
            "field_evals": (np.array(setup_evals), np.array(self.field_evals) - setup_evals),
        }

        def per_point(pair, i):
            return pair[0][i] / pool_points + pair[1][i] / (pool_points * rounds)

        out = {}
        for i, name in enumerate(NAMES):
            per_call = per_point(calls, i)
            out[f"{name}.calls_per_point"] = per_call
            out[f"{name}.self_ms_per_point"] = 1e3 * self_s[i] / pool_points
            if name in NEW_POINT:
                new = per_point(counters["new_points"], i)
                out[f"{name}.new_point_ratio"] = new / per_call if per_call else 0.0
            if name in FIELD_EVALS:
                out[f"{name}.field_evals_per_point"] = per_point(counters["field_evals"], i)
            if name in RAISED:
                out[f"{name}.raised"] = fails[0][i] + fails[1][i] / rounds
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(NAMES),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )
