#!/usr/bin/env python3
"""Benchmark nilgauss jobs through the CLI job path.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one job at a time (a closed loop, no threads).  The
seed makes a pool of job configs (``workloads.py``); every job goes
through ``cli.load_config``, ``cli.run`` and ``cli.document_to_json``,
as ``nilgauss sweep`` and ``nilgauss report`` do.

A run has three phases:

1. a warm-up pass that checks every report against its expected
   verdicts, the criterion-2 oracle allowance and the agreement of the
   specialised closed forms with ``general``, and keeps its bytes;
2. timed rounds over the pool for ``--seconds``, each report compared
   byte for byte with the warm-up one.  Without tracing, set-up (import
   ``nilgauss`` and ``load_config`` every job of the pool) is timed
   between rounds in fresh child processes.  With ``--trace 1`` the
   first half of the time is untraced and the second half runs with the
   layers wrapped (``tracing.py``), which also proves that tracing
   changes no result;
3. the result: the last line of stdout is one JSON object with the
   metrics that ``BENCHMARK.json`` lists for the mode.

The package is imported from ``src/`` next to this directory and from
nowhere else.
"""

import os

# One BLAS/OpenMP thread, set before anything imports numpy.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # the printed tail has this many job runs slower than it
ORACLE_RTOL = ORACLE_ATOL = 5e-4  # criterion 2: max(5e-4, 5e-4 |closed|)
SPECIALISED_TOL = 1e-10


def import_cli():
    if not (SRC / "nilgauss" / "__init__.py").is_file():
        sys.exit(f"bench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import nilgauss.cli

    if Path(nilgauss.__file__).resolve().parent != SRC / "nilgauss":
        sys.exit(f"bench: imported nilgauss from {nilgauss.__file__}, not {SRC}")
    return nilgauss.cli


def measure_setup(pool) -> float:
    """Seconds to import nilgauss and load every config, in this process."""
    t0 = perf_counter()
    cli = import_cli()
    for doc, _ in pool:
        cli.load_config(doc)
    return perf_counter() - t0


def child_setup(args) -> float:
    """Set-up time of a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def expected_points(doc) -> int:
    return 1 if doc.get("point") is not None else math.prod(doc["grid"])


def verify(doc, report, expect) -> tuple[list[str], float]:
    """Problems with one report, and its worst oracle gap / allowance."""
    problems = []
    checks = report["summary"]["checks"]
    got = {
        name: "skipped" if res.get("skipped") else ("pass" if res["pass"] else "fail")
        for name, res in checks.items()
    }
    if got != expect:
        problems.append(f"verdicts {got}, expected {expect}")
    if checks.get("gauss_codazzi", {}).get("points_evaluated") == 0:
        problems.append("gauss_codazzi evaluated no point")
    if report["summary"]["points"] != expected_points(doc):
        problems.append(f"{report['summary']['points']} points, expected {expected_points(doc)}")
    by_point: dict[tuple, dict] = {}
    for row in report["rows"]:
        by_point.setdefault(tuple(row["point"]), {})[row["method"]] = row["coeffs"]
    worst = 0.0
    specialised: dict[str, float] = {}
    for coeffs in by_point.values():
        oracle = coeffs.get("numeric_oracle")
        general = coeffs.get("general")
        for method, closed in coeffs.items():
            if method == "numeric_oracle":
                continue
            if oracle is not None:
                for c, o in zip(closed, oracle):
                    worst = max(worst, abs(c - o) / max(ORACLE_ATOL, ORACLE_RTOL * abs(c)))
            if general is not None and method != "general":
                diff = max(abs(c - g) for c, g in zip(closed, general))
                specialised[method] = max(specialised.get(method, 0.0), diff)
    for method, diff in specialised.items():
        if diff > SPECIALISED_TOL:
            problems.append(f"{method} differs from general by {diff:.3e}")
    if worst > 1.0:
        problems.append(f"oracle gap {worst:.3f} times the allowance")
    return problems, worst


class Loop:
    """Runs pool passes and keeps the tallies every phase shares."""

    def __init__(self, cli, pool):
        self.cli = cli
        self.pool = pool
        self.attempted = 0
        self.failed = 0
        self.reference: list[str | None] = [None] * len(pool)
        self.problems: list[str] = [""] * len(pool)
        self.max_gap_ratio = 0.0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: {message}", file=sys.stderr)

    def one_pass(self, configs, tracer=None, first_job=0) -> list[float]:
        """Run every job once; return each job's wall time."""
        times = []
        for i, (config, (doc, expect)) in enumerate(zip(configs, self.pool)):
            if tracer is not None:
                tracer.begin_job(first_job + i)
            self.attempted += 1
            t0 = perf_counter()
            try:
                report = self.cli.run(config)
                text = self.cli.document_to_json(report)
            except Exception:
                report = None
                error = traceback.format_exc()
            times.append(perf_counter() - t0)
            if report is None:
                self._fail(f"job {i} raised:\n{error}")
                continue
            if self.reference[i] is None:
                problems, gap = verify(doc, report, expect)
                self.max_gap_ratio = max(self.max_gap_ratio, gap)
                self.problems[i] = "; ".join(problems)
                self.reference[i] = text
            elif text != self.reference[i]:
                self._fail(f"job {i}: report bytes differ from the warm-up pass")
                continue
            if self.problems[i]:
                self._fail(f"job {i}: {self.problems[i]}")
        return times

    def timed_rounds(self, configs, seconds, tracer=None, between=None) -> list[list[float]]:
        """Job times of whole passes over the pool, for ``seconds`` and at
        least MIN_ROUNDS passes; ``between(progress)`` runs before each pass."""
        rounds = []
        start = perf_counter()
        while perf_counter() - start < seconds or len(rounds) < MIN_ROUNDS:
            if between is not None:
                between((perf_counter() - start) / seconds)
            rounds.append(self.one_pass(configs, tracer, len(self.pool) * (len(rounds) + 1)))
        return rounds


def timings(rounds, job_points) -> dict:
    """Time metrics from each job's fastest run.

    Other tenants of a shared machine cut its speed by up to a half, for
    seconds to minutes at a time.  Every round runs the same jobs, so a
    job's fastest run over the rounds comes closest to its time on an
    undisturbed machine, as with ``timeit``.
    """
    best = [min(times[i] for times in rounds) for i in range(len(job_points))]
    runs = sorted(t for times in rounds for t in times)
    rank = len(runs) - TAIL_BEYOND  # 1-based, from the fastest
    tail = (f"p{100.0 * rank / len(runs):.1f} of {len(runs)} job runs is {runs[rank - 1]!r} s"
            if rank > 0 else f"fewer than {TAIL_BEYOND + 1} job runs")
    return {
        "points_per_s": sum(job_points) / sum(best),
        "job_s_p50": statistics.median(best),
        "tail": tail,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    pool = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(measure_setup(pool))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    generator_ok = json.dumps(pool, sort_keys=True) == json.dumps(
        WORKLOADS[args.workload](args.seed), sort_keys=True
    )
    if not generator_ok:
        print("bench: the generator gave two different pools for one seed", file=sys.stderr)

    cli = import_cli()
    import numpy

    configs = [cli.load_config(doc) for doc, _ in pool]
    job_points = [expected_points(doc) for doc, _ in pool]
    pool_points = sum(job_points)
    loop = Loop(cli, pool)
    loop.one_pass(configs)  # warm-up: checks every report and keeps its bytes

    if args.trace:
        from tracing import Tracer

        untraced = timings(loop.timed_rounds(configs, args.seconds / 2), job_points)
        tracer = Tracer()
        tracer.install()
        configs = []
        for i, (doc, _) in enumerate(pool):
            tracer.begin_job(i)
            configs.append(cli.load_config(doc))
        tracer.end_setup()
        rounds = loop.timed_rounds(configs, args.seconds / 2, tracer)
    else:
        # set-up probes spread over the run, so one slow stretch of the
        # machine does not decide their median
        setup = []

        def probe(progress):
            if len(setup) < SETUP_PROBES and progress >= len(setup) / SETUP_PROBES:
                setup.append(child_setup(args))

        rounds = loop.timed_rounds(configs, args.seconds, between=probe)
        while len(setup) < SETUP_PROBES:
            setup.append(child_setup(args))
    times = timings(rounds, job_points)

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"jobs: {loop.attempted} attempted, {loop.failed} failed; pool of {len(pool)} jobs "
          f"and {pool_points} points")
    print(f"job time tail: {times.pop('tail')} ({len(rounds)} rounds)")
    print(f"max_gap_ratio: {loop.max_gap_ratio!r} (worst |closed - oracle| / allowance)")

    if args.trace:
        values = tracer.metrics(pool_points, len(pool), len(rounds))
        values["laplacian.max_gap_ratio"] = loop.max_gap_ratio
        values["tracing.points_per_s"] = times["points_per_s"]
        values["tracing.overhead_ratio"] = untraced["points_per_s"] / times["points_per_s"]
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace_{args.workload}_seed{args.seed}.npz")
        wanted = spec["per_layer"]
    else:
        values = dict(times)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]

    result = {
        "correct": generator_ok and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
