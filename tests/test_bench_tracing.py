"""The benchmark tracer names functions of nilgauss by string; keep them real."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", load_tracing().NAMES)
def test_traced_name_resolves(name):
    layer, _, qual = name.partition(".")
    target = importlib.import_module(f"nilgauss.{layer}")
    for attr in qual.split("."):
        target = getattr(target, attr)
    assert callable(target)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_is_correct(workload):
    """A short traced run: the tracer hashes the point argument of the
    single-point entry points, so a stack passed to one of them fails here."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0, out.stderr
