"""The benchmark tracer names functions of nilgauss by string; keep them real."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
