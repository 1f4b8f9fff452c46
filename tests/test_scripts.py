"""The runnable experiments under scripts/ run to completion on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["leaf_table.py", "--xmax", "1.0", "--count", "3"],
        ["oracle_sweep.py", "--charts", "1", "--points", "2"],
    ],
)
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0])] + argv[1:],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_readme_library_example_runs():
    """The first python block under "## Library example" in the README runs."""
    section = (ROOT / "README.md").read_text().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_reference_reports_writes_one_report_per_reference_job(tmp_path):
    """3 examples plus 25 pool jobs at each of seeds 0, 1 and 2."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reference_reports.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    reports = sorted(tmp_path.glob("*.json"))
    assert len(reports) == 78
    assert all(json.loads(path.read_text())["rows"] for path in reports)
