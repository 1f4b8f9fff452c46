"""The runnable experiments under scripts/ run to completion on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import REFERENCE_JOBS, reference_reports

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
    """One report per committed reference report, by the same name; the bytes do
    not depend on the process, so no set or hash order reaches a report."""
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "reference_reports.py"), str(tmp_path / seed)],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONHASHSEED=seed),
        )
        assert out.returncode == 0, out.stderr
    first, second = ({path.name: path.read_bytes() for path in (tmp_path / seed).glob("*.json")} for seed in "12")
    assert sorted(first) == [name for name, _ in REFERENCE_JOBS]
    assert all(json.loads(text)["rows"] for text in first.values())
    assert first == second


def test_reference_reports_writes_nothing_when_a_job_raises(tmp_path, monkeypatch, capsys):
    """Every report is computed before any is written, so an in-place rewrite that
    meets a raising job leaves the baseline as it was."""
    run = reference_reports.cli.run
    name, last = REFERENCE_JOBS[-1]

    def raise_on_last(config):
        if config.raw == last:
            raise RuntimeError("raised on purpose")
        return run(config)

    monkeypatch.setattr(reference_reports.cli, "run", raise_on_last)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert reference_reports.main([str(out_dir)]) == 1
    assert list(out_dir.iterdir()) == []
    assert f"{name}: RuntimeError: raised on purpose" in capsys.readouterr().err


def compare_reports(old, new, *tol):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_reports.py"), str(old), str(new), *tol],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def example_reports():
    """Report bytes of the three built-in examples, by file name."""
    from nilgauss import cli

    return {f"{name}.json": cli.document_to_json(cli.run(cli.load_config(doc)))
            for name, (_, doc) in cli.EXAMPLE_JOBS.items()}


def write_reports(directory, reports, change=None):
    directory.mkdir()
    for name, text in reports.items():
        doc = json.loads(text)
        if change and name == "nil_cylinder_circle.json":
            change(doc)
            text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        (directory / name).write_text(text)


def test_compare_reports_identical_directories_exit_0(tmp_path, example_reports):
    write_reports(tmp_path / "old", example_reports)
    write_reports(tmp_path / "new", example_reports)
    out = compare_reports(tmp_path / "old", tmp_path / "new", "--tol", "0")
    assert out.returncode == 0, out.stdout
    assert "byte-identical reports: 3 of 3" in out.stdout


def test_compare_reports_move_above_tol_exits_1(tmp_path, example_reports):
    def perturb(doc):
        doc["rows"][4]["coeffs"][1] += 1e-9

    write_reports(tmp_path / "old", example_reports)
    write_reports(tmp_path / "new", example_reports, perturb)
    out = compare_reports(tmp_path / "old", tmp_path / "new", "--tol", "1e-10")
    assert out.returncode == 1
    assert "byte-identical reports: 2 of 3" in out.stdout
    method = json.loads(example_reports["nil_cylinder_circle.json"])["rows"][4]["method"]
    line = next(line for line in out.stdout.splitlines() if line.startswith(f"rows[{method}].coeffs "))
    assert 0.9e-9 < float(line.split()[1]) < 1.1e-9 and line.split()[2] == "nil_cylinder_circle.json"
    assert compare_reports(tmp_path / "old", tmp_path / "new", "--tol", "1e-8").returncode == 0


def test_compare_reports_flipped_verdict_exits_1(tmp_path, example_reports):
    def flip(doc):
        doc["summary"]["checks"]["jacobi"]["pass"] = not doc["summary"]["checks"]["jacobi"]["pass"]

    write_reports(tmp_path / "old", example_reports)
    write_reports(tmp_path / "new", example_reports, flip)
    out = compare_reports(tmp_path / "old", tmp_path / "new")
    assert out.returncode == 1
    assert "summary.checks.jacobi.pass: verdict" in out.stdout
