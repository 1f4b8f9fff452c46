import collections
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgauss import ImmersionError, algebra, cli, fd, laplacian, surfaces
from nilgauss.cli import (
    ConfigError,
    EXAMPLE_JOBS,
    document_to_csv,
    document_to_json,
    load_config,
    main,
    run,
)
from nilgauss.fd import FIELD_ROWS, BoundaryError
from conftest import REFERENCE_JOBS, meshgrid_points

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "algebra": {"builtin": "heisenberg", "m": 1},
    "model": "nil_polarized",
    "chart": {"catalog": "nil_vertical_plane"},
    "domain": [[-1.0, 1.0], [-1.0, 1.0]],
    "grid": [3, 3],
    "methods": ["general", "numeric_oracle"],
    "checks": ["harmonicity"],
    "seed": 0,
}


def write_config(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_empty_methods_rejected():
    doc = dict(BASE_CONFIG)
    doc["methods"] = []
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert "no methods requested" in err.value.problems


def test_config_errors_are_collected():
    doc = dict(BASE_CONFIG)
    doc["methods"] = ["nonsense"]
    doc["checks"] = ["also_nonsense"]
    doc["grid"] = [1, 3]
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    text = " ".join(err.value.problems)
    assert "nonsense" in text
    assert "also_nonsense" in text
    assert "at least 2" in text


def test_inline_algebra_and_validation():
    doc = dict(BASE_CONFIG)
    doc["algebra"] = {
        "dim_total": 3,
        "dim_center": 1,
        "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1.0}],
    }
    config = load_config(doc)
    assert config.chart.model.algebra.dim_total == 3


def test_invalid_algebra_reported():
    doc = dict(BASE_CONFIG)
    doc["model"] = "exp"
    doc["chart"] = {"catalog": "graph", "params": {"expr": "0"}}
    doc["algebra"] = {"dim_total": 3, "dim_center": 1, "brackets": []}  # abelian
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert any("non-abelian" in p for p in err.value.problems)


def test_checks_gated_by_algebra_shape():
    """prop3 needs a Heisenberg algebra; gauss_codazzi holds in every dimension, so an
    H(2) job with it loads and passes."""
    doc = dict(BASE_CONFIG)
    doc["model"] = "exp"
    doc["algebra"] = {"builtin": "heisenberg", "m": 2}
    doc["chart"] = {"catalog": "graph", "params": {"expr": "0.1*u1*u2"}}
    doc["domain"] = [[-1, 1]] * 4
    doc["grid"] = [2, 2, 2, 2]
    doc["methods"] = ["general"]
    doc["checks"] = ["gauss_codazzi"]
    assert run(load_config(doc))["summary"]["checks"]["gauss_codazzi"]["pass"] is True
    with pytest.raises(ConfigError) as err:
        load_config(dict(doc, algebra=TWO_BRACKET_JOB["algebra"], checks=["gauss_codazzi", "prop3"]))
    assert err.value.problems == ["check 'prop3' requires a Heisenberg algebra"]


def test_heisenberg_method_needs_heisenberg_algebra():
    doc = dict(BASE_CONFIG)
    doc["model"] = "exp"
    doc["chart"] = {"catalog": "graph", "params": {"expr": "0.1*u1*u2"}}
    doc["domain"] = [[-1, 1]] * 4
    doc["grid"] = [2, 2, 2, 2]
    doc["algebra"] = {
        "dim_total": 5,
        "dim_center": 2,
        "brackets": [
            {"i": 1, "j": 2, "k": 4, "c": 1.0},
            {"i": 1, "j": 3, "k": 5, "c": 1.0},
        ],
    }
    doc["methods"] = ["heisenberg"]
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert any("Heisenberg algebra" in p for p in err.value.problems)


TWO_BRACKET_JOB = dict(
    BASE_CONFIG, model="exp", chart={"catalog": "graph", "params": {"expr": "0.1*u1*u2"}},
    domain=[[-1, 1]] * 4, grid=[2, 2, 2, 2], methods=["general"], checks=[],
    algebra={"dim_total": 5, "dim_center": 2,
             "brackets": [{"i": 1, "j": 2, "k": 4, "c": 1.0}, {"i": 1, "j": 3, "k": 5, "c": 1.0}]},
)


@pytest.mark.parametrize("change, line", [
    ({"methods": ["heisenberg"]}, "method 'heisenberg' requires a Heisenberg algebra"),
    ({"methods": ["h_type"]}, "method 'h_type' requires a Heisenberg-type algebra"),
    ({"checks": ["prop3"]}, "check 'prop3' requires a Heisenberg algebra"),
])
def test_requirement_messages_are_exact(tmp_path, capsys, change, line):
    """Each method or check that needs more of the algebra names what it requires:
    the two-bracket 5-dimensional algebra is neither Heisenberg nor H-type."""
    path = write_config(tmp_path, dict(TWO_BRACKET_JOB, **change))
    assert main(["sweep", "--config", path]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]


def test_run_vertical_plane_passes():
    config = load_config(EXAMPLE_JOBS["nil_vertical_plane"][1])
    doc = run(config)
    assert doc["summary"]["max_defect"] == 0.0
    assert all(res["pass"] for res in doc["summary"]["checks"].values())
    assert doc["summary"]["max_oracle_gap"] < 1e-7


def test_report_round_trip_bit_exact():
    config = load_config(EXAMPLE_JOBS["nil_vertical_plane"][1])
    doc = run(config)
    text = document_to_json(doc)
    reparsed = json.loads(text)
    assert document_to_json(reparsed) == text
    # numeric fields survive exactly
    assert reparsed["rows"][0]["coeffs"] == doc["rows"][0]["coeffs"]


def test_run_deterministic():
    config1 = load_config(EXAMPLE_JOBS["nil_cylinder_circle"][1])
    config2 = load_config(EXAMPLE_JOBS["nil_cylinder_circle"][1])
    assert document_to_json(run(config1)) == document_to_json(run(config2))


def test_csv_export():
    config = load_config(EXAMPLE_JOBS["nil_vertical_plane"][1])
    doc = run(config)
    csv_text = document_to_csv(doc)
    header = csv_text.splitlines()[0].split(",")
    assert header[:2] == ["u1", "u2"]
    assert "h" in header and "norm_b2" in header and "defect" in header
    assert "normal_general" in header
    assert len(csv_text.splitlines()) == 1 + doc["summary"]["points"]


def test_main_sweep_and_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "report.json"
    code = main(["sweep", "--config", path, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["checks"]["harmonicity"]["pass"]


def test_main_report_single_point(tmp_path):
    path = write_config(tmp_path, dict(BASE_CONFIG, point=[0.25, 0.1]))
    out = tmp_path / "report.json"
    code = main(["sweep", "--config", path, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["points"] == 1
    assert [row["point"] for row in doc["rows"]] == [[0.25, 0.1]] * 2


ECHO_RUNS = {  # name -> (verb and example name, job document)
    "sweep": (["sweep"], BASE_CONFIG),
    "sweep_with_point": (["sweep"], dict(BASE_CONFIG, point=[0.25, 0.1])),
    "sweep_oracle_gap": (["sweep"], dict(BASE_CONFIG, checks=["harmonicity", "oracle_gap"])),
    "examples": (["examples", "nil_cylinder_circle"], None),
}


@pytest.mark.parametrize("name", ECHO_RUNS)
def test_config_echo_reruns_to_the_reports_rows(tmp_path, name):
    """A report's config_echo is its job: run again, it gives the whole report,
    rows, summary and every verdict, oracle_gap's included."""
    argv, doc = ECHO_RUNS[name]
    if doc is not None:
        argv = [*argv, "--config", write_config(tmp_path, doc)]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert run(load_config(report["config_echo"])) == report


@pytest.mark.parametrize("verb", ["report", "compare"])
def test_report_and_compare_are_not_verbs(tmp_path, capsys, verb):
    """A job's point and its oracle_gap check are in its document, and sweep runs it."""
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", write_config(tmp_path, BASE_CONFIG)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid choice: '{verb}'" in captured.err


@pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--seed", "5"], ["--point", "0.25,0.1"]])
@pytest.mark.parametrize("verb", ["validate", "sweep", "examples"])
def test_no_verb_takes_a_job_setting_as_a_flag(tmp_path, capsys, verb, flag):
    """Every job setting comes from the document: a flag for one is an argparse error."""
    argv = [verb, "nil_cylinder_circle"]
    if verb != "examples":
        argv = [verb, "--config", write_config(tmp_path, BASE_CONFIG)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


def test_main_csv_output(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", path, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("u1,u2,h,norm_b2,defect")
    assert len(lines) == 10  # header + 3x3 grid


def test_main_sweep_lists_the_oracle_gap_check(tmp_path):
    path = write_config(tmp_path, dict(BASE_CONFIG, checks=["oracle_gap"]))
    out = tmp_path / "report.json"
    code = main(["sweep", "--config", path, "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["checks"]["oracle_gap"]["pass"]
    assert summary["checks"]["oracle_gap"]["max_oracle_gap"] == summary["max_oracle_gap"]


def test_verdict_lines_follow_the_check_table_order(tmp_path, capsys):
    """Verdicts come in the check table's order, whatever the job's order, and
    oracle_gap comes last; JSON sorts its keys, so only stderr shows it."""
    doc = EXAMPLE_JOBS["nil_cylinder_circle"][1]
    checks = ["oracle_gap", *doc["checks"][::-1]]
    path = write_config(tmp_path, dict(doc, checks=checks))
    out = tmp_path / "report.json"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"check {name}: PASS" for name in ("harmonicity", "prop3", "corollary1", "jacobi", "oracle_gap")
    ]
    assert json.loads(out.read_text())["config_echo"]["checks"] == checks


@pytest.mark.parametrize("methods", [["general"], ["numeric_oracle"]], ids=["general_only", "numeric_oracle_only"])
def test_oracle_gap_needs_numeric_oracle_and_a_closed_form_method(tmp_path, capsys, methods):
    path = write_config(tmp_path, dict(BASE_CONFIG, methods=methods, checks=["oracle_gap"]))
    assert main(["sweep", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: check 'oracle_gap' requires numeric_oracle and a closed-form method"
    ]


def test_main_validate_verb(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    assert main(["validate", "--config", path]) == 0


def test_validate_writes_its_document_to_out(tmp_path, capsys):
    path, out = write_config(tmp_path, BASE_CONFIG), tmp_path / "valid.json"
    assert main(["validate", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == {"valid": True, "violations": []}


def test_validate_takes_no_format_flag(tmp_path, capsys):
    path, out = write_config(tmp_path, BASE_CONFIG), tmp_path / "valid.csv"
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", path, "--out", str(out), "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not out.exists()


def test_validate_writes_nothing_on_a_config_error(tmp_path, capsys):
    """The algebra holds its axioms but the job does not load: exit 2, no document."""
    path = write_config(tmp_path, dict(BASE_CONFIG, methods=["general", "numeric_oracle", "numeric_oracle"]))
    assert main(["validate", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: method 'numeric_oracle' is listed more than once"]


def test_main_validate_reports_violations(tmp_path, capsys):
    doc = dict(BASE_CONFIG)
    doc["algebra"] = {"dim_total": 3, "dim_center": 1, "brackets": []}
    path = write_config(tmp_path, doc)
    assert main(["validate", "--config", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["valid"]
    assert any(v["name"] == "non-abelian" for v in out["violations"])


def test_bracket_into_v_is_a_violation_for_validate_and_a_config_error_for_sweep(tmp_path, capsys):
    """The axioms are checked before the exp model is built from the algebra."""
    doc = dict(BASE_CONFIG, model="exp", chart={"catalog": "graph", "params": {"expr": "0"}},
               algebra=dict(H1_INLINE, brackets=[{"i": 1, "j": 2, "k": 1, "c": 1.0}]))
    path = write_config(tmp_path, doc)
    assert main(["validate", "--config", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["valid"]
    assert any(v["name"] == "bracket lands in center" for v in out["violations"])
    assert main(["sweep", "--config", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("config error: ") for line in lines), lines
    assert "config error: algebra axioms violated: bracket lands in center" in lines[0]


def test_main_config_error_exit_2(tmp_path):
    doc = dict(BASE_CONFIG)
    doc["methods"] = []
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path]) == 2


@pytest.mark.parametrize("change, problem", [
    ({"methods": ["general", "numeric_oracle", "numeric_oracle"]}, "method 'numeric_oracle' is listed more than once"),
    ({"checks": ["harmonicity", "jacobi", "harmonicity"]}, "check 'harmonicity' is listed more than once"),
])
def test_repeated_method_or_check_exits_2_and_writes_no_report(tmp_path, capsys, change, problem):
    path = write_config(tmp_path, dict(BASE_CONFIG, **change))
    out = tmp_path / "report.json"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {problem}"]
    assert not out.exists()


def test_step_too_large_and_point_length_are_both_reported(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE_CONFIG, fd={"step": 0.5}, point=[0.0, 0.0, 0.0]))
    assert main(["sweep", "--config", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: fd step 0.5 too large: 8*step must be below every domain width",
        "config error: point needs 2 coordinates",
    ]


def test_main_bad_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path)]) == 2


def test_config_nested_too_deeply_to_parse_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: RecursionError: ")


def test_main_check_failure_exit_1(tmp_path):
    doc = {
        "algebra": {"builtin": "heisenberg", "m": 1},
        "model": "nil_polarized",
        "chart": {"catalog": "nil_foliation_leaf"},
        "domain": [[0.4, 1.2], [-0.4, 0.4]],
        "grid": [3, 2],
        "methods": ["general"],
        "checks": ["harmonicity"],  # the leaf is not harmonic
    }
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path]) == 1


def test_main_examples_listing(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in EXAMPLE_JOBS:
        assert name in out


def test_main_examples_run(tmp_path):
    out = tmp_path / "ex.json"
    assert main(["examples", "nil_foliation_example", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows = [
        r
        for r in doc["rows"]
        if abs(r["point"][0]) < 1e-12 and abs(r["point"][1]) < 1e-12
    ]
    by_method = {r["method"]: r for r in rows}
    np.testing.assert_allclose(by_method["general"]["coeffs"], [0, 0, -1], atol=1e-10)
    np.testing.assert_allclose(
        by_method["numeric_oracle"]["coeffs"], [0, 0, -1], atol=5e-4
    )


def test_main_examples_unknown(capsys):
    assert main(["examples", "nope"]) == 2


def test_random_graph_chart_config(tmp_path):
    doc = {
        "algebra": {"builtin": "heisenberg", "m": 1},
        "model": "exp",
        "chart": {"catalog": "random_graph", "params": {"index": 2}},
        "grid": [3, 3],
        "methods": ["general", "numeric_oracle"],
        "checks": ["oracle_gap"],
        "seed": 5,
    }
    path = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sweep", "--config", path, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize(
    "change",
    [
        {"domain": [[-1.0, 1.0]]},  # one range for a two-parameter chart
        {"model": "exp", "chart": {"catalog": "nil_cylinder",
                                   "params": {"f1": "cos(u1)", "f2": "sin(u1)"}}},
    ],
    ids=["domain_ranges", "nil_chart_off_model"],
)
def test_chart_catalog_rejects_mis_built_charts(tmp_path, change):
    doc = dict(BASE_CONFIG, **change)
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path]) == 2


@pytest.mark.parametrize(
    "change",
    [
        {"fd": {"levels": 0}},
        {"fd": {"levels": 1.5}},
        {"fd": {"step": -1e-4}},
        {"fd": {"step": 0.0}},
        {"fd": {"step": float("inf")}},
        {"fd": {"step": 10.0}},  # 8*step exceeds the domain width 2
        {"point": [0.0]},
        {"point": [0.0, 0.0, 0.0]},
        {"point": [1.5, 0.0]},  # outside the domain
        {"point": [0.9999, 0.0]},  # inside, but within 4*step of the edge
        {"point": ["a", 0.0]},
        {"point": ["0.5", 0.0]},
        {"point": [0.5, False]},
    ],
)
def test_bad_fd_and_point_exit_2(tmp_path, change):
    doc = dict(BASE_CONFIG, **change)
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path]) == 2


@pytest.mark.parametrize(
    "change",
    [
        {"orientation": "x"},
        {"orientation": [1]},
        {"orientation": 1.5},
        {"grid": ["a", 2]},
        {"grid": 3},
        {"grid": [2.7, 3]},
        {"tolerances": "abc"},
        {"tolerances": [1]},
        {"tolerances": {"harmonicity_typo": 1e-3}},
        {"tolerances": {"jacobi": "abc"}},
        {"tolerances": {"jacobi": 0.0}},
        {"tolerances": {"jacobi": float("inf")}},
        {"checks": ["jacobi"], "jacobi_direction": [0, 0, 0]},
        {"checks": ["jacobi"], "jacobi_direction": [1, 0]},
        {"checks": ["jacobi"], "jacobi_direction": ["a", 0, 0]},
        {"checks": ["jacobi"], "jacobi_direction": 5},
        {"checks": ["jacobi"], "jacobi_direction": [1e200, 1e200, 0]},  # the squared length overflows
        {"checks": ["jacobi"], "jacobi_direction": [1e-170, 0, 0]},  # the squared length underflows
        {"chart": "nil_vertical_plane"},
        {"chart": [1]},
        {"checks": 5},
        {"checks": {"harmonicity": True}},
        {"seed": "a"},
        {"seed": 1.5},
    ],
)
def test_bad_field_types_exit_2(tmp_path, change):
    doc = dict(BASE_CONFIG, **change)
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path]) == 2


def test_large_jacobi_direction_gives_the_verdict_of_its_unit_direction():
    """A direction whose squared length is a normal float is normalised as it is:
    [1e150, 0, 1e150] gives the verdict and residuals of [1, 0, 1]."""
    cylinder = dict(BASE_CONFIG, chart={"catalog": "nil_cylinder", "params": {"f1": "cos(u1)", "f2": "sin(u1)"}},
                    domain=[[-1.0, 1.0], [-1.0, 1.0]], methods=["general"], checks=["jacobi"])
    big, unit = (run(load_config(dict(cylinder, jacobi_direction=v)))["summary"]["checks"]["jacobi"]
                 for v in ([1e150, 0, 1e150], [1, 0, 1]))
    assert big["pass"] is unit["pass"] is True
    for key in ("max_residual", "min_w"):
        assert abs(big[key] - unit[key]) <= 1e-15


def test_jacobi_job_without_the_oracle_evaluates_none(monkeypatch):
    """A jacobi job without numeric_oracle among its methods makes no oracle call and
    writes no numeric_oracle row: jacobi reads the closed form, and run hands
    evaluate_points the methods and checks the document lists."""
    evaluate, calls = cli.evaluate_points, []

    def listed(chart, points, methods, fd, checks):
        calls.append((methods, checks))
        return evaluate(chart, points, methods, fd, checks=checks)

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle was evaluated")

    monkeypatch.setattr(cli, "evaluate_points", listed)
    monkeypatch.setattr(laplacian, "oracle_laplacians", no_oracle)
    doc = dict(BASE_CONFIG, chart={"catalog": "nil_cylinder", "params": {"f1": "cos(u1)", "f2": "sin(u1)"}},
               methods=["general", "heisenberg"], checks=["jacobi"])
    report = run(load_config(doc))
    assert calls == [(["general", "heisenberg"], ["jacobi"])]
    assert {row["method"] for row in report["rows"]} == {"general", "heisenberg"}
    assert report["config_echo"] == doc
    assert report["summary"]["max_oracle_gap"] is None
    assert report["summary"]["checks"]["jacobi"]["pass"] is True


def test_jacobi_job_listing_the_oracle_computes_it_once(monkeypatch):
    """A jacobi job that lists numeric_oracle evaluates it once, for its rows alone."""
    oracle, calls = laplacian.oracle_laplacians, []

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(laplacian, "oracle_laplacians", counted)
    doc = dict(BASE_CONFIG, chart={"catalog": "nil_cylinder", "params": {"f1": "cos(u1)", "f2": "sin(u1)"}},
               methods=["general", "numeric_oracle"], checks=["jacobi"])
    report = run(load_config(doc))
    assert calls == ["evaluate_points"]
    assert {row["method"] for row in report["rows"]} == {"general", "numeric_oracle"}


CYLINDER_CIRCLE = EXAMPLE_JOBS["nil_cylinder_circle"][1]


@pytest.mark.parametrize(
    "doc, min_w",
    [
        # v orthogonal to the plane's constant Gauss map: the residual is 0.0, and so is w
        (dict(EXAMPLE_JOBS["nil_vertical_plane"][1], jacobi_direction=[0.0, 0.0, 1.0]), 0.0),
        # the arc turns past a quarter circle each way, so its normals leave every open hemisphere
        (dict(CYLINDER_CIRCLE, domain=[[-2.5, 2.5], [-1.0, 1.0]], grid=[7, 3], methods=["general"],
              checks=["harmonicity", "jacobi"]), -0.80),
    ],
    ids=["w_zero", "w_changes_sign"],
)
def test_jacobi_fails_where_w_is_not_positive(tmp_path, capsys, doc, min_w):
    """A Jacobi field w = <G, v> certifies stability only where it is positive: with a
    residual below its tolerance, a w that vanishes or changes sign fails the check."""
    out = tmp_path / "report.json"
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "check jacobi: FAIL" in capsys.readouterr().err.splitlines()
    jacobi = json.loads(out.read_text())["summary"]["checks"]["jacobi"]
    assert jacobi["pass"] is False
    assert jacobi["max_residual"] < 1e-14
    assert jacobi["min_w"] == pytest.approx(min_w, abs=0.01)


def test_jacobi_residual_is_rounding_on_every_reference_job():
    """jacobi reads the closed form's Delta G, in which the Jacobi equation holds
    exactly: its residual is rounding on every reference job, and its w is positive."""
    results = [run(load_config(doc))["summary"]["checks"]["jacobi"]
               for _, doc in REFERENCE_JOBS if "jacobi" in doc.get("checks", [])]
    assert len(results) == 23
    assert max(result["max_residual"] for result in results) <= 1e-14
    assert all(result["pass"] and result["min_w"] > 0.0 for result in results)


def test_fd_levels_do_not_move_jacobi(tmp_path, capsys):
    """At 16 Richardson levels the oracle's rows are rounding noise, but jacobi reads
    none of them: nil_cylinder_circle exits 0 and its residual is rounding."""
    out = tmp_path / "report.json"
    path = write_config(tmp_path, dict(CYLINDER_CIRCLE, fd={"levels": 16}))
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert "check jacobi: PASS" in capsys.readouterr().err.splitlines()
    jacobi = json.loads(out.read_text())["summary"]["checks"]["jacobi"]
    assert jacobi["pass"] is True and jacobi["max_residual"] <= 1e-14


H1_INLINE = {"dim_total": 3, "dim_center": 1, "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1.0}]}
LEAF_CONFIG = dict(
    BASE_CONFIG,
    chart={"catalog": "nil_foliation_leaf", "params": {"z0": 0.5}},
    domain=[[-2.0, 2.0], [-0.5, 0.5]],
)
RANDOM_GRAPH_CONFIG = dict(
    BASE_CONFIG, model="exp", chart={"catalog": "random_graph", "params": {"terms": 3}}
)


@pytest.mark.parametrize(
    "doc, problem",
    [
        (dict(BASE_CONFIG, fd={"step": "0.001"}), "fd step must be a finite number > 0"),
        (dict(BASE_CONFIG, fd={"step": True}), "fd step must be a finite number > 0"),
        (dict(BASE_CONFIG, domain=[["-1", 1], [-0.5, 0.5]]), "domain must be a list of [lo, hi] pairs"),
        (dict(BASE_CONFIG, domain=[[-math.inf, 1], [-0.5, 0.5]]), "domain must be a list of [lo, hi] pairs"),
        (dict(BASE_CONFIG, domain=[[-1, 1], [False, 0.5]]), "domain must be a list of [lo, hi] pairs"),
        (dict(BASE_CONFIG, domain=[[-1, 1, 2], [-0.5, 0.5]]), "domain must be a list of [lo, hi] pairs"),
        (dict(LEAF_CONFIG, chart={"catalog": "nil_foliation_leaf", "params": {"z0": "0.5"}}),
         "chart param 'z0' must be a finite number"),
        (dict(LEAF_CONFIG, chart={"catalog": "nil_foliation_leaf", "params": {"z0": True}}),
         "chart param 'z0' must be a finite number"),
        (dict(RANDOM_GRAPH_CONFIG, chart={"catalog": "random_graph", "params": {"terms": "3"}}),
         "chart param 'terms' must be an integer"),
        (dict(RANDOM_GRAPH_CONFIG, chart={"catalog": "random_graph", "params": {"terms": 3.7}}),
         "chart param 'terms' must be an integer"),
        (dict(RANDOM_GRAPH_CONFIG, chart={"catalog": "random_graph", "params": {"index": "1"}}),
         "chart param 'index' must be an integer"),
        (dict(BASE_CONFIG, domain=[[-(10**400), 1], [-0.5, 0.5]]), "domain must be a list of [lo, hi] pairs"),
        (dict(BASE_CONFIG, fd={"step": 10**400}), "fd step must be a finite number > 0"),
        (dict(BASE_CONFIG, tolerances={"jacobi": 10**400}), "tolerance 'jacobi' must be a finite number > 0"),
        (dict(BASE_CONFIG, point=[10**400, 0.0]), "point must be a list of finite numbers"),
        (dict(BASE_CONFIG, algebra=dict(H1_INLINE, brackets=[{"i": 1, "j": 2, "k": 3, "c": 10**400}])),
         "bracket c must be a finite number"),
    ],
)
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, doc, problem):
    """Strings, booleans and infinities are not read as numbers: each bad value
    exits 2 with one config error line."""
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {problem}"), lines


@pytest.mark.parametrize(
    "argv",
    [["sweep"], ["validate"]],
)
def test_top_level_array_exits_2(tmp_path, argv):
    path = write_config(tmp_path, [BASE_CONFIG])
    assert main(argv + ["--config", path]) == 2


def test_cmc_is_an_unknown_tolerance(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE_CONFIG, tolerances={"cmc": 1e-6}))
    assert main(["sweep", "--config", path]) == 2
    assert "unknown tolerance 'cmc'" in capsys.readouterr().err


def test_margin_problems_are_worded_from_grid_margin_steps(monkeypatch):
    """Both margin problems spell GRID_MARGIN_STEPS: 8*step and 4*step at 4, and patching
    the constant changes both messages."""
    def problems(**change):
        with pytest.raises(ConfigError) as err:
            load_config(dict(BASE_CONFIG, **change))
        return err.value.problems

    assert problems(fd={"step": 0.5}) == ["fd step 0.5 too large: 8*step must be below every domain width"]
    assert problems(point=[0.9999, 0.0]) == ["point must lie at least 4*step = 0.0004 inside the domain"]
    monkeypatch.setattr(cli, "GRID_MARGIN_STEPS", 3.0)
    assert problems(fd={"step": 0.5}) == ["fd step 0.5 too large: 6*step must be below every domain width"]
    margin = 3.0 * 1e-4
    assert problems(point=[0.9999, 0.0]) == [f"point must lie at least 3*step = {margin} inside the domain"]


def test_point_near_the_fd_margin_is_accepted():
    config = load_config(dict(BASE_CONFIG, point=[0.9995, -0.9995]))
    assert config.point == [0.9995, -0.9995]


@pytest.mark.parametrize(
    "components, error",
    [
        (["u1", "u2", "sqrt(u1)"], "ValueError"),
        (["u1*u1", "u2", "0"], "ImmersionError"),
        (["u1", "u2", "exp(1000*u1)"], "OverflowError"),
        (["u1", "u2", "1/u1"], "ZeroDivisionError"),
    ],
)
def test_chart_failing_on_its_grid_exits_2(tmp_path, capsys, components, error):
    path = write_config(tmp_path, dict(BASE_CONFIG, chart={"components": components}))
    assert main(["sweep", "--config", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}: ")


OVERFLOW_GRAPH = {"components": ["u1", "u2", "1e200*u1*u1"]}


@pytest.mark.parametrize(
    "doc",
    [
        dict(BASE_CONFIG, model="exp", chart=OVERFLOW_GRAPH, grid=[2, 2], methods=["general"]),
        dict(BASE_CONFIG, model="exp", chart=OVERFLOW_GRAPH, grid=[2, 2], methods=["general"], checks=[]),
        dict(BASE_CONFIG, chart={"catalog": "graph", "params": {"expr": "1e160*u1^2"}}, grid=[2, 2],
             methods=["general", "heisenberg", "numeric_oracle"], checks=["jacobi"]),
    ],
    ids=["harmonicity", "no_checks", "jacobi"],
)
def test_chart_whose_jets_overflow_exits_2(tmp_path, capsys, doc):
    """A point whose evaluation is not finite fails the job before a word is written:
    a report never carries NaN or Infinity."""
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path]) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == ""
    assert len(lines) == 1 and lines[0].startswith("error: FloatingPointError: non-finite evaluation at u=[")


def test_boundary_error_during_run_exits_2(tmp_path, capsys, monkeypatch):
    def stencil_outside(*args, **kwargs):
        raise BoundaryError("point [0.9999, 0.0] too close to the domain boundary")

    monkeypatch.setattr(cli, "evaluate_points", stencil_outside)
    assert main(["sweep", "--config", write_config(tmp_path, BASE_CONFIG)]) == 2
    assert capsys.readouterr().err.startswith("error: BoundaryError: point [0.9999, 0.0]")


def test_immersion_error_names_the_first_bad_grid_point():
    config = load_config(dict(BASE_CONFIG, chart={"components": ["u1*u1", "u2", "0"]}))
    with pytest.raises(ImmersionError, match=r"u=\[0\.0, -0\.9996\]"):
        run(config)


@st.composite
def grid_requests(draw):
    """A domain, an FD step and a grid of 2 to 15 axes with at most MAX_GRID_POINTS points."""
    grid, budget = [], cli.MAX_GRID_POINTS
    for _ in range(draw(st.integers(2, 15))):
        grid.append(draw(st.integers(1, min(budget, 200))))
        budget //= grid[-1]
    lows = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(grid), max_size=len(grid)))
    widths = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(grid), max_size=len(grid)))
    chart = SimpleNamespace(domain=tuple((lo, lo + width) for lo, width in zip(lows, widths)))
    return chart, grid, fd.FDParams(step=draw(st.floats(1e-8, 1e-1)))


@settings(max_examples=60, deadline=None)
@given(grid_requests())
def test_grid_points_are_the_meshgrid_points_bit_for_bit(request):
    chart, grid, fdp = request
    points = cli.grid_points(chart, grid, fdp)
    expected = meshgrid_points(chart, grid, fdp)
    assert points.shape == expected.shape == (math.prod(grid), len(grid))
    assert points.tobytes() == expected.tobytes()


def test_job_path_calls_no_einsum_or_meshgrid(monkeypatch):
    """Every reference job and two gauss_codazzi jobs beyond 3 dimensions, run once to
    fill the algebras' cached tensors (which einsum may build), run again with
    np.einsum and np.meshgrid raising, and write the same report bytes."""
    gauss_codazzi = {"model": "exp", "chart": {"catalog": "random_graph", "params": {"terms": 4}},
                     "grid": [2] * 4, "methods": ["general"], "checks": ["gauss_codazzi"], "seed": 3}
    jobs = [doc for _, doc in REFERENCE_JOBS]
    jobs += [
        dict(gauss_codazzi, algebra={"builtin": "heisenberg", "m": 2}),
        dict(gauss_codazzi, algebra=next(doc["algebra"] for doc in jobs if doc["algebra"].get("dim_total") == 7),
             grid=[2] * 6),
    ]
    configs = [load_config(doc) for doc in jobs]
    first = [document_to_json(run(config)) for config in configs]

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the job path")

    monkeypatch.setattr(np, "einsum", forbidden)
    monkeypatch.setattr(np, "meshgrid", forbidden)
    assert [document_to_json(run(config)) for config in configs] == first


def test_chunked_field_calls_give_the_same_report_bytes(monkeypatch):
    config = load_config(EXAMPLE_JOBS["nil_cylinder_circle"][1])
    whole = document_to_json(run(config))
    monkeypatch.setattr("nilgauss.fd.FIELD_ROWS", 5)
    assert document_to_json(run(config)) == whole


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ["sweep", "--config", d],
        lambda d: ["examples", "nil_vertical_plane", "--out", d],
    ],
    ids=["config", "out"],
)
def test_os_error_exits_2(tmp_path, capsys, argv):
    assert main(argv(str(tmp_path))) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: IsADirectoryError: ")


@pytest.mark.parametrize(
    "height",
    ["(" * 200 + "u1" + ")" * 200, "+".join(["u1"] * 5000)],
    ids=["nested", "long_sum"],
)
def test_too_deep_expression_is_a_chart_error(tmp_path, capsys, height):
    chart = {"components": ["u1", "u2", height]}
    assert main(["sweep", "--config", write_config(tmp_path, dict(BASE_CONFIG, chart=chart))]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: bad chart specification: ")
    assert "deeper than" in lines[0]


@pytest.mark.parametrize("verb", ["validate", "sweep"])
@pytest.mark.parametrize(
    "algebra, problem",
    [
        ({"builtin": "heisenberg", "m": 50000}, "algebra dimension 100001 exceeds the limit"),
        (
            {"dim_total": 100000, "dim_center": 1, "brackets": []},
            "algebra dimension 100000 exceeds",
        ),
        ({"builtin": "heisenberg", "m": 2.5}, "algebra m must be an integer"),
        ({"builtin": "heisenberg", "m": "2"}, "algebra m must be an integer"),
        ({"dim_total": 3.7, "dim_center": 1, "brackets": []}, "algebra dim_total must be an int"),
    ],
)
def test_oversized_or_non_integer_algebra_sizes_exit_2(
    tmp_path, capsys, monkeypatch, verb, algebra, problem
):
    """Rejected from the document alone: no algebra is built, so nothing is allocated."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(cli, "heisenberg", forbidden)
    monkeypatch.setattr(cli, "algebra_from_json", forbidden)
    path = write_config(tmp_path, dict(BASE_CONFIG, algebra=algebra))
    assert main([verb, "--config", path]) == 2
    assert f"config error: {problem}" in capsys.readouterr().err


def test_gauss_codazzi_is_one_call_per_job(monkeypatch):
    """One checker call per job, which evaluates no chart and takes no FD stencil: on
    the 27-point foliation example the job's chart evaluations are the 2 x 27
    complex-step rows of the 27 centres, which the checker reads, and the oracle's
    one stencil field call of 27 x 13 rows, after it."""
    events = []
    checker, values, stencils = laplacian.gauss_codazzi_residuals, surfaces.expression_jets, fd._stencil_values

    def gc(*args, **kwargs):
        events.append("gauss_codazzi")
        return checker(*args, **kwargs)

    def jets(exprs, points, order=2):
        events.append(("jets", len(points), np.iscomplexobj(points)))
        return values(exprs, points, order)

    def stencil_values(*args):
        events.append("fd")
        yield from stencils(*args)

    monkeypatch.setattr(laplacian, "gauss_codazzi_residuals", gc)
    monkeypatch.setattr(surfaces, "expression_jets", jets)
    monkeypatch.setattr(fd, "_stencil_values", stencil_values)
    doc = run(load_config(EXAMPLE_JOBS["nil_foliation_example"][1]))
    assert doc["summary"]["points"] == 27 and doc["summary"]["checks"]["gauss_codazzi"]["pass"] is True
    assert events == [("jets", 54, True), "gauss_codazzi", "fd", ("jets", 27 * 13, False)]


def test_gauss_codazzi_on_a_cylinder_passes(tmp_path, capsys):
    """A cylinder's normal has no central part, and gauss_codazzi, which reads no
    adapted frame, evaluates every point all the same: it passes and the job exits 0."""
    cylinder = {"catalog": "nil_cylinder", "params": {"f1": "cos(u1)", "f2": "sin(u1)"}}
    path = write_config(tmp_path, dict(BASE_CONFIG, chart=cylinder, checks=["harmonicity", "gauss_codazzi"]))
    assert main(["sweep", "--config", path]) == 0
    captured = capsys.readouterr()
    checks = json.loads(captured.out)["summary"]["checks"]
    assert checks["harmonicity"]["pass"] is True
    assert checks["gauss_codazzi"]["pass"] is True and checks["gauss_codazzi"]["max_residual"] < 1e-13
    assert captured.err.splitlines() == ["check harmonicity: PASS", "check gauss_codazzi: PASS"]


def test_corollary1_without_a_central_slot_has_no_verdict(tmp_path, capsys):
    """On H(1) a graph's normal has a central part, so no tangent frame vector is
    central: a harmonic chart's corollary1 reads no slot, its verdict is null, and
    the job exits 1."""
    doc = {"algebra": {"builtin": "heisenberg", "m": 1}, "model": "exp",
           "chart": {"catalog": "graph", "params": {"expr": "0.0*u1"}}, "domain": [[-1, 1], [-1, 1]],
           "grid": [3, 3], "methods": ["general"], "checks": ["harmonicity", "corollary1"]}
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    checks = json.loads(captured.out)["summary"]["checks"]
    assert checks["harmonicity"]["pass"] is True
    assert checks["corollary1"] == {"pass": None, "skipped": False, "max_variation": 0.0, "points_evaluated": 0,
                                    "tol": 5e-4}
    assert captured.err.splitlines() == ["check harmonicity: PASS",
                                         "check corollary1: NO VERDICT (no point evaluated)"]


def test_h_and_norm_b2_repeat_on_every_method_row():
    """h and |B|^2 come from the chart's exact second fundamental form, the
    numeric_oracle row included."""
    doc = run(load_config(EXAMPLE_JOBS["nil_foliation_example"][1]))
    by_point = {}
    for row in doc["rows"]:
        by_point.setdefault(tuple(row["point"]), []).append(row)
    assert len(by_point) == 27
    for rows in by_point.values():
        assert {row["method"] for row in rows} == {"general", "heisenberg", "numeric_oracle"}
        assert len({(row["h"], row["norm_b2"]) for row in rows}) == 1


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "nilgauss", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


@pytest.mark.parametrize("name", EXAMPLE_JOBS)
def test_module_runs_example_with_exit_0(name):
    out = run_module("examples", name)
    assert out.returncode == 0, out.stderr
    checks = json.loads(out.stdout)["summary"]["checks"]
    assert checks and all(res["pass"] for res in checks.values())


def test_module_config_error_exits_2_without_traceback(tmp_path):
    path = write_config(tmp_path, dict(BASE_CONFIG, tolerances={"cmc": 1e-6}))
    out = run_module("sweep", "--config", path)
    assert out.returncode == 2
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), out.stderr
    assert "Traceback" not in out.stderr


def test_grid_over_the_point_bound_exits_2_before_any_allocation(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("grid points were allocated")

    monkeypatch.setattr(cli, "grid_points", forbidden)
    path = write_config(tmp_path, dict(BASE_CONFIG, grid=[100000, 100000]))
    assert main(["sweep", "--config", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    problem = f"grid has 10000000000 points, above the limit of {cli.MAX_GRID_POINTS}"
    assert lines == [f"config error: {problem}"]


@pytest.mark.parametrize("levels", [cli.MAX_FD_LEVELS + 1, 1000000])
def test_fd_levels_over_their_bound_exit_2_before_any_evaluation(tmp_path, capsys, monkeypatch, levels):
    def forbidden(*args, **kwargs):
        raise AssertionError("the job was evaluated")

    monkeypatch.setattr(cli, "evaluate_points", forbidden)
    path = write_config(tmp_path, dict(BASE_CONFIG, fd={"levels": levels}))
    assert main(["sweep", "--config", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"config error: fd levels must be an integer from 1 to {cli.MAX_FD_LEVELS}"]


def test_fd_levels_bound_keeps_one_stencil_within_one_field_call():
    """At the largest algebra, one centre's oracle stencil of 1 + levels * n (n + 1)
    rows fits one field call of at most FIELD_ROWS rows at the bound, and one more
    level would not."""
    n = cli.MAX_DIM_TOTAL - 1
    for levels in (1, 2):  # the stencil's size at this n, from fd's own table
        assert len(fd._hessian_table(n, fd.FDParams(levels=levels))[0]) == 1 + levels * n * (n + 1)
    calls = []
    field = lambda pts: calls.append(len(pts)) or np.zeros(len(pts))
    for levels in (cli.MAX_FD_LEVELS, cli.MAX_FD_LEVELS + 1):
        size = 1 + levels * n * (n + 1)
        for _ in fd._stencil_values(field, np.zeros((1, n)), np.zeros((size, n))):
            pass
    assert len(calls) == 2 and calls[0] <= FIELD_ROWS < calls[1]
    assert 1 + cli.MAX_FD_LEVELS * n * (n + 1) <= FIELD_ROWS < 1 + (cli.MAX_FD_LEVELS + 1) * n * (n + 1)
    assert load_config(dict(BASE_CONFIG, fd={"levels": cli.MAX_FD_LEVELS})).fd.levels == cli.MAX_FD_LEVELS


def test_grid_at_the_point_bound_is_accepted():
    side = math.isqrt(cli.MAX_GRID_POINTS)
    assert side * side == cli.MAX_GRID_POINTS
    assert load_config(dict(BASE_CONFIG, grid=[side, side])).grid == [side, side]
    with pytest.raises(ConfigError, match="above the limit"):
        load_config(dict(BASE_CONFIG, grid=[side, side + 1]))


# H(5), n = 10: the default grid of 3 per axis has 59049 points
DEFAULT_GRID_JOB = {"algebra": {"builtin": "heisenberg", "m": 5}, "chart": {"catalog": "random_graph"},
                    "methods": ["general"]}


@pytest.mark.parametrize("verb", ["sweep", "validate"])
def test_a_defaulted_grid_over_the_point_bound_exits_2_before_any_evaluation(tmp_path, capsys, monkeypatch, verb):
    def forbidden(*args, **kwargs):
        raise AssertionError("the job was evaluated")

    monkeypatch.setattr(cli, "evaluate_points", forbidden)
    assert main([verb, "--config", write_config(tmp_path, DEFAULT_GRID_JOB)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"config error: grid has {3**10} points, above the limit of {cli.MAX_GRID_POINTS}"]


def test_a_defaulted_grid_counts_only_where_it_is_swept(tmp_path, capsys):
    """With a point the job evaluates that point alone, so sweep runs it and validate
    accepts it; without one it sweeps its defaulted grid, and both exit 2."""
    path = write_config(tmp_path, dict(DEFAULT_GRID_JOB, point=[0.0] * 10))
    assert main(["sweep", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["points"] == 1
    assert main(["validate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "violations": []}
    path = write_config(tmp_path, DEFAULT_GRID_JOB)
    for verb in ("sweep", "validate"):
        assert main([verb, "--config", path]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"config error: grid has 59049 points, above the limit of {cli.MAX_GRID_POINTS}"]


def test_one_algebra_per_job_decides_its_h_type_once(monkeypatch):
    """A job's algebra is its chart model's: a nil_polarized model brings its own Heisenberg
    algebra, which the job's checks against NEEDS and its evaluation then share."""
    calls = []
    original = algebra.is_heisenberg_type
    monkeypatch.setattr(algebra, "is_heisenberg_type", lambda alg: calls.append(alg) or original(alg))
    docs = [doc for name, doc in REFERENCE_JOBS if name.startswith("nil_dense-seed0-")]
    assert docs
    for doc in docs:
        calls.clear()
        config = load_config(doc)
        run(config)
        assert calls == [config.chart.model.algebra]


@pytest.mark.parametrize("doc", [
    BASE_CONFIG,
    {"algebra": {"builtin": "heisenberg", "m": 2}, "chart": {"catalog": "random_graph", "params": {"terms": 4}},
     "point": [0.1, 0.2, -0.1, 0.3], "methods": ["general", "h_type", "heisenberg", "numeric_oracle"]},
], ids=["nil_polarized", "exp"])
def test_a_finished_jobs_algebra_is_freed(doc):
    """Tables built for an algebra live on it, so none keeps it past its job."""
    config = load_config(doc)
    run(config)
    ref = weakref.ref(config.chart.model.algebra)
    del config
    gc.collect()
    assert ref() is None


GRID_JOBS = {
    # every method and check the model allows; the leaf has a central normal at u1 = 0
    "leaf": {**EXAMPLE_JOBS["nil_foliation_example"][1], "grid": [5, 3],
             "methods": ["general", "h_type", "heisenberg", "numeric_oracle"],
             "checks": ["harmonicity", "prop3", "corollary1", "jacobi", "gauss_codazzi"]},
    "h2_graph": {"algebra": {"builtin": "heisenberg", "m": 2}, "chart": {"catalog": "random_graph"},
                 "grid": [2, 2, 2, 2], "methods": ["general", "h_type", "heisenberg", "numeric_oracle"],
                 "checks": ["harmonicity", "prop3", "corollary1", "jacobi"], "seed": 3},
}


@pytest.mark.parametrize("name", GRID_JOBS)
def test_grid_job_rows_equal_their_points_run_one_by_one(name):
    """Each row of a grid job against the same point run as a ``point`` job: closed-form
    coeffs within 1e-12, oracle coeffs byte-identical."""
    doc = GRID_JOBS[name]
    grid = run(load_config(doc))
    methods = doc["methods"]
    assert len(grid["rows"]) == grid["summary"]["points"] * len(methods)
    for k in range(0, len(grid["rows"]), len(methods)):
        rows = grid["rows"][k:k + len(methods)]
        alone = run(load_config({**doc, "point": rows[0]["point"]}))["rows"]
        assert [(row["point"], row["method"]) for row in alone] == [(row["point"], row["method"]) for row in rows]
        for row, one in zip(rows, alone):
            if row["method"] == "numeric_oracle":
                assert json.dumps(row["coeffs"]) == json.dumps(one["coeffs"])
            else:
                np.testing.assert_allclose(row["coeffs"], one["coeffs"], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# report writer: the bytes of json.dumps(doc, sort_keys=True, indent=2) and a newline


def json_bytes(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def assert_written_as_json_writes(doc):
    """document_to_json gives json's bytes, or raises the exception type json raises."""
    try:
        expected = json_bytes(doc)
    except Exception as exc:
        with pytest.raises(type(exc)):
            document_to_json(doc)
    else:
        assert document_to_json(doc) == expected


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-10**60, max_value=10**60)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, -1e16, 5e-324, 1.7976931348623157e308])
    | st.text()
    | st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()))
    | st.sampled_from(["\x00\x1f\x7f\"\\/", "  ", "\U0001F600 nested \ud83d", "é"])
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.floats(), max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=25,
)


@given(JSON_DOCUMENTS)
@settings(max_examples=400, deadline=None)
def test_document_to_json_writes_the_bytes_of_json_dumps(doc):
    assert document_to_json(doc) == json_bytes(doc)


class IntSubclass(int):
    pass


class StrSubclass(str):
    pass


class ListSubclass(list):
    pass


class FloatSubclass(float):
    def __repr__(self):
        return "not json's spelling"


@pytest.mark.parametrize("doc", [
    {"a": np.float64(0.1), "b": [np.float64(1.5), 2.0], "c": [2.0, np.float64(np.nan)], "d": [np.float64(-0.0)]},
    {"a": [[], {}, [[]], {"b": {}}], "c": ()},
    {"a": [1.0, 2], "b": [1.0, True], "c": [1.0, None], "d": [1.0, "x"], "e": [math.inf, 1.0]},
    {"value": np.int64(3)},
    {"rows": [{"x": 1.0}, {"x": np.int64(1)}]},
    {"a": np.array([1.0])},
    {1: "a", 2.5: [1.0]},
    {None: 1, "b": 2},
    {True: 1},
    {"a": 1, 2: 3},
    {(1, 2): 3},
    {"a": {1: 2}},
    [10**5000],
    collections.OrderedDict([("b", 1.0), ("a", [2.0])]),
    {"a": IntSubclass(7), "b": StrSubclass("x"), "c": ListSubclass([1.0])},
    {StrSubclass("k"): 1.0, "a": 2.0},
    {"a": FloatSubclass(0.25), "b": [FloatSubclass(math.nan)]},
])
def test_document_to_json_matches_json_outside_report_types(doc):
    """numpy floats write as floats; numpy ints, non-str keys, huge ints and subclasses
    give json's bytes or json's exception."""
    assert_written_as_json_writes(doc)


def nested(depth):
    doc = 1.0
    for k in range(depth):
        doc = [doc] if k % 2 else {"a": doc}
    return doc


def test_document_to_json_cycles_and_deep_nesting_go_as_json_goes():
    """json raises ValueError on a cycle; it nests deeper than a recursive writer can."""
    doc = {"a": []}
    doc["a"].append(doc)
    assert_written_as_json_writes(doc)
    for depth in (600, 5000):
        assert_written_as_json_writes(nested(depth))


def test_every_reference_report_writes_the_bytes_of_json_dumps():
    for name, doc in REFERENCE_JOBS:
        report = run(load_config(doc))
        assert document_to_json(report) == json_bytes(report), name
