import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nilgauss import ImmersionError, cli, fd, laplacian, surfaces
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
    assert config.algebra.dim_total == 3


def test_invalid_algebra_reported():
    doc = dict(BASE_CONFIG)
    doc["model"] = "exp"
    doc["chart"] = {"catalog": "graph", "params": {"expr": "0"}}
    doc["algebra"] = {"dim_total": 3, "dim_center": 1, "brackets": []}  # abelian
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert any("non-abelian" in p for p in err.value.problems)


def test_checks_gated_by_algebra_shape():
    doc = dict(BASE_CONFIG)
    doc["model"] = "exp"
    doc["algebra"] = {"builtin": "heisenberg", "m": 2}
    doc["chart"] = {"catalog": "graph", "params": {"expr": "0.1*u1*u2"}}
    doc["domain"] = [[-1, 1]] * 4
    doc["grid"] = [2, 2, 2, 2]
    doc["methods"] = ["general"]
    doc["checks"] = ["gauss_codazzi"]  # needs a 3-dimensional model
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert any("3-dimensional" in p for p in err.value.problems)


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
    path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "report.json"
    code = main(["report", "--config", path, "--point", "0.25,0.1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["points"] == 1
    assert doc["rows"][0]["point"] == [0.25, 0.1]


@pytest.mark.parametrize("point", ["a,b", "0.25,"])
def test_main_report_bad_point_exit_2(tmp_path, point):
    path = write_config(tmp_path, BASE_CONFIG)
    assert main(["report", "--config", path, "--point", point]) == 2


def test_main_report_defaults_to_domain_center(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "report.json"
    assert main(["report", "--config", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["point"] == [0.0, 0.0]


def test_main_csv_output(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "report.csv"
    assert main(["sweep", "--config", path, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("u1,u2,h,norm_b2,defect")
    assert len(lines) == 10  # header + 3x3 grid


def test_main_compare_verb(tmp_path):
    doc = dict(BASE_CONFIG)
    doc["methods"] = ["general"]
    doc["checks"] = []
    path = write_config(tmp_path, doc)
    out = tmp_path / "cmp.json"
    code = main(["compare", "--config", path, "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["summary"]["checks"]["oracle_gap"]["pass"]


def test_main_validate_verb(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    assert main(["validate", "--config", path]) == 0


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
        "checks": [],
        "seed": 5,
    }
    path = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compare", "--config", path, "--out", str(out1)]) == 0
    assert main(["compare", "--config", path, "--out", str(out2)]) == 0
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
    [["sweep"], ["validate"], ["compare"], ["sweep", "--tol", "1e-3"]],
)
def test_top_level_array_exits_2(tmp_path, argv):
    path = write_config(tmp_path, [BASE_CONFIG])
    assert main(argv + ["--config", path]) == 2


def test_tol_override_leaves_bad_tolerances_to_the_config_check(tmp_path):
    path = write_config(tmp_path, dict(BASE_CONFIG, tolerances=[1]))
    assert main(["sweep", "--tol", "1e-3", "--config", path]) == 2


def test_cmc_is_an_unknown_tolerance(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE_CONFIG, tolerances={"cmc": 1e-6}))
    assert main(["sweep", "--config", path]) == 2
    assert "unknown tolerance 'cmc'" in capsys.readouterr().err


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
    the 27-point foliation example the job's chart evaluations are the 27 centres,
    their 2 x 27 complex-step rows and the oracle's one stencil field call of
    27 x 13 rows, all before the checker."""
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

    monkeypatch.setattr(cli, "gauss_codazzi_residuals", gc)
    monkeypatch.setattr(surfaces, "expression_jets", jets)
    monkeypatch.setattr(fd, "_stencil_values", stencil_values)
    doc = run(load_config(EXAMPLE_JOBS["nil_foliation_example"][1]))
    assert doc["summary"]["checks"]["gauss_codazzi"]["points_evaluated"] == 24
    assert events == [("jets", 27, False), ("jets", 54, True), "fd", ("jets", 27 * 13, False), "gauss_codazzi"]


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
    rows fits in FIELD_ROWS at the bound, and one more level would not."""
    n = cli.MAX_DIM_TOTAL - 1
    assert 1 + cli.MAX_FD_LEVELS * n * (n + 1) <= FIELD_ROWS < 1 + (cli.MAX_FD_LEVELS + 1) * n * (n + 1)
    assert load_config(dict(BASE_CONFIG, fd={"levels": cli.MAX_FD_LEVELS})).fd.levels == cli.MAX_FD_LEVELS


def test_grid_at_the_point_bound_is_accepted():
    side = math.isqrt(cli.MAX_GRID_POINTS)
    assert side * side == cli.MAX_GRID_POINTS
    assert load_config(dict(BASE_CONFIG, grid=[side, side])).grid == [side, side]
    with pytest.raises(ConfigError, match="above the limit"):
        load_config(dict(BASE_CONFIG, grid=[side, side + 1]))
