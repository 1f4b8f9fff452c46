"""The chart catalog: every chart field of a job takes effect or exits 2.

Most tests run once per entry of ``surfaces.CATALOG``, with params drawn
from the entry's own table, so a new entry is covered without a new test.
"""

import json
import random
import time

import numpy as np
import pytest

from nilgauss import (
    cylinder_chart,
    exp_model,
    foliation_leaf_chart,
    gauss_map,
    graph_chart,
    heisenberg,
    random_graph_chart,
    vertical_plane_chart,
)
from nilgauss.cli import grid_points, load_config, main, run
from nilgauss.expressions import MAX_DEPTH, ParseError, parse_expression
from nilgauss.surfaces import CATALOG, RANDOM_MAX_TERMS, _random_graph_components, catalog_chart
from conftest import free_two_step_5d

# a value of each param kind that gives an immersed chart for every entry
SAMPLE = {"expression": "0.5*u1", "number": 0.25, "integer": 2}
DOMAIN = [[-0.7, 0.6], [-0.4, 0.5]]
REQUIRED = [(name, key) for name, entry in CATALOG.items() for key, p in entry.params.items() if p.required]


def entry_doc(name, **change) -> dict:
    """A valid job on catalog entry ``name``, with a sample value for every param."""
    entry = CATALOG[name]
    doc = {
        "algebra": {"builtin": "heisenberg", "m": 1},
        "model": "nil_polarized" if entry.nil_polarized else "exp",
        "chart": {"catalog": name, "params": {key: SAMPLE[p.kind] for key, p in entry.params.items()}},
        "domain": DOMAIN,
        "grid": [2, 2],
        "methods": ["general"],
        "checks": [],
        "seed": 3,
    }
    doc.update(change)
    return doc


def one_config_error(tmp_path, capsys, doc) -> str:
    """Run ``doc`` through main: it must exit 2 with exactly one config error line."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), lines
    return lines[0]


@pytest.mark.parametrize("name", CATALOG)
def test_explicit_domain_becomes_the_chart_domain(name):
    chart = load_config(entry_doc(name)).chart
    assert chart.domain == tuple(tuple(r) for r in DOMAIN)


@pytest.mark.parametrize("name", CATALOG)
def test_default_domain_or_a_domain_error(tmp_path, capsys, name):
    doc = entry_doc(name)
    del doc["domain"]
    entry = CATALOG[name]
    if entry.domain is None:
        assert "needs a domain" in one_config_error(tmp_path, capsys, doc)
    else:
        default = entry.domain + entry.domain[-1:] * (2 - len(entry.domain))
        assert load_config(doc).chart.domain == default


@pytest.mark.parametrize("name", CATALOG)
def test_orientation_minus_one_flips_every_normal(name):
    plus = load_config(entry_doc(name, orientation=1))
    minus = load_config(entry_doc(name, orientation=-1))
    assert plus.chart.orientation == CATALOG[name].sign
    assert minus.chart.orientation == -CATALOG[name].sign
    points = grid_points(plus.chart, [3, 3], plus.fd)
    np.testing.assert_array_equal(gauss_map(minus.chart, points), -gauss_map(plus.chart, points))


@pytest.mark.parametrize("name", CATALOG)
def test_unknown_param_exits_2(tmp_path, capsys, name):
    doc = entry_doc(name)
    doc["chart"]["params"]["bogus"] = 1
    assert f"chart {name!r} has no param 'bogus'" in one_config_error(tmp_path, capsys, doc)


@pytest.mark.parametrize("name, key", REQUIRED)
def test_missing_required_param_exits_2(tmp_path, capsys, name, key):
    doc = entry_doc(name)
    del doc["chart"]["params"][key]
    assert f"chart {name!r} needs param {key!r}" in one_config_error(tmp_path, capsys, doc)


def test_catalog_and_components_together_exit_2(tmp_path, capsys):
    doc = entry_doc("nil_vertical_plane")
    doc["chart"]["components"] = ["u1", "u2", "0"]
    assert "'catalog'" in one_config_error(tmp_path, capsys, doc)


@pytest.mark.parametrize(
    "chart",
    [{"catalog": "nil_vertical_plane", "parms": {}}, {"components": ["u1", "u2", "0"], "params": {}}],
    ids=["catalog", "components"],
)
def test_unknown_chart_key_exits_2(tmp_path, capsys, chart):
    assert "takes no 'par" in one_config_error(tmp_path, capsys, entry_doc("nil_vertical_plane", chart=chart))


def test_chart_params_must_be_an_object(tmp_path, capsys):
    doc = entry_doc("nil_vertical_plane", chart={"catalog": "nil_vertical_plane", "params": []})
    assert "chart params must be an object" in one_config_error(tmp_path, capsys, doc)


def sources(chart):
    return [comp.source for comp in chart.components], chart.domain, chart.orientation


H1 = exp_model(heisenberg(1))


@pytest.mark.parametrize(
    "built, chart, change",
    [
        (lambda: foliation_leaf_chart(), {"catalog": "nil_foliation_leaf"}, {"domain": None}),
        (
            lambda: foliation_leaf_chart(0.25, (-1.0, 1.0), (-0.5, 0.5)),
            {"catalog": "nil_foliation_leaf", "params": {"z0": 0.25}},
            {"domain": [[-1.0, 1.0], [-0.5, 0.5]]},
        ),
        (lambda: vertical_plane_chart(), {"catalog": "nil_vertical_plane"}, {"domain": None}),
        (
            lambda: vertical_plane_chart((-0.5, 0.5), (0.0, 1.0)),
            {"catalog": "nil_vertical_plane"},
            {"domain": [[-0.5, 0.5], [0.0, 1.0]]},
        ),
        (
            lambda: cylinder_chart("cos(u1)", "sin(u1)", (-0.6, 0.6), (-1, 1), orientation=-1),
            {"catalog": "nil_cylinder", "params": {"f1": "cos(u1)", "f2": "sin(u1)"}},
            {"domain": [[-0.6, 0.6], [-1, 1]], "orientation": -1},
        ),
        (
            lambda: graph_chart(H1, "0.1*u1*u2", [(-1, 1), (-1, 1)], -1),
            {"catalog": "graph", "params": {"expr": "0.1*u1*u2"}},
            {"model": "exp", "domain": [[-1, 1], [-1, 1]], "orientation": -1},
        ),
        (
            lambda: random_graph_chart(H1, 5 + 2, terms=4),
            {"catalog": "random_graph", "params": {"terms": 4, "index": 2}},
            {"model": "exp", "domain": None, "seed": 5},
        ),
    ],
    ids=["leaf", "leaf_args", "plane", "plane_args", "cylinder", "graph", "random_graph"],
)
def test_public_builders_match_the_config_path(built, chart, change):
    doc = entry_doc("nil_vertical_plane", chart=chart, **change)
    if doc["domain"] is None:
        del doc["domain"]
    assert sources(built()) == sources(load_config(doc).chart)


def test_random_graph_terms_20000_exits_2_at_once(tmp_path, capsys):
    doc = entry_doc("random_graph")
    doc["chart"]["params"]["terms"] = 20000
    start = time.perf_counter()
    line = one_config_error(tmp_path, capsys, doc)
    assert time.perf_counter() - start < 0.1
    assert f"chart param 'terms' must be an integer from 1 to {RANDOM_MAX_TERMS}" in line


@pytest.mark.parametrize("terms", [0, -1, RANDOM_MAX_TERMS + 1])
def test_random_graph_terms_out_of_range_exit_2(tmp_path, capsys, terms):
    doc = entry_doc("random_graph")
    doc["chart"]["params"]["terms"] = terms
    assert "chart param 'terms'" in one_config_error(tmp_path, capsys, doc)


def test_random_graph_terms_bound_is_the_deepest_that_always_parses():
    """Every seed builds at the bound; one more term gives too deep a tree on some seed."""
    assert RANDOM_MAX_TERMS == MAX_DEPTH - 3
    for seed in range(40):
        doc = entry_doc("random_graph", seed=seed)
        doc["chart"]["params"]["terms"] = RANDOM_MAX_TERMS
        assert len(load_config(doc).chart.components[-1].source.split(" + ")) == RANDOM_MAX_TERMS

    def parses(seed):
        comps = _random_graph_components(H1, {"terms": RANDOM_MAX_TERMS + 1, "index": 0}, None, seed)
        try:
            parse_expression(comps[-1])
        except ParseError:
            return False
        return True

    assert not all(parses(seed) for seed in range(40))


def test_random_graph_domain_moves_the_grid_points():
    near = entry_doc("random_graph", domain=[[-0.1, 0.1], [-0.2, 0.0]])
    points = [row["point"] for row in run(load_config(near))["rows"]]
    assert points and all(-0.1 <= u1 <= 0.1 and -0.2 <= u2 <= 0.0 for u1, u2 in points)
    default = entry_doc("random_graph")
    del default["domain"]
    far = [row["point"] for row in run(load_config(default))["rows"]]
    assert max(abs(x) for point in far for x in point) > 0.75


@pytest.mark.parametrize("seed, index", [(-1, 0), (2, -3)])
def test_random_graph_negative_seed_plus_index_exits_2(tmp_path, capsys, seed, index):
    doc = entry_doc("random_graph", seed=seed)
    doc["chart"]["params"]["index"] = index
    line = one_config_error(tmp_path, capsys, doc)
    assert line == "config error: bad chart specification: expected non-negative integer"


def test_random_graph_seed_past_64_bits_builds(tmp_path):
    path, out = tmp_path / "job.json", tmp_path / "report.json"
    path.write_text(json.dumps(entry_doc("random_graph", seed=10**40)))
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["points"] == 4


def test_random_graph_takes_a_numpy_integer_seed():
    assert sources(random_graph_chart(H1, np.int64(7))) == sources(random_graph_chart(H1, 7))


@pytest.mark.parametrize("seed", [random.Random(7), np.random.default_rng(7), 7.0], ids=["random", "generator", "float"])
def test_random_graph_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match="chart seed must be an integer"):
        random_graph_chart(H1, seed)
    with pytest.raises(ValueError, match="chart seed must be an integer"):
        catalog_chart("random_graph", H1, {"index": 1}, seed=seed)


# (seed, index, model, terms) -> the graph's height expression; each term is four draws of
# random.Random(seed + index).random() (kind, a, b, coefficient), the coefficient rounded by round(x, 6)
PINNED = [
    (0, 0, exp_model(heisenberg(1)), 3,
     "-0.168758*cos(u2) + -0.137681*sin(u1) + 0.003281*u2*u2"),
    (5, 2, exp_model(heisenberg(2)), 4,
     "-0.299295*u1*u3 + 0.005205*sin(u2) + -0.286501*u2 + -0.193733*u4*u1"),
    (21, 3, exp_model(heisenberg(3)), 4,
     "0.348798*sin(u6) + 0.180416*u5 + 0.18616*u5 + -0.269084*u6*u6"),
    (10**40, 1, exp_model(free_two_step_5d()), 6,
     "0.217607*sin(u1) + -0.348564*u2 + 0.146762*u3 + -0.167607*u3*u1 + -0.272986*cos(u1)"
     " + 0.050714*u3"),
]


@pytest.mark.parametrize("seed, index, model, terms, height", PINNED, ids=["h1", "h2", "h3", "free5"])
def test_random_graph_components_are_pinned(seed, index, model, terms, height):
    params = {"terms": terms, "index": index}
    comps = _random_graph_components(model, params, None, seed)
    assert comps == [f"u{i}" for i in range(1, model.dim)] + [height]
    assert _random_graph_components(model, dict(params, index=0), None, seed + index) == comps
