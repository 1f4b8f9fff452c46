"""The job document's tables: every malformed config exits 2 with config error lines.

The property at the end draws table-valid documents with one value replaced
by a hostile JSON value, and arbitrary JSON, and runs them through ``main``
(QuickCheck, Claessen & Hughes 2000; Hypothesis, MacIver et al. 2019).
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nilgauss import algebra_from_json, cli
from nilgauss.cli import EXAMPLE_JOBS, ConfigError, load_config, main
from nilgauss.schema import Field, Table

ROOT = Path(__file__).resolve().parent.parent

H1_INLINE = {"dim_total": 3, "dim_center": 1, "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1.0}]}
# every top-level key, an inline algebra and a catalog chart with params
FULL_JOB = {
    "algebra": H1_INLINE,
    "model": "exp",
    "chart": {"catalog": "random_graph", "params": {"terms": 2, "index": 1}},
    "domain": [[-0.5, 0.5], [-0.5, 0.5]],
    "grid": [2, 3],
    "methods": ["general", "heisenberg", "numeric_oracle"],
    "checks": ["harmonicity", "jacobi"],
    "tolerances": {"harmonicity": 1e-3, "oracle_gap": 1e-3},
    "fd": {"step": 1e-4, "levels": 2},
    "jacobi_direction": [0.0, 0.0, 1.0],
    "orientation": -1,
    "seed": 3,
}
# raw components evaluated at one point
POINT_JOB = {
    "algebra": {"builtin": "heisenberg", "m": 1},
    "chart": {"components": ["u1", "u2", "0.1*u1*u2"]},
    "domain": [[-1.0, 1.0], [-1.0, 1.0]],
    "point": [0.25, -0.5],
    "methods": ["general"],
    "checks": ["prop3"],
}
BASES = [doc for _, doc in EXAMPLE_JOBS.values()] + [FULL_JOB, POINT_JOB]


def with_value(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` (keys and list indices) replaced."""
    doc = copy.deepcopy(doc)
    reduce(getitem, path[:-1], doc)[path[-1]] = value
    return doc


def bracket_entry(**change):
    return dict(H1_INLINE["brackets"][0], **change)


def bracket(**change):
    return with_value(FULL_JOB, ("algebra", "brackets", 0), bracket_entry(**change))


def run_main(verb, doc):
    """Exit code and stderr lines of ``main`` on ``doc`` written as a JSON file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([verb, "--config", str(path)])
    return code, err.getvalue().splitlines()


def assert_config_errors(code, lines):
    assert code == 2
    assert lines and all(line.startswith("config error: ") for line in lines), lines


MALFORMED_ALGEBRAS = {
    "brackets_not_a_list": with_value(FULL_JOB, ("algebra", "brackets"), {"i": 1}),
    "entry_not_an_object": with_value(FULL_JOB, ("algebra", "brackets", 0), [1, 2, 3, 1.0]),
    "entry_without_c": with_value(FULL_JOB, ("algebra", "brackets", 0), {"i": 1, "j": 2, "k": 3}),
    "entry_without_i": with_value(FULL_JOB, ("algebra", "brackets", 0), {"j": 2, "k": 3, "c": 1.0}),
    "c_string": bracket(c="1.0"),
    "c_nan": bracket(c=math.nan),
    "c_infinity": bracket(c=math.inf),
    "c_beyond_float_range": bracket(c=10**400),
    "i_fraction": bracket(i=1.9),
    "i_true": bracket(i=True),
    "i_string": bracket(i="1"),
    "i_infinity": bracket(i=math.inf),
    "c_sum_beyond_float_range": with_value(FULL_JOB, ("algebra", "brackets"), [bracket_entry(c=1e308)] * 2),
}


@pytest.mark.parametrize("verb", ["sweep", "validate"])
@pytest.mark.parametrize("doc", MALFORMED_ALGEBRAS.values(), ids=MALFORMED_ALGEBRAS.keys())
def test_malformed_algebra_exits_2(verb, doc):
    assert_config_errors(*run_main(verb, doc))


# the path of a value put into FULL_JOB, the value, and the unlisted key it brings
UNLISTED_KEYS = {
    "top": (("gird",), [2, 2], "gird"),
    "inline_algebra": (("algebra", "dimtotal"), 3, "dimtotal"),
    "builtin_algebra": (("algebra",), {"builtin": "heisenberg", "dim_total": 3}, "dim_total"),
    "bracket": (("algebra", "brackets", 0, "coeff"), 1.0, "coeff"),
    "fd": (("fd", "stpe"), 1e-3, "stpe"),
    "tolerances": (("tolerances", "harmonicty"), 1e-3, "harmonicty"),
    "chart": (("chart", "parms"), {}, "parms"),
}


@pytest.mark.parametrize("verb", ["sweep", "validate"])
@pytest.mark.parametrize("path, value, key", UNLISTED_KEYS.values(), ids=UNLISTED_KEYS.keys())
def test_unlisted_key_exits_2_at_every_level(verb, path, value, key):
    """One config error line, which names the key."""
    code, lines = run_main(verb, with_value(FULL_JOB, path, value))
    assert_config_errors(code, lines)
    assert len(lines) == 1 and repr(key) in lines[0], lines


@pytest.mark.parametrize("entry", [{"i": 1.9}, {"i": True}, {"k": "3"}, {"c": "1.0"}, {"c": math.nan}])
def test_algebra_from_json_reads_json_values_as_they_are(entry):
    """No value is coerced: 1.9 is not read as 1, nor "1.0" as 1.0."""
    doc = dict(H1_INLINE, brackets=[dict(H1_INLINE["brackets"][0], **entry)])
    with pytest.raises(ConfigError) as err:
        algebra_from_json(doc)
    assert isinstance(err.value, ValueError)
    assert len(err.value.problems) == 1


def table_keys(field):
    """Every key of the tables under ``field``, nested tables and variants included."""
    items = field.items if isinstance(field.items, tuple) else (field.items,)
    for item in items:
        if isinstance(item, Table):
            for key, sub in item.fields.items():
                yield key
                yield from table_keys(sub)
        elif isinstance(item, Field):
            yield from table_keys(item)


def test_every_table_key_is_named_in_the_readme_config_section():
    text = (ROOT / "README.md").read_text()
    section = text.split("A job config looks like", 1)[1].split("Report JSON", 1)[0]
    keys = set(table_keys(cli.CONFIG))
    assert {"seed", "brackets", "c", "step", "oracle_gap", "components"} <= keys
    missing = [key for key in sorted(keys) if not re.search(rf"`(\w+\.)*{re.escape(key)}`", section)]
    assert not missing


# ---------------------------------------------------------------------------
# totality: main returns 0, 1 or 2 and never raises; exit 2 prints only error lines

HOSTILE = [
    None, True, False, 0, -1, 1.5, 2**63, 10**400, -(10**400), math.nan, math.inf, -math.inf,
    "", "x", "1", [], {}, [[]], [None], [1.0, "a"], {"a": {}},
]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
DELETE = object()


def value_paths(node, path=()):
    """The path of every value below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


@st.composite
def mutated_jobs(draw):
    """A table-valid job with one value replaced by a hostile one, or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    path = draw(st.sampled_from(list(value_paths(doc))))
    value = draw(st.one_of(st.just(DELETE), st.sampled_from(HOSTILE), JSON))
    parent = reduce(getitem, path[:-1], doc)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def affordable(doc) -> bool:
    """False for a job that loads but evaluates more than 64 points or 4 FD levels."""
    try:
        config = load_config(copy.deepcopy(doc))
    except Exception:  # main meets the same failure, and the property checks how it ends
        return True
    points = 1 if config.point is not None else math.prod(config.grid)
    return points <= 64 and config.fd.levels <= 4


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_jobs() | JSON, verb=st.sampled_from(["sweep", "validate"]))
@example(doc=MALFORMED_ALGEBRAS["brackets_not_a_list"], verb="sweep")
@example(doc=MALFORMED_ALGEBRAS["entry_not_an_object"], verb="sweep")
@example(doc=MALFORMED_ALGEBRAS["entry_without_c"], verb="sweep")
@example(doc=MALFORMED_ALGEBRAS["c_string"], verb="validate")
@example(doc=MALFORMED_ALGEBRAS["c_nan"], verb="sweep")
@example(doc=MALFORMED_ALGEBRAS["i_infinity"], verb="sweep")
@example(doc=with_value(FULL_JOB, ("fd", "step"), 10**400), verb="sweep")
@example(doc=with_value(FULL_JOB, ("domain", 0, 0), -(10**400)), verb="sweep")
@example(doc=bracket(k=1), verb="sweep")
@example(doc=with_value(FULL_JOB, ("fd", "levels"), 1000000), verb="sweep")
def test_main_is_total(doc, verb):
    assume(affordable(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as on the command line, where a warning is no failure
        code, lines = run_main(verb, doc)
    assert code in (0, 1, 2)
    if code == 2:
        assert lines and all(line.startswith(("config error: ", "error: ")) for line in lines), lines
