"""Every module-level import in the package modules is used, every definition
in the package is read by the package, exported or traced, and no job imports
``numpy.random``."""

import ast
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import reference_reports

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nilgauss"
# __init__ imports names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["math", "d"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def _reads(node) -> Counter:
    """Names, attribute names and imported names read anywhere under ``node``."""
    read = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            read[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            read[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def unread_definitions(sources: dict[str, str], kept=frozenset()) -> list[str]:
    """``module:name`` of every function, class or method in ``sources`` (file name
    -> text) that no code outside its own definition reads or imports by name or
    attribute, and that is not in ``kept``; an import in ``__init__`` is an export.
    Dunder methods run by protocol and count as read.  The scan goes by name: a
    definition is read when other code reads a name or attribute spelled like it."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = sum((_reads(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items() for node in _definitions(tree)
        if read[node.name] == _reads(node)[node.name] and node.name not in kept
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_checker_finds_an_unread_definition():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": (
            "def exported(): pass\n"
            "def helper(): pass\n"
            "def unread(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def traced(): pass\n"
            "class Box:\n"
            "    def __len__(self): return 0\n"
            "    def used(self): return helper()\n"
            "    @property\n"
            "    def unread_property(self): return 1\n"
        ),
        "b.py": "from .a import Box\ndef run(): return Box().used()\n",
    }
    assert unread_definitions(sources, kept={"traced"}) == [
        "a.py:unread", "a.py:recursive", "a.py:unread_property", "b.py:run",
    ]


def traced_names() -> set[str]:
    """The last part of each name the benchmark tracer wraps (``bench/tracing.py``)."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name.rpartition(".")[2] for name in module.NAMES}


def test_every_definition_is_read_exported_or_traced():
    """src/ holds only what a job runs: a helper only tests call belongs in the tests."""
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_definitions(sources, traced_names()) == []


# every random_graph job of the reference set: the 36 committed highdim_oracle reports
RANDOM_CHART_JOBS = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from nilgauss import cli
docs = [json.loads(path.read_text())["config_echo"] for path in Path(sys.argv[2]).glob("*.json")]
docs = [doc for doc in docs if doc["chart"].get("catalog") == "random_graph"]
for doc in docs:
    cli.document_to_json(cli.run(cli.load_config(doc)))
print(len(docs), "numpy.random" in sys.modules)
"""


def test_random_chart_jobs_never_import_numpy_random():
    """numpy 2 imports ``numpy.random`` lazily, at a cost of ~6 MiB and ~10 ms per process."""
    out = subprocess.run(
        [sys.executable, "-c", RANDOM_CHART_JOBS, str(PACKAGE.parent), str(reference_reports.REFERENCE)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    count, imported = out.stdout.split()
    assert int(count) >= 36 and imported == "False"
