"""The committed reference reports still come out of their own configs.

``tests/reference`` holds the report of every reference job, as
``scripts/reference_reports.py`` writes it.  Each file's ``config_echo`` is
run again and the new report is compared with the file through
``scripts/compare_reports.py``: the files, the rows by (point, method), the
keys and every verdict must match exactly, and each number within its
field's bound.  Byte identity is not asked for, because another numpy or
BLAS may round the last bits differently.

A change that moves numbers on purpose rewrites the baseline in the same
commit, with ``scripts/reference_reports.py tests/reference``.
"""

import importlib.util
import json
import math
from pathlib import Path

from nilgauss import cli

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference"

# Closed-form rows, h, norm_b2, points and the closed-form check values: exact
# arithmetic on chart jets, moved by at most 3.0e-15 by any refactor since they
# were first compared.
CLOSED_FORM_TOL = 1e-12
# The oracle differences the Gauss map with weights of order 1 / step^2 = 1e8 at the
# default step: noise of one ulp on every stencil value moves its rows by up to
# 5.9e-7 over these reports, and the worst gap to `general` is 5.6e-7.
ORACLE_TOL = 1e-6
ORACLE_FIELDS = (
    "rows[numeric_oracle].coeffs", "rows[numeric_oracle].tangential_norm", "rows[numeric_oracle].normal_coeff",
    "summary.max_oracle_gap", "summary.checks.jacobi.max_residual",  # jacobi reads the oracle's Delta G
)


def compare_reports():
    spec = importlib.util.spec_from_file_location("compare_reports", ROOT / "scripts" / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_reports_come_out_of_their_own_configs(tmp_path):
    for path in sorted(REFERENCE.glob("*.json")):
        doc = json.loads(path.read_text())["config_echo"]
        (tmp_path / path.name).write_text(cli.document_to_json(cli.run(cli.load_config(doc))))
    moves, _, count, problems = compare_reports().compare(REFERENCE, tmp_path, math.inf)
    assert count == 78
    assert problems == []  # files, rows, keys and verdicts
    assert set(ORACLE_FIELDS) <= set(moves)  # every bound named meets a field
    too_far = {label: (move, name) for label, (move, name) in moves.items()
               if move > (ORACLE_TOL if label in ORACLE_FIELDS else CLOSED_FORM_TOL)}
    assert too_far == {}
