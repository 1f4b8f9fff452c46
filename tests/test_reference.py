"""The committed reference reports still come out of their own configs.

``tests/reference`` is the reference set, the only list of reference jobs:
one report per job, as ``scripts/reference_reports.py`` writes it.  Each
file's ``config_echo`` is run again and the new report is compared with the
file through ``scripts/compare_reports.py``: the files, the rows by (point,
method), the keys and every verdict must match exactly, and each number
within its field's bound.  Byte identity is not asked for, because another
numpy or BLAS may round the last bits differently.  README's Scripts section
says how a job is added and how the baseline is rewritten.
"""

import importlib.util

from nilgauss import cli
from conftest import REFERENCE_JOBS, reference_reports

# Closed-form rows, h, norm_b2, points and the closed-form check values, jacobi's
# among them: exact arithmetic on chart jets, moved by at most 3.0e-15 by any
# refactor since they were first compared.
CLOSED_FORM_TOL = 1e-12
# The oracle differences the Gauss map with weights of order 1 / step^2 = 1e8 at the
# default step: noise of one ulp on every stencil value moves its rows by up to
# 5.9e-7 over these reports, and the worst gap to `general` is 5.6e-7.
ORACLE_TOL = 1e-6
ORACLE_FIELDS = (
    "rows[numeric_oracle].coeffs", "rows[numeric_oracle].tangential_norm", "rows[numeric_oracle].normal_coeff",
    "summary.max_oracle_gap",
)


def compare_reports():
    path = reference_reports.ROOT / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_reports_come_out_of_their_own_configs(tmp_path):
    assert len(REFERENCE_JOBS) == 78
    assert reference_reports.main([str(tmp_path)]) == 0
    moves, _, count, problems = compare_reports().compare(reference_reports.REFERENCE, tmp_path)
    assert count == 78
    assert problems == []  # files, rows, keys and verdicts
    assert set(ORACLE_FIELDS) <= set(moves)  # every bound named meets a field
    too_far = {label: (move, name) for label, (move, name) in moves.items()
               if move > (ORACLE_TOL if label in ORACLE_FIELDS else CLOSED_FORM_TOL)}
    assert too_far == {}


def test_every_built_in_example_is_a_reference_job():
    jobs = dict(REFERENCE_JOBS)
    for name, (_, doc) in cli.EXAMPLE_JOBS.items():
        assert jobs.get(f"example-{name}.json") == doc, name
