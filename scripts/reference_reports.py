#!/usr/bin/env python3
"""Write the reference reports: one JSON report per reference job.

    python scripts/reference_reports.py OUT_DIR

The reference jobs are the committed reports under ``tests/reference``:
each file's ``config_echo`` goes through ``cli.load_config``, ``cli.run``
and ``cli.document_to_json``, in sorted file-name order, and is written to
``OUT_DIR`` under the file's name.  Every report is computed before any is
written, so a job that raises exits 1 and leaves ``OUT_DIR`` as it was;
``python scripts/reference_reports.py tests/reference`` rewrites the
baseline in place.  The package is imported from ``src/`` next to this
directory, so a change is compared with its parent by running this script
in both trees and comparing the two directories with ``diff -r``.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nilgauss import cli  # noqa: E402

REFERENCE = ROOT / "tests" / "reference"


def reference_jobs():
    """(file name, config document) of every reference job, in sorted file-name order."""
    for path in sorted(REFERENCE.glob("*.json")):
        yield path.name, json.loads(path.read_text())["config_echo"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args(argv)

    reports = {}
    for name, doc in reference_jobs():
        try:
            reports[name] = cli.document_to_json(cli.run(cli.load_config(doc)))
        except Exception as exc:
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in reports.items():
        (args.out_dir / name).write_text(text)
    print(f"wrote {len(reports)} reports to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
