#!/usr/bin/env python3
"""Write the reference reports: one JSON report per reference job.

    python scripts/reference_reports.py OUT_DIR

The reference jobs are the built-in examples plus every job of the
benchmark pools (``bench/workloads.py``) at seeds 0, 1 and 2.  Each job
goes through ``cli.load_config``, ``cli.run`` and ``cli.document_to_json``
and is written to ``OUT_DIR/<name>.json``.  The package is imported from
``src/`` next to this directory, so a change is compared with its parent
by running this script in both trees and comparing the two directories
with ``diff -r``.  Exits 1 if a job raises.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from nilgauss import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2)


def reference_jobs():
    """(name, config document) of every reference job, in a fixed order."""
    for name, (_, doc) in cli.EXAMPLE_JOBS.items():
        yield f"example-{name}", doc
    for workload, make_pool in WORKLOADS.items():
        for seed in SEEDS:
            for k, (doc, _) in enumerate(make_pool(seed)):
                yield f"{workload}-seed{seed}-{k:02d}", doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, doc in reference_jobs():
        try:
            text = cli.document_to_json(cli.run(cli.load_config(doc)))
        except Exception as exc:
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        (args.out_dir / f"{name}.json").write_text(text)
        count += 1
    print(f"wrote {count} reports to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
