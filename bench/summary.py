#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, one workload at a time.

    python3 bench/summary.py            # end-to-end metrics (tracing off)
    python3 bench/summary.py --trace 1  # per-layer metrics of the traced run

Each workload runs in its own process through ``run.py``, which checks
the reports; its environment and notes are printed above its table.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    status = 0
    for workload in SPEC["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = out.stdout.splitlines()
        print(f"== {name}: {workload['why']}")
        if out.returncode != 0 or not lines:
            print(out.stderr, end="")
            status = 1
            continue
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"   {line}")
        print(f"   correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        status |= not result["correct"]
        for metric, value in result["metrics"].items():
            print(f"   {metric:56s} {value['value']:14.6g} {value['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
