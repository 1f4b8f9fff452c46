#!/usr/bin/env python3
"""Compare two directories of reference reports.

    python scripts/compare_reports.py OLD_DIR NEW_DIR

OLD_DIR and NEW_DIR hold the output of ``scripts/reference_reports.py``,
for instance of a parent tree and of a change.  They must hold the same
report files, and each pair of reports the same ``config_echo``, the same
rows by (point, method), the same keys and the same verdicts (every
boolean, such as a check's ``pass`` and ``skipped``).  For every row field
(per method) and every numeric summary or check value the script prints the largest
absolute move between the two directories and the report where it occurs,
then the number of byte-identical reports.  Exits 1 on a file, structure
or verdict difference; a caller bounds the moves itself.
"""

import argparse
import json
import math
import sys
from pathlib import Path


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _move(a, b) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    move = abs(a - b)
    return math.inf if math.isnan(move) else move


def walk(old, new, label, name, moves, problems):
    """Record the move of every number under ``label`` and every difference of anything else."""
    if _is_number(old) and _is_number(new):
        move = _move(old, new)
        if label not in moves or move > moves[label][0]:
            moves[label] = (move, name)
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            problems.append(f"{name}: {label}: keys {sorted(old)} -> {sorted(new)}")
            return
        for key in old:
            walk(old[key], new[key], f"{label}.{key}", name, moves, problems)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            walk(a, b, label, name, moves, problems)
    elif type(old) is not type(new) or old != new:
        kind = "verdict" if isinstance(old, bool) or isinstance(new, bool) else "value"
        problems.append(f"{name}: {label}: {kind} {old!r} -> {new!r}")


def compare(old_dir: Path, new_dir: Path):
    """(moves by label, byte-identical count, report count, problems)."""
    old_names = sorted(p.name for p in old_dir.glob("*.json"))
    new_names = sorted(p.name for p in new_dir.glob("*.json"))
    problems = [f"only in {old_dir}: {name}" for name in old_names if name not in new_names]
    problems += [f"only in {new_dir}: {name}" for name in new_names if name not in old_names]
    moves, same = {}, 0
    shared = [name for name in old_names if name in new_names]
    for name in shared:
        old_text, new_text = (d.joinpath(name).read_text() for d in (old_dir, new_dir))
        same += old_text == new_text
        old, new = json.loads(old_text), json.loads(new_text)
        if old.keys() != new.keys() or old.keys() != {"config_echo", "rows", "summary"} \
                or old["config_echo"] != new["config_echo"]:
            problems.append(f"{name}: report keys or config_echo differ")
            continue
        keys = [[(row["point"], row["method"]) for row in doc["rows"]] for doc in (old, new)]
        if keys[0] != keys[1]:
            problems.append(f"{name}: rows differ in (point, method)")
            continue
        for row, new_row in zip(old["rows"], new["rows"]):
            walk(row, new_row, f"rows[{row['method']}]", name, moves, problems)
        walk(old["summary"], new["summary"], "summary", name, moves, problems)
    return moves, same, len(shared), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    args = parser.parse_args(argv)

    moves, same, count, problems = compare(args.old_dir, args.new_dir)
    width = max((len(label) for label in moves), default=5)
    print(f"{'field':<{width}}  {'max move':>9}  report")
    for label in sorted(moves):
        move, name = moves[label]
        print(f"{label:<{width}}  {move:9.3g}  {name if move else '-'}")
    print(f"byte-identical reports: {same} of {count}")
    for problem in problems:
        print(f"DIFFERENCE {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
