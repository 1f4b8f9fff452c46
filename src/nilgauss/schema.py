"""One checker of JSON documents against tables of typed fields.

A ``Table`` lists the keys an object may hold, each a ``Field`` of a JSON
kind, and ``check`` names every problem of a document, an unlisted key at
any level included, before anything is built from it.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass


class ConfigError(ValueError):
    """Problems with a job or chart configuration, every one found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# kind -> (accepts a value, wording); a bool is not a number, and the bound rejects NaN,
# the infinities and integers beyond float range
KINDS = {
    "number": (lambda x: isinstance(x, numbers.Real) and not isinstance(x, bool)
               and abs(x) <= sys.float_info.max, "a finite number"),
    "integer": (lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool), "an integer"),
    "string": (lambda x: isinstance(x, str), "a string"),
    "expression": (lambda x: isinstance(x, str), "an expression string"),
    "list": (lambda x: isinstance(x, list), "a list"),
    "object": (lambda x: isinstance(x, dict), "an object"),
}


def between(lo, hi=None) -> tuple:
    """The span from lo to hi, both included, or from lo up."""
    if hi is None:
        return (lambda x: x >= lo, f" >= {lo}")
    return (lambda x: lo <= x <= hi, f" from {lo} to {hi}")


POSITIVE = (lambda x: x > 0, " > 0")


def one_of(names) -> tuple:
    """The span of a set of names: a value outside it is unknown."""
    return (lambda x: x in names, None)


@dataclass(frozen=True)
class Field:
    kind: str  # a key of KINDS
    required: bool = False
    default: object = None  # the value of an optional field that is left out
    span: tuple | None = None  # (accepts a value of the kind, wording), as between and one_of give
    items: object = None  # a list's Field for each entry; an object's Table, or a tuple of variants
    must: str | None = None  # the wording of any problem of the value or of its entries, given once


@dataclass(frozen=True)
class Table:
    """The keys of an object, and the wording of its problems: ``name`` names the
    value of a key, ``unknown`` the keys it does not list, ``missing`` a required
    key left out.  Of variant tables, an object takes the first whose ``tag`` key it
    holds, else the last."""

    fields: dict  # key -> Field
    name: str = "{}"
    unknown: str = "unknown key {}"
    missing: str = "missing {!r}"
    tag: str | None = None


def check(value, field: Field, name: str) -> list[str]:
    """Every problem of ``value`` against ``field``; ``name`` names the value."""
    accepts, wording = KINDS[field.kind]
    inside, span = field.span or (lambda x: True, "")
    if not (accepts(value) and inside(value)):
        if accepts(value) and span is None:
            return [f"unknown {name} {value!r}"]
        return [f"{name} must be {field.must or wording + (span or '')}"]
    if field.kind == "list" and field.items is not None:
        problems = [p for entry in value for p in check(entry, field.items, f"{name} entry")]
        return [f"{name} must be {field.must}"] if problems and field.must else problems
    if field.kind == "object" and field.items is not None:
        tables = field.items if isinstance(field.items, tuple) else (field.items,)
        table = next((t for t in tables if t.tag in value), tables[-1])
        extra = [key for key in value if key not in table.fields]
        problems = [table.unknown.format(", ".join(map(repr, extra)))] if extra else []
        for key, sub in table.fields.items():
            if key in value:
                problems += check(value[key], sub, table.name.format(key))
            elif sub.required:
                problems.append(table.missing.format(key))
        return problems
    return []


def fill(obj: dict, table: Table) -> dict:
    """A checked object's value under every key of its table, with the defaults."""
    return {key: obj.get(key, field.default) for key, field in table.fields.items()}
