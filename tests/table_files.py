"""Coefficient tables to and from JSON files in the schema of
freehop.tables, for the tests that run the CLI on files."""

import json

from freehop import tables


def save(path: str, T: tables.CoefficientTable, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(tables.to_json(T, meta), fh, indent=1)


def load(path: str) -> tables.CoefficientTable:
    with open(path) as fh:
        return tables.from_json(json.load(fh))
