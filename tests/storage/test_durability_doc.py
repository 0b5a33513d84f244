"""Doc-drift gate: docs/DURABILITY.md's §8 knob table matches the code.

Parses the "Knobs" table and compares its ``WalConfig.*`` rows (name and
default) against ``dataclasses.fields(WalConfig)`` exactly, and checks
that every ``RowaaConfig.*`` row names a live field with the documented
default. Adding, removing or re-defaulting a WAL knob without updating
the table fails here. Same idiom as tests/lint/test_doc_drift.py.
"""

import ast
import dataclasses
import pathlib
import re

from repro.core.config import RowaaConfig
from repro.wal import WalConfig

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "DURABILITY.md"

_ROW = re.compile(r"^\|\s*`(\w+)\.(\w+)`\s*\|\s*`?(.+?)`?\s*\|")


def _knob_rows():
    text = DOC.read_text()
    start = text.index("## 8. Knobs")
    end = text.find("\n## ", start + 1)
    rows: dict[str, dict[str, object]] = {}
    for line in text[start : end if end != -1 else None].splitlines():
        match = _ROW.match(line)
        if match:
            cls, name, default = match.groups()
            rows.setdefault(cls, {})[name] = ast.literal_eval(default)
    return rows


def _defaults(config_class):
    return {field.name: field.default for field in dataclasses.fields(config_class)}


def test_wal_rows_equal_walconfig_fields():
    assert _knob_rows()["WalConfig"] == _defaults(WalConfig)


def test_rowaa_rows_name_live_fields():
    rows = _knob_rows()["RowaaConfig"]
    live = _defaults(RowaaConfig)
    for name, default in rows.items():
        assert name in live, f"RowaaConfig has no field {name!r}"
        assert live[name] == default, f"RowaaConfig.{name} defaults to {live[name]!r}"
