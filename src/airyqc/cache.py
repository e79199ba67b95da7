"""Persistent correlator cache: a canonical, diff-friendly JSON file.

The saver writes one record per line, sorted by (2g - 2 + n, g, a), values
in lowest terms.  The loader checks the file: format, version, count,
record shape, each value string (``rat_parse``) and the record order.
Before the table builds anything for a record, its shell 2g - 2 + n must
not exceed the file's record count plus the two seeds: a computed table
stores a key on every shell up to its largest, so a saved file is within.
The table checks keys and values (``CorrelatorTable.add_record``) against
the shell, the seeds, earlier records and the dilaton equation, whose
lower record a file from ``save_table`` always holds.  Version, count, g
and every a_i must be JSON integers; a boolean (``true == 1`` in Python)
is rejected.  It names the first bad record with its line in the saved
layout; a file with other whitespace or key order loads, and re-saving
changes it.
"""

from __future__ import annotations

import json

from .core import rat_parse, rat_str
from .correlators import CorrelatorTable

__all__ = ["CacheFormatError", "FORMAT_NAME", "FORMAT_VERSION", "dumps_table", "save_table", "load_table", "loads_table"]

FORMAT_NAME = "airyqc-correlator-cache"
FORMAT_VERSION = 1
_FIRST_RECORD_LINE = 6  # line of records[0] in the canonical layout


class CacheFormatError(Exception):
    """Raised when a cache file is malformed or non-canonical."""


def record_order(g, a):
    """Sort key of a record in the file: (2g - 2 + n, g, a)."""
    return 2 * g - 2 + len(a), g, a


def dumps_table(table: CorrelatorTable) -> str:
    records = sorted(table.items(), key=lambda item: record_order(*item[0]))
    lines = [
        "{",
        f'"format": {json.dumps(FORMAT_NAME)},',
        f'"version": {FORMAT_VERSION},',
        f'"count": {len(records)},',
        '"records": [',
    ]
    body = []
    for (g, a), value in records:
        body.append(json.dumps({"g": g, "a": list(a), "value": rat_str(value)}))
    lines.append(",\n".join(body))
    lines.append("]")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def save_table(table: CorrelatorTable, path) -> int:
    text = dumps_table(table)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise CacheFormatError(f"cannot write {path}: {exc}") from None
    return len(table)


def _fail(index, message):
    raise CacheFormatError(f"record #{index} (line {_FIRST_RECORD_LINE + index}): {message}")


def loads_table(text: str) -> CorrelatorTable:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise CacheFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CacheFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise CacheFormatError("top level is not an object")
    if doc.get("format") != FORMAT_NAME:
        raise CacheFormatError(f"unknown format {doc.get('format')!r}")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CacheFormatError(f"unsupported version {version!r}")
    records = doc.get("records")
    if not isinstance(records, list):
        raise CacheFormatError("'records' is not a list")
    if type(doc.get("count")) is not int or doc["count"] != len(records):
        raise CacheFormatError(f"count {doc.get('count')!r} does not match {len(records)} records")

    table = CorrelatorTable()
    reach = len(records) + 2
    previous = None
    for index, rec in enumerate(records):
        if not isinstance(rec, dict) or set(rec) != {"g", "a", "value"}:
            _fail(index, "expected keys g, a, value")
        g, a = rec["g"], rec["a"]
        if not isinstance(a, list):
            _fail(index, f"bad exponent list {a!r}")
        if type(g) is int and 2 * g - 2 + len(a) > reach:
            _fail(index, f"2g - 2 + n = {2 * g - 2 + len(a)} exceeds {reach}, the file's records plus the two seeds")
        try:
            table.add_record(g, a, rat_parse(rec["value"]))
        except ValueError as exc:
            _fail(index, str(exc))
        sort_key = record_order(g, tuple(a))
        if previous is not None and sort_key <= previous:
            _fail(index, "records out of canonical order (or duplicated)")
        previous = sort_key
    return table


def load_table(path) -> CorrelatorTable:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheFormatError(f"cannot read {path}: {exc}") from None
    return loads_table(text)
