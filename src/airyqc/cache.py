"""Persistent correlator cache: a canonical, diff-friendly JSON file.

The file layout is fixed so that loading and re-saving any valid cache is
byte-identical: one record per line, records sorted by (2g - 2 + n, g, a),
values rendered in lowest terms.  The loader enforces all of that,
rejects keys off the dimension shell sum(a) = 3g - 3 + n (their value is
0 and the table never stores one), and reports the offending record (with
its line in the canonical layout) on the first violation.
"""

from __future__ import annotations

import json

from .core import rat_parse, rat_str
from .correlators import CorrelatorTable, is_stable

__all__ = ["CacheFormatError", "FORMAT_NAME", "FORMAT_VERSION", "dumps_table", "save_table", "load_table", "loads_table"]

FORMAT_NAME = "airyqc-correlator-cache"
FORMAT_VERSION = 1
_FIRST_RECORD_LINE = 6  # line of records[0] in the canonical layout


class CacheFormatError(Exception):
    """Raised when a cache file is malformed or non-canonical."""


def dumps_table(table: CorrelatorTable) -> str:
    records = table.sorted_records()
    lines = [
        "{",
        f'"format": {json.dumps(FORMAT_NAME)},',
        f'"version": {FORMAT_VERSION},',
        f'"count": {len(records)},',
        '"records": [',
    ]
    body = []
    for g, a, value in records:
        body.append(json.dumps({"g": g, "a": list(a), "value": rat_str(value)}, separators=(", ", ": ")))
    lines.append(",\n".join(body))
    lines.append("]")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def save_table(table: CorrelatorTable, path) -> int:
    text = dumps_table(table)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return len(table)


def _fail(index, message):
    raise CacheFormatError(f"record #{index} (line {_FIRST_RECORD_LINE + index}): {message}")


def loads_table(text: str, table: CorrelatorTable | None = None) -> CorrelatorTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CacheFormatError("top level is not an object")
    if doc.get("format") != FORMAT_NAME:
        raise CacheFormatError(f"unknown format {doc.get('format')!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise CacheFormatError(f"unsupported version {doc.get('version')!r}")
    records = doc.get("records")
    if not isinstance(records, list):
        raise CacheFormatError("'records' is not a list")
    if doc.get("count") != len(records):
        raise CacheFormatError(f"count {doc.get('count')!r} does not match {len(records)} records")

    if table is None:
        table = CorrelatorTable()
    previous = None
    for index, rec in enumerate(records):
        if not isinstance(rec, dict) or set(rec) != {"g", "a", "value"}:
            _fail(index, "expected keys g, a, value")
        g, a, value = rec["g"], rec["a"], rec["value"]
        if not isinstance(g, int) or g < 0:
            _fail(index, f"bad genus {g!r}")
        if (
            not isinstance(a, list)
            or not a
            or any(not isinstance(x, int) or x < 0 for x in a)
        ):
            _fail(index, f"bad exponent list {a!r}")
        a = tuple(a)
        if tuple(sorted(a, reverse=True)) != a:
            _fail(index, f"exponents {list(a)} not sorted descending")
        if not is_stable(g, len(a)):
            _fail(index, f"unstable (g, n) = ({g}, {len(a)})")
        if sum(a) != 3 * g - 3 + len(a):
            _fail(index, f"off-shell key: sum(a) = {sum(a)}, not 3g - 3 + n = {3 * g - 3 + len(a)}")
        try:
            val = rat_parse(value)
        except ValueError as exc:
            _fail(index, str(exc))
        sort_key = (2 * g - 2 + len(a), g, a)
        if previous is not None and sort_key <= previous:
            _fail(index, "records out of canonical order (or duplicated)")
        previous = sort_key
        stored = table._memo.setdefault((g, a), val)
        if stored != val:
            _fail(index, f"value {value!r} conflicts with known {rat_str(stored)!r}")
    return table


def load_table(path, table: CorrelatorTable | None = None) -> CorrelatorTable:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise CacheFormatError(f"cannot read {path}: {exc}") from None
    return loads_table(text, table)
