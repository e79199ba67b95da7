"""Persistent correlator cache: a canonical, diff-friendly JSON file.

The saver writes one record per line, sorted by (2g - 2 + n, g, a), values
in lowest terms.  The loader checks content, not layout: format, version,
count, each key (``canonical_key``, sorted descending, on the shell
sum(a) = 3g - 3 + n), each value, the record order, agreement with the
table, and the dilaton equation: a record holding a tau_1, with
(g, n - 1) stable, must be (2g - 3 + n) times the value with one tau_1
removed whenever the table being filled knows it: a seed, an earlier
record, or a value it held before (a file from ``save_table`` always
holds the lower record).  Version, count, g and every a_i must be JSON
integers; a boolean (``true == 1`` in Python) is rejected.  It names the
first bad record with its line in the saved layout; a file with other
whitespace or key order loads, and re-saving changes it.
"""

from __future__ import annotations

import json

from .core import rat_parse, rat_str
from .correlators import CorrelatorTable, canonical_key, is_stable, record_order

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
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CacheFormatError(f"unsupported version {version!r}")
    records = doc.get("records")
    if not isinstance(records, list):
        raise CacheFormatError("'records' is not a list")
    if type(doc.get("count")) is not int or doc["count"] != len(records):
        raise CacheFormatError(f"count {doc.get('count')!r} does not match {len(records)} records")

    if table is None:
        table = CorrelatorTable()
    previous = None
    for index, rec in enumerate(records):
        if not isinstance(rec, dict) or set(rec) != {"g", "a", "value"}:
            _fail(index, "expected keys g, a, value")
        g, a, value = rec["g"], rec["a"], rec["value"]
        if not isinstance(a, list):
            _fail(index, f"bad exponent list {a!r}")
        try:
            g, key = canonical_key(g, a)
        except ValueError as exc:
            _fail(index, str(exc))
        if key != tuple(a):
            _fail(index, f"exponents {a} not sorted descending")
        a = key
        if sum(a) != 3 * g - 3 + len(a):
            _fail(index, f"off-shell key: sum(a) = {sum(a)}, not 3g - 3 + n = {3 * g - 3 + len(a)}")
        try:
            val = rat_parse(value)
        except ValueError as exc:
            _fail(index, str(exc))
        sort_key = record_order(g, a)
        if previous is not None and sort_key <= previous:
            _fail(index, "records out of canonical order (or duplicated)")
        previous = sort_key
        stored = table._memo.setdefault((g, a), val)
        if stored != val:
            _fail(index, f"value {value!r} conflicts with known {rat_str(stored)!r}")
        if 1 in a and is_stable(g, len(a) - 1):
            i = a.index(1)
            lower = (g, a[:i] + a[i + 1 :])
            base = table._memo.get(lower)
            factor = 2 * g - 3 + len(a)
            # val == factor * base, cross-multiplied: a Fraction product
            # would reduce by a gcd on every record
            if base is not None and val.numerator * base.denominator != factor * base.numerator * val.denominator:
                _fail(index, f"value {value!r} breaks the dilaton equation, which gives {rat_str(factor * base)!r}")
    return table


def load_table(path, table: CorrelatorTable | None = None) -> CorrelatorTable:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise CacheFormatError(f"cannot read {path}: {exc}") from None
    return loads_table(text, table)
