import time
from fractions import Fraction as F

import pytest

from airyqc import (
    CacheFormatError,
    CorrelatorTable,
    correlator_shell,
    dumps_table,
    load_table,
    loads_table,
    quantum_curve_report,
    save_table,
)
from airyqc.cli import main


def test_round_trip_byte_identical(tmp_path):
    table = correlator_shell(4)
    path = tmp_path / "cache.json"
    save_table(table, path)
    first = path.read_bytes()
    reloaded = load_table(path)
    assert dict(reloaded.items()) == dict(table.items())
    save_table(reloaded, path)
    assert path.read_bytes() == first


def test_records_sorted_by_shell():
    text = dumps_table(correlator_shell(3))
    lines = [l.rstrip(",") for l in text.splitlines() if l.startswith('{"g"')]
    assert lines[0] == '{"g": 0, "a": [0, 0, 0], "value": "1"}'
    assert lines[1] == '{"g": 1, "a": [1], "value": "1/24"}'


def test_load_hits_skip_recomputation(tmp_path):
    path = tmp_path / "cache.json"
    save_table(correlator_shell(3), path)
    table = load_table(path)
    assert table.correlator(2, (4,)) == F(1, 1152)
    assert table.hits == 1 and table.misses == 0


def _valid_doc():
    return dumps_table(correlator_shell(1))


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace('"1/24"', '"2/48"'),      # not in lowest terms
        lambda t: t.replace('"1"', '"1/1"'),          # redundant denominator
        lambda t: t.replace('"count": 2', '"count": 7'),
        lambda t: t.replace("[1]", "[0, 1]"),         # not sorted descending
        lambda t: t.replace('"version": 1', '"version": 9'),
        lambda t: t.replace('"g": 1', '"g": -1'),
        lambda t: t.replace('"version": 1', '"version": true'),
        lambda t: t.replace('"count": 2', '"count": 2.0'),
        lambda t: f"[{t}]",                           # top level not an object
        lambda t: t.replace("airyqc-correlator-cache", "airyqc-cache"),
        lambda t: t.replace('"records": [', '"records": {}, "rows": ['),
        lambda t: t.replace('"value": "1/24"', '"value": "1/24", "note": ""'),
    ],
)
def test_loader_rejects_malformed(mangle):
    with pytest.raises(CacheFormatError):
        loads_table(mangle(_valid_doc()))


def test_loader_rejects_unsorted():
    text = _valid_doc()
    lines = text.splitlines()
    lines[5], lines[6] = lines[6].rstrip(",") + ",", lines[5].rstrip(",")
    with pytest.raises(CacheFormatError) as err:
        loads_table("\n".join(lines))
    assert "order" in str(err.value)


def test_loader_rejects_bad_json():
    with pytest.raises(CacheFormatError):
        loads_table("{not json")
    # json.loads raises a plain ValueError past Python's int-to-str digit limit
    with pytest.raises(CacheFormatError, match="not valid JSON: Exceeds the limit"):
        loads_table('{"records": [{"g": ' + "9" * 5000 + "}]}")


def test_loader_rejects_conflicting_value():
    text = _valid_doc().replace('"value": "1/24"', '"value": "1/12"')
    with pytest.raises(CacheFormatError) as err:
        loads_table(text)
    assert "conflicts" in str(err.value)


def test_loader_reports_record_line():
    text = _valid_doc().replace('"1/24"', '"2/48"')
    with pytest.raises(CacheFormatError) as err:
        loads_table(text)
    assert "line 7" in str(err.value)  # second record sits on line 7


def test_loader_rejects_off_shell_record():
    text = _valid_doc().replace('"count": 2', '"count": 3').replace(
        '{"g": 1, "a": [1], "value": "1/24"}',
        '{"g": 1, "a": [1], "value": "1/24"},\n{"g": 1, "a": [5], "value": "7"}',
    )
    with pytest.raises(CacheFormatError) as err:
        loads_table(text)
    assert "off-shell" in str(err.value) and "line 8" in str(err.value)


def test_loaded_table_extends():
    table = loads_table(_valid_doc())
    assert table.correlator(0, (1, 0, 0, 0)) == F(1)


@pytest.mark.parametrize(
    "record",
    [
        '{"g": false, "a": [1, 0, 0, 0], "value": "1"}',
        '{"g": 0, "a": [true, false, false, false], "value": "1"}',
    ],
)
def test_loader_rejects_boolean_key(record):
    text = (
        '{\n"format": "airyqc-correlator-cache",\n"version": 1,\n"count": 1,\n'
        f'"records": [\n{record}\n]\n}}\n'
    )
    with pytest.raises(CacheFormatError) as err:
        loads_table(text)
    assert "record #0 (line 6)" in str(err.value)


def test_loader_rejects_boolean_count():
    text = (
        '{"format": "airyqc-correlator-cache", "version": 1, "count": true, '
        '"records": [{"g": 0, "a": [1, 0, 0, 0], "value": "1"}]}'
    )
    with pytest.raises(CacheFormatError) as err:
        loads_table(text)
    assert "count True" in str(err.value)


@pytest.mark.parametrize("g", [20000, 60000])
def test_loader_bounds_the_shell_before_building_the_record(tmp_path, capsys, g):
    # the unit (2a+1)!! 2^E(g) q^g of this one record takes seconds to build,
    # so its shell 2g - 2 + n must be refused first, from the file's size
    path = tmp_path / "deep.json"
    path.write_text(
        '{"format": "airyqc-correlator-cache", "version": 1, "count": 1, '
        f'"records": [{{"g": {g}, "a": [{3 * g - 2}], "value": "1"}}]}}'
    )
    start = time.perf_counter()
    assert main(["cache", "load", str(path)]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cache error: record #0 (line 6): 2g - 2 + n = {2 * g - 1} exceeds 3, the file's records plus the two seeds\n"


def _one_point_chain():
    table = CorrelatorTable()
    table.correlator(20, (58,))
    return table


def _quantum_curve():
    table = CorrelatorTable()
    quantum_curve_report(20, 1, table)
    return table


@pytest.mark.parametrize("make", [_one_point_chain, _quantum_curve, lambda: correlator_shell(8)], ids=["correlator 20 58", "qc 20", "shell 8"])
def test_computed_tables_stay_within_the_shell_bound(make):
    # a computed table stores a key on every shell up to its largest, so the
    # shell bound of the loader never refuses a file that save_table wrote
    text = dumps_table(make())
    assert dumps_table(loads_table(text)) == text
