from fractions import Fraction as F

import pytest

from airyqc import CacheFormatError, CorrelatorTable, correlator_shell, dumps_table, load_table, loads_table, save_table


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
