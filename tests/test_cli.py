import json

import pytest

from airyqc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_correlator_basic(capsys):
    assert run(capsys, "correlator", "0", "0,0,0") == (0, "1\n", "")
    assert run(capsys, "correlator", "1", "1") == (0, "1/24\n", "")


def test_correlator_unstable_exits_2(capsys):
    code, out, err = run(capsys, "correlator", "0", "5,0")
    assert code == 2 and out == "" and "unstable" in err


def test_correlator_bad_list_exits_2(capsys):
    code, _, err = run(capsys, "correlator", "0", "1;0")
    assert code == 2 and "exponent list" in err


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "W", "1", "2")
    assert code == 0
    assert out == "5/8 / (z1^6 z2^2)\n3/8 / (z1^4 z2^4)\n"


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "omega", "2", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "omega",
        "g": 2,
        "n": 1,
        "terms": [{"orbit": [5], "coeff": "105/128"}],
    }


def test_table_Omega(capsys):
    code, out, _ = run(capsys, "table", "Omega", "0", "3")
    assert code == 0 and out == "1 * w1^(1/2) w2^(1/2) w3^(1/2)\n"


def test_sn_text_and_branch(capsys):
    assert run(capsys, "sn", "2")[1] == "S_2[+] = 5/24 * w^(3/2)\n"
    code, out, _ = run(capsys, "sn", "2", "--branch", "-")
    assert code == 0 and out == "S_2[-] = -5/24 * w^(3/2)\n"
    assert run(capsys, "sn", "1")[1] == "S_1[+] = 1/4 * log(w) + C\n"


def test_sn_json(capsys):
    code, out, _ = run(capsys, "sn", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "branch": "+", "kind": "monomial", "term": "5/16 * w^(6/2)"}


def test_verify_ok_suites(capsys):
    code, out, _ = run(capsys, "verify", "d-lemma", "--max-m", "5", "--max-chi", "2")
    assert code == 0
    assert out.startswith("ok d-lemma m=0\n")
    code, out, _ = run(capsys, "verify", "t-rec", "--order", "4")
    assert code == 0 and "ok t-rec n=4" in out
    code, out, _ = run(capsys, "verify", "dvv-eo", "--max-chi", "2")
    assert code == 0 and "ok dvv-eo W_(1,2)" in out


def test_verify_quantum_curve_small(capsys):
    code, out, _ = run(capsys, "verify", "quantum-curve", "--order", "4")
    assert code == 0
    assert "ok quantum-curve order 4 branch -" in out


def test_cache_save_load_and_stats(tmp_path, capsys, monkeypatch):
    path = tmp_path / "shell.json"
    code, out, _ = run(capsys, "cache", "save", str(path), "--max-chi", "3")
    assert code == 0 and out == "saved 11 records\n"
    code, out, _ = run(capsys, "cache", "load", str(path))
    assert code == 0 and out == "loaded 11 records\n"

    monkeypatch.setenv("AIRYQC_CACHE", str(path))
    code, out, err = run(capsys, "correlator", "2", "4", "--stats")
    assert code == 0 and out == "1/1152\n"
    assert err == "cache hits=1 misses=0\n"


def test_cache_load_malformed_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "airyqc-correlator-cache", "version": 1, "count": 1, '
                    '"records": [{"g": 1, "a": [1], "value": "2/48"}]}')
    code, out, err = run(capsys, "cache", "load", str(path))
    assert code == 3 and "lowest terms" in err


def test_cache_off_shell_record_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "airyqc-correlator-cache", "version": 1, "count": 1, '
                    '"records": [{"g": 1, "a": [5], "value": "7"}]}')
    code, out, err = run(capsys, "correlator", "1", "5", "--cache", str(path))
    assert code == 3 and out == "" and "off-shell" in err


def test_cache_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "cache", "load", str(tmp_path / "nope.json"))
    assert code == 3 and "cannot read" in err


def test_deterministic_output(capsys):
    first = run(capsys, "table", "W", "2", "2")
    second = run(capsys, "table", "W", "2", "2")
    assert first == second
