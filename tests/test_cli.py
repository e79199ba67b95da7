import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from airyqc import cli
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


def test_verify_d_lemma_honours_max_chi(capsys):
    code, out, _ = run(capsys, "verify", "d-lemma", "--max-m", "0", "--max-chi", "5")
    assert code == 0
    assert out.splitlines()[-1] == "ok d-lemma bridge (g,n)=(3,1) i=1"


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


def test_cache_wrong_dilaton_record_exits_3(tmp_path, capsys):
    # <tau_1^3>_1 = 2 <tau_1^2>_1 = 1/12; nothing downstream of a chi <= 3
    # file reads it, so only the loader's dilaton check can catch it
    path = tmp_path / "shell.json"
    assert run(capsys, "cache", "save", str(path), "--max-chi", "3")[0] == 0
    good = '{"g": 1, "a": [1, 1, 1], "value": "1/12"}'
    text = path.read_text()
    assert text.count(good) == 1
    path.write_text(text.replace(good, good.replace("1/12", "1/13")))
    code, out, err = run(capsys, "correlator", "2", "4", "--cache", str(path))
    assert (code, out) == (3, "")
    assert "record #7 (line 13)" in err and "dilaton" in err


_ONE_RECORD_FILE = (
    '{\n"format": "airyqc-correlator-cache",\n"version": 1,\n"count": 1,\n"records": [\n'
    '{"g": 0, "a": [1, 0, 0, 0], "value": "2"}\n]\n}\n'
)


@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            '{"g": 1, "a": [1], "value": "1/24"}',
            '{"g": 1, "a": [1], "value": "1/12"}',
            "record #1 (line 7): value '1/12' conflicts with known '1/24'",
        ),
        (
            '{"g": 1, "a": [1, 1, 1], "value": "1/12"}',
            '{"g": 1, "a": [1, 1, 1], "value": "1/13"}',
            "record #7 (line 13): value '1/13' breaks the dilaton equation, which gives '1/12'",
        ),
        (None, _ONE_RECORD_FILE, "record #0 (line 6): value '2' breaks the dilaton equation, which gives '1'"),
        ('"a": [2, 0]', '"a": [0, 2]', "record #4 (line 10): exponents [0, 2] not sorted descending"),
        (
            '"a": [4], "value": "1/1152"',
            '"a": [5], "value": "1/1152"',
            "record #10 (line 16): off-shell key: sum(a) = 5, not 3g - 3 + n = 4",
        ),
        (
            '{"g": 1, "a": [1], "value": "1/24"}',
            '{"g": 1, "a": [1], "value": "2/48"}',
            "record #1 (line 7): non-canonical rational '2/48': not in lowest terms",
        ),
        (
            '{"g": 1, "a": [1, 1], "value": "1/24"},\n{"g": 1, "a": [2, 0], "value": "1/24"}',
            '{"g": 1, "a": [2, 0], "value": "1/24"},\n{"g": 1, "a": [1, 1], "value": "1/24"}',
            "record #4 (line 10): records out of canonical order (or duplicated)",
        ),
        (
            '{"g": 0, "a": [1, 0, 0, 0]',
            '{"g": false, "a": [1, 0, 0, 0]',
            "record #2 (line 8): genus must be a non-negative integer, got False",
        ),
        (None, "[]\n", "top level is not an object"),
        ('"format": "airyqc-correlator-cache"', '"format": "airyqc-cache"', "unknown format 'airyqc-cache'"),
        ('"records": [', '"records": {}, "rows": [', "'records' is not a list"),
        (
            '{"g": 1, "a": [1], "value": "1/24"}',
            '{"g": 1, "a": [1], "value": "1/24", "note": ""}',
            "record #1 (line 7): expected keys g, a, value",
        ),
    ],
    ids=[
        "seed-conflict", "dilaton-record", "dilaton-seed", "unsorted", "off-shell", "2/48", "order", "bool-genus",
        "top-level", "format", "records", "record-keys",
    ],
)
def test_cache_record_faults_pinned(tmp_path, capsys, monkeypatch, old, new, message):
    # one fault per file, in a chi <= 3 file from `cache save` unless the
    # case replaces the whole file
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)
    path = tmp_path / "shell.json"
    assert run(capsys, "cache", "save", str(path), "--max-chi", "3")[0] == 0
    text = path.read_text()
    if old is not None:
        assert text.count(old) == 1
    path.write_text(new if old is None else text.replace(old, new))
    result = run(capsys, "correlator", "2", "4", "--cache", str(path))
    assert list(result) == [3, "", f"cache error: {message}\n"]


@pytest.mark.parametrize(
    "record",
    ['{"g": -1, "a": [0, 0, 0], "value": "1"}', '{"g": 0, "a": 5, "value": "1"}'],
)
def test_cache_load_bad_key_exits_3(tmp_path, capsys, record):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "airyqc-correlator-cache", "version": 1, "count": 1, '
                    f'"records": [{record}]}}')
    code, out, err = run(capsys, "cache", "load", str(path))
    assert code == 3 and out == "" and "record #0 (line 6)" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("correlator -1 1", (2, "", "error: genus must be a non-negative integer, got -1\n")),
        ("table Omega 2 0", (2, "", "error: unstable (g, n) = (2, 0)\n")),
        ("table omega 0 2", (2, "", "error: unstable (g, n) = (0, 2)\n")),
        ("verify d-lemma --max-m 0 --max-chi 0", (0, "ok d-lemma m=0\n", "")),
        ("verify quantum-curve --order 0", (0, "ok quantum-curve order 0 branch +\nok quantum-curve order 0 branch -\n", "")),
        (
            "verify quantum-curve --order 1",
            (0, "".join(f"ok quantum-curve order {n} branch {b}\n" for b in "+-" for n in (0, 1)), ""),
        ),
    ],
)
def test_cell_guards_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)
    assert run(capsys, *argv.split()) == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify dvv-eo --max-chi -1", "--max-chi must be >= 0, got -1"),
        ("verify omega-rec --max-chi -1", "--max-chi must be >= 0, got -1"),
        ("verify d-lemma --max-chi -2 --max-m 0", "--max-chi must be >= 0, got -2"),
        ("verify t-rec --order -3", "--order must be >= 0, got -3"),
        ("verify t-rec --order 2", "--order must be >= 3, got 2"),
        ("verify d-lemma --max-m -5", "--max-m must be >= 0, got -5"),
        ("verify dvv-eo --max-chi 0", "--max-chi must be >= 1, got 0"),
        ("verify omega-rec --max-chi 0", "--max-chi must be >= 1, got 0"),
        ("verify Omega-rec --max-chi 0", "--max-chi must be >= 1, got 0"),
        ("cache save shell.json --max-chi 0", "--max-chi must be >= 1, got 0"),
        ("cache save shell.json --max-chi -1", "--max-chi must be >= 1, got -1"),
    ],
)
def test_negative_suite_bounds_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    # each ran no check, or dropped every m check, and exited 0, or (cache
    # save) named the library's parameter max_chi
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        ("sn 6", 0, "cache hits=22 misses=11\n"),
        ("sn 1", 0, "cache hits=0 misses=0\n"),
        ("verify quantum-curve --order 4", 0, "cache hits=11 misses=3\n"),
        ("verify t-rec --order 3", 0, "cache hits=2 misses=0\n"),
    ],
)
def test_stats_on_sn_and_verify(capsys, monkeypatch, argv, code, expected):
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)
    plain = run(capsys, *argv.split())
    assert plain[0] == code and plain[2] == ""
    assert run(capsys, *argv.split(), "--stats") == (code, plain[1], expected)


def test_stats_on_failing_verify(tmp_path, capsys, monkeypatch):
    # <tau_4>_2 = 1/1152 holds no tau_1, and 1/576 = 210/120960 is a whole
    # multiple of its unit 1/(9!! 2^7), so the file loads; S_4 reads it
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)
    path = tmp_path / "wrong.json"
    path.write_text('{"format": "airyqc-correlator-cache", "version": 1, "count": 1, '
                    '"records": [{"g": 2, "a": [4], "value": "1/576"}]}')
    code, out, err = run(capsys, "verify", "quantum-curve", "--order", "4", "--cache", str(path), "--stats")
    assert code == 1 and out.splitlines()[-1].startswith("FAIL quantum-curve order 4 ")
    assert re.fullmatch(r"cache hits=\d+ misses=\d+\n", err)


@pytest.mark.parametrize(
    "suite, last",
    [
        ("omega-rec", "FAIL omega-rec omega_(2,1) step: first differing orbit (5,): rec=105/128, def=105/64"),
        ("Omega-rec", "FAIL Omega-rec Omega_(2,1) step: first differing orbit (9,): rec=35/384, def=35/192"),
        ("dvv-eo", "FAIL dvv-eo W_(2,1): first differing orbit (4,): eo=105/128, dvv=105/64"),
    ],
)
def test_failing_cell_suites_name_the_orbit(tmp_path, capsys, suite, last):
    # the loadable wrong record <tau_4>_2 = 1/576 doubles every (2, 1) cell
    # built from the table; each suite stops at its first differing orbit
    path = tmp_path / "wrong.json"
    path.write_text('{"format": "airyqc-correlator-cache", "version": 1, "count": 1, '
                    '"records": [{"g": 2, "a": [4], "value": "1/576"}]}')
    code, out, err = run(capsys, "verify", suite, "--max-chi", "3", "--cache", str(path))
    assert (code, out.splitlines()[-1], err) == (1, last, "")


def test_cache_value_off_the_scale_exits_3(tmp_path, capsys, monkeypatch):
    # every value the table computes for <tau_4>_2 is a multiple of 1/(9!! 2^7)
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)
    path = tmp_path / "wrong.json"
    path.write_text('{"format": "airyqc-correlator-cache", "version": 1, "count": 1, '
                    '"records": [{"g": 2, "a": [4], "value": "1/1151"}]}')
    code, out, err = run(capsys, "correlator", "2", "4", "--cache", str(path))
    assert (code, out) == (3, "")
    assert err == ("cache error: record #0 (line 6): value '1/1151' is not a multiple of 1/120960, "
                   "as every value of this key is\n")


def test_cache_dilaton_record_checked_against_seed(tmp_path, capsys, monkeypatch):
    # <tau_1 tau_0^3>_0 = 1 * <tau_0^3>_0 = 1; the lower key is a seed, not a record
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)
    path = tmp_path / "wrong.json"
    path.write_text('{"format": "airyqc-correlator-cache", "version": 1, "count": 1, '
                    '"records": [{"g": 0, "a": [1, 0, 0, 0], "value": "2"}]}')
    code, out, err = run(capsys, "verify", "quantum-curve", "--order", "4", "--cache", str(path))
    assert (code, out) == (3, "")
    assert "record #0 (line 6)" in err and "breaks the dilaton equation, which gives '1'" in err


def test_cache_boolean_fields_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    header = '{"format": "airyqc-correlator-cache", "version": %s, "count": 1, '
    record = '"records": [{"g": false, "a": [true, false, false, false], "value": "1"}]}'
    path.write_text(header % "true" + record)
    code, out, err = run(capsys, "correlator", "0", "1,0,0,0", "--cache", str(path))
    assert (code, out) == (3, "") and "unsupported version True" in err
    path.write_text(header % "1" + record)
    code, out, err = run(capsys, "correlator", "0", "1,0,0,0", "--cache", str(path))
    assert (code, out) == (3, "") and "record #0 (line 6)" in err and "False" in err


def test_cache_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "cache", "load", str(tmp_path / "nope.json"))
    assert code == 3 and "cannot read" in err


@pytest.mark.parametrize("target", ["dir", "missing_dir/x.json"])
def test_cache_unwritable_save_path_exits_3(tmp_path, capsys, target):
    # exit 1 is kept for a verification counterexample
    path = tmp_path / target
    if target == "dir":
        path.mkdir()
    code, out, err = run(capsys, "cache", "save", str(path), "--max-chi", "1")
    assert (code, out) == (3, "") and err.startswith(f"cache error: cannot write {path}: ")


@pytest.mark.parametrize(
    "argv", [("cache", "load", "{path}"), ("correlator", "1", "1", "--cache", "{path}")], ids=["cache-load", "--cache"]
)
def test_cache_non_ascii_file_exits_3(tmp_path, capsys, monkeypatch, argv):
    # a UnicodeDecodeError is a ValueError, which would exit 2 as a domain error
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"format": "\xc3"}')
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, out) == (3, "") and err.startswith(f"cache error: cannot read {path}: 'ascii' codec can't decode")


@pytest.mark.parametrize("via", ["--cache", "AIRYQC_CACHE"])
def test_named_missing_cache_exits_3(tmp_path, capsys, monkeypatch, via):
    missing = str(tmp_path / "nope.json")
    flag = ("--cache", missing) if via == "--cache" else ()
    if via == "AIRYQC_CACHE":
        monkeypatch.setenv("AIRYQC_CACHE", missing)
    # the cache is read before the suite bounds are checked
    for argv in (("correlator", "2", "4"), ("table", "W", "1", "1"), ("sn", "3"), ("verify", "t-rec", "--order", "2"),
                 ("sn", "0"), ("sn", "1"), ("verify", "dvv-eo", "--max-chi", "-1")):
        code, out, err = run(capsys, *argv, *flag)
        assert (code, out) == (3, "") and f"cannot read {missing}:" in err, argv


def test_empty_cache_option_overrides_the_environment(tmp_path, capsys, monkeypatch):
    # --cache takes precedence even when empty: it starts from an empty table
    monkeypatch.setenv("AIRYQC_CACHE", str(tmp_path / "nope.json"))
    assert run(capsys, "correlator", "1", "1", "--cache", "", "--stats") == (0, "1/24\n", "cache hits=1 misses=0\n")


@pytest.mark.parametrize("argv", ["correlator 2 4", "table W 1 1", "sn 0", "sn 3", "verify t-rec --order 3"])
def test_main_owns_the_table(tmp_path, capsys, monkeypatch, argv):
    # main makes the one table of a command, and --stats prints one line after stdout
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)
    made, loaded = [], []
    real_load = cli.load_table

    class CountedTable(cli.CorrelatorTable):
        def __init__(self):
            super().__init__()
            made.append(self)

    def counted_load(path):
        loaded.append(path)
        return real_load(path)

    monkeypatch.setattr(cli, "CorrelatorTable", CountedTable)
    monkeypatch.setattr(cli, "load_table", counted_load)
    code, plain, err = run(capsys, *argv.split())
    assert (code, err, len(made), loaded) == (0, "", 1, [])

    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        assert main([*argv.split(), "--stats"]) == 0
    assert len(made) == 2 and both.getvalue() == plain + f"cache hits={made[1].hits} misses={made[1].misses}\n"

    path = tmp_path / "shell.json"
    assert main(["cache", "save", str(path), "--max-chi", "2"]) == 0
    capsys.readouterr()
    made.clear()
    assert run(capsys, *argv.split(), "--cache", str(path)) == (0, plain, "")
    assert (len(made), loaded) == (0, [str(path)])

    missing = str(tmp_path / "nope.json")
    code, out, err = run(capsys, *argv.split(), "--cache", missing, "--stats")
    assert (code, out) == (3, "") and err.startswith(f"cache error: cannot read {missing}:") and err.count("\n") == 1


def test_table_Omega_json_half_steps(capsys):
    code, out, err = run(capsys, "table", "Omega", "1", "2", "--format", "json")
    assert (code, err) == (0, "")
    assert out == ('{"kind": "Omega", "g": 1, "n": 2, "terms": [{"orbit": ["5/2", "1/2"], "coeff": "1/8"}, '
                   '{"orbit": ["3/2", "3/2"], "coeff": "1/24"}]}\n')


def test_too_deep_input_exits_2(capsys):
    # <tau_1000 tau_0^1002>_0 = 1 walks a string chain 1000 levels deep
    exponents = ",".join(["1000"] + ["0"] * 1002)
    assert list(run(capsys, "correlator", "0", exponents)) == [2, "", "error: input too deep for the recursion limit\n"]


def test_string_chain_bound_computes_in_one_process():
    # <tau_495 tau_0^497>_0 = 1 is the deepest string chain that a single
    # process computes at the default recursion limit, two frames a level;
    # any frame added per memo read would push it past the limit
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("AIRYQC_CACHE", None)
    exponents = ",".join(["495"] + ["0"] * 497)
    result = subprocess.run([sys.executable, "-m", "airyqc", "correlator", "0", exponents], capture_output=True, text=True, env=env, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", "")


def test_too_deeply_nested_cache_exits_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    result = run(capsys, "correlator", "2", "4", "--cache", str(path))
    assert list(result) == [3, "", "cache error: not valid JSON: nested too deeply\n"]


def test_deterministic_output(capsys):
    first = run(capsys, "table", "W", "2", "2")
    second = run(capsys, "table", "W", "2", "2")
    assert first == second


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI process pays for what ``import airyqc.cli`` loads
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, airyqc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
