"""Pinned CLI output: refactors must leave every byte the CLI prints or
writes unchanged.

Each command runs in-process through ``airyqc.cli.main``; the pinned value
is the sha256 of the JSON list [exit code, stdout, stderr].  A deliberate
output change re-pins the digests it moves and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from airyqc.cli import main

GOLDEN = {
    "correlator 2 4": "b010469f0ec16d80d0150ee2ef32e04dcc89a8c62b37443d94963059cbd50a82",
    "correlator 3 3,2,1,1,1": "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "correlator 4 5,4,4,0 --stats": "6bb3bb305f94b6b98e16213163872a1a18d89330516d73f7d0e7c7f5b0bc46f1",
    "correlator 0 2,1,0,0,0,0": "3664dc7cef1188c7bc0ebd9e452a0856d6c63e57239371f5f4dda2f0d1eaaa03",
    "correlator 5 13": "f5c32b92aa4a13e7cfba3cb216f7c936e825f57a3d6331ce8692551634d7b755",
    "table W 2 2": "2bfcde603efdcd6dd67cab3be3c316ecdb05037db5467bb6d047905f7cce515c",
    "table omega 1 3 --format json": "07acef93d4867cea46cdddb4c1726cd7c9cd192cf9eda9f6d39e8906fb8c2149",
    "table Omega 2 2": "3a523f031e543e3ed7881868bf6fb4579e95d59b3bd0886a7a360ad16c7b7b39",
    "table W 0 2": "ba4f58f2f5189f40e4690cef8f3fdc05e64ed026708ac40fde8e505c6fb55c34",
    "sn 8 --branch -": "3bc59e9edac50d5661d5e8f5a91b33aa03432ded9e92fafb08772649d60a0b92",
    "sn 12 --format json": "74095b0f9b3aa708e11a19c8204f728a3c0c832028e104c66c0503f990412101",
    "verify quantum-curve --order 14": "6563dedbc3fe7e8a6e13292743d65d9c4602a5716964a2c91fc43f85213b891d",
    "verify dvv-eo --max-chi 5": "e946e26bfaf0c5564b99324d4e458e6642fc95e68833771e3092188cf75ca9d1",
    "verify omega-rec --max-chi 5": "f418c1ebda75008c1c60c57467a44d372f6e3f2fc6cd1782598899c502b7289b",
    "verify Omega-rec --max-chi 5": "053adb2382060fd24e9f48e3d69e12638bc99cb4a7c970ba45004016bc244232",
    "verify d-lemma --max-m 20": "a8e2cd09c057bd1627e52827e2fa35b8af9805e46b94947ebb68895ecf532215",
    "verify t-rec --order 12": "4d5fc23d5f27eb60de92d9a57913edf7f1056d8d3ae1071fbeeb3c0c01dc254a",
}

# sha256 of the file written by `cache save <path> --max-chi 9`
CACHE_CHI9 = "2ad01d5f44c601ec3797792707ae672d40a330ddcf54a592225deefefa7818e8"


@pytest.fixture(autouse=True)
def no_env_cache(monkeypatch):
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_pinned(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert digest == GOLDEN[command]


def test_cache_file_pinned(tmp_path):
    path = tmp_path / "chi9.json"
    assert main(["cache", "save", str(path), "--max-chi", "9"]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_CHI9
