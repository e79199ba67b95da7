import pytest

from airyqc import CorrelatorTable, eo_shell


@pytest.fixture(autouse=True)
def _no_user_cache(monkeypatch):
    """No test reads the cache file named by the user's environment."""
    monkeypatch.delenv("AIRYQC_CACHE", raising=False)


@pytest.fixture(scope="session")
def table():
    """One shared correlator table; the memo is write-once, so sharing it
    across tests only ever saves recomputation."""
    t = CorrelatorTable()
    t.fill_shell(6)
    return t


@pytest.fixture(scope="session")
def wtable6():
    """Eynard-Orantin cells through 2g - 2 + n = 6."""
    return eo_shell(6)
