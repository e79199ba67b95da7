import doctest
import importlib
import pkgutil

import pytest

import _oracles
import airyqc

MODULES = sorted(m.name for m in pkgutil.iter_modules(airyqc.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"airyqc.{name}")
    failures, _ = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert failures == 0


def test_oracle_doctests():
    failures, tested = doctest.testmod(_oracles, optionflags=doctest.ELLIPSIS)
    assert failures == 0 and tested > 0
