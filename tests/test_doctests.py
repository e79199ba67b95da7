import doctest
import importlib
import pkgutil

import pytest

import airyqc
import airyqc.core
import airyqc.correlators


def test_core_doctests():
    failures, _ = doctest.testmod(airyqc.core, optionflags=doctest.ELLIPSIS)
    assert failures == 0


def test_correlator_doctests():
    failures, _ = doctest.testmod(airyqc.correlators, optionflags=doctest.ELLIPSIS)
    assert failures == 0


# every other module of the package; core and correlators are run above
OTHER_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(airyqc.__path__) if m.name not in ("__main__", "core", "correlators")
)


@pytest.mark.parametrize("name", OTHER_MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"airyqc.{name}")
    failures, _ = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert failures == 0
