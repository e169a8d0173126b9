"""Package surface: every exported name resolves and the package imports whole."""

import importlib
import pkgutil

import pytest

import cbflab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cbflab.__path__, "cbflab."))
REMOVED = ("step_deterministic", "step_conjugated", "step_stratonovich", "z_eval")


def test_modules_found():
    assert {"cbflab.cli", "cbflab.domain", "cbflab.integrators", "cbflab.pullback"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_star_import():
    namespace = {}
    exec("from cbflab import *", namespace)
    assert {"solve", "cocycle_eval", "cutoff_xi", "ConjugationProcess"} <= set(namespace)
    for name in REMOVED:
        assert name not in namespace
        assert not hasattr(cbflab, name)
