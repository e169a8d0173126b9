"""Package surface: every exported name resolves, the package imports whole, the README example runs."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import cbflab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cbflab.__path__, "cbflab."))
REMOVED = ("step_deterministic", "step_conjugated", "step_stratonovich", "z_eval", "ConjugationProcess")


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
    assert {"solve", "cocycle_eval", "cutoff_xi", "conjugation"} <= set(namespace)
    for name in REMOVED:
        assert name not in namespace
        assert not hasattr(cbflab, name)


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (library)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["1.0", "2.0"]
