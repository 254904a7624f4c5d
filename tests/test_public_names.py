"""Every name a module lists in ``__all__`` exists and star-imports."""

import importlib
import pkgutil

import pytest

import fdrthresh

MODULES = ["fdrthresh"] + [f"fdrthresh.{m.name}" for m in pkgutil.iter_modules(fdrthresh.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
