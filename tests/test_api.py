"""Every module's public name list matches what the module defines."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import vcoupler

MODULES = [f"vcoupler.{m.name}" for m in pkgutil.iter_modules(vcoupler.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name):
    module = importlib.import_module(name)
    for public in getattr(module, "__all__", ()):
        assert hasattr(module, public), f"{name}.__all__ names {public!r}, which it lacks"
        defined_in = getattr(getattr(module, public), "__module__", name)
        assert defined_in == name, f"{name}.__all__ names {public!r}, defined in {defined_in}"
