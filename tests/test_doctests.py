"""The examples in the docstrings of the eqidx modules."""

import doctest
import importlib
import pkgutil

import eqidx


def test_module_doctests():
    attempted = 0
    for info in pkgutil.iter_modules(eqidx.__path__):
        module = importlib.import_module(f"eqidx.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    # rep_rings documents the Burnside-ring product and its reduction
    assert attempted >= 4
