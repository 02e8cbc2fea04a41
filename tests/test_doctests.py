"""Run the examples in the docstrings of every tbraid module."""

import doctest
import importlib
import pkgutil

import pytest

import tbraid

MODULES = sorted(m.name for m in pkgutil.iter_modules(tbraid.__path__, "tbraid."))

# Modules whose docstrings carry examples; each must keep at least one.
WITH_EXAMPLES = ("tbraid.braid", "tbraid.freegroup", "tbraid.gn", "tbraid.quotient")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
    if name in WITH_EXAMPLES:
        assert result.attempted > 0
