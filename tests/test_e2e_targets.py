"""The end-to-end benchmark's traced layers still exist in the library.

``benchmarks/e2e`` wraps library callables by module and qualified
name, so a rename would otherwise surface only when the benchmark runs.
Resolving every target here makes such a rename fail the test suite.
"""

import importlib

import pytest

from benchmarks.e2e.layers import TARGETS


@pytest.mark.parametrize(
    "target", TARGETS, ids=lambda t: f"{t.module}:{t.qualname}"
)
def test_target_resolves_to_a_callable(target):
    owner = importlib.import_module(target.module)
    for name in target.qualname.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
