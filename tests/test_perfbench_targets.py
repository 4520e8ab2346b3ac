"""The benchmark's hooks still find what they wrap.

``perfbench/layers.py`` names the functions and methods it traces as
``module:qualname``, and its tracer replaces each one through its owner's
own ``__dict__``. A refactor that renames, moves or inherits one of them
breaks the benchmark; this test makes ``pytest tests/`` fail first.
"""
import importlib
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``spans`` and ``layers`` modules, imported as the
    benchmark runner imports them (``layers`` imports ``spans``)."""
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    names = ("spans", "layers")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)


def test_every_target_resolves_in_its_owner(perfbench):
    spans, layers = perfbench
    assert layers.TARGETS
    for target in layers.TARGETS:
        owner, attr, fn = spans.resolve(target)
        assert callable(fn), target
        assert attr in vars(owner), f"{target} is not defined on its owner itself"
