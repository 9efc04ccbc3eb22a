"""The names the benchmark's hooks reach into resolve against the package.

perfbench/ wraps functions by (module, qualified name), times `compose`
per node class through `FiniteGroup._finish`, and builds its set-up
probes through `agroups.cli`.  A rename or deletion in the package would
break `perfbench/run.py --trace 1` without failing any other test.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import agroups
from agroups import cli
from agroups.groups import FiniteGroup

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def hooks():
    """perfbench's spans and child modules, imported without writing bytecode."""
    sys.path.insert(0, PERFBENCH)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("spans"), importlib.import_module("child")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(PERFBENCH)


def test_all_names_resolve():
    assert [n for n in agroups.__all__ if not hasattr(agroups, n)] == []


def test_traced_functions_resolve(hooks):
    spans, _ = hooks
    missing = []
    for module_name, qualname in spans.TRACED:
        module = importlib.import_module(f"agroups.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        # Methods are replaced in their class's own __dict__.
        namespace = vars(owner) if owner is not None else {}
        if not callable(namespace.get(attr)):
            missing.append((module_name, qualname))
    assert missing == []


def test_node_types_resolve(hooks):
    _, child = hooks
    for name in child.NODE_TYPES:
        assert issubclass(getattr(agroups.groups, name), FiniteGroup), name
    assert callable(vars(FiniteGroup)["_finish"])
    # child.py times the instance compose of each node and wraps _finish(self).
    assert callable(vars(FiniteGroup)["compose"])
    assert list(inspect.signature(FiniteGroup._finish).parameters) == ["self"]


def test_setup_probe_names_resolve():
    assert callable(cli.build_family_group)
    assert callable(cli.FamilyParams.parse)
    assert callable(cli.parse_group_spec)
    assert isinstance(cli.DEFAULT_ELEMENT_CAP, int)
