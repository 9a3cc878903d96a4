"""The benchmark finds every name it imports, patches or selects.

``perfbench/layertrace.py`` wraps public functions and methods of
``src/`` by name, and ``perfbench/workloads.py`` selects registry
families and options by name (``backend: vector``), so renaming one of
them breaks the benchmark.  The benchmark's own self-tests run whole
cells, on one Python version; these checks are cheap, so a rename fails
the tier-1 suite on every version instead.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.fl import registry
from repro.fl.config import FLConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Import a perfbench module by path, under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _repro_imports() -> list[tuple[str, str]]:
    """``(module, name)`` of every ``from repro... import name`` in the tracer."""
    tree = ast.parse((PERFBENCH / "layertrace.py").read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]


@pytest.mark.parametrize("module, name", _repro_imports())
def test_imported_name_exists(module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):  # a submodule: ``from repro.fl import registry``
        importlib.import_module(f"{module}.{name}")


def test_patched_names_exist_for_every_workload():
    layertrace, workloads = _load("layertrace"), _load("workloads")
    algorithms = registry.classes("algorithm")
    missing = [
        f"{workload.name}: {getattr(owner, '__name__', owner)}.{attr}"
        for workload in workloads.WORKLOADS.values()
        for owner, attr, _, _ in layertrace._patch_points(
            algorithms[workload.method]
        )
        if not hasattr(owner, attr)
    ]
    assert not missing, missing


def test_workload_options_resolve():
    """Every workload's ``fl_options`` name registered families, options
    and values, so a config built from them validates."""
    for workload in _load("workloads").WORKLOADS.values():
        config_overrides, extra_overrides = registry.apply_options(
            workload.fl_options
        )
        FLConfig(**config_overrides).with_extra(**extra_overrides)
