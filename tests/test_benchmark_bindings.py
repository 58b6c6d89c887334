"""The benchmark's bindings into the package still resolve.

``perfbench/tracer.py`` looks up every (module, function) of ``SPANNED`` and
``COUNTED`` with ``getattr``, and ``perfbench/verify.py`` imports its
reference evaluators by ``from charwin.X import Y``.  A rename or deletion
under ``src/`` that drops one of those names breaks the benchmark run, not
the program; this test reads both files with ``ast`` and fails first.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py no longer assigns {name}")


def _bindings() -> list[tuple[str, str]]:
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    pairs = list(_assigned(tracer, "SPANNED")) + list(_assigned(tracer, "COUNTED"))
    verify = ast.parse((PERFBENCH / "verify.py").read_text())
    pairs += [
        (node.module.removeprefix("charwin."), alias.name)
        for node in ast.walk(verify)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("charwin.")
        for alias in node.names
    ]
    return sorted(set(pairs))


def test_bindings_are_found():
    # the tracer spans the summary reducer, and the verifier imports window_sum
    assert ("windows", "power_sum") in _bindings()
    assert ("windows", "window_sum") in _bindings()


@pytest.mark.parametrize("module, name", _bindings())
def test_benchmark_binding_resolves(module, name):
    assert hasattr(importlib.import_module(f"charwin.{module}"), name), f"charwin.{module}.{name}"
