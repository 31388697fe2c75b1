"""The benchmark under ``perfbench/`` reaches into gapsvt by name: its tracer
hooks module attributes with ``getattr``, and its workloads call entry points
of ``gapsvt`` and ``gapsvt.verifier``.  A rename in ``src/`` that breaks
either fails here, inside the default test paths; ``perfbench/test_bench.py``
would catch it only when run by hand."""

import ast
import importlib.util
import os
import sys

import gapsvt
from gapsvt import verifier

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_tracer_hook_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up there
    spec.loader.exec_module(tracer)
    hooks = tracer.gapsvt_hooks()
    assert hooks
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in hooks if not callable(getattr(module, attr, None))]
    assert missing == []


def test_every_name_the_benchmark_calls_resolves():
    with open(os.path.join(PERFBENCH, "bench.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gapsvt"
        for alias in node.names
    }
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "verifier"
    }
    assert "check_alignment_soundness" in called
    assert [name for name in sorted(imported) if not hasattr(gapsvt, name)] == []
    assert [name for name in sorted(called) if not hasattr(verifier, name)] == []
