"""What the benchmark in ``bench/`` reaches into ``murec`` for, pinned so a source change cannot break it silently.

``bench/spans.py`` wraps the functions and methods its ``SPANS`` names for
the traced run, and ``bench/workloads.py`` and ``bench/run.py`` import names
from ``murec`` modules and call them.  A rename or a changed signature in
``src/`` would otherwise surface only when the benchmark runs.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_a_function_or_method_that_exists():
    # Looked up as Tracer.__enter__ does: a module attribute, or an attribute
    # in the class's own __dict__ for "Class.method".
    spans = _spans_module()
    missing = []
    for layer, names in spans.SPANS.items():
        module = spans.LAYERS[layer]
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                found = attr in getattr(getattr(module, cls_name, None), "__dict__", {})
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_every_murec_name_the_workloads_import_exists():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "murec"
        for alias in node.names
    ]
    assert imported, "bench/workloads.py imports nothing from murec"
    missing = [f"{module}.{name}" for module, name in imported if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def _imported(module: str, name: str) -> object:
    """What ``from module import name`` binds: an attribute of the module, else its submodule."""
    found = getattr(importlib.import_module(module), name, None)
    return importlib.import_module(f"{module}.{name}") if found is None else found


def _murec_calls(path: Path) -> list[tuple[str, object, ast.Call]]:
    """Each call in the file to a name imported from ``murec``, or to an attribute of one.

    As ``(the callee's text, the callee, the call)``; a call spreading ``*`` or
    ``**`` arguments cannot be bound without running it, so it is left out.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: _imported(node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "murec"
        for alias in node.names
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(isinstance(arg, ast.Starred) for arg in node.args):
            continue
        if any(keyword.arg is None for keyword in node.keywords):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            calls.append((func.id, imported[func.id], node))
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in imported:
            owner = imported[func.value.id]
            calls.append((ast.unparse(func), getattr(owner, func.attr, None), node))
    return calls


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_every_call_the_benchmark_makes_to_murec_binds_to_its_signature(name):
    calls = _murec_calls(BENCH / name)
    assert calls, f"bench/{name} calls nothing from murec"
    unbound = []
    for text, callee, call in calls:
        if not callable(callee):
            unbound.append(f"{name}:{call.lineno} {text} is not callable")
            continue
        try:
            inspect.signature(callee).bind(*call.args, **{keyword.arg: keyword.value for keyword in call.keywords})
        except TypeError as exc:
            unbound.append(f"{name}:{call.lineno} {text}: {exc}")
    assert unbound == []
