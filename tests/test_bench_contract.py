"""What the benchmark in ``bench/`` reaches into ``murec`` for, pinned so a source change cannot break it silently.

``bench/spans.py`` wraps the functions and methods its ``SPANS`` names for
the traced run, and ``bench/workloads.py`` imports names from ``murec``
modules.  A rename in ``src/`` would otherwise surface only when the
benchmark runs.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

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
