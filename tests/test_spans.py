"""The benchmark's span table still names real functions and methods.

``bench/spans.py`` wraps ``murec`` names by string, so a rename would only
surface in a traced benchmark run.  This loads the module by file path and
resolves every name it lists.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_span_resolves_on_its_module_or_class():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.SPANS.items():
        module = spans.LAYERS[layer]
        for name in names:
            cls_name, _, attr = name.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            if attr not in vars(owner or object):
                missing.append(f"{layer}.{name}")
    assert missing == []
