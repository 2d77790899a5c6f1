"""The benchmark's span table still names real functions and methods.

``bench/spans.py`` wraps ``murec`` names by string, so a rename would only
surface in a traced benchmark run.  This loads the module by file path and
resolves every name it lists.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import ADD
from murec import CompiledProgram, compile_program, run_diff

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_resolves_on_its_module_or_class():
    spans = _load_spans()
    missing = []
    for layer, names in spans.SPANS.items():
        module = spans.LAYERS[layer]
        for name in names:
            cls_name, _, attr = name.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            if attr not in vars(owner or object):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_a_compile_and_a_four_case_diff_validate_the_circuit_once():
    # Validation runs where a circuit is made; the engine trusts it.  The span
    # must still see that call, or the per-layer validate metrics read 0.
    spans = _load_spans()
    with spans.Tracer() as tracer:
        program = compile_program(ADD)
        report = run_diff(ADD, program, [(0, 0), (1, 2), (3, 1), (2, 5)])
    assert (report.cases, report.mismatches) == (4, [])
    assert tracer.calls["circuit.Circuit.validate"] == 1


def test_the_file_writer_and_reader_run_inside_their_spans():
    # The serialize/deserialize metrics add up these spans' self times; a
    # writer or reader moved under an unwrapped name would make them read 0.
    spans = _load_spans()
    with spans.Tracer() as tracer:
        text = compile_program(ADD).serialize()
        CompiledProgram.deserialize(text)
    for key in ("compiler.CompiledProgram.serialize", "compiler.CompiledProgram.deserialize"):
        assert tracer.calls[key] == 1, key
        assert tracer.self_s[key] > 0, key
