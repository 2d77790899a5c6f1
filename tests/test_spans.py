"""The benchmark's span table and imports still name real functions and methods.

``bench/spans.py`` wraps ``murec`` names by string, and the other benchmark
modules import ``murec`` names, so a rename would only surface in a benchmark
run.  These tests load the span table by file path, read the other modules'
source without running it, and resolve every name they use.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

from conftest import ADD
from murec import CompiledProgram, compile_program, run_diff

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS_PATH = BENCH / "spans.py"


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


def test_every_murec_name_a_benchmark_module_imports_exists():
    imported, missing = [], []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "murec"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported.append(alias.name)
                # A name is an attribute of the module, or a package's submodule.
                submodule = hasattr(module, "__path__") and importlib.util.find_spec(f"{node.module}.{alias.name}")
                if not (hasattr(module, alias.name) or submodule):
                    missing.append(f"{path.name}: from {node.module} import {alias.name}")
    assert missing == []
    assert {"ConstEmit", "Join", "bind_args", "CompiledProgram", "cli"} <= set(imported)


def test_a_compile_and_a_diff_validate_nothing_and_a_load_validates_once():
    # The compiler's circuit is valid by the lowering's tested claim, not by a
    # check; a loaded file is checked.  The span must still see that call, or
    # the per-layer validate metrics read 0 on every workload that loads.
    spans = _load_spans()
    with spans.Tracer() as tracer:
        program = compile_program(ADD)
        report = run_diff(ADD, program, [(0, 0), (1, 2), (3, 1), (2, 5)])
    assert (report.cases, report.mismatches) == (4, [])
    assert tracer.calls["circuit.Circuit.validate"] == 0
    text = program.serialize()
    with spans.Tracer() as tracer:
        CompiledProgram.deserialize(text)
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
