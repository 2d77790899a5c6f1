"""Command-line interface: subcommands, file formats, exit codes."""
from __future__ import annotations

import functools
import gc
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import ADD_REC, MONUS_REC, MUL_REC, compose_chain
import murec
from murec import (
    CircuitBuilder,
    CompiledProgram,
    Engine,
    NeuronSpec,
    Port,
    Proj,
    SynapseSpec,
    cli,
    compile_program,
    run_program,
)
from murec.cli import main

ALWAYS_POSITIVE_REC = "(mu (compose (succ) ((proj 1 2))))"


@pytest.fixture()
def add_rec(tmp_path):
    path = tmp_path / "add.rec"
    path.write_text(ADD_REC + "\n")
    return path


@pytest.fixture()
def add_circuit(tmp_path, add_rec, capsys):
    assert main(["compile", str(add_rec)]) == 0
    capsys.readouterr()
    return tmp_path / "add.circuit.json"


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_writes_default_output_and_stats(add_rec, tmp_path, capsys):
    assert main(["compile", str(add_rec)]) == 0
    out = capsys.readouterr().out.splitlines()
    artifact = tmp_path / "add.circuit.json"
    assert artifact.exists()
    assert out[0] == f"wrote {artifact}"
    assert out[1].startswith("neurons=") and "trigger_cells=2" in out[1]
    assert out[1] == "neurons=56 synapses=107 native_gadgets=22 trigger_cells=2"
    assert out[2] == "latency=dynamic big_m=1000000000"
    circuit = CompiledProgram.deserialize(artifact.read_text()).circuit
    assert (len(circuit.neurons), len(circuit.synapses), len(circuit.gadgets)) == (56, 107, 22)
    inputs = sorted(circuit.ports_by_role("input"), key=lambda p: p.neuron)
    assert [p.name for p in inputs] == ["i", "x1"]


def test_compile_honours_explicit_output_path(add_rec, tmp_path, capsys):
    target = tmp_path / "out" / "add.json"
    target.parent.mkdir()
    assert main(["compile", str(add_rec), "-o", str(target)]) == 0
    assert target.exists()
    assert f"wrote {target}" in capsys.readouterr().out


def test_compile_names_the_output_after_a_source_not_named_rec(tmp_path, capsys):
    src = tmp_path / "prog.txt"
    src.write_text(ADD_REC + "\n")
    assert main(["compile", str(src)]) == 0
    artifact = tmp_path / "prog.txt.circuit.json"
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {artifact}"
    assert artifact.exists()


def test_compile_static_program_reports_its_latency(tmp_path, capsys):
    src = tmp_path / "plus2.rec"
    src.write_text("(compose (succ) ((succ)))\n")
    assert main(["compile", str(src)]) == 0
    assert "latency=static(4)" in capsys.readouterr().out


def test_compile_strict_mode_rejects_recursion(add_rec, capsys):
    assert main(["compile", str(add_rec), "--strict-primitive"]) == 2
    assert "strict primitive" in capsys.readouterr().err


def test_compile_rejects_malformed_source(tmp_path, capsys):
    src = tmp_path / "bad.rec"
    src.write_text("(prec (proj 1 1)\n")
    assert main(["compile", str(src)]) == 1
    assert "error:" in capsys.readouterr().err


def test_compile_missing_file_is_an_io_error(tmp_path, capsys):
    assert main(["compile", str(tmp_path / "nope.rec")]) == 1
    assert "error:" in capsys.readouterr().err


def test_compile_rejects_an_unseparated_big_m(add_rec, capsys):
    assert main(["compile", str(add_rec), "--big-m", "1"]) == 2
    capsys.readouterr()


def test_compile_takes_big_m_from_the_flag(add_rec, capsys):
    assert main(["compile", str(add_rec), "--big-m", "5001"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "latency=dynamic big_m=5001"


def test_diff_takes_big_m_from_the_flag(add_rec, capsys):
    assert main(["diff", str(add_rec), "--args", "0..1,0..1", "--big-m", "5001"]) == 0
    assert capsys.readouterr().out == "cases=4 mismatches=0 timeouts=0 seed=none\n"
    assert main(["diff", str(add_rec), "--args", "0..1,0..1", "--big-m", "1"]) == 2
    assert capsys.readouterr() == ("", "error: big_m=1 must be at least 2\n")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_reports_value_status_and_writes_the_raster(add_circuit, tmp_path, capsys):
    code = main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "y=5"
    assert out[1] == "status=quiescent clock=71"
    raster = tmp_path / "add.raster.csv"
    assert raster.exists()
    lines = raster.read_text().splitlines()
    assert lines[0] == "time,neuron,value,port"
    assert any(line.startswith("70,") and line.endswith(",5,y") for line in lines)


def test_run_jsonl_raster(add_circuit, tmp_path, capsys):
    assert main(["run", str(add_circuit), "--format", "jsonl", "--in", "i=1", "--in", "x1=0"]) == 0
    capsys.readouterr()
    raster = tmp_path / "add.raster.jsonl"
    rows = [json.loads(line) for line in raster.read_text().splitlines()]
    assert any(row["port"] == "y" and row["value"] == 1 for row in rows)


def test_run_trace_file_lists_deliveries(add_circuit, tmp_path, capsys):
    trace = tmp_path / "add.trace.csv"
    raster = tmp_path / "custom.raster.csv"
    code = main(
        [
            "run",
            str(add_circuit),
            "--in",
            "i=0",
            "--in",
            "x1=2",
            "--trace",
            str(trace),
            "--raster",
            str(raster),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert raster.exists()
    lines = trace.read_text().splitlines()
    assert lines[0] == "time,target,source,value"
    assert len(lines) > 10
    # injections carry no source id
    assert any(line.split(",")[2] == "" for line in lines[1:])


def test_run_rejects_unknown_and_missing_ports(add_circuit, capsys):
    assert main(["run", str(add_circuit), "--in", "i=1", "--in", "bogus=2"]) == 64
    assert "bogus" in capsys.readouterr().err
    assert main(["run", str(add_circuit), "--in", "i=1"]) == 64
    assert "x1" in capsys.readouterr().err


def test_run_rejects_malformed_bindings(add_circuit, capsys):
    assert main(["run", str(add_circuit), "--in", "i2"]) == 2
    capsys.readouterr()
    assert main(["run", str(add_circuit), "--in", "i=-1", "--in", "x1=0"]) == 2
    capsys.readouterr()
    assert main(["run", str(add_circuit), "--in", "i=abc", "--in", "x1=3"]) == 2
    assert capsys.readouterr().err == "error: input i must be an integer, got 'abc'\n"


@pytest.mark.parametrize("name", ["c.json", "c"])
def test_run_names_the_raster_after_a_circuit_file_not_named_circuit_json(add_circuit, tmp_path, capsys, name):
    args = ["--in", "i=1", "--in", "x1=2"]
    assert main(["run", str(add_circuit), *args]) == 0
    shutil.copy(add_circuit, tmp_path / name)
    assert main(["run", str(tmp_path / name), *args]) == 0
    capsys.readouterr()
    assert (tmp_path / "c.raster.csv").read_text() == (tmp_path / "add.raster.csv").read_text()


def test_run_rejects_a_port_bound_twice(add_circuit, capsys):
    assert main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3", "--in", "x1=4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input x1 is bound more than once\n"
    assert captured.out == ""


def test_arguments_bind_input_ports_in_node_id_order(tmp_path, capsys):
    # In name order x10..x12 would come before x2.
    args = list(range(100, 112))
    for k in range(1, 13):
        program = compile_program(Proj(k, 12))
        assert run_program(program, args).value == args[k - 1]
        artifact = tmp_path / f"proj{k}.circuit.json"
        artifact.write_text(program.serialize())
        argv = ["run", str(artifact)]
        for j, value in enumerate(args, 1):
            argv += ["--in", f"x{j}={value}"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"y={args[k - 1]}"


@pytest.mark.parametrize(
    "ports",
    [
        {"inputs": ["i", "x1"], "output": "y", "dummy": []},
        5,
        {"inputs": ["i", "nope"], "output": "y", "dummy": []},
        {"inputs": ["i", "x1"], "output": ["y"], "dummy": []},
    ],
    ids=["as_written", "not_an_object", "unknown_name", "list_output"],
)
def test_a_file_with_the_older_meta_ports_runs_like_the_new_one(add_circuit, tmp_path, capsys, ports):
    # Earlier versions copied the circuit's ports into meta.ports and its
    # counts into meta.stats; loading ignores both, whatever they hold.
    old = json.loads(add_circuit.read_text())
    circuit = old["circuit"]
    old["meta"] = {"ports": ports, **old["meta"]}
    old["meta"]["stats"] = {
        "neurons": len(circuit["neurons"]),
        "synapses": len(circuit["synapses"]),
        "native_gadgets": len(circuit["const_emits"]) + len(circuit["joins"]),
        "trigger_cells": 2,
    }
    old_path = tmp_path / "old.circuit.json"
    old_path.write_text(json.dumps(old, indent=2))
    results = []
    for path in (add_circuit, old_path):
        raster = tmp_path / f"{path.stem}.csv"
        assert main(["run", str(path), "--in", "i=2", "--in", "x1=3", "--raster", str(raster)]) == 0
        results.append((capsys.readouterr().out, raster.read_text()))
    assert results[0] == results[1]
    assert results[0][0] == "y=5\nstatus=quiescent clock=71\n"


def test_an_older_nullary_file_needs_its_hidden_port_bound(tmp_path, capsys):
    # Earlier versions gave a nullary program a hidden input port x1 in place
    # of the pulse it now injects itself, and bound that port to 0 by default.
    src = tmp_path / "c7.rec"
    src.write_text("(compose (succ) ((const 6 0)))\n")
    assert main(["compile", str(src)]) == 0
    capsys.readouterr()
    new = tmp_path / "c7.circuit.json"
    doc = json.loads(new.read_text())
    (pulse,) = [inj for inj in doc["circuit"]["injections"] if inj[1] == 0]
    doc["circuit"]["injections"].remove(pulse)
    doc["circuit"]["ports"].insert(0, ["x1", pulse[0], "input"])
    doc["meta"] = {"ports": {"inputs": [], "output": "y", "dummy": ["x1"]}, **doc["meta"]}
    old = tmp_path / "old_c7.circuit.json"
    old.write_text(json.dumps(doc, indent=2))

    assert main(["run", str(old)]) == 64
    assert capsys.readouterr().err == "error: unbound input port(s): x1\n"
    assert main(["run", str(new), "--in", "x1=0"]) == 64
    assert capsys.readouterr().err == "error: unknown input port(s): x1\n"
    results = []
    for argv in (["run", str(old), "--in", "x1=0"], ["run", str(new)]):
        raster = tmp_path / f"{len(results)}.csv"
        assert main([*argv, "--raster", str(raster)]) == 0
        results.append((capsys.readouterr().out, raster.read_text()))
    assert results[0] == results[1]
    assert results[0][0].startswith("y=7\n")


def test_run_timeout_exit_code_and_raster(tmp_path, capsys):
    src = tmp_path / "diverge.rec"
    src.write_text(ALWAYS_POSITIVE_REC + "\n")
    assert main(["compile", str(src)]) == 0
    capsys.readouterr()
    code = main(
        ["run", str(tmp_path / "diverge.circuit.json"), "--in", "x1=5", "--max-steps", "2000"]
    )
    assert code == 3
    assert "status=timeout clock=2000" in capsys.readouterr().out
    assert (tmp_path / "diverge.raster.csv").exists()


def _amplifier(path: Path) -> Path:
    """A hand-made circuit file whose one synapse amplifies ``x1`` past twice big_m."""
    b = CircuitBuilder()
    x = b.add_neuron(0)
    y = b.add_neuron(0)
    b.add_synapse(x, y, 10**9, 0)
    b.mark_port(x, "input", "x1")
    b.mark_port(y, "output", "y")
    path.write_text(CompiledProgram(circuit=b.build(), meta={"big_m": 10**9}).serialize())
    return path


def test_run_fault_exit_code(tmp_path, capsys):
    assert main(["run", str(_amplifier(tmp_path / "amp.circuit.json")), "--in", "x1=4"]) == 4
    out = capsys.readouterr().out
    assert "status=fault kind=magnitude_breach" in out
    assert "node=1" in out  # y, the amplified neuron


def test_run_bounds_a_transit_of_ten_to_the_fifteen_steps(tmp_path, capsys):
    # A transit this long waits on the engine's heap: it must cost neither the
    # time nor the memory of waiting it out step by step.
    b = CircuitBuilder()
    x = b.add_neuron(0)
    y = b.add_neuron(0)
    b.add_synapse(x, y, 1, 10**15)
    b.add_injection(x, 1, 10**15)
    b.mark_port(y, "output", "y")
    program = CompiledProgram(circuit=b.build(), meta={"big_m": 10**9})
    artifact = tmp_path / "far.circuit.json"
    artifact.write_text(program.serialize())
    started = time.perf_counter()
    assert main(["run", str(artifact)]) == 3
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().out == "status=timeout clock=1000000\n"
    tracemalloc.start()
    try:
        Engine(program.circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21


def test_run_rejects_a_malformed_circuit_file(tmp_path, capsys):
    artifact = tmp_path / "broken.circuit.json"
    artifact.write_text("{not json")
    assert main(["run", str(artifact)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    ("text", "message"),
    [
        # More digits than int() converts by default (sys.get_int_max_str_digits).
        ('{"circuit": {"neurons": [{"id": ' + "1" * 5000 + "}]}}", "error: number too long: "),
        ("[" * 200_000, "error: JSON nested too deeply"),
    ],
    ids=["huge_number", "deep_nesting"],
)
def test_run_rejects_a_hostile_circuit_file_without_a_traceback(tmp_path, capsys, text, message):
    artifact = tmp_path / "hostile.circuit.json"
    artifact.write_text(text)
    assert main(["run", str(artifact)]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_run_rejects_a_boolean_big_m(tmp_path, capsys):
    src = tmp_path / "succ.rec"
    src.write_text("(succ)\n")
    assert main(["compile", str(src)]) == 0
    artifact = tmp_path / "succ.circuit.json"
    doc = json.loads(artifact.read_text())
    doc["meta"]["big_m"] = True
    artifact.write_text(json.dumps(doc))
    capsys.readouterr()
    # A malformed file (exit 1), not a big_m of 1 that the binding then breaks (exit 2).
    assert main(["run", str(artifact), "--in", "x1=3"]) == 1
    assert "error: meta.big_m must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("section", "field", "value", "violation"),
    [
        ("synapses", "weight", 2.5, "synapses[0].weight must be an integer, got 2.5"),
        ("neurons", "leak", 1.5, "neurons[0].leak must be an integer or INFINITE, got 1.5"),
        ("ports", "name", "", "ports[0].name must be a non-empty string, got ''"),
    ],
)
def test_run_rejects_a_mistyped_field_as_the_builder_does(add_circuit, capsys, section, field, value, violation):
    doc = json.loads(add_circuit.read_text())
    record = {"synapses": SynapseSpec, "neurons": NeuronSpec, "ports": Port}[section]
    doc["circuit"][section][0][record._fields.index(field)] = value
    add_circuit.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3"]) == 1
    assert capsys.readouterr().err == f"error: invalid circuit: {violation}\n"


@pytest.mark.parametrize("source", ["(const 4 0)", "(succ)"], ids=["nullary", "unary"])
@pytest.mark.parametrize("big_m", [1, 0, -5])
def test_run_rejects_a_big_m_below_two(tmp_path, capsys, source, big_m):
    # compile refuses such a big_m; a file edited to hold one is malformed
    # (exit 1), not a run that faults at once or a binding that breaks it.
    src = tmp_path / "p.rec"
    src.write_text(source + "\n")
    assert main(["compile", str(src)]) == 0
    artifact = tmp_path / "p.circuit.json"
    doc = json.loads(artifact.read_text())
    doc["meta"]["big_m"] = big_m
    artifact.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["run", str(artifact)] + (["--in", "x1=0"] if source == "(succ)" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: meta.big_m must be at least 2, got {big_m}\n"


@pytest.mark.parametrize("line", ["input", "output"])
@pytest.mark.parametrize("field, value", [("weight", 2), ("delay", 3)])
def test_run_rejects_a_join_line_that_is_not_a_plain_wire(add_circuit, capsys, line, field, value):
    # A weighted or delayed line into a join would make it a second send
    # path; such a file is refused when loaded, before any run.  No wire may
    # leave a join at all, whatever its weight and delay: the join's record
    # alone holds its output lines.
    doc = json.loads(add_circuit.read_text())
    join, inputs, outputs = doc["circuit"]["joins"][0]
    if line == "input":
        pre, post = inputs[0], join
        synapse = next(s for s in doc["circuit"]["synapses"] if s[:2] == [pre, post])
        expected = f"join {join}: synapse ({pre}, {post}) must have weight 1 and delay 0"
    else:
        pre, post = join, outputs[0]
        synapse = [pre, post, 1, 0]
        doc["circuit"]["synapses"].append(synapse)
        expected = f"synapse ({pre}, {post}): starts at join {join}, whose record holds its output lines"
    synapse[SynapseSpec._fields.index(field)] = value
    add_circuit.write_text(json.dumps(doc))
    assert main(["run", str(add_circuit), "--in", "i=3", "--in", "x1=2"]) == 1
    assert capsys.readouterr().err == f"error: invalid circuit: {expected}\n"


def test_run_rejects_a_synapse_leaving_a_join(add_circuit, capsys):
    # Older files also wired each join's output lines, (join, target, 1, 0);
    # a join's record alone says where its lines go, so a file still carrying
    # such a wire is refused when loaded.  `murec compile` rebuilds it.
    doc = json.loads(add_circuit.read_text())
    join, _, outputs = doc["circuit"]["joins"][0]
    doc["circuit"]["synapses"].append([join, outputs[0], 1, 0])
    add_circuit.write_text(json.dumps(doc))
    assert main(["run", str(add_circuit), "--in", "i=3", "--in", "x1=2"]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid circuit: synapse ({join}, {outputs[0]}): starts at join {join}, "
        "whose record holds its output lines\n"
    )


def test_run_rejects_an_input_port_on_a_join_when_loading(add_circuit, capsys):
    doc = json.loads(add_circuit.read_text())
    join = doc["circuit"]["joins"][0][0]
    x1 = next(p for p in doc["circuit"]["ports"] if p[0] == "x1")
    x1[1] = join
    add_circuit.write_text(json.dumps(doc))
    assert main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3"]) == 1
    assert f"port 'x1': input port on join {join} is not allowed" in capsys.readouterr().err
    # Refused when the file is loaded, before the bindings are read.
    assert main(["run", str(add_circuit), "--in", "i2"]) == 1
    assert "input port on join" in capsys.readouterr().err


def test_run_rejects_a_join_line_that_ends_at_a_join(tmp_path, capsys):
    # Join 4's first output line ends at join 5; join 5's lines come from neurons.
    circuit = {
        "neurons": [[i, 0, 0] for i in range(4)],
        "synapses": [[pre, post, 1, 0] for pre, post in [(0, 4), (1, 4), (2, 5), (3, 5)]],
        "injections": [[0, 1, 0], [1, 2, 0]],
        "joins": [[4, [0, 1], [5, 2]], [5, [2, 3], [3, 0]]],
    }
    path = tmp_path / "joins.circuit.json"
    path.write_text(json.dumps({"circuit": circuit, "meta": {"big_m": 10**9}}))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "error: invalid circuit: join 4: line endpoint 5 is a join\n"


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ([], "circuit document must be a JSON object"),
        ({"circuit": {}}, "compiled program document needs circuit and meta blocks"),
        ({"circuit": [], "meta": {"big_m": 10}}, "circuit block must be an object"),
        ({"circuit": {}, "meta": []}, "meta block must be an object"),
    ],
    ids=["array", "no_meta", "circuit_array", "meta_array"],
)
def test_run_rejects_a_document_of_the_wrong_shape(tmp_path, capsys, doc, message):
    path = tmp_path / "shape.circuit.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_run_rejects_a_structurally_invalid_circuit_file(add_circuit, capsys):
    doc = json.loads(add_circuit.read_text())
    doc["circuit"]["synapses"].append([0, 10**6, 1, 0])
    add_circuit.write_text(json.dumps(doc))
    assert main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3"]) == 1
    assert "invalid circuit" in capsys.readouterr().err
    # The circuit is rejected before the bindings are read.
    assert main(["run", str(add_circuit), "--in", "i2"]) == 1
    assert "invalid circuit" in capsys.readouterr().err


def test_run_rejects_a_record_of_the_wrong_shape(add_circuit, capsys):
    # A synapse written in the older object form, in a file of array records.
    doc = json.loads(add_circuit.read_text())
    pre, post, weight, delay = doc["circuit"]["synapses"][3]
    doc["circuit"]["synapses"][3] = {"pre": pre, "post": post, "weight": weight, "delay": delay}
    add_circuit.write_text(json.dumps(doc))
    assert main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3"]) == 1
    assert capsys.readouterr().err == "error: synapses[3] must be an array of 4 fields\n"


def test_run_refuses_a_file_of_object_records(tmp_path, capsys):
    # Files written before circuit records were arrays held each record as an
    # object keyed by field name; `murec compile` on the source rebuilds them.
    circuit = {
        "neurons": [{"id": 0, "threshold": 0, "leak": 0}, {"id": 1, "threshold": 0, "leak": 0}],
        "synapses": [{"pre": 0, "post": 1, "weight": 1, "delay": 0}],
        "ports": [{"name": "x1", "neuron": 0, "role": "input"}, {"name": "y", "neuron": 1, "role": "output"}],
    }
    meta = {"latency": 2, "stats": {"trigger_cells": 0}, "big_m": 10**9, "instances": []}
    path = tmp_path / "old.circuit.json"
    path.write_text(json.dumps({"circuit": circuit, "meta": meta}, indent=2))
    assert main(["run", str(path), "--in", "x1=3"]) == 1
    assert capsys.readouterr() == ("", "error: neurons[0] must be an array of 3 fields\n")
    # The same records as arrays run.
    circuit = {
        "neurons": [[0, 0, 0], [1, 0, 0]],
        "synapses": [[0, 1, 1, 0]],
        "ports": [["x1", 0, "input"], ["y", 1, "output"]],
    }
    path.write_text(json.dumps({"circuit": circuit, "meta": meta}, indent=2))
    assert main(["run", str(path), "--in", "x1=3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "y=3"


@pytest.mark.parametrize("older", ["gadgets", "inf_leak"])
def test_run_refuses_a_file_in_the_older_gadget_and_leak_format(add_circuit, capsys, older):
    # Earlier versions kept both gadget kinds in one "gadgets" section and
    # wrote infinite leak as "inf"; no reader for that format is kept, so such
    # a file is refused with one error line (exit 1).  `murec compile` rebuilds it.
    doc = json.loads(add_circuit.read_text())
    circuit = doc["circuit"]
    if older == "gadgets":  # each record tagged with its kind
        const_emits = [[i, "const_emit", value] for i, value in circuit.pop("const_emits")]
        joins = [[j, "join", inputs, outputs] for j, inputs, outputs in circuit.pop("joins")]
        circuit["gadgets"] = sorted(const_emits + joins)
        expected = "error: unknown circuit section 'gadgets'\n"
    else:
        index = next(k for k, (_, _, leak) in enumerate(circuit["neurons"]) if leak is None)
        circuit["neurons"][index][2] = "inf"
        expected = f"error: invalid circuit: neurons[{index}].leak must be an integer or INFINITE, got 'inf'\n"
    add_circuit.write_text(json.dumps(doc, indent=2))
    assert main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(expected) and err.count("\n") == 1 and err.endswith("\n")  # no traceback


@pytest.mark.parametrize("section", ["nuerons", "gadgets"])
def test_run_refuses_a_file_with_an_unknown_circuit_section(add_circuit, capsys, section):
    # A misspelled section, or an empty one of the older format, is named, not ignored.
    doc = json.loads(add_circuit.read_text())
    doc["circuit"][section] = [[0, 1, 0]] if section == "nuerons" else []
    add_circuit.write_text(json.dumps(doc, indent=2))
    assert main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3"]) == 1
    assert capsys.readouterr() == ("", f"error: unknown circuit section {section!r}\n")


def test_run_refuses_a_file_with_an_unknown_top_level_key(add_circuit, capsys):
    doc = json.loads(add_circuit.read_text())
    doc["metta"] = {}
    add_circuit.write_text(json.dumps(doc, indent=2))
    assert main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3"]) == 1
    assert capsys.readouterr() == ("", "error: unknown top-level key 'metta'\n")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_prints_the_value(add_rec, capsys):
    assert main(["eval", str(add_rec), "2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_eval_rejects_bad_arguments(add_rec, capsys):
    assert main(["eval", str(add_rec), "2"]) == 1
    capsys.readouterr()
    assert main(["eval", str(add_rec), "2", "x"]) == 1
    capsys.readouterr()
    assert main(["eval", str(add_rec), "2", "-3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["compile", "eval"])
@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("(compose " * 3000, "error: program nested too deeply"),
        # More digits than int() converts by default (sys.get_int_max_str_digits).
        ("(const " + "1" * 5000 + " 0)", "error: number too long: "),
        # A digit to str.isdigit() that int() refuses.
        ("(const \u00b2 1)", "error: expected a natural number, got '\u00b2'"),
    ],
    ids=["deep_nesting", "huge_number", "superscript_digit"],
)
def test_hostile_program_text_fails_without_a_traceback(tmp_path, capsys, command, text, message):
    src = tmp_path / "hostile.rec"
    src.write_text(text, encoding="utf-8")
    assert main([command, str(src)]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_every_command_takes_a_program_nested_to_the_limit(tmp_path, capsys):
    src = tmp_path / "deep.rec"
    src.write_text(compose_chain(murec.MAX_DEPTH) + "\n")
    assert main(["compile", str(src)]) == 0
    assert main(["run", str(tmp_path / "deep.circuit.json"), "--in", "x1=2"]) == 0
    assert main(["eval", str(src), "2"]) == 0
    assert main(["diff", str(src), "--args", "0..2"]) == 0
    y = 2 + murec.MAX_DEPTH - 1
    assert capsys.readouterr().out.splitlines()[3:] == [
        f"y={y}", "status=quiescent clock=604", f"{y}", "cases=3 mismatches=0 timeouts=0 seed=none"
    ]


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize(
    "command", [["compile"], ["eval", "1"], ["diff", "--args", "1"]], ids=["compile", "eval", "diff"]
)
def test_a_program_too_deep_to_compile_or_evaluate_fails_without_a_traceback(tmp_path, capsys, command):
    # A caller whose own stack is deep can still overflow the walks after
    # parsing; a lowered recursion limit stands in for those frames.
    text = compose_chain(murec.MAX_DEPTH)
    src = tmp_path / "deep.rec"
    src.write_text(text + "\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 300)
    try:
        murec.parse_program(text)  # room to parse, not to walk the tree
        code = main([command[0], str(src), *command[1:]])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 1
    assert capsys.readouterr().err == "error: program nested too deeply\n"


def test_eval_reports_fuel_exhaustion(tmp_path, capsys):
    src = tmp_path / "diverge.rec"
    src.write_text(ALWAYS_POSITIVE_REC + "\n")
    assert main(["eval", str(src), "1", "--fuel", "1000"]) == 3
    assert capsys.readouterr().out.strip() == "fuel-exhausted"


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def test_diff_grid_mode_agrees(add_rec, capsys):
    assert main(["diff", str(add_rec), "--args", "0..6,0..6"]) == 0
    out = capsys.readouterr().out
    assert "cases=49 mismatches=0 timeouts=0 seed=none" in out


def test_diff_single_values_and_ranges_mix(tmp_path, capsys):
    src = tmp_path / "monus.rec"
    src.write_text(MONUS_REC + "\n")
    assert main(["diff", str(src), "--args", "3,0..5"]) == 0
    assert "cases=6 mismatches=0" in capsys.readouterr().out


def test_diff_starved_oracle_disagrees_with_a_finishing_circuit(add_rec, capsys):
    code = main(["diff", str(add_rec), "--args", "30..30,5..5", "--fuel", "10"])
    assert code == 5
    out = capsys.readouterr().out
    assert "cases=1 mismatches=1" in out
    assert "MISMATCH expr=(prec" in out
    assert "oracle=fuel-exhausted circuit=35" in out


def test_diff_random_mode_is_reproducible(capsys):
    assert main(["diff", "--random", "5", "--depth", "2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert "cases=25 mismatches=0" in first
    assert "seed=7" in first
    assert main(["diff", "--random", "5", "--depth", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_diff_argument_errors(add_rec, capsys):
    assert main(["diff", str(add_rec), "--args", "0..3"]) == 1  # two ports, one range
    capsys.readouterr()
    assert main(["diff", str(add_rec), "--args", "5..2,0..1"]) == 2  # empty range
    capsys.readouterr()
    assert main(["diff", str(add_rec)]) == 2  # neither --args nor --random
    capsys.readouterr()
    assert main(["diff", str(add_rec), "--args", "0..1,0..1", "--random", "2"]) == 2  # both
    captured = capsys.readouterr()
    assert captured.err == "error: diff takes a program file with --args or --random N, not both\n"
    assert captured.out == ""
    assert main(["diff", "--args", "0..1", "--random", "2"]) == 2  # --args alone is a program's too
    assert capsys.readouterr().out == ""
    # A grid run given a random-mode option would test something other than what was asked.
    random_only = (("--depth", "7"), ("--seed", "4"), ("--arity", "3"), ("--samples", "9"), ("--max-value", "0"))
    for option, value in random_only:
        assert main(["diff", str(add_rec), "--args", "0..1,0..1", option, value]) == 2
        assert capsys.readouterr() == ("", f"error: {option} applies only to --random N, not to a program file\n")


@pytest.mark.parametrize(
    ("option", "value", "message"),
    [
        ("--arity", "-1", "--arity must be a natural, got -1"),
        ("--max-value", "-1", "--max-value must be a natural, got -1"),
        ("--fuel", "-1", "--fuel must be a natural, got -1"),
        ("--max-steps", "-1", "--max-steps must be a natural, got -1"),
        ("--depth", "-1", "--depth must be a natural, got -1"),
        ("--samples", "0", "--samples must be at least 1, got 0"),
        ("--arity", "0", "--arity must be at least 1, got 0"),  # gen_expr needs an argument
        ("--random", "0", "--random must be at least 1, got 0"),  # zero programs would check nothing
        ("--random", "-3", "--random must be at least 1, got -3"),
    ],
    ids=["arity", "max_value", "fuel", "max_steps", "depth", "samples", "arity_zero", "random_zero", "random_negative"],
)
def test_diff_rejects_an_out_of_range_number(capsys, option, value, message):
    assert main(["diff", "--random", "2", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (
            ["run", "{circuit}", "--in", "i=2", "--in", "x1=3", "--max-steps", "-1"],
            "--max-steps must be a natural, got -1",
        ),
        (["eval", "{rec}", "2", "3", "--fuel", "-5"], "--fuel must be a natural, got -5"),
    ],
    ids=["run_max_steps", "eval_fuel"],
)
def test_run_and_eval_reject_a_negative_budget(add_rec, add_circuit, capsys, argv, message):
    assert main([arg.format(circuit=add_circuit, rec=add_rec) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# many calls in one process
# ---------------------------------------------------------------------------


def test_main_builds_its_parser_once(add_rec, monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for x in range(3):
        assert main(["eval", str(add_rec), str(x), "1"]) == 0
    assert capsys.readouterr().out == "1\n2\n3\n"
    assert len(built) == 1


def test_repeated_runs_do_not_carry_bindings_over(add_circuit, capsys):
    assert main(["run", str(add_circuit), "--in", "i=2", "--in", "x1=3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "y=5"
    assert main(["run", str(add_circuit), "--in", "i=4", "--in", "x1=0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "y=4"
    assert main(["run", str(add_circuit), "--in", "i=1"]) == 64  # x1 is not left bound
    assert capsys.readouterr().err == "error: unbound input port(s): x1\n"


def test_a_call_that_exits_in_argument_parsing_leaves_the_next_call_whole(add_rec, capsys):
    for argv in (["eval", str(add_rec), "--fuel", "lots"], ["frobnicate"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err
    assert main(["eval", str(add_rec), "2", "3"]) == 0
    assert capsys.readouterr() == ("5\n", "")


# ---------------------------------------------------------------------------
# the cyclic collector
# ---------------------------------------------------------------------------


@pytest.fixture()
def exits(tmp_path, add_rec, add_circuit):
    """A command line for each exit code ``main`` returns."""
    diverge = tmp_path / "diverge.rec"
    diverge.write_text(ALWAYS_POSITIVE_REC + "\n")
    argvs = {
        0: ["eval", add_rec, "2", "3"],
        1: ["compile", tmp_path / "missing.rec"],
        2: ["eval", add_rec, "2", "3", "--fuel", "-5"],
        3: ["eval", diverge, "1", "--fuel", "1000"],
        4: ["run", _amplifier(tmp_path / "amp.circuit.json"), "--in", "x1=4"],
        5: ["diff", add_rec, "--args", "30..30,5..5", "--fuel", "10"],
        64: ["run", add_circuit, "--in", "q=1"],
    }
    return {code: [str(arg) for arg in argv] for code, argv in argvs.items()}


def _cycles_left_by(argv: list[str], capsys) -> tuple[int, int]:
    """One ``main`` call's exit code, and how many objects it left in reference cycles.

    The call runs once first, so that caches filled on first use do not
    count.  The collector stays off throughout, so that no automatic pass
    frees a cycle before ``gc.collect`` counts it.
    """
    gc.disable()
    try:
        main(argv)
        gc.collect()
        code = main(argv)
        left = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    return code, left


def test_commands_leave_no_reference_cycles(exits, add_rec, add_circuit, tmp_path, capsys):
    # What makes pausing the collector in `main` safe: its passes would free nothing.
    commands = [
        (["run", str(add_circuit), "--in", "i=2", "--in", "x1=3", "--trace", str(tmp_path / "t.csv")], 0),
        (["diff", str(add_rec), "--args", "0..3,0..3"], 0),
        (["diff", "--random", "3", "--seed", "5"], 0),
        *((argv, code) for code, argv in exits.items()),  # exit 0 is an `eval`
    ]
    assert [_cycles_left_by(argv, capsys) for argv, _ in commands] == [(code, 0) for _, code in commands]


def test_compile_leaves_a_fixed_cycle_whatever_the_program(add_rec, tmp_path, capsys):
    # `compile` writes its meta with the C encoder, which builds no closures
    # in a cycle: ADD and a 1,041-node nest alike leave none.
    source = "(proj 1 2)"
    for head in (MUL_REC, MUL_REC, MONUS_REC, MUL_REC, ADD_REC, MUL_REC):
        source = f"(compose {head} ({source} (proj 2 2)))"
    nest = tmp_path / "nest.rec"
    nest.write_text(source + "\n")
    small = _cycles_left_by(["compile", str(add_rec)], capsys)
    large = _cycles_left_by(["compile", str(nest)], capsys)
    circuit = CompiledProgram.deserialize((tmp_path / "nest.circuit.json").read_text()).circuit
    assert len(circuit.neurons) + len(circuit.gadgets) == 1041
    assert small == large == (0, 0)


def _raise_runtime_error(ns):
    raise RuntimeError("a command failed")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
@pytest.mark.parametrize("case", [0, 1, 2, 3, 4, 5, 64, "argparse_exit", "escaping_error"])
def test_main_leaves_the_collector_as_it_found_it(exits, monkeypatch, capsys, enabled, case):
    if case == "escaping_error":
        monkeypatch.setattr(cli, "cmd_run", _raise_runtime_error)
        monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser))  # binds the patched cmd_run
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "argparse_exit":
            with pytest.raises(SystemExit):
                main(["run", "x.circuit.json", "--bogus"])
        elif case == "escaping_error":
            with pytest.raises(RuntimeError, match="a command failed"):
                main(["run", "x.circuit.json"])
        else:
            assert main(exits[case]) == case
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# entry point
@pytest.mark.parametrize(
    "command", [["compile"], ["eval", "1"], ["diff", "--args", "1"], ["run"]], ids=["compile", "eval", "diff", "run"]
)
def test_a_file_that_is_not_utf8_fails_without_a_traceback(tmp_path, capsys, command):
    path = tmp_path / "bad.rec"
    path.write_bytes(b"(succ)\n\xff\n")
    assert main([command[0], str(path), *command[1:]]) == 1
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text: invalid start byte at byte 7\n"


def test_run_writes_utf8_files_under_an_ascii_locale(tmp_path):
    # Under the C locale with UTF-8 mode off, text files default to ASCII:
    # the raster must still carry a non-ASCII port name, as UTF-8.
    b = CircuitBuilder()
    x = b.add_neuron(0)
    y = b.add_neuron(0)
    b.add_synapse(x, y, 1, 0)
    b.mark_port(x, "input", "x1")
    b.mark_port(y, "output", "y\u00e9")
    artifact = tmp_path / "accent.circuit.json"
    artifact.write_text(CompiledProgram(circuit=b.build(), meta={"big_m": 10**9}).serialize(), encoding="utf-8")
    raster, trace = tmp_path / "accent.raster.csv", tmp_path / "accent.trace.csv"
    package_root = Path(murec.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    argv = ["run", str(artifact), "--in", "x1=4", "--raster", str(raster), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, "-m", "murec", *argv], capture_output=True, check=False, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert raster.read_bytes() == f"time,neuron,value,port\n0,{x},4,\n1,{y},4,y\u00e9\n".encode("utf-8")
    assert trace.read_bytes() == f"time,target,source,value\n0,{x},,4\n1,{y},{x},4\n".encode("utf-8")


# ---------------------------------------------------------------------------


def test_python_dash_m_runs_the_cli(add_rec):
    package_root = Path(murec.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "murec", "eval", str(add_rec), "4", "9"],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "13"


@pytest.mark.skipif(shutil.which("murec") is None, reason="console script not on PATH")
def test_console_script_entry_point(add_rec):
    proc = subprocess.run(
        ["murec", "eval", str(add_rec), "4", "9"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "13"
