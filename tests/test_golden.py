"""Golden runs and circuits: byte-exact rasters, traces and circuit text.

Each run case pins the sha256 of ``raster_csv``, of the trace CSV that
``murec run --trace`` writes and of the raster file ``murec run --format
jsonl`` writes, together with the run's status, final clock and fault record.  Any change to the engine's event order, timing or arithmetic
shows up here as a changed digest.  The circuit cases pin the sha256 of
``Circuit.serialize()`` and of ``CompiledProgram.serialize()`` for compiled
programs, so any change to lowering, canonical order, the meta block or the
JSON layout shows up too.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from conftest import ADD, ADD_REC, MU_MONUS, MUL, MUL_REC, MONUS
from murec import CompiledProgram, Compose, Fault, Proj, compile_program, raster_csv, run_program
from murec.cli import main

# name: (expr, args, run-time big_m override, max_steps override,
#        status, final_clock, fault, exit code, raster sha256, trace sha256)
GOLDEN = {
    "add": (
        ADD, (5, 3), None, None, "quiescent", 146, None, 0,
        "9098386756b68ba94be06ed1d9c2b5f7b53ebf5c44f95d925252b56063581d67",
        "75668cf31f3a4123cf15bc9cfe27f9765c9e8e7fb068f19e86f78c0e44b37cb6",
    ),
    "mul": (
        MUL, (4, 3), None, None, "quiescent", 632, None, 0,
        "62fe8a02846f5a439ea7295563595d0764cb6f60ebcad2a0d21eac0aa34eb392",
        "728a78719a38df8fe713ed7ba198741dbf072e01e57d1f5b131ddaf62d08a988",
    ),
    "monus": (
        MONUS, (3, 7), None, None, "quiescent", 486, None, 0,
        "f63d8bbf12ec0af6c6ffd61c76bab8ab836d399b62cbf7228bd61c51a7335491",
        "9d1ebdb4f8e0ae7fcd15032004242c7275611fa3d1ff24b3d1d23f7ad5746825",
    ),
    "mu_monus": (
        MU_MONUS, (4,), None, None, "quiescent", 1078, None, 0,
        "ee24420e5a1bca8e2da4e1617a3fddafe608e07e78a01b7d2c3d8439f05e02d2",
        "cec0ef70a3bebb96e22c5428422edd2518202075fce7d06238ca445e7e81b1a7",
    ),
    # A run-time big_m just above half the compiled one: a trigger cell's
    # stored big_m + v breaches 2 * big_m once v reaches 2.
    "fault": (
        MUL, (4, 3), 500_000_001, None, "fault", 24,
        Fault("magnitude_breach", 24, 80, 1_000_000_003), 4,
        "f4d92aa6fbe2781fc15ad2380519096bb61bf4225395ebb3ce6a17ce030f7856",
        "3165c8e6def4e07b2fe96b723db99b31d70a72676b65f2feda742bdeb346c8ca",
    ),
    "timeout": (
        MUL, (4, 3), None, 150, "timeout", 150, None, 3,
        "f5bc0ca4d82ccec0177f5b65ba0c75021ed2f5bd8cf13485e6d7b5e9f4a7c809",
        "4b01d2aa78ffbb63ea26e26e195aad5aec6f224b03314ef22e468dc7bb56d23d",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_is_byte_identical(name, tmp_path, capsys):
    expr, args, big_m, max_steps, status, clock, fault, code, raster_sha, trace_sha = GOLDEN[name]
    doc = compile_program(expr).to_document()
    if big_m is not None:
        doc["meta"]["big_m"] = big_m
    program = CompiledProgram.from_document(doc)
    limits = {} if max_steps is None else {"max_steps": max_steps}

    outcome = run_program(program, list(args), **limits).outcome
    assert (outcome.status, outcome.final_clock, outcome.fault) == (status, clock, fault)
    assert _sha256(raster_csv(program.circuit, outcome)) == raster_sha

    raster_path = tmp_path / "raster.csv"
    trace_path = tmp_path / "trace.csv"
    assert _murec_run(name, doc, tmp_path, "--raster", str(raster_path), "--trace", str(trace_path)) == code
    capsys.readouterr()
    assert _sha256(raster_path.read_bytes()) == raster_sha
    assert _sha256(trace_path.read_bytes()) == trace_sha


def _murec_run(name, doc, tmp_path, *options):
    """``murec run`` on a GOLDEN case's circuit document; returns the exit code."""
    _, args, _, max_steps = GOLDEN[name][:4]
    circuit_path = tmp_path / f"{name}.circuit.json"
    circuit_path.write_text(json.dumps(doc))
    argv = ["run", str(circuit_path), *options]
    # A port is [name, neuron, role]; arguments bind input ports in node-id order.
    inputs = sorted((p for p in doc["circuit"]["ports"] if p[2] == "input"), key=lambda p: p[1])
    for (name, _, _), value in zip(inputs, args):
        argv += ["--in", f"{name}={value}"]
    if max_steps is not None:
        argv += ["--max-steps", str(max_steps)]
    return main(argv)


# name: sha256 of the raster file ``murec run --format jsonl`` writes for GOLDEN[name]
JSONL_GOLDEN = {
    "add": "ed67473abc58849629cea5bc5f8a1b193c1dd01310b0e4b41ffc984d1aafa0b7",
    "fault": "4802d6d8882703b1da4775ed3eda16eb369eb350836df7fe9e9ffe5e19e033a2",
    "monus": "c1c36350552b51b5a86bc1ae2a4e53cf5d2a7a38b5290d4aeb7e9b0a2d31e280",
    "mu_monus": "a16af615c623934688acd0e6749263f73b26c412bcee35c00cf9fd50e658f767",
    "mul": "0bf6b49b48d79f6095bb6ce3ff3795ff212fc588399198977030b8ec4c2381d0",
    "timeout": "ce7b65045a85c791d085c67ce6d56502e0254223bfb3edc35b1e3d8a41d757af",
}


@pytest.mark.parametrize("name", sorted(JSONL_GOLDEN))
def test_golden_jsonl_raster_file_is_byte_identical(name, tmp_path, capsys):
    expr, _, big_m = GOLDEN[name][:3]
    doc = compile_program(expr).to_document()
    if big_m is not None:
        doc["meta"]["big_m"] = big_m
    raster_path = tmp_path / "raster.jsonl"
    assert _murec_run(name, doc, tmp_path, "--format", "jsonl", "--raster", str(raster_path)) == GOLDEN[name][7]
    capsys.readouterr()
    assert _sha256(raster_path.read_bytes()) == JSONL_GOLDEN[name]


def _nest(depth):
    """``Compose(MUL, (e, Proj(2, 2)))`` applied ``depth`` times to ``Proj(1, 2)``."""
    expr = Proj(1, 2)
    for _ in range(depth):
        expr = Compose(MUL, (expr, Proj(2, 2)))
    return expr


# name: (expr, Circuit.serialize() sha256, CompiledProgram.serialize() sha256)
CIRCUIT_GOLDEN = {
    "add": (
        ADD,
        "7a8b87cc8035e432eae10a69a4fb2e3dfadde9a11d3a18fd82d38a08b16a3fbb",
        "bd20cf3ac729655f48c995d90f56d5624d33e474a6a0a8e69af5b28a2e5c159c",
    ),
    "mul": (
        MUL,
        "dda77f32c48690ca958bcf3c7051f27aa3e42723df15db0f9b84659cabd86e1a",
        "3b7f25b84691b766d6b696915503e59a995aec2aefbee91fe6d9456ac13f2788",
    ),
    "mu_monus": (
        MU_MONUS,
        "0ff64be90dfbcef04421e485b4ed96a86dbc208f86671cbe54fc42ebee02154b",
        "5578d61286c94aebdc35e56cdd6d2a648e7a99c840774529d79b5846e8e19b96",
    ),
    "nest3": (
        _nest(3),
        "a08980e33188e781cbff60249b158ef11f049c01dbe51261ee867f02ad7ac7b9",
        "ddd20d86ee3518220ee7296892d5ad9500037b23e12a7c87cde0a14d4ec47751",
    ),
}


@pytest.mark.parametrize("name", sorted(CIRCUIT_GOLDEN))
def test_golden_circuit_text_is_byte_identical(name):
    expr, sha, _ = CIRCUIT_GOLDEN[name]
    assert _sha256(compile_program(expr).circuit.serialize().encode()) == sha


@pytest.mark.parametrize("name", sorted(CIRCUIT_GOLDEN))
def test_golden_compiled_program_text_is_byte_identical(name):
    expr, _, sha = CIRCUIT_GOLDEN[name]
    assert _sha256(compile_program(expr).serialize().encode()) == sha


# name: (argv with "{prog}" for the program file, program source, exit code, stdout)
DIFF_GOLDEN = {
    "random": (
        ["diff", "--random", "12", "--seed", "3"], None, 0,
        "cases=60 mismatches=0 timeouts=0 seed=3\n",
    ),
    "random_deep": (
        ["diff", "--random", "8", "--seed", "11", "--samples", "3", "--depth", "4"], None, 0,
        "cases=24 mismatches=0 timeouts=0 seed=11\n",
    ),
    "file": (
        ["diff", "{prog}", "--args", "0..3,0..3"], ADD_REC, 0,
        "cases=16 mismatches=0 timeouts=0 seed=none\n",
    ),
    # A step horizon too short for the largest case: the circuit's timeout
    # against the interpreter's value is a reported mismatch.
    "file_timeout": (
        ["diff", "{prog}", "--args", "0..4,3", "--max-steps", "500"], MUL_REC, 5,
        "cases=5 mismatches=1 timeouts=1 seed=none\n"
        f"MISMATCH expr={MUL_REC} args=[4, 3] oracle=12 circuit=timeout\n",
    ),
}


@pytest.mark.parametrize("name", sorted(DIFF_GOLDEN))
def test_golden_diff_stdout_and_exit_code(name, tmp_path, capsys):
    argv, source, code, stdout = DIFF_GOLDEN[name]
    prog = tmp_path / "prog.rec"
    if source is not None:
        prog.write_text(source + "\n")
    assert main([arg.replace("{prog}", str(prog)) for arg in argv]) == code
    assert capsys.readouterr().out == stdout
