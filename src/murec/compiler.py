"""Lowering from function expressions to spiking circuits.

Each expression becomes a wired box: input neurons that accept one delivery
per argument and an output neuron that spikes the function value exactly once
per activation.  Constant, successor, and projection boxes are primitive
(fixed latency); composition aligns operand boxes by delay padding when their
latencies are known and by a join gadget otherwise; primitive recursion and
minimization compile to event-driven loops built on trigger-cell memory, so
their latency is input-dependent.

The compiled artifact bundles the circuit with a ``meta`` block of what the
circuit cannot say: latency, trigger-cell count, the big-M separation
constant, and one ``instances`` entry per loop, in lowering order (the
top-level loop last), whose marker node ids let tests and the benchmark
observe loop internals.  Arguments bind the input ports in node-id order;
the value is the spike on output port ``y``.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Union

from .circuit import (
    INFINITE,
    Circuit,
    CircuitBuilder,
    Injection,
    _circuit_json,
    circuit_from_document,
    parse_json_document,
)
from .engine import RunOutcome, SimConfig, SpikeEvent, simulate
from .errors import (
    ArityError,
    ConfigError,
    ParseError,
    StrictModeViolation,
    UnboundPort,
    UnknownPort,
)
from .expr import (
    DEFAULT_FUEL,
    Compose,
    Const,
    Mu,
    PrimRec,
    Proj,
    RecExpr,
    Succ,
    Value,
    _eval_checked,
    check_arity,
    to_sexpr,
)
from .gadgets import (
    Box,
    TriggerCell,
    build_constant,
    build_projection,
    build_successor,
    build_trigger_cell,
)

@dataclass(frozen=True)
class LoweringConfig:
    big_m: int = SimConfig.big_m
    strict_primitive: bool = False


@dataclass
class _Lowering:
    b: CircuitBuilder
    cfg: LoweringConfig
    instances: list[dict[str, Any]] = field(default_factory=list)


def _relay(b: CircuitBuilder) -> int:
    return b.add_neuron(0, 0)


def _wire_branches(
    b: CircuitBuilder,
    store_src: int,
    ret: TriggerCell,
    loop: TriggerCell,
    ret_fire: int,
    loop_fire: int,
    out: int,
) -> dict[str, int]:
    """Wire a loop's return/continue branch and return its marker node ids.

    Each candidate from ``store_src`` is stored in both trigger cells; a fire
    emitter triggers its cell, the fired cell erases the other cell's copy,
    and the return cell's value leaves through ``out``.
    """
    b.add_synapse(ret_fire, ret.store, 1, 0)
    b.add_synapse(loop_fire, loop.store, 1, 0)
    b.add_synapse(store_src, ret.store, 1, 0)
    b.add_synapse(store_src, loop.store, 1, 0)
    b.add_synapse(ret.out, loop.store, -1, 0)
    b.add_synapse(loop.out, ret.store, -1, 0)
    b.add_synapse(ret.out, out, 1, 0)
    return {
        "store_src": store_src,
        "cont_out": loop.out,
        "ret_fire": ret_fire,
        "ret_store": ret.store,
        "ret_out": ret.out,
    }


# -- lowering ----------------------------------------------------------------


def lower_expr(low: _Lowering, expr: RecExpr, n_args: int, ctx: int | None) -> Box:
    """Lower ``expr``, whose arity ``n_args`` its caller states; ``ctx`` is the known input-arrival time, if any."""
    if isinstance(expr, Const):
        return build_constant(low.b, expr.value, expr.arity, at=ctx)
    if isinstance(expr, Succ):
        return build_successor(low.b, at=ctx)
    if isinstance(expr, Proj):
        return build_projection(low.b, expr.index, expr.arity, low.cfg.big_m, at=ctx)
    if isinstance(expr, Compose):
        return _lower_compose(low, expr, n_args, ctx)
    if isinstance(expr, PrimRec):
        return _lower_primrec(low, expr, n_args - 1)
    if isinstance(expr, Mu):
        return _lower_mu(low, expr, n_args)
    raise TypeError(f"not an expression: {expr!r}")


def _lower_compose(low: _Lowering, expr: Compose, n_args: int, ctx: int | None) -> Box:
    b = low.b
    fans = [_relay(b) for _ in range(max(n_args, 1))]
    child_ctx = None if ctx is None else ctx + 1
    g_boxes = [lower_expr(low, g, n_args, child_ctx) for g in expr.inner]
    for g_box in g_boxes:
        for fan, node in zip(fans, g_box.inputs):
            b.add_synapse(fan, node, 1, 0)

    if all(g_box.latency is not None for g_box in g_boxes):
        # Known operand latencies: pad the faster lanes with extra delay so
        # every operand value lands on the head box in the same timestep.
        lmax = max(g_box.latency for g_box in g_boxes)
        h_ctx = None if child_ctx is None else child_ctx + lmax + 1
        h_box = lower_expr(low, expr.outer, len(expr.inner), h_ctx)
        for g_box, node in zip(g_boxes, h_box.inputs):
            b.add_synapse(g_box.output, node, 1, lmax - g_box.latency)
        latency = None if h_box.latency is None else lmax + 2 + h_box.latency
    else:
        # At least one operand finishes at an input-dependent time: a join
        # parks early arrivals and releases the batch when the last one lands.
        h_box = lower_expr(low, expr.outer, len(expr.inner), None)
        if len(g_boxes) == 1:
            b.add_synapse(g_boxes[0].output, h_box.inputs[0], 1, 0)
        else:
            b.add_join([g_box.output for g_box in g_boxes], list(h_box.inputs))
        latency = None
    return Box(inputs=fans, output=h_box.output, latency=latency)


def _lower_primrec(low: _Lowering, expr: PrimRec, n_xs: int) -> Box:
    """Event-driven loop computing f(i, xs) = h(i-1, ... h(1, h(0, g(xs), xs), xs) ...).

    One round per counter value n = 0..i.  A comparator spikes c = i - n each
    round; c >= 1 routes the round's accumulator into the step box, c = 0
    releases it as the result.  The accumulator candidate is stored in *two*
    trigger cells (return and continue); AND-gates fed by the readiness pulse
    plus the comparator verdict fire exactly one of them, the fired branch
    erases the other cell's copy, and a cross-cancel emitter clears the losing
    gate's partial charge, leaving every cell and gate at rest for reuse.
    """
    b = low.b
    big_m = low.cfg.big_m

    in_i = _relay(b)
    in_xs = [_relay(b) for _ in range(n_xs)]
    # Round-zero seeds: the i-input's spike derives counter 0 and flag 0.
    seed = b.add_const_emit(0)
    c_i = _relay(b)
    c_n = _relay(b)
    c_flag = _relay(b)
    c_xs = [_relay(b) for _ in range(n_xs)]
    check = _relay(b)
    done = _relay(b)  # spikes (value 0) iff check == 0
    more = b.add_neuron(1, 0)  # spikes (value check) iff check >= 1
    ce_done = b.add_const_emit(1)
    ce_more = b.add_const_emit(1)
    ce_ready = b.add_const_emit(1)
    gate_ret = b.add_neuron(2, INFINITE)
    gate_loop = b.add_neuron(2, INFINITE)
    cancel_ret = b.add_const_emit(-1)
    cancel_loop = b.add_const_emit(-1)
    ret = build_trigger_cell(b, big_m)
    loop = build_trigger_cell(b, big_m)
    ret_fire = b.add_const_emit(big_m)
    loop_fire = b.add_const_emit(big_m)
    f_ready = _relay(b)
    bump = _relay(b)  # n + flag: the next round's counter
    one_line = b.add_const_emit(1)  # the flag is 1 from round one onward
    go_sink = _relay(b)
    out = _relay(b)

    g_box = lower_expr(low, expr.base, n_xs, None)
    h_box = lower_expr(low, expr.step, n_xs + 2, None)

    # Seeding: carriers all fire three steps after the inputs arrive.
    b.add_synapse(in_i, seed, 1, 0)
    b.add_synapse(seed, c_n, 1, 0)
    b.add_synapse(seed, c_flag, 1, 0)
    b.add_synapse(in_i, c_i, 1, 2)
    for src, dst in zip(in_xs, c_xs):
        b.add_synapse(src, dst, 1, 2)

    # Comparator: check = i - n - flag, always >= 0 while the loop lives.
    b.add_synapse(c_i, check, 1, 0)
    b.add_synapse(c_n, check, -1, 0)
    b.add_synapse(c_flag, check, -1, 0)
    b.add_synapse(check, done, -1, 0)
    b.add_synapse(check, more, 1, 0)
    b.add_synapse(done, ce_done, 1, 0)
    b.add_synapse(more, ce_more, 1, 0)
    b.add_synapse(ce_done, gate_ret, 1, 0)
    b.add_synapse(ce_more, gate_loop, 1, 0)
    b.add_synapse(ce_ready, gate_ret, 1, 0)
    b.add_synapse(ce_ready, gate_loop, 1, 0)

    # Verdict: exactly one gate reaches 2; the winner clears the loser.
    b.add_synapse(gate_ret, ret_fire, 1, 0)
    b.add_synapse(gate_ret, cancel_loop, 1, 0)
    b.add_synapse(cancel_loop, gate_loop, 1, 0)
    b.add_synapse(gate_loop, loop_fire, 1, 0)
    b.add_synapse(gate_loop, cancel_ret, 1, 0)
    b.add_synapse(cancel_ret, gate_ret, 1, 0)

    # Accumulator plumbing: the base and step results are the candidates.
    b.add_synapse(g_box.output, f_ready, 1, 0)
    b.add_synapse(h_box.output, f_ready, 1, 0)
    b.add_synapse(f_ready, ce_ready, 1, 0)
    branches = _wire_branches(b, f_ready, ret, loop, ret_fire, loop_fire, out)

    # Counter bump and the constant-1 flag for the next round.
    b.add_synapse(c_n, bump, 1, 0)
    b.add_synapse(c_flag, bump, 1, 0)
    b.add_synapse(c_flag, one_line, 1, 0)

    # Base-case inputs come straight off the argument relays (the i-input
    # doubles as the activation pulse when there are no arguments).
    if n_xs == 0:
        b.add_synapse(in_i, g_box.inputs[0], 1, 0)
    else:
        for src, dst in zip(in_xs, g_box.inputs):
            b.add_synapse(src, dst, 1, 0)

    # The state join recirculates the carriers once the continue gate fires;
    # the step join releases (n, accumulator, xs) once the accumulator lands.
    state_join = b.add_join(
        [c_i, bump, one_line, *c_xs, gate_loop],
        [c_i, c_n, c_flag, *c_xs, go_sink],
    )
    h_join = b.add_join([c_n, loop.out, *c_xs], list(h_box.inputs))

    markers = {
        "kind": "primrec",
        "check": check,
        "h_out": h_box.output,
        **branches,
        "gate_ret": gate_ret,
        "gate_loop": gate_loop,
        "state_join": state_join,
        "h_join": h_join,
    }
    low.instances.append(markers)
    return Box(inputs=[in_i, *in_xs], output=out, latency=None)


def _lower_mu(low: _Lowering, expr: Mu, n_xs: int) -> Box:
    """Event-driven search for the least z >= 1 with f(z, xs) = 0.

    The counter carrier stores each candidate z into both trigger cells, the
    probe relay forwards f's value to a zero/nonzero detector pair (mutually
    exclusive by construction), and whichever detector spikes triggers its
    cell: zero releases z as the result, nonzero recirculates z through a
    successor stage into the next round and erases the return copy.
    """
    b = low.b
    big_m = low.cfg.big_m

    ins = [_relay(b) for _ in range(max(n_xs, 1))]
    seed_z = b.add_const_emit(1)
    c_z = _relay(b)
    c_xs = [_relay(b) for _ in range(n_xs)]
    probe = _relay(b)
    is_zero = _relay(b)
    not_zero = b.add_neuron(1, 0)
    ret = build_trigger_cell(b, big_m)
    loop = build_trigger_cell(b, big_m)
    ret_fire = b.add_const_emit(big_m)
    loop_fire = b.add_const_emit(big_m)
    succ_out = _relay(b)
    ce_one = b.add_const_emit(1)
    out = _relay(b)

    f_box = lower_expr(low, expr.body, n_xs + 1, None)

    # Seeding: z = 1 and the argument copies fire three steps after arrival.
    for node in ins:
        b.add_synapse(node, seed_z, 1, 0)
    b.add_synapse(seed_z, c_z, 1, 0)
    for src, dst in zip(ins, c_xs):
        b.add_synapse(src, dst, 1, 2)

    # Probe: carriers feed the body directly (they fire in lockstep).
    b.add_synapse(c_z, f_box.inputs[0], 1, 0)
    for src, dst in zip(c_xs, f_box.inputs[1:]):
        b.add_synapse(src, dst, 1, 0)
    b.add_synapse(f_box.output, probe, 1, 0)
    b.add_synapse(probe, is_zero, -1, 0)
    b.add_synapse(probe, not_zero, 1, 0)
    b.add_synapse(is_zero, ret_fire, 1, 0)
    b.add_synapse(not_zero, loop_fire, 1, 0)

    # Candidate bookkeeping: z is the candidate; the continue branch
    # increments it for the next round.
    branches = _wire_branches(b, c_z, ret, loop, ret_fire, loop_fire, out)
    b.add_synapse(loop.out, succ_out, 1, 2)
    b.add_synapse(loop.out, ce_one, 1, 0)
    b.add_synapse(ce_one, succ_out, 1, 0)

    if n_xs == 0:
        b.add_synapse(succ_out, c_z, 1, 0)
        state_join = None
    else:
        state_join = b.add_join([succ_out, *c_xs], [c_z, *c_xs])

    markers = {
        "kind": "mu",
        "probe": probe,
        "zero_det": is_zero,
        "nonzero_det": not_zero,
        **branches,
    }
    if state_join is not None:
        markers["state_join"] = state_join
    low.instances.append(markers)
    return Box(inputs=ins, output=out, latency=None)


# -- compiled programs -------------------------------------------------------


@dataclass
class CompiledProgram:
    circuit: Circuit
    meta: dict[str, Any]

    def to_document(self) -> dict[str, Any]:
        # A document is a detached snapshot: mutating it must not reach back
        # into the program (and vice versa).
        return {"circuit": self.circuit.to_document(), "meta": copy.deepcopy(self.meta)}

    def serialize(self) -> str:
        """Render ``to_document()`` as canonical text, without copying the meta.

        The circuit block is laid out as ``Circuit.serialize`` lays it out, and
        the meta block is one line, the text ``json.dumps(meta)`` gives.
        """
        return f'{{\n  "circuit": {_circuit_json(self.circuit, "  ")},\n  "meta": {json.dumps(self.meta)}\n}}\n'

    @classmethod
    def from_document(cls, doc: Any) -> "CompiledProgram":
        if not isinstance(doc, dict) or "circuit" not in doc or "meta" not in doc:
            raise ParseError("compiled program document needs circuit and meta blocks")
        unknown = sorted(doc.keys() - {"circuit", "meta"})
        if unknown:
            raise ParseError(f"unknown top-level key{'s' * (len(unknown) > 1)} {', '.join(map(repr, unknown))}")
        if not isinstance(doc["circuit"], dict):
            raise ParseError("circuit block must be an object")
        meta = doc["meta"]
        if not isinstance(meta, dict):
            raise ParseError("meta block must be an object")
        if type(big_m := meta.get("big_m")) is not int:  # a bool is an int to isinstance
            raise ParseError("meta.big_m must be an integer")
        if big_m < 2:  # as compile_program requires
            raise ParseError(f"meta.big_m must be at least 2, got {big_m}")
        return cls(circuit=circuit_from_document(doc["circuit"]), meta=meta)

    @classmethod
    def deserialize(cls, text: str) -> "CompiledProgram":
        return cls.from_document(parse_json_document(text))


def compile_program(expr: RecExpr, config: LoweringConfig | None = None) -> CompiledProgram:
    cfg = config or LoweringConfig()
    n_args = check_arity(expr)
    if type(cfg.big_m) is not int:  # as CompiledProgram.from_document requires of meta.big_m
        raise ConfigError(f"big_m must be an integer, got {cfg.big_m!r}")
    if cfg.big_m < 2:
        raise ConfigError(f"big_m={cfg.big_m} must be at least 2")

    low = _Lowering(b=CircuitBuilder(), cfg=cfg)
    box = lower_expr(low, expr, n_args, 0)

    if isinstance(expr, PrimRec):
        input_names = ["i"] + [f"x{j}" for j in range(1, n_args)]
    else:
        input_names = [f"x{j}" for j in range(1, n_args + 1)]
    for name, node in zip(input_names, box.inputs):
        low.b.mark_port(node, "input", name)
    if n_args == 0:
        # A nullary program starts itself with the pulse an argument would deliver.
        low.b.add_injection(box.inputs[0], 0, 0)
    low.b.mark_port(box.output, "output", "y")

    circuit = low.b._compiled()
    if cfg.strict_primitive and circuit.gadgets:
        raise StrictModeViolation(
            f"strict primitive mode forbids native gadgets; the circuit has {len(circuit.gadgets)}"
        )
    meta = {
        "latency": box.latency,
        # Every prec/mu instance holds one return and one continue cell.
        "stats": {"trigger_cells": 2 * len(low.instances)},
        "big_m": cfg.big_m,
        "instances": low.instances,
    }
    return CompiledProgram(circuit=circuit, meta=meta)


# -- running compiled programs ----------------------------------------------


@dataclass
class ProgramRun:
    status: str  # "ok" | "no_output" | "multi_output" | "timeout" | "fault"
    value: int | None
    y_spikes: list[SpikeEvent]
    outcome: RunOutcome


def bind_args(
    program: CompiledProgram, args: Union[list[int], tuple[int, ...], dict[str, int]]
) -> dict[str, int]:
    """Bind named arguments, or positional ones to the input ports in node-id order."""
    inputs = [p.name for p in sorted(program.circuit.ports_by_role("input"), key=lambda p: p.neuron)]
    if isinstance(args, dict):
        unknown = set(args) - set(inputs)
        if unknown:
            raise UnknownPort(f"unknown input port(s): {', '.join(sorted(unknown))}")
        missing = set(inputs) - set(args)
        if missing:
            raise UnboundPort(f"unbound input port(s): {', '.join(sorted(missing))}")
        return {name: args[name] for name in inputs}
    values = list(args)
    if len(values) != len(inputs):
        raise ArityError(f"expected {len(inputs)} arguments, got {len(values)}")
    return dict(zip(inputs, values))


def run_program(
    program: CompiledProgram,
    args: Union[list[int], tuple[int, ...], dict[str, int]],
    max_steps: int = SimConfig.max_steps,
    trace: bool = False,
) -> ProgramRun:
    """Run the program's circuit on ``args``; ``trace`` has no effect.

    Every outcome derives its trace when ``outcome.trace`` is read, so the
    keyword is accepted only for callers that still pass it.
    """
    binding = bind_args(program, args)
    big_m = program.meta["big_m"]
    for name, value in binding.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"argument {name} must be an integer, got {value!r}")
        if value < 0:
            raise ConfigError(f"argument {name} must be a natural, got {value}")
        if 2 * value >= big_m:
            raise ConfigError(
                f"argument {name}={value} breaks the separation bound (must be < big_m/2)"
            )

    port_map = {p.name: p.neuron for p in program.circuit.ports}
    injections = tuple(
        Injection(port_map[name], value, 0)
        for name, value in sorted(binding.items())
    )
    outcome = simulate(
        program.circuit,
        extra_injections=injections,
        config=SimConfig(max_steps=max_steps, big_m=big_m),
    )
    outputs = {p.name: p.neuron for p in program.circuit.ports_by_role("output")}
    y_node = outputs.get("y")
    y_spikes = [] if y_node is None else outcome.spikes_of(y_node)
    if outcome.status == "fault":
        return ProgramRun("fault", None, y_spikes, outcome)
    if outcome.status == "timeout":
        return ProgramRun("timeout", None, y_spikes, outcome)
    if len(y_spikes) == 1:
        return ProgramRun("ok", y_spikes[0].value, y_spikes, outcome)
    return ProgramRun("no_output" if not y_spikes else "multi_output", None, y_spikes, outcome)


# -- differential testing ----------------------------------------------------


@dataclass
class DiffReport:
    cases: int
    mismatches: list[dict[str, Any]]
    timeouts: int
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_diff(
    expr: RecExpr,
    program: CompiledProgram,
    cases: list[tuple[int, ...]],
    fuel: int = DEFAULT_FUEL,
    max_steps: int = SimConfig.max_steps,
) -> DiffReport:
    """Compare the fueled interpreter against the compiled circuit, case by case.

    Consistency: an interpreter value must match a clean single-spike run, and
    interpreter fuel exhaustion must match a circuit timeout.
    """
    mismatches: list[dict[str, Any]] = []
    timeouts = 0
    n_args = check_arity(expr)  # once, not once per case
    for case in cases:
        oracle = _eval_checked(expr, n_args, list(case), fuel)
        run = run_program(program, list(case), max_steps=max_steps)
        if run.status == "timeout":
            timeouts += 1
        got: Any = run.value if run.status == "ok" else run.status
        if got != (oracle.value if isinstance(oracle, Value) else "timeout"):
            expected = oracle.value if isinstance(oracle, Value) else "fuel-exhausted"
            mismatches.append(
                {"expr": to_sexpr(expr), "args": list(case), "oracle": expected, "circuit": got}
            )
    return DiffReport(cases=len(cases), mismatches=mismatches, timeouts=timeouts)
