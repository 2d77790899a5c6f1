"""Event-driven simulator: delivery timing, integration, leak, faults, joins."""
from __future__ import annotations

from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import murec.engine
from conftest import ADD, MUL_REC, built_circuits, const_fire_past_the_bound
from murec import (
    INFINITE,
    Circuit,
    CircuitBuilder,
    CompiledProgram,
    Delivery,
    EmptyQueue,
    Engine,
    Fault,
    Injection,
    InvalidCircuit,
    SimConfig,
    SpikeEvent,
    Join,
    UnknownNeuron,
    compile_program,
    port_spikes,
    raster_csv,
    raster_jsonl,
    run_diff,
    run_program,
    simulate,
)
from murec.cli import main


def _wire(weight: int = 1, delay: int = 0):
    """Two-neuron circuit: input -> output over one synapse."""
    b = CircuitBuilder()
    src = b.add_neuron(0)
    dst = b.add_neuron(0)
    b.add_synapse(src, dst, weight, delay)
    b.mark_port(src, "input", "x1")
    b.mark_port(dst, "output", "y")
    return b, src, dst


# ---------------------------------------------------------------------------
# delivery timing and integration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delay", [0, 1, 3, 10])
def test_spike_crosses_synapse_in_delay_plus_one_steps(delay):
    b, src, dst = _wire(weight=1, delay=delay)
    b.add_injection(src, 3, 0)
    outcome = simulate(b.build())
    assert outcome.status == "quiescent"
    assert outcome.raster == [
        SpikeEvent(0, src, 3),
        SpikeEvent(delay + 1, dst, 3),
    ]
    assert outcome.final_clock == delay + 1


def test_injection_delivers_at_its_own_timestep():
    b, src, _ = _wire()
    b.add_injection(src, 9, 4)
    outcome = simulate(b.build())
    assert outcome.raster[0] == SpikeEvent(4, src, 9)


def test_weight_scales_the_crossing_spike():
    b = CircuitBuilder()
    src = b.add_neuron(0)
    dst = b.add_neuron(-(10**9))  # fires on any delivery, even negative
    b.add_synapse(src, dst, -2, 0)
    b.add_injection(src, 5, 0)
    outcome = simulate(b.build())
    assert SpikeEvent(1, dst, -10) in outcome.raster


def test_same_step_arrivals_integrate_once():
    b = CircuitBuilder()
    a = b.add_neuron(0)
    c = b.add_neuron(0)
    target = b.add_neuron(7)
    b.add_synapse(a, target, 1, 0)
    b.add_synapse(c, target, 1, 0)
    b.add_injection(a, 3, 0)
    b.add_injection(c, 4, 0)
    outcome = simulate(b.build())
    # 3 + 4 lands in one batch at t=1: a single spike carrying the sum.
    hits = [e for e in outcome.raster if e.neuron == target]
    assert hits == [SpikeEvent(1, target, 7)]


def test_subthreshold_arrivals_accumulate_across_steps():
    b = CircuitBuilder()
    target = b.add_neuron(10, leak=INFINITE)
    b.add_injection(target, 4, 0)
    b.add_injection(target, 4, 3)
    b.add_injection(target, 4, 6)
    outcome = simulate(b.build())
    hits = [e for e in outcome.raster if e.neuron == target]
    assert hits == [SpikeEvent(6, target, 12)]


def test_zero_valued_spike_is_a_real_event_and_propagates():
    b, src, dst = _wire(weight=5, delay=2)
    b.add_injection(src, 0, 0)
    outcome = simulate(b.build())
    assert outcome.raster == [SpikeEvent(0, src, 0), SpikeEvent(3, dst, 0)]


def test_no_delivery_means_no_spike():
    b = CircuitBuilder()
    b.add_neuron(0)  # threshold 0, but never poked
    b.add_neuron(-5)  # even a negative threshold stays silent
    outcome = simulate(b.build())
    assert outcome.status == "quiescent"
    assert outcome.final_clock == 0
    assert outcome.raster == []


def test_spike_resets_state_to_zero():
    b = CircuitBuilder()
    n = b.add_neuron(4, leak=INFINITE)
    b.add_injection(n, 9, 0)  # fires with 9, then resets
    b.add_injection(n, 3, 5)  # 0 + 3 < 4: stays parked
    b.add_injection(n, 1, 8)  # 3 + 1 = 4: fires with 4
    outcome = simulate(b.build())
    hits = [e for e in outcome.raster if e.neuron == n]
    assert hits == [SpikeEvent(0, n, 9), SpikeEvent(8, n, 4)]


# ---------------------------------------------------------------------------
# leak
# ---------------------------------------------------------------------------


def test_leak_window_retains_then_zeroes():
    b = CircuitBuilder()
    n = b.add_neuron(100, leak=2)
    b.add_injection(n, 7, 5)
    engine = Engine(b.build())
    engine.run()
    assert engine.inspect(n, at=5) == 7
    assert engine.inspect(n, at=7) == 7  # retained through t + leak
    assert engine.inspect(n, at=8) == 0  # gone at t + leak + 1


def test_zero_leak_state_survives_only_its_own_step():
    b = CircuitBuilder()
    n = b.add_neuron(100, leak=0)
    b.add_injection(n, 7, 5)
    engine = Engine(b.build())
    engine.run()
    assert engine.inspect(n, at=5) == 7
    assert engine.inspect(n, at=6) == 0


def test_infinite_leak_holds_until_next_event():
    b = CircuitBuilder()
    n = b.add_neuron(100, leak=INFINITE)
    b.add_injection(n, 7, 5)
    engine = Engine(b.build())
    engine.run()
    assert engine.inspect(n, at=10**9) == 7


def test_expired_state_does_not_join_later_integration():
    b = CircuitBuilder()
    n = b.add_neuron(10, leak=1)
    b.add_injection(n, 6, 0)
    b.add_injection(n, 6, 4)  # the first 6 has leaked away: 0 + 6 < 10
    outcome = simulate(b.build())
    assert [e for e in outcome.raster if e.neuron == n] == []


def test_live_state_joins_integration_at_window_edge():
    b = CircuitBuilder()
    n = b.add_neuron(10, leak=3)
    b.add_injection(n, 6, 0)
    b.add_injection(n, 6, 3)  # still inside 0 + leak: 6 + 6 >= 10
    outcome = simulate(b.build())
    assert [e for e in outcome.raster if e.neuron == n] == [SpikeEvent(3, n, 12)]


# ---------------------------------------------------------------------------
# stepping interface
# ---------------------------------------------------------------------------


def test_step_and_peek_walk_the_event_times():
    b, src, dst = _wire(delay=4)
    b.add_injection(src, 1, 2)
    engine = Engine(b.build())
    assert engine.peek_time() == 2
    assert engine.step() == 2
    assert engine.peek_time() == 7
    assert engine.step() == 7
    assert engine.peek_time() is None
    with pytest.raises(EmptyQueue):
        engine.step()


def test_out_of_range_node_ids_are_rejected_not_wrapped():
    # The last node is a neuron and the one before it a join, so a negative id
    # that wrapped around the per-node lists would silently reach either.
    b = CircuitBuilder()
    a, c, d1, d2 = (b.add_neuron(0) for _ in range(4))
    b.add_join([a, c], [d1, d2])
    last = b.add_neuron(0)
    engine = Engine(b.build())
    for bad in (-1, last + 1):
        with pytest.raises(UnknownNeuron):
            engine.add_injection(bad, 1, 0)
        with pytest.raises(UnknownNeuron):
            engine.inspect(bad)
    with pytest.raises(KeyError):
        engine.join_lines(-2)
    assert engine.peek_time() is None


def test_injection_at_a_negative_time_is_rejected():
    b, src, dst = _wire()
    engine = Engine(b.build())
    with pytest.raises(ValueError):
        engine.add_injection(src, 1, -5)
    assert engine.peek_time() is None


def test_injection_at_or_before_a_processed_step_is_rejected():
    b, src, dst = _wire()
    b.add_injection(src, 1, 10)
    engine = Engine(b.build())
    assert engine.step() == 10
    for past in (3, 10):  # 10 would integrate `src` a second time in step 10
        with pytest.raises(ValueError):
            engine.add_injection(src, 1, past)
    engine.add_injection(src, 1, 11)
    assert engine.peek_time() == 11
    assert [(e.time, e.neuron) for e in engine.run().raster] == [
        (10, src), (11, src), (11, dst), (12, dst)
    ]


@pytest.mark.parametrize(
    "args, field",
    [
        ((0, 1, 1.5), "time"),
        ((0, 1, "a"), "time"),
        ((0, "a", 1), "value"),
        ((0, 2.0, 1), "value"),
        ((0, True, 1), "value"),
        ((0, 1, False), "time"),
        ((True, 1, 1), "neuron"),
        ((0.0, 1, 1), "neuron"),
    ],
)
def test_injection_fields_must_be_exact_integers(args, field):
    # As in a circuit file, a bool is not an integer here.
    b, src, dst = _wire()
    engine = Engine(b.build())
    with pytest.raises(TypeError, match=f"injection {field} must be an integer"):
        engine.add_injection(*args)
    assert engine.peek_time() is None
    assert engine.run().raster == []


def test_injection_into_a_join_is_rejected():
    b = CircuitBuilder()
    a, c, d1, d2 = (b.add_neuron(0) for _ in range(4))
    j = b.add_join([a, c], [d1, d2])
    engine = Engine(b.build())
    with pytest.raises(InvalidCircuit, match=f"injection into join {j} is not allowed"):
        engine.add_injection(j, 1, 0)
    assert engine.peek_time() is None


def test_run_on_empty_plan_is_quiescent_at_zero():
    b = CircuitBuilder()
    b.add_neuron(0)
    outcome = simulate(b.build())
    assert (outcome.status, outcome.final_clock, outcome.raster) == ("quiescent", 0, [])
    assert outcome.quiescent


def test_extra_injections_merge_with_the_plan():
    b, src, dst = _wire()
    circuit = b.build()
    outcome = simulate(circuit, extra_injections=(Injection(src, 4, 1),))
    assert SpikeEvent(1, src, 4) in outcome.raster


def test_acyclic_chain_quiesces_after_its_depth():
    b = CircuitBuilder()
    chain = [b.add_neuron(0) for _ in range(6)]
    for pre, post in zip(chain, chain[1:]):
        b.add_synapse(pre, post, 1, 0)
    b.add_injection(chain[0], 1, 0)
    outcome = simulate(b.build())
    assert outcome.status == "quiescent"
    assert outcome.final_clock == len(chain) - 1
    assert len(outcome.raster) == len(chain)


def test_timeout_when_next_event_falls_past_the_horizon():
    b = CircuitBuilder()
    n = b.add_neuron(0)
    b.add_synapse(n, n, 1, 0)  # spikes forever, one step apart
    b.add_injection(n, 1, 0)
    outcome = simulate(b.build(), config=SimConfig(max_steps=50))
    assert outcome.status == "timeout"
    assert outcome.final_clock == 50
    assert max(e.time for e in outcome.raster) == 50


# ---------------------------------------------------------------------------
# faults
# ---------------------------------------------------------------------------


def test_magnitude_breach_at_twice_the_bound():
    b = CircuitBuilder()
    n = b.add_neuron(0)
    b.add_injection(n, 16, 0)
    outcome = simulate(b.build(), config=SimConfig(big_m=8))
    assert outcome.status == "fault"
    assert outcome.fault.kind == "magnitude_breach"
    assert outcome.fault.node == n
    assert outcome.fault.value == 16
    assert [e for e in outcome.raster if e.neuron == n] == []


def test_magnitude_just_below_twice_the_bound_is_fine():
    b = CircuitBuilder()
    n = b.add_neuron(0)
    b.add_injection(n, 15, 0)
    outcome = simulate(b.build(), config=SimConfig(big_m=8))
    assert outcome.status == "quiescent"
    assert outcome.raster == [SpikeEvent(0, n, 15)]


def test_negative_magnitudes_breach_symmetrically():
    b = CircuitBuilder()
    n = b.add_neuron(-100)
    b.add_injection(n, -16, 0)
    outcome = simulate(b.build(), config=SimConfig(big_m=8))
    assert outcome.status == "fault"
    assert outcome.fault.kind == "magnitude_breach"


def test_overflow_outside_signed_63_bit_range():
    b = CircuitBuilder()
    src = b.add_neuron(0)
    dst = b.add_neuron(0)
    b.add_synapse(src, dst, 4, 0)
    b.add_injection(src, 2**61, 0)
    # the bound check precedes the magnitude check, so lift the latter
    outcome = simulate(b.build(), config=SimConfig(big_m=2**62))
    assert outcome.status == "fault"
    assert outcome.fault.kind == "overflow"
    assert outcome.fault.value == 2**63


@pytest.mark.parametrize(
    ("order", "value"),
    [(("edge", "wire", "join"), -50), (("wire", "join", "edge"), 50), (("join", "edge", "wire"), 50)],
    ids=["edge_first", "wire_first", "join_first"],
)
def test_a_fire_past_the_bound_is_recorded_then_faults_on_its_first_out_edge(order, value):
    # Every out-edge breaches; the fault is at the first in post order, node 4.
    circuit, ce = const_fire_past_the_bound(order)
    outcome = simulate(circuit, config=SimConfig(big_m=3))
    assert outcome.fault == Fault("magnitude_breach", 2, 4, value)
    assert outcome.raster == [SpikeEvent(0, 0, 1), SpikeEvent(2, ce, 50)]
    assert (outcome.status, outcome.final_clock) == ("fault", 2)


def test_fault_stops_the_run_at_its_timestep():
    b = CircuitBuilder()
    src = b.add_neuron(0)
    far = b.add_neuron(0)
    b.add_synapse(src, far, 1, 10)
    b.add_injection(src, 16, 0)
    outcome = simulate(b.build(), config=SimConfig(big_m=8))
    assert outcome.status == "fault"
    assert outcome.final_clock == 0
    assert all(e.time <= 0 for e in outcome.raster)


def test_fault_is_terminal_for_step_and_run():
    # big_m=3: the spike of `src` schedules `far` at t=6, then faults on the
    # w=10 edge to `dst` in the same fan-out.
    b = CircuitBuilder()
    src = b.add_neuron(0)
    far = b.add_neuron(0)
    dst = b.add_neuron(0)
    b.add_synapse(src, far, 1, 5)
    b.add_synapse(src, dst, 10, 0)
    b.add_injection(src, 1, 0)
    circuit = b.build()
    config = SimConfig(big_m=3)
    whole = Engine(circuit, config).run()
    assert (whole.status, whole.final_clock, whole.raster) == ("fault", 0, [SpikeEvent(0, src, 1)])

    stepped = Engine(circuit, config)
    assert stepped.step() == 0
    assert stepped.fault == whole.fault
    assert stepped.peek_time() is None
    with pytest.raises(EmptyQueue):
        stepped.step()
    stepped.add_injection(far, 1, 3)  # the run is over: nothing is queued
    assert stepped.peek_time() is None
    assert stepped.run() == whole


def test_run_after_stepping_to_quiescence_keeps_the_final_clock(compiled_add):
    ports = {p.name: p.neuron for p in compiled_add.circuit.ports}
    injections = (Injection(ports["i"], 2, 0), Injection(ports["x1"], 3, 0))
    whole = Engine(compiled_add.circuit, extra_injections=injections).run()
    assert (whole.status, whole.final_clock) == ("quiescent", 71)
    stepped = Engine(compiled_add.circuit, extra_injections=injections)
    while stepped.peek_time() is not None:
        stepped.step()
    assert stepped.run() == whole


# ---------------------------------------------------------------------------
# native gadgets in the engine
# ---------------------------------------------------------------------------


def test_const_emit_fires_one_step_after_any_delivery_batch():
    b = CircuitBuilder()
    poke = b.add_neuron(0)
    ce = b.add_const_emit(-5)
    sink = b.add_neuron(-100, leak=INFINITE)
    b.add_synapse(poke, ce, 1, 0)
    b.add_synapse(ce, sink, 1, 0)
    b.add_injection(poke, 42, 0)  # delivered value is irrelevant
    outcome = simulate(b.build())
    assert SpikeEvent(2, ce, -5) in outcome.raster
    assert SpikeEvent(3, sink, -5) in outcome.raster


def test_const_emit_fires_once_per_batch_even_with_many_pokes():
    b = CircuitBuilder()
    pokes = [b.add_neuron(0) for _ in range(3)]
    ce = b.add_const_emit(17)
    for p in pokes:
        b.add_synapse(p, ce, 1, 0)
        b.add_injection(p, 1, 0)
    outcome = simulate(b.build())
    assert [e for e in outcome.raster if e.neuron == ce] == [SpikeEvent(2, ce, 17)]


def test_const_emit_zero_still_fires():
    b = CircuitBuilder()
    poke = b.add_neuron(0)
    ce = b.add_const_emit(0)
    b.add_synapse(poke, ce, 1, 0)
    b.add_injection(poke, 1, 0)
    outcome = simulate(b.build())
    assert SpikeEvent(2, ce, 0) in outcome.raster


def test_join_waits_for_every_line_then_releases_in_line_order():
    b = CircuitBuilder()
    a = b.add_neuron(0)
    c = b.add_neuron(0)
    d1 = b.add_neuron(0)
    d2 = b.add_neuron(0)
    j = b.add_join([a, c], [d1, d2])
    b.add_injection(a, 3, 0)  # parks line 0 at t=1
    b.add_injection(c, 7, 8)  # fills line 1 at t=9
    circuit = b.build()
    # The join's output lines are its record's: the plan gives it no out-edge.
    plan = murec.engine._build_plan(circuit)
    assert not plan.wires[j] and not plan.edges[j] and plan.joins[2 * j + 1] == (2 * d1 + 1, 2 * d2 + 1)
    outcome = simulate(circuit)
    join_events = [e for e in outcome.raster if e.neuron == j]
    assert join_events == [SpikeEvent(9, j, 3), SpikeEvent(9, j, 7)]
    assert SpikeEvent(10, d1, 3) in outcome.raster
    assert SpikeEvent(10, d2, 7) in outcome.raster


def test_join_later_batch_overwrites_a_parked_value():
    b = CircuitBuilder()
    a = b.add_neuron(0)
    c = b.add_neuron(0)
    d1 = b.add_neuron(0)
    d2 = b.add_neuron(0)
    j = b.add_join([a, c], [d1, d2])
    b.add_injection(a, 3, 0)  # parks 3
    b.add_injection(a, 5, 2)  # overwrites with 5 at t=3
    b.add_injection(c, 7, 8)
    engine = Engine(b.build())
    engine.step()  # t=0: a spikes 3
    engine.step()  # t=1: join parks 3
    assert engine.join_lines(j) == {0: 3}
    engine.step()  # t=2: a spikes 5
    engine.step()  # t=3: join overwrites line 0
    assert engine.join_lines(j) == {0: 5}
    outcome = engine.run()
    assert [e for e in outcome.raster if e.neuron == j] == [
        SpikeEvent(9, j, 5),
        SpikeEvent(9, j, 7),
    ]
    assert engine.join_lines(j) == {}  # released lines are cleared


def test_join_carries_zero_valued_lines():
    b = CircuitBuilder()
    a = b.add_neuron(0)
    c = b.add_neuron(0)
    d1 = b.add_neuron(-1, leak=INFINITE)
    d2 = b.add_neuron(-1, leak=INFINITE)
    j = b.add_join([a, c], [d1, d2])
    b.add_injection(a, 0, 0)
    b.add_injection(c, 4, 0)
    outcome = simulate(b.build())
    assert SpikeEvent(2, d1, 0) in outcome.raster
    assert SpikeEvent(2, d2, 4) in outcome.raster


# ---------------------------------------------------------------------------
# determinism and raster encodings
# ---------------------------------------------------------------------------


def _busy_circuit(flipped: bool = False):
    b = CircuitBuilder()
    nodes = [b.add_neuron(t % 3, leak=INFINITE if t % 4 == 0 else t % 2) for t in range(6)]
    edges = [(0, 3, 2, 0), (1, 3, 1, 1), (2, 4, -1, 0), (3, 5, 1, 2), (4, 5, 1, 0), (0, 4, 1, 3)]
    if flipped:
        edges = list(reversed(edges))
    for pre, post, w, d in edges:
        b.add_synapse(nodes[pre], nodes[post], w, d)
    b.mark_port(nodes[5], "output", "y")
    for i in range(3):
        b.add_injection(nodes[i], i + 1, i)
    return b.build()


def test_runs_are_deterministic_byte_for_byte():
    circuit = _busy_circuit()
    first = simulate(circuit)
    second = simulate(circuit)
    assert raster_csv(circuit, first) == raster_csv(circuit, second)
    assert first.final_clock == second.final_clock


def test_synapse_insertion_order_does_not_change_the_run():
    c1 = _busy_circuit(flipped=False)
    c2 = _busy_circuit(flipped=True)
    assert raster_csv(c1, simulate(c1)) == raster_csv(c2, simulate(c2))


def test_raster_csv_labels_output_ports_only():
    b, src, dst = _wire(delay=1)
    b.add_injection(src, 6, 0)
    circuit = b.build()
    outcome = simulate(circuit)
    text = raster_csv(circuit, outcome).decode()
    lines = text.splitlines()
    assert lines[0] == "time,neuron,value,port"
    assert f"0,{src},6," in lines  # input port name is not emitted
    assert f"2,{dst},6,y" in lines


def test_raster_rows_are_sorted_by_time_then_neuron():
    circuit = _busy_circuit()
    outcome = simulate(circuit)
    keys = [(e.time, e.neuron) for e in outcome.raster]
    assert keys == sorted(keys)


def test_raster_jsonl_mirrors_the_csv_rows():
    import json

    b, src, dst = _wire()
    b.add_injection(src, 2, 0)
    circuit = b.build()
    outcome = simulate(circuit)
    rows = [json.loads(line) for line in raster_jsonl(circuit, outcome).splitlines()]
    assert {"time": 1, "neuron": dst, "value": 2, "port": "y"} in rows


def test_port_spikes_groups_by_name():
    b, src, dst = _wire()
    b.add_injection(src, 2, 0)
    circuit = b.build()
    outcome = simulate(circuit)
    outputs = port_spikes(circuit, outcome.raster)
    assert list(outputs) == ["y"]
    assert outputs["y"] == [SpikeEvent(1, dst, 2)]
    inputs = port_spikes(circuit, outcome.raster, role="input")
    assert inputs["x1"] == [SpikeEvent(0, src, 2)]


# ---------------------------------------------------------------------------
# step order: a step runs its work in raster order
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(built_circuits(), st.booleans())
def test_spikes_come_out_in_raster_order(drawn, small_m):
    circuit, big_m = drawn
    config = SimConfig(max_steps=40, big_m=3 if small_m else big_m)
    outcome = Engine(circuit, config).run()
    assert outcome.raster == sorted(outcome.raster, key=itemgetter(0, 1))
    assert outcome.flat == [x for spike in outcome.raster for x in spike]
    assert outcome.trace == sorted(outcome.trace, key=itemgetter(0, 1))


def _emitter_above_a_neuron():
    """A neuron ``low`` and a const emitter ``ce`` with a higher id; ``poke`` fires ``ce`` at t=2."""
    b = CircuitBuilder()
    low = b.add_neuron(0)
    poke = b.add_neuron(0)
    ce = b.add_const_emit(5)
    b.add_synapse(poke, ce, 1, 0)
    b.add_injection(poke, 1, 0)  # ce receives at t=1 and fires at t=2
    return b, low, poke, ce


def test_a_step_stops_at_its_first_breach_in_node_order():
    # At t=2 both `low` (value 100) and `ce`'s fan-out (9 * 5) breach big_m=10.
    b, low, poke, ce = _emitter_above_a_neuron()
    sink = b.add_neuron(0)
    b.add_synapse(ce, sink, 9, 0)
    b.add_injection(low, 100, 2)
    outcome = simulate(b.build(), config=SimConfig(big_m=10))
    assert outcome.fault == Fault("magnitude_breach", 2, low, 100)
    assert outcome.raster == [SpikeEvent(0, poke, 1)]  # `ce` never fired


def test_arrivals_from_one_step_are_traced_by_source_id():
    # `low` and `ce` both spike at t=2 and both deliver to `target` at t=3.
    b, low, _, ce = _emitter_above_a_neuron()
    target = b.add_neuron(100)
    b.add_synapse(low, target, 1, 0)
    b.add_synapse(ce, target, 1, 0)
    b.add_injection(low, 4, 2)
    outcome = simulate(b.build())
    assert [d for d in outcome.trace if d.target == target] == [
        Delivery(3, target, low, 4),
        Delivery(3, target, ce, 5),
    ]


def test_an_injection_added_mid_run_is_traced_before_the_later_spikes_deliveries():
    # The injection into `c` is scheduled after `a`'s spike at t=0, so before
    # `mid`'s at t=1, and both reach `c` at t=2: it is emitted first.
    b = CircuitBuilder()
    a, mid, c = (b.add_neuron(0) for _ in range(3))
    b.add_synapse(a, mid, 1, 0)
    b.add_synapse(mid, c, 1, 0)
    b.add_injection(a, 5, 0)
    engine = Engine(b.build())
    engine.step()
    engine.add_injection(c, 7, 2)
    outcome = engine.run()
    assert [d for d in outcome.trace if d.target == c] == [Delivery(2, c, None, 7), Delivery(2, c, mid, 5)]


# A long transit, in steps.  Work with a transit of one step goes to the
# engine's dense next-step tier; every longer transit waits on its heap.
LONG_TRANSIT = 256


def test_a_fan_out_faults_at_its_first_breach_in_post_order_across_long_and_one_step_transits():
    # One spike reaches `low` over a long edge and `high` over a one-step
    # edge; both products breach big_m=10.
    b = CircuitBuilder()
    src = b.add_neuron(0)
    low = b.add_neuron(0)
    high = b.add_neuron(0)
    b.add_synapse(src, low, 9, 2 * LONG_TRANSIT)
    b.add_synapse(src, high, 9, 0)
    b.add_injection(src, 5, 0)
    outcome = simulate(b.build(), config=SimConfig(big_m=10))
    assert outcome.fault == Fault("magnitude_breach", 0, low, 45)
    assert outcome.raster == [SpikeEvent(0, src, 5)]


@pytest.mark.parametrize("transit", [LONG_TRANSIT - 1, LONG_TRANSIT, LONG_TRANSIT + 1])
def test_long_transits_arriving_together_keep_emission_order(transit):
    # `early` (t=0, transit + 7 steps) and `late` (t=7, `transit` steps) both
    # reach `target` at transit + 7; the earlier emission arrives first.
    b = CircuitBuilder()
    early = b.add_neuron(0)
    late = b.add_neuron(0)
    target = b.add_neuron(100)
    b.add_synapse(early, target, 1, transit + 6)
    b.add_synapse(late, target, 1, transit - 1)
    b.add_injection(early, 1, 0)
    b.add_injection(late, 2, 7)
    outcome = simulate(b.build())
    assert outcome.trace == [
        Delivery(0, early, None, 1),
        Delivery(7, late, None, 2),
        Delivery(transit + 7, target, early, 1),
        Delivery(transit + 7, target, late, 2),
    ]


@pytest.mark.parametrize("threshold", [15, 16])
def test_a_step_sums_one_step_arrivals_injections_and_long_transits_once(threshold):
    # At t=5 `target` gets 3 from `far` (emitted at t=0 over a 5-step transit),
    # 2 from `near` (emitted at t=4 over one step) and 10 injected after t=4:
    # one batch of 15, so one spike or one parked value.
    b = CircuitBuilder()
    far = b.add_neuron(0)
    near = b.add_neuron(0)
    target = b.add_neuron(threshold, leak=0)
    b.add_synapse(far, target, 1, 4)
    b.add_synapse(near, target, 1, 0)
    b.add_injection(far, 3, 0)
    b.add_injection(near, 2, 4)
    engine = Engine(b.build())
    assert [engine.step(), engine.step()] == [0, 4]
    engine.add_injection(target, 10, 5)
    assert (engine.peek_time(), engine.step(), engine.peek_time()) == (5, 5, None)
    assert engine.inspect(target, 5) == (0 if threshold == 15 else 15)
    outcome = engine.run()
    assert outcome.spikes_of(target) == ([SpikeEvent(5, target, 15)] if threshold == 15 else [])
    assert [d for d in outcome.trace if d.target == target] == [
        Delivery(5, target, far, 3),
        Delivery(5, target, near, 2),
        Delivery(5, target, None, 10),
    ]


def test_a_const_emitter_fires_and_takes_a_new_batch_in_one_step():
    # At t=2 `ce` fires for its t=1 batch and takes a new batch: `poke2`'s
    # one-step arrival plus an injection.  It fires once more, at t=3.
    b = CircuitBuilder()
    poke = b.add_neuron(0)
    poke2 = b.add_neuron(0)
    ce = b.add_const_emit(5)
    sink = b.add_neuron(0)
    b.add_synapse(poke, ce, 1, 0)
    b.add_synapse(poke2, ce, 1, 0)
    b.add_synapse(ce, sink, 1, 0)
    b.add_injection(poke, 1, 0)
    b.add_injection(poke2, 1, 1)
    b.add_injection(ce, 9, 2)
    outcome = simulate(b.build())
    assert outcome.raster == [
        SpikeEvent(0, poke, 1),
        SpikeEvent(1, poke2, 1),
        SpikeEvent(2, ce, 5),
        SpikeEvent(3, ce, 5),
        SpikeEvent(3, sink, 5),
        SpikeEvent(4, sink, 5),
    ]
    assert [d for d in outcome.trace if d.target == ce] == [
        Delivery(1, ce, poke, 1),
        Delivery(2, ce, None, 9),
        Delivery(2, ce, poke2, 1),
    ]


def test_a_fault_empties_both_queues_while_later_work_waits():
    # At t=1 `a` faults on its edge to `sink` (10 breaches big_m=3) after it
    # queued work for `x` at t=2 and before `skipped` ran; `far`'s arrival at t=6
    # and an injection at t=9 wait on the heap.
    b = CircuitBuilder()
    src = b.add_neuron(0)
    a = b.add_neuron(0)
    skipped = b.add_neuron(0)
    far = b.add_neuron(0)
    x = b.add_neuron(0)
    sink = b.add_neuron(0)
    b.add_synapse(src, a, 1, 0)
    b.add_synapse(src, skipped, 1, 0)
    b.add_synapse(src, far, 1, 5)
    b.add_synapse(a, x, 1, 0)
    b.add_synapse(a, sink, 10, 0)
    b.add_injection(src, 1, 0)
    b.add_injection(src, 1, 9)
    engine = Engine(b.build(), SimConfig(big_m=3))
    assert (engine.step(), engine.step()) == (0, 1)
    assert engine.fault == Fault("magnitude_breach", 1, sink, 10)
    assert engine.peek_time() is None
    assert engine._due_keys == engine._next_keys == engine._later == []
    assert set(engine._due) == set(engine._next) == {None}
    with pytest.raises(EmptyQueue):
        engine.step()
    outcome = engine.run()
    assert (outcome.status, outcome.final_clock) == ("fault", 1)
    assert outcome.raster == [SpikeEvent(0, src, 1), SpikeEvent(1, a, 1)]


# ---------------------------------------------------------------------------
# reading an outcome: the whole raster or one node's spikes
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(built_circuits())
def test_spikes_of_is_the_raster_filtered_to_one_node(drawn):
    circuit, big_m = drawn
    outcome = Engine(circuit, SimConfig(max_steps=40, big_m=big_m)).run()
    nodes = range(len(circuit.neurons) + len(circuit.gadgets))
    before = [outcome.spikes_of(n) for n in nodes]  # read before the raster is built
    for n in nodes:
        expected = [e for e in outcome.raster if e.neuron == n]
        after = outcome.spikes_of(n)
        assert before[n] == expected
        assert after == expected
        assert all(type(e) is SpikeEvent for e in expected + before[n] + after)


def test_an_outcome_keeps_its_spikes_when_the_engine_runs_again():
    b, src, dst = _wire(delay=1)
    b.add_injection(src, 6, 0)
    engine = Engine(b.build())
    first = engine.run()
    engine.add_injection(src, 4, 10)
    second = engine.run()
    # Both outcomes are read only now, after the engine has spiked again.
    assert first.raster == [SpikeEvent(0, src, 6), SpikeEvent(2, dst, 6)]
    assert first.spikes_of(dst) == [SpikeEvent(2, dst, 6)]
    assert second.spikes_of(dst) == [SpikeEvent(2, dst, 6), SpikeEvent(12, dst, 4)]
    assert second.raster == first.raster + [SpikeEvent(10, src, 4), SpikeEvent(12, dst, 4)]


@pytest.fixture()
def spike_events_made(monkeypatch):
    """The fields of every :class:`SpikeEvent` the engine module makes from now on, singly or in bulk."""
    made = []

    class CountedSpikeEvent(SpikeEvent):
        __slots__ = ()

        def __new__(cls, *fields):
            made.append(fields)
            return super().__new__(cls, *fields)

        @classmethod
        def _make(cls, fields):
            made.append(fields)
            return super()._make(fields)

    make = murec.engine._make

    def counted_make(record, rows):
        records = make(record, rows)
        if record is CountedSpikeEvent:
            made.extend(records)
        return records

    monkeypatch.setattr(murec.engine, "SpikeEvent", CountedSpikeEvent)
    monkeypatch.setattr(murec.engine, "_make", counted_make)
    return made


def test_run_program_reads_the_output_without_building_the_raster(compiled_mul, spike_events_made):
    made = spike_events_made
    run = run_program(compiled_mul, [3, 3])
    assert (run.status, run.value) == ("ok", 9)
    assert len(made) == 1  # the y spike only
    spikes = len(run.outcome.raster)  # the first read builds the raster
    assert spikes > 100 and len(made) == 1 + spikes


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_murec_run_writes_its_raster_file_without_building_the_raster(
    compiled_mul, spike_events_made, fmt, tmp_path, capsys
):
    circuit_path = tmp_path / "mul.circuit.json"
    circuit_path.write_text(compiled_mul.serialize())
    raster_path = tmp_path / f"mul.raster.{fmt}"
    argv = ["run", str(circuit_path), "--in", "i=3", "--in", "x1=3", "--format", fmt]
    assert main(argv + ["--raster", str(raster_path)]) == 0
    assert capsys.readouterr().out.startswith("y=9\n")
    assert len(raster_path.read_text().splitlines()) > 100
    assert len(spike_events_made) == 1  # the y spike only


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{circuit}", "--in", "i=3", "--in", "x1=3", "--raster", "{tmp}/mul.raster.csv"],
        ["run", "{circuit}", "--in", "i=3", "--in", "x1=3", "--format", "jsonl", "--raster", "{tmp}/mul.raster.jsonl"],
        ["diff", "{source}", "--args", "0..3,0..3"],
    ],
    ids=["run_csv", "run_jsonl", "diff"],
)
def test_no_command_reads_the_raster(compiled_mul, monkeypatch, argv, tmp_path, capsys):
    # The raster file is rendered from `flat`, and diff reads `y` with `spikes_of`.
    def refuse(outcome):
        raise AssertionError("RunOutcome.raster was read")

    monkeypatch.setattr(murec.engine.RunOutcome, "raster", property(refuse))
    circuit_path = tmp_path / "mul.circuit.json"
    circuit_path.write_text(compiled_mul.serialize())
    source = tmp_path / "mul.rec"
    source.write_text(MUL_REC + "\n")
    names = {"circuit": circuit_path, "source": source, "tmp": tmp_path}
    assert main([arg.format(**names) for arg in argv]) == 0
    out = capsys.readouterr().out
    assert out.startswith("y=9\n" if argv[0] == "run" else "cases=16 mismatches=0")


# ---------------------------------------------------------------------------
# engines over one circuit share its plan, not their runs
# ---------------------------------------------------------------------------

# A step (None), or an injection (node, value, dt) at the engine's clock + 1 + dt.
_ACTIONS = st.lists(
    st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(-9, 9), st.integers(0, 4))),
    max_size=12,
)


def _act(engine: Engine, action, log: list) -> None:
    """Apply one action, then log the engine's clock, queue head, retained state and join buffers."""
    circuit = engine.circuit
    joins = [g.id for g in circuit.gadgets if isinstance(g, Join)]
    if action is None:
        if engine.peek_time() is not None:
            engine.step()
    else:
        node, value, dt = action
        node %= len(circuit.neurons) + len(circuit.gadgets)
        if node not in joins:
            engine.add_injection(node, value, engine.clock + 1 + dt)
    log.append((
        engine.clock,
        engine.peek_time(),
        [engine.inspect(n.id) for n in circuit.neurons],
        [engine.join_lines(j) for j in joins],
    ))


@settings(max_examples=150, deadline=None)
@given(built_circuits(), _ACTIONS, _ACTIONS)
def test_engines_sharing_a_circuit_run_as_if_each_had_its_own(drawn, script_a, script_b):
    circuit, big_m = drawn
    config = SimConfig(max_steps=40, big_m=big_m)
    scripts = (script_a, script_b)
    shared = [Engine(circuit, config), Engine(circuit, config)]
    shared_logs: list[list] = [[], []]
    for i in range(max(map(len, scripts))):  # the two engines take turns
        for engine, script, log in zip(shared, scripts, shared_logs):
            if i < len(script):
                _act(engine, script[i], log)
    shared_outcomes = [engine.run() for engine in shared]
    for script, log, outcome in zip(scripts, shared_logs, shared_outcomes):
        alone = Engine(Circuit.deserialize(circuit.serialize()), config)  # equal, built apart
        alone_log: list = []
        for action in script:
            _act(alone, action, alone_log)
        assert alone_log == log
        alone_outcome = alone.run()
        assert alone_outcome == outcome
        assert alone_outcome.trace == outcome.trace


def test_run_diff_builds_one_plan_for_all_its_cases(monkeypatch):
    program = compile_program(ADD)
    built = []
    build = murec.engine._build_plan
    monkeypatch.setattr(murec.engine, "_build_plan", lambda circuit: built.append(circuit) or build(circuit))
    report = run_diff(ADD, program, [(0, 0), (1, 2), (3, 1), (2, 2)])
    assert (report.cases, report.mismatches) == (4, [])
    assert len(built) == 1 and built[0] is program.circuit
    # The plan belongs to the object, not to its value: an equal circuit builds its own.
    twin = Circuit.deserialize(program.circuit.serialize())
    assert twin == program.circuit
    assert run_diff(ADD, CompiledProgram(twin, program.meta), [(2, 3)]).ok
    assert len(built) == 2 and built[1] is twin


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_records_every_delivery_with_sources():
    b, src, dst = _wire(weight=3, delay=1)
    b.add_injection(src, 5, 0)
    outcome = simulate(b.build())
    by_target = {(d.time, d.target): d for d in outcome.trace}
    injection = by_target[(0, src)]
    assert injection.source is None and injection.value == 5
    crossing = by_target[(2, dst)]
    assert crossing.source == src and crossing.value == 15


# The trace of a fault's step ends after the work that faulted.  Each case
# has arrivals at that step to nodes on both sides of the cut.


def _fan_out_or_integration(weight: int):
    """At t=0 ``s`` spikes 5 and sends ``weight * 5`` to ``post``, which also gets 45; big_m=10."""
    b = CircuitBuilder()
    lo, s, hi, post, top = (b.add_neuron(100), b.add_neuron(0), b.add_neuron(100), b.add_neuron(100), b.add_neuron(100))
    b.add_synapse(s, post, weight, 0)
    for node, value in ((lo, 1), (s, 5), (hi, 1), (post, 45), (top, 1)):
        b.add_injection(node, value, 0)
    b.add_injection(lo, 1, 3)  # dropped by the fault
    return simulate(b.build(), config=SimConfig(big_m=10)), (lo, s, hi, post, top)


def test_a_fan_out_breach_ends_the_trace_after_the_spikers_arrivals():
    # The breach is in s's fan-out, to post above it: hi's arrival never ran.
    outcome, (lo, s, hi, post, top) = _fan_out_or_integration(9)
    assert outcome.fault == Fault("magnitude_breach", 0, post, 45)
    assert outcome.flat == [0, s, 5]
    assert outcome.trace == [Delivery(0, lo, None, 1), Delivery(0, s, None, 5)]


def test_an_integration_breach_ends_the_trace_after_the_nodes_arrivals():
    # The same raster and fault as the fan-out case, but s's send of 5 is in
    # bound: post's own batch of 45 breaches, after hi's arrival ran.
    outcome, (lo, s, hi, post, top) = _fan_out_or_integration(1)
    assert outcome.fault == Fault("magnitude_breach", 0, post, 45)
    assert outcome.flat == [0, s, 5]
    assert outcome.trace == [
        Delivery(0, lo, None, 1),
        Delivery(0, s, None, 5),
        Delivery(0, hi, None, 1),
        Delivery(0, post, None, 45),
    ]


def test_a_fire_breach_ends_the_trace_before_the_emitters_arrivals():
    # ce fires 5 at t=1 and sends 9 * 5 to x; a delivery to ce arrives at t=1
    # too, but a fire runs before its node's arrivals.
    b = CircuitBuilder()
    lo, ce, x, top = b.add_neuron(100), b.add_const_emit(5), b.add_neuron(100), b.add_neuron(100)
    b.add_synapse(ce, x, 9, 0)
    for node, time in ((ce, 0), (lo, 1), (ce, 1), (top, 1)):
        b.add_injection(node, 1, time)
    outcome = simulate(b.build(), config=SimConfig(big_m=10))
    assert outcome.fault == Fault("magnitude_breach", 1, x, 45)
    assert outcome.flat == [1, ce, 5]
    assert outcome.trace == [Delivery(0, ce, None, 1), Delivery(1, lo, None, 1)]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    value=st.integers(min_value=-100, max_value=100),
    weight=st.integers(min_value=-10, max_value=10),
    delay=st.integers(min_value=0, max_value=20),
    at=st.integers(min_value=0, max_value=10),
)
def test_transit_law_property(value, weight, delay, at):
    b = CircuitBuilder()
    src = b.add_neuron(-(10**9))
    dst = b.add_neuron(-(10**9))
    b.add_synapse(src, dst, weight, delay)
    b.add_injection(src, value, at)
    outcome = simulate(b.build())
    assert outcome.raster == [
        SpikeEvent(at, src, value),
        SpikeEvent(at + delay + 1, dst, weight * value),
    ]


@settings(max_examples=60, deadline=None)
@given(
    threshold=st.integers(min_value=-20, max_value=20),
    value=st.integers(min_value=-20, max_value=20),
)
def test_threshold_law_property(threshold, value):
    b = CircuitBuilder()
    n = b.add_neuron(threshold)
    b.add_injection(n, value, 0)
    outcome = simulate(b.build())
    fired = [e for e in outcome.raster if e.neuron == n]
    if value >= threshold:
        assert fired == [SpikeEvent(0, n, value)]
    else:
        assert fired == []


@settings(max_examples=40, deadline=None)
@given(
    leak=st.integers(min_value=0, max_value=6),
    gap=st.integers(min_value=1, max_value=8),
)
def test_leak_expiry_property(leak, gap):
    b = CircuitBuilder()
    n = b.add_neuron(10, leak=leak)
    b.add_injection(n, 6, 0)
    b.add_injection(n, 6, gap)
    outcome = simulate(b.build())
    fired = [e for e in outcome.raster if e.neuron == n]
    if gap <= leak:  # first deposit still alive: 6 + 6 crosses threshold
        assert fired == [SpikeEvent(gap, n, 12)]
    else:
        assert fired == []


@settings(max_examples=200, deadline=None)
@given(built_circuits())
def test_a_join_line_takes_at_most_one_value_per_step(drawn):
    circuit, big_m = drawn
    outcome = simulate(circuit, config=SimConfig(max_steps=40, big_m=big_m))
    joins = {g.id: g.inputs for g in circuit.gadgets if isinstance(g, Join)}
    arrivals = [(d.time, d.target, d.source) for d in outcome.trace if d.target in joins]
    assert all(source in joins[join] for _, join, source in arrivals)
    assert len(set(arrivals)) == len(arrivals)  # one value per (step, join, line)
    fault = outcome.fault
    if fault is not None and fault.node in joins:
        # A send's weighted value can break the band and name its target, but
        # the join itself checks nothing: its fault is some sender's spike.
        weight = {s.pre: s.weight for s in circuit.synapses if s.post == fault.node}
        assert any(
            t == fault.time and pre in weight and weight[pre] * v == fault.value for t, pre, v in outcome.raster
        )
