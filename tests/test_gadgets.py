"""Gadget fragments: constants, successor, projection, trigger cells."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CELL_GAMMA, cell_injections
from murec import (
    ArityError,
    CircuitBuilder,
    Engine,
    SimConfig,
    build_constant,
    build_projection,
    build_successor,
    build_trigger_cell,
    simulate,
)

BIG_M = 10**9


def _spikes_of(outcome, node):
    return [(e.time, e.value) for e in outcome.raster if e.neuron == node]


def _inject_args(b, box, values, at=0):
    for node, value in zip(box.inputs, values):
        b.add_injection(node, value, at)


# ---------------------------------------------------------------------------
# constant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 5, 100])
@pytest.mark.parametrize("x", [0, 7, 20])
def test_static_constant_ignores_its_argument(k, x):
    b = CircuitBuilder()
    box = build_constant(b, k, arity=1, at=3)
    assert box.latency == 1
    _inject_args(b, box, [x], at=3)
    outcome = simulate(b.build())
    assert _spikes_of(outcome, box.output) == [(4, k)]


def test_static_constant_swallows_every_argument_of_a_wide_arity():
    b = CircuitBuilder()
    box = build_constant(b, 9, arity=3, at=0)
    assert len(box.inputs) == 3
    _inject_args(b, box, [11, 22, 33])
    outcome = simulate(b.build())
    assert _spikes_of(outcome, box.output) == [(1, 9)]


def test_dynamic_constant_single_input_is_the_emitter_itself():
    b = CircuitBuilder()
    box = build_constant(b, 5, arity=1)
    assert box.latency == 1
    assert box.inputs == [box.output]
    b.add_injection(box.inputs[0], 42, 6)  # arrives at a data-dependent time
    outcome = simulate(b.build())
    assert _spikes_of(outcome, box.output) == [(7, 5)]


def test_dynamic_constant_multi_input_adds_a_relay_layer():
    b = CircuitBuilder()
    box = build_constant(b, 5, arity=2)
    assert box.latency == 2
    assert len(box.inputs) == 2
    _inject_args(b, box, [3, 8], at=4)
    outcome = simulate(b.build())
    assert _spikes_of(outcome, box.output) == [(6, 5)]


def test_nullary_constant_still_exposes_one_input():
    b = CircuitBuilder()
    box = build_constant(b, 7, arity=0, at=0)
    assert len(box.inputs) == 1
    _inject_args(b, box, [0])
    outcome = simulate(b.build())
    assert _spikes_of(outcome, box.output) == [(1, 7)]


def test_constant_rejects_negative_value():
    with pytest.raises(ArityError):
        build_constant(CircuitBuilder(), -1, arity=1, at=0)


# ---------------------------------------------------------------------------
# successor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", [0, 1, 6, 100])
def test_static_successor_adds_one_at_unit_latency(x):
    b = CircuitBuilder()
    box = build_successor(b, at=2)
    assert box.latency == 1
    _inject_args(b, box, [x], at=2)
    outcome = simulate(b.build())
    assert _spikes_of(outcome, box.output) == [(3, x + 1)]


@pytest.mark.parametrize("x", [0, 1, 6, 100])
@pytest.mark.parametrize("at", [0, 5])
def test_dynamic_successor_adds_one_three_steps_out(x, at):
    b = CircuitBuilder()
    box = build_successor(b)
    assert box.latency == 3
    _inject_args(b, box, [x], at=at)
    outcome = simulate(b.build())
    assert _spikes_of(outcome, box.output) == [(at + 3, x + 1)]


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_static_projection_selects_each_index(arity):
    rng = random.Random(arity)
    for index in range(1, arity + 1):
        values = [rng.randint(0, 100) for _ in range(arity)]
        b = CircuitBuilder()
        box = build_projection(b, index, arity, BIG_M, at=0)
        assert box.latency == 7
        _inject_args(b, box, values)
        outcome = simulate(b.build())
        assert outcome.status == "quiescent"
        assert _spikes_of(outcome, box.output) == [(7, values[index - 1])]


def test_static_projection_internal_lane_pattern():
    arity, index = 4, 3
    values = [10, 20, 30, 40]
    b = CircuitBuilder()
    box = build_projection(b, index, arity, BIG_M, at=0)
    _inject_args(b, box, values)
    engine = Engine(b.build())
    outcome = engine.run()
    # Lane m's coincidence neuron (id 2N+m) spikes iff m <= index.
    for m in range(1, arity + 1):
        fired = [e for e in outcome.raster if e.neuron == 2 * arity + m]
        assert bool(fired) == (m <= index)
    # Lane m's isolation neuron (id 3N+m) spikes, with value 0, iff m == index.
    for m in range(1, arity + 1):
        fired = _spikes_of(outcome, 3 * arity + m)
        assert fired == ([(3, 0)] if m == index else [])
    # The selected hold released its argument at t=6; the others park theirs
    # through that step and are empty from the next one on.
    holds = box.inputs
    for m, hold in enumerate(holds, start=1):
        assert engine.inspect(hold, 6) == (0 if m == index else values[m - 1])
        assert engine.inspect(hold, 7) == 0


def test_dynamic_projection_releases_ten_steps_after_arrival():
    b = CircuitBuilder()
    box = build_projection(b, 2, 3, BIG_M)
    assert box.latency == 10
    _inject_args(b, box, [5, 8, 13], at=6)
    outcome = simulate(b.build())
    assert _spikes_of(outcome, box.output) == [(16, 8)]


def test_projection_rejects_out_of_range_indices():
    with pytest.raises(ArityError):
        build_projection(CircuitBuilder(), 0, 2, BIG_M, at=0)
    with pytest.raises(ArityError):
        build_projection(CircuitBuilder(), 3, 2, BIG_M, at=0)
    with pytest.raises(ArityError):
        build_projection(CircuitBuilder(), 1, 0, BIG_M, at=0)


def test_projection_reuse_once_the_selected_hold_has_cleared():
    # A second activation is safe once the previous release has emptied the
    # selected hold (arrival + 6) and re-armed the subtraction stage.
    gap = 8
    b = CircuitBuilder()
    box = build_projection(b, 1, 2, BIG_M, at=0)
    _inject_args(b, box, [5, 8], at=0)
    # The selector pulse must accompany every activation; replay it by hand.
    b.add_injection(0, 1, gap)
    _inject_args(b, box, [6, 9], at=gap)
    outcome = simulate(b.build())
    assert _spikes_of(outcome, box.output) == [(7, 5), (7 + gap, 6)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 4), st.booleans(), st.integers(3, 6))
def test_projection_releases_the_selected_argument_at_every_activation(data, arity, static, k):
    # k activations, one every `gap` steps; one lane it does not select gets
    # at least 34 each time, so its arguments sum past big_m = 100.
    big_m, latency = 100, 7 if static else 10
    index = data.draw(st.integers(1, arity))
    gap = data.draw(st.integers(latency + 1, latency + 4))
    rows = data.draw(st.lists(st.lists(st.integers(0, 49), min_size=arity, max_size=arity), min_size=k, max_size=k))
    loud = index % arity  # the lane after the selected one, cyclically
    for row in rows:
        row[loud] = data.draw(st.integers(34, 49))
    b = CircuitBuilder()
    box = build_projection(b, index, arity, big_m, at=0 if static else None)
    for a, row in enumerate(rows):
        _inject_args(b, box, row, at=a * gap)
        if static and a:
            b.add_injection(0, index, a * gap)  # node 0 is the selector: replay its pulse
    outcome = simulate(b.build(), config=SimConfig(big_m=big_m))
    assert outcome.status == "quiescent"
    assert _spikes_of(outcome, box.output) == [(a * gap + latency, row[index - 1]) for a, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# trigger cell
# ---------------------------------------------------------------------------


def _run_cell(ops):
    b = CircuitBuilder()
    cell = build_trigger_cell(b, BIG_M)
    plan = tuple(cell_injections(cell, ops))
    outcome = simulate(b.build(), extra_injections=plan)
    return b, cell, outcome


def test_store_then_trigger_emits_the_value_one_step_later():
    _, cell, outcome = _run_cell([("store", 0, 7), ("trigger", 5, BIG_M)])
    assert _spikes_of(outcome, cell.out) == [(6, 7)]


def test_erase_cancels_a_store():
    _, cell, outcome = _run_cell(
        [("store", 0, 7), ("erase", 2, 7), ("trigger", 5, BIG_M)]
    )
    assert _spikes_of(outcome, cell.out) == [(6, 0)]


def test_stores_accumulate_until_triggered():
    _, cell, outcome = _run_cell(
        [("store", 0, 3), ("store", 2, 4), ("trigger", 5, BIG_M)]
    )
    assert _spikes_of(outcome, cell.out) == [(6, 7)]


def test_three_reuse_cycles_spaced_at_least_gamma_apart():
    ops = [
        ("store", 0, 7),
        ("trigger", 5, BIG_M),
        ("store", 10, 9),
        ("trigger", 13, BIG_M),
        ("store", 20, 4),
        ("trigger", 23, BIG_M),
    ]
    triggers, stores = [t for kind, t, _ in ops if kind == "trigger"], [t for kind, t, _ in ops if kind == "store"]
    assert all(store - trigger >= CELL_GAMMA for trigger, store in zip(triggers, stores[1:]))
    _, cell, outcome = _run_cell(ops)
    assert _spikes_of(outcome, cell.out) == [(6, 7), (14, 9), (24, 4)]


def test_negative_offset_replenishes_within_gamma():
    b = CircuitBuilder()
    cell = build_trigger_cell(b, BIG_M)
    plan = tuple(cell_injections(cell, [("store", 0, 7), ("trigger", 5, BIG_M)]))
    engine = Engine(b.build(), extra_injections=plan)
    engine.run()
    assert engine.inspect(cell.store) == 0
    assert engine.inspect(cell.out) == -BIG_M  # armed again for the next cycle


def test_plan_rejects_operations_sharing_a_timestep():
    b = CircuitBuilder()
    cell = build_trigger_cell(b, BIG_M)
    with pytest.raises(ValueError):
        cell_injections(cell, [("store", 3, 7), ("trigger", 3, BIG_M)])
    with pytest.raises(ValueError):
        cell_injections(cell, [("nudge", 3, 7)])


def test_two_cells_in_one_circuit_stay_independent():
    b = CircuitBuilder()
    first = build_trigger_cell(b, BIG_M)
    second = build_trigger_cell(b, BIG_M)
    plan = tuple(cell_injections(first, [("store", 0, 7), ("trigger", 5, BIG_M)])) + tuple(
        cell_injections(second, [("store", 1, 11), ("trigger", 8, BIG_M)])
    )
    outcome = simulate(b.build(), extra_injections=plan)
    assert _spikes_of(outcome, first.out) == [(6, 7)]
    assert _spikes_of(outcome, second.out) == [(9, 11)]
