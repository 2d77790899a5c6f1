"""Reusable circuit constructions.

Each builder wires a fragment into a shared :class:`CircuitBuilder` and
returns a :class:`Box` handle: the node ids where argument deliveries must
arrive, the node whose spikes carry the result, and the latency when it is
fixed.

Two forms exist for the constant and successor fragments.  The *static* form
(``at`` given) is the pure-neuron circuit driven by an auxiliary ``1`` placed
in the injection plan at the known arrival time.  The *dynamic* form replaces
the schedulable auxiliary input with a constant-emitter native node so the box
can be fired at data-dependent times by arbitrary-valued spikes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import CircuitBuilder, INFINITE
from .errors import ArityError


@dataclass
class Box:
    """A wired subcircuit: where inputs land, where the output spikes.

    ``latency`` is the number of timesteps from input arrival to the output
    spike when that number is input-independent, else ``None``.
    """

    inputs: list[int]
    output: int
    latency: int | None


@dataclass
class TriggerCell:
    """Store/erase/trigger memory cell.

    All three operations are deliveries to ``store``: a value ``v`` adds to
    the held state, ``-v`` erases a prior store, and ``big_m`` makes the cell
    emit.  ``out`` holds ``-big_m`` and therefore spikes exactly the stored
    value one step after the trigger; the ``-big_m`` is replenished through a
    constant-emitter loop within 2 steps.  Two operations on one timestep are
    outside the cell's contract.
    """

    store: int
    out: int


def build_constant(b: CircuitBuilder, value: int, arity: int, at: int | None = None) -> Box:
    """Circuit for the constant function of the given arity.

    Static form: one weight-0 in-neuron per argument plus an auxiliary neuron
    injected with 1 at time ``at``; the output neuron integrates ``0·x + k``.
    Dynamic form: the constant-emitter node is the box (arguments deliver to
    it directly); a second relay layer is added only when several distinct
    input nodes are required.
    """
    if value < 0:
        raise ArityError("constant functions are over the naturals; k must be >= 0")
    eff = max(arity, 1)
    if at is not None:
        aux = b.add_neuron(0, 0)
        ins = [b.add_neuron(0, 0) for _ in range(eff)]
        out = b.add_neuron(0, 0)
        b.add_synapse(aux, out, value, 0)
        for node in ins:
            b.add_synapse(node, out, 0, 0)
        b.add_injection(aux, 1, at)
        return Box(inputs=ins, output=out, latency=1)
    emitter = b.add_const_emit(value)
    if eff == 1:
        return Box(inputs=[emitter], output=emitter, latency=1)
    ins = [b.add_neuron(0, 0) for _ in range(eff)]
    for node in ins:
        b.add_synapse(node, emitter, 1, 0)
    return Box(inputs=ins, output=emitter, latency=2)


def build_successor(b: CircuitBuilder, at: int | None = None) -> Box:
    """Circuit for x + 1: two weight-1 synapses into a threshold-0 neuron."""
    if at is not None:
        aux = b.add_neuron(0, 0)
        in_x = b.add_neuron(0, 0)
        out = b.add_neuron(0, 0)
        b.add_synapse(aux, out, 1, 0)
        b.add_synapse(in_x, out, 1, 0)
        b.add_injection(aux, 1, at)
        return Box(inputs=[in_x], output=out, latency=1)
    in_x = b.add_neuron(0, 0)
    plus_one = b.add_const_emit(1)
    out = b.add_neuron(0, 0)
    b.add_synapse(in_x, plus_one, 1, 0)
    b.add_synapse(in_x, out, 1, 2)  # meet the emitter's value three steps out
    b.add_synapse(plus_one, out, 1, 0)
    return Box(inputs=[in_x], output=out, latency=3)


def build_projection(
    b: CircuitBuilder, index: int, arity: int, big_m: int, at: int | None = None
) -> Box:
    """Circuit selecting the index-th of ``arity`` arguments.

    The selector broadcasts ``i`` through +1 synapses to thresholds 1..N and
    through -1 synapses to thresholds -1..-N; lane ``m``'s coincidence neuron
    spikes iff m <= i and its isolation neuron spikes (value 0) iff m == i.
    That lone 0 fires the lane's big-M emitter, releasing exactly the hold
    that stores x_i into the -big_m subtraction stage.

    Static form: arguments deliver straight onto the holds and the selector
    value rides the injection plan at time ``at``.  Dynamic form: relays
    receive the arguments and a constant emitter derives the selector pulse
    from their batch, so the box is safe at unknown arrival times.
    """
    if arity < 1:
        raise ArityError("projection needs at least one argument")
    if not 1 <= index <= arity:
        raise ArityError(f"projection index {index} out of range 1..{arity}")

    selector = b.add_neuron(0, 0)
    above = [b.add_neuron(m, 0) for m in range(1, arity + 1)]
    below = [b.add_neuron(-m, 0) for m in range(1, arity + 1)]
    coincide = [b.add_neuron(0, 0) for _ in range(arity)]
    isolate = [b.add_neuron(0, 0) for _ in range(arity)]
    lane_emitters = [b.add_const_emit(big_m) for _ in range(arity)]
    # A hold keeps its argument through the selected lane's release, 6 steps
    # after the argument lands in the static form and 8 in the dynamic one
    # (its relays add a step, deriving the selector two), and then lets go:
    # a lane not selected does not carry its argument into the next activation.
    holds = [b.add_neuron(big_m, 6 if at is not None else 8) for _ in range(arity)]
    loader = b.add_neuron(0, 0)
    subtract = b.add_neuron(0, INFINITE)
    replenish = b.add_const_emit(-big_m)

    for m in range(arity):
        b.add_synapse(selector, above[m], 1, 0)
        b.add_synapse(selector, below[m], -1, 0)
        b.add_synapse(above[m], coincide[m], 1, 0)
        b.add_synapse(below[m], coincide[m], 1, 0)
        b.add_synapse(coincide[m], isolate[m], -1, 0)
        b.add_synapse(isolate[m], lane_emitters[m], 1, 0)
        b.add_synapse(lane_emitters[m], holds[m], 1, 0)
        b.add_synapse(holds[m], subtract, 1, 0)
    b.add_synapse(loader, subtract, -big_m, 0)
    b.add_injection(loader, 1, 0)
    b.add_synapse(subtract, replenish, 1, 0)
    b.add_synapse(replenish, subtract, 1, 0)

    if at is not None:
        b.add_injection(selector, index, at)
        return Box(inputs=holds, output=subtract, latency=7)

    relays = [b.add_neuron(0, 0) for _ in range(arity)]
    derive = b.add_const_emit(index)
    for m in range(arity):
        b.add_synapse(relays[m], holds[m], 1, 0)
        b.add_synapse(relays[m], derive, 1, 0)
    b.add_synapse(derive, selector, 1, 0)
    return Box(inputs=relays, output=subtract, latency=10)


def build_trigger_cell(b: CircuitBuilder, big_m: int) -> TriggerCell:
    """Wire a fresh trigger cell and return its handle."""
    store = b.add_neuron(big_m, INFINITE)
    out = b.add_neuron(0, INFINITE)
    loader = b.add_neuron(0, 0)
    b.add_injection(loader, 1, 0)
    b.add_synapse(loader, out, -big_m, 0)
    b.add_synapse(store, out, 1, 0)
    replenish = b.add_const_emit(-big_m)
    b.add_synapse(store, replenish, 1, 0)
    b.add_synapse(replenish, out, 1, 0)
    return TriggerCell(store=store, out=out)
