"""Shared program family and run helpers used across the tests.

The five programs exercise every construction: primitive recursion for
addition/multiplication/predecessor, truncated subtraction by composition of
recursions, and minimization over the subtraction body.  ``built_circuits``
draws small builder-made circuits for the property tests, and
``circuits_with_added_injections`` adds injections to them for the law tests.
"""
from __future__ import annotations

import pytest
from hypothesis import strategies as st

from murec import (
    INFINITE,
    CircuitBuilder,
    Compose,
    Const,
    Engine,
    Injection,
    Mu,
    PrimRec,
    Proj,
    SimConfig,
    Succ,
    bind_args,
    compile_program,
)

ADD = PrimRec(Proj(1, 1), Compose(Succ(), (Proj(2, 3),)))
MUL = PrimRec(Const(0, 1), Compose(ADD, (Proj(2, 3), Proj(3, 3))))
PRED = PrimRec(Const(0, 1), Proj(1, 3))  # pred(i, d) = max(i - 1, 0), d unused
MONUS = PrimRec(Proj(1, 1), Compose(PRED, (Proj(2, 3), Proj(1, 3))))  # monus(z, x) = x - z
MU_MONUS = Mu(MONUS)  # least z >= 1 with x - z = 0, i.e. max(x, 1)
ALWAYS_POSITIVE = Mu(Compose(Succ(), (Proj(1, 2),)))  # f(z, x) = z + 1 > 0: diverges

ADD_REC = "(prec (proj 1 1) (compose (succ) ((proj 2 3))))"
MUL_REC = f"(prec (const 0 1) (compose {ADD_REC} ((proj 2 3) (proj 3 3))))"
PRED_REC = "(prec (const 0 1) (proj 1 3))"
MONUS_REC = f"(prec (proj 1 1) (compose {PRED_REC} ((proj 2 3) (proj 1 3))))"
MU_MONUS_REC = f"(mu {MONUS_REC})"


def compose_chain(depth: int) -> str:
    """``depth`` nested forms: successors composed down to a projection, so f(x) = x + depth - 1."""
    text = "(proj 1 1)"
    for _ in range(depth - 1):
        text = f"(compose (succ) ({text}))"
    return text


@pytest.fixture(scope="session")
def compiled_add():
    return compile_program(ADD)


@pytest.fixture(scope="session")
def compiled_mul():
    return compile_program(MUL)


@pytest.fixture(scope="session")
def compiled_pred():
    return compile_program(PRED)


@pytest.fixture(scope="session")
def compiled_monus():
    return compile_program(MONUS)


@pytest.fixture(scope="session")
def compiled_mu_monus():
    return compile_program(MU_MONUS)


def engine_run(program, args, max_steps=10**6, big_m=None):
    """Run a compiled program on a retained engine so state can be inspected."""
    binding = bind_args(program, args)
    ports = {p.name: p.neuron for p in program.circuit.ports}
    injections = tuple(
        Injection(neuron=ports[name], value=value, time=0)
        for name, value in sorted(binding.items())
    )
    config = SimConfig(max_steps=max_steps, big_m=big_m or program.meta["big_m"])
    engine = Engine(program.circuit, config, injections)
    outcome = engine.run()
    return engine, outcome


def assert_return_precedes_erase(raster, markers, require_fire=True):
    """Loop-safety law: the candidate a return trigger releases was never erased.

    Deliveries at the return cell's store all cross unit-delay synapses, so the
    arrival times are the source spike times plus one.  For every trigger
    arrival there must be a store at or before it with no erase in between.
    A nested loop that was never activated has nothing to satisfy; pass
    ``require_fire=False`` to treat that as vacuously true.
    """
    stores = sorted(e.time + 1 for e in raster if e.neuron == markers["store_src"])
    erases = sorted(e.time + 1 for e in raster if e.neuron == markers["cont_out"])
    triggers = sorted(e.time + 1 for e in raster if e.neuron == markers["ret_fire"])
    if not triggers:
        assert not require_fire, "the return branch never fired"
        return
    for tau in triggers:
        before = [s for s in stores if s <= tau]
        assert before, f"no store had arrived by the trigger at t={tau}"
        last_store = max(before)
        clobbered = [t for t in erases if last_store <= t <= tau]
        assert not clobbered, (
            f"erase at t={clobbered} lands between the store at t={last_store} "
            f"and the trigger at t={tau}"
        )


# A trigger cell's -big_m is replenished within this many steps of a trigger.
CELL_GAMMA = 2


def cell_injections(cell, ops: list[tuple[str, int, int]]) -> list[Injection]:
    """Turn a trigger cell's (kind, time, value) requests into injections into its store.

    A store delivers its value, an erase the value's negation and a trigger
    its value, the cell's ℳ.  Rejects two operations landing on the same
    timestep: simultaneous store/erase/trigger deliveries are outside the
    cell's contract.
    """
    times = [t for _, t, _ in ops]
    if len(set(times)) != len(times):
        raise ValueError("trigger cell operations must not share a timestep")
    injections = []
    for kind, time, value in ops:
        if kind not in ("store", "erase", "trigger"):
            raise ValueError(f"unknown trigger cell operation {kind!r}")
        injections.append(Injection(cell.store, -value if kind == "erase" else value, time))
    return injections


def const_fire_past_the_bound(order: tuple[str, ...] = ("edge", "wire", "join")):
    """A const emitter that fires 50 at t=2, past the bound of big_m=3 (|v| < 6).

    Its out-edges are a weight -1 edge, a wire (weight 1, delay 0) and a join
    line; their targets take ids 4, 5 and 6 in ``order``.  Returns the circuit
    and the emitter's id, 1.
    """
    b = CircuitBuilder()
    poke = b.add_neuron(0)
    ce = b.add_const_emit(50)
    b.add_synapse(poke, ce, 1, 0)
    b.add_injection(poke, 1, 0)
    outputs = [b.add_neuron(0), b.add_neuron(0)]  # the join's line targets, ids 2 and 3
    for name in order:
        if name == "join":
            b.add_join([ce, poke], outputs)
        else:
            b.add_synapse(ce, b.add_neuron(0), -1 if name == "edge" else 1, 0)
    return b.build(), ce


# Port name characters, with every one that JSON or CSV has to escape or quote.
PORT_NAME_CHARS = st.sampled_from(["y", "x", " ", '"', "\\", ",", "\n", "\r", "%", "é", "\u6f22", "\U0001f642"])


@st.composite
def built_circuits(draw, delays=st.integers(0, 4)):
    """A builder-made circuit with neurons, const emits and joins, plus a big_m to run it.

    Synapses join random (pre, post) pairs and up to six fan-outs of one to
    three out-edges each.  A synapse is a wire (weight 1, delay 0), which the
    engine fans out without a per-edge check, on a coin toss; otherwise its
    weight is drawn from -9..9 and its delay from ``delays``.
    """
    b = CircuitBuilder()
    n_nodes = draw(st.integers(min_value=1, max_value=8))
    ids, neuron_ids = [], []
    for _ in range(n_nodes):
        if draw(st.booleans()):
            leak = draw(st.sampled_from([0, 1, 5, INFINITE]))
            neuron_ids.append(b.add_neuron(draw(st.integers(-9, 9)), leak=leak))
            ids.append(neuron_ids[-1])
        else:
            ids.append(b.add_const_emit(draw(st.integers(-9, 9))))
    pairs = [(draw(st.sampled_from(ids)), draw(st.sampled_from(ids))) for _ in range(draw(st.integers(0, 12)))]
    # Fan-outs, so that a node often has several out-edges, of mixed kinds,
    # whose post order decides which breach a fire reports first.
    for pre in draw(st.lists(st.sampled_from(ids), max_size=6)):
        pairs += [(pre, post) for post in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))]
    used = set()
    for pre, post in pairs:
        if (pre, post) in used:
            continue
        used.add((pre, post))
        # A coin toss, not st.one_of(st.just(0), delays): one_of flattens a
        # one_of ``delays``, so 0 would be one branch in five.
        wire = draw(st.booleans())
        weight = 1 if wire else draw(st.integers(-9, 9))
        b.add_synapse(pre, post, weight, 0 if wire else draw(delays))
    for _ in range(draw(st.integers(0, 2))):
        n_lines = draw(st.integers(2, 3))
        if len(ids) < n_lines:
            break
        lines = st.lists(st.sampled_from(ids), min_size=n_lines, max_size=n_lines, unique=True)
        b.add_join(draw(lines), draw(lines))
    names = draw(st.lists(st.text(PORT_NAME_CHARS, min_size=1, max_size=5), max_size=4, unique=True))
    for name in names:
        if neuron_ids and draw(st.booleans()):
            b.mark_port(draw(st.sampled_from(neuron_ids)), "input", name)
        else:
            b.mark_port(draw(st.sampled_from(ids)), "output", name)
    for _ in range(draw(st.integers(0, 3))):
        b.add_injection(draw(st.sampled_from(ids)), draw(st.integers(-9, 9)), draw(st.integers(0, 5)))
    big_m = draw(st.sampled_from([3, 10, 40, 10**9]))  # small values make faults common
    return b.build(), big_m


@st.composite
def circuits_with_added_injections(draw):
    """A built circuit, its big_m, and one to three injections into its neurons and const emitters."""
    circuit, big_m = draw(built_circuits())
    targets = [n.id for n in circuit.neurons] + [g.id for g in circuit.const_emits]
    added = draw(st.lists(st.builds(Injection, st.sampled_from(targets), st.integers(-9, 9), st.integers(0, 5)),
                          min_size=1, max_size=3))  # so that some step runs and the clock moves
    return circuit, big_m, tuple(added)
