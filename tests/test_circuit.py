"""Circuit data model: builder records, structural validation, serialization."""
from __future__ import annotations

import csv
import dataclasses
import io
import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ADD, MU_MONUS, MUL, PORT_NAME_CHARS, built_circuits
from murec import (
    INFINITE,
    Circuit,
    CircuitBuilder,
    CompiledProgram,
    ConstEmit,
    Delivery,
    Engine,
    Injection,
    InvalidCircuit,
    Join,
    NeuronSpec,
    ParseError,
    Port,
    SimConfig,
    SynapseSpec,
    circuit_from_document,
    compile_program,
    parse_json_document,
    raster_csv,
    raster_jsonl,
)
from murec.cli import _trace_csv


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def test_builder_allocates_dense_ids_across_node_kinds():
    b = CircuitBuilder()
    n0 = b.add_neuron(0)
    g1 = b.add_const_emit(5)
    n2 = b.add_neuron(3, leak=INFINITE)
    assert (n0, g1, n2) == (0, 1, 2)
    circuit = b.build()
    assert {n.id for n in circuit.neurons} | {g.id for g in circuit.gadgets} == {0, 1, 2}
    assert circuit.validate() == []


def _violations_at_build(b):
    with pytest.raises(InvalidCircuit) as err:
        b.build()
    return err.value.violations


def test_builder_rejects_duplicate_synapse():
    b = CircuitBuilder()
    a = b.add_neuron(0)
    c = b.add_neuron(0)
    b.add_synapse(a, c, 1, 0)
    b.add_synapse(a, c, 2, 3)
    assert _violations_at_build(b) == ["synapse (0, 1): duplicate (pre, post) pair"]


def test_builder_rejects_unknown_endpoints():
    b = CircuitBuilder()
    a = b.add_neuron(0)
    b.add_synapse(a, a + 1, 1)
    b.add_injection(a + 7, 1, 0)
    b.mark_port(a + 7, "input", "x1")
    assert _violations_at_build(b) == [
        "synapse (0, 1): unknown endpoint",
        "port 'x1': unknown node 7",
        "injection into unknown node 7",
    ]


def test_builder_rejects_duplicate_port_name():
    b = CircuitBuilder()
    a = b.add_neuron(0)
    c = b.add_neuron(0)
    b.mark_port(a, "input", "x1")
    b.mark_port(c, "output", "x1")
    assert _violations_at_build(b) == ["port 'x1': duplicate name"]


def _two_neurons():
    b = CircuitBuilder()
    return b, b.add_neuron(0), b.add_neuron(0)


def test_builder_rejects_bad_port_role_and_negative_scalars():
    b, a, _ = _two_neurons()
    b.mark_port(a, "sideways", "p")
    assert _violations_at_build(b) == ["port 'p': role must be input or output"]
    b = CircuitBuilder()
    b.add_neuron(0, leak=-1)
    assert _violations_at_build(b) == ["neuron 0: leak must be >= 0 or INFINITE"]
    b, a, c = _two_neurons()
    b.add_synapse(a, c, 1, delay=-1)
    assert _violations_at_build(b) == ["synapse (0, 1): delay must be >= 0"]
    b, a, _ = _two_neurons()
    b.add_injection(a, 1, time=-1)
    assert _violations_at_build(b) == ["injection into 0: time must be >= 0"]


def _leaves(join: int, post: int) -> str:
    """The violation for a synapse that starts at a join."""
    return f"synapse ({join}, {post}): starts at join {join}, whose record holds its output lines"


def test_builder_join_requires_two_distinct_lines():
    # Each case joins over four fresh neurons 0..3, so the join is node 4.  An
    # output line is the record's alone, so only an input line has a wire.
    cases = [
        (([0], [1]), ["join 4: needs at least 2 lines"]),
        (
            ([0, 0], [1, 2]),
            ["synapse (0, 4): duplicate (pre, post) pair", "join 4: input lines must be distinct"],
        ),
        (([0, 1], [2, 2]), ["join 4: output lines must be distinct"]),
        (([0, 1], [2]), ["join 4: inputs and outputs must have equal length"]),
        (
            ([0, 99], [1, 2]),
            ["synapse (99, 4): unknown endpoint", "join 4: unknown line endpoint 99"],
        ),
        (([0, 1], [2, 99]), ["join 4: unknown line endpoint 99"]),
        (([0, 4], [1, 2]), [_leaves(4, 4), "join 4: line endpoint 4 is a join"]),
        (([0, 1], [2, 4]), ["join 4: line endpoint 4 is a join"]),
    ]
    for (inputs, outputs), expected in cases:
        b = CircuitBuilder()
        for _ in range(4):
            b.add_neuron(0)
        assert b.add_join(inputs, outputs) == 4
        assert _violations_at_build(b) == expected


def test_builder_join_creates_unit_line_synapses():
    b = CircuitBuilder()
    srcs = [b.add_neuron(0), b.add_neuron(0)]
    dsts = [b.add_neuron(0), b.add_neuron(0)]
    j = b.add_join(srcs, dsts)
    circuit = b.build()
    # One unit wire into the join per input line; the output lines are the record's alone.
    assert circuit.synapses == tuple(SynapseSpec(src, j, 1, 0) for src in srcs)
    assert circuit.gadgets == (Join(j, tuple(srcs), tuple(dsts)),)


def test_no_synapse_may_start_at_a_join():
    # An output line's wire, as older circuit files carried, or any other
    # synapse out of a join is refused: the record alone says where lines go.
    for post, weight, delay in [(2, 1, 0), (3, 1, 0), (0, 5, 2)]:
        b = CircuitBuilder()
        srcs = [b.add_neuron(0), b.add_neuron(0)]
        dsts = [b.add_neuron(0), b.add_neuron(0)]
        j = b.add_join(srcs, dsts)
        b.add_synapse(j, post, weight, delay)
        assert _violations_at_build(b) == [_leaves(j, post)]


def test_builder_rejects_injection_into_join_at_build():
    b = CircuitBuilder()
    srcs = [b.add_neuron(0), b.add_neuron(0)]
    dsts = [b.add_neuron(0), b.add_neuron(0)]
    j = b.add_join(srcs, dsts)
    b.add_injection(srcs[0], 1, 0)
    b.build()  # fine so far
    b.add_injection(j, 1, 0)
    with pytest.raises(InvalidCircuit) as err:
        b.build()
    assert any("join" in v for v in err.value.violations)


@st.composite
def builder_calls(draw):
    """Arbitrary builder calls: ids in -2..n+2, negative scalars, repeats, bad roles and joins."""
    n = draw(st.integers(0, 5))
    node = st.integers(-2, n + 2)
    small = st.integers(-3, 3)
    lines = st.lists(node, max_size=3)
    call = st.one_of(
        st.tuples(st.just("add_neuron"), small, st.one_of(st.none(), small)),
        st.tuples(st.just("add_const_emit"), small),
        st.tuples(st.just("add_synapse"), node, node, small, small),
        st.tuples(st.just("mark_port"), node, st.sampled_from(["input", "output", "sideways"]),
                  st.sampled_from(["x1", "x2", "y"])),
        st.tuples(st.just("add_injection"), node, small, small),
        st.tuples(st.just("add_join"), lines, lines),
    )
    nodes = [draw(st.sampled_from([("add_neuron", 0, 0), ("add_const_emit", 1)])) for _ in range(n)]
    return draw(st.permutations(nodes + draw(st.lists(call, max_size=10))))


@settings(max_examples=300, deadline=None)
@given(builder_calls())
def test_builder_records_anything_and_build_either_validates_or_lists_violations(calls):
    b = CircuitBuilder()
    for name, *args in calls:
        getattr(b, name)(*args)  # recording never raises
    try:
        circuit = b.build()
    except InvalidCircuit as exc:
        assert exc.violations
    else:
        assert circuit.validate() == []


# ---------------------------------------------------------------------------
# validate() on hand-assembled circuits
# ---------------------------------------------------------------------------


def test_a_section_given_as_an_iterator_is_checked_and_kept_whole():
    # validate() reads a section for its types and then sorts it: an iterator
    # read twice would give the sort nothing, and the circuit would lose its records.
    circuit = Circuit(neurons=iter([NeuronSpec(1, 0, 0), NeuronSpec(0, 0, 0)]))
    assert circuit.neurons == (NeuronSpec(0, 0, 0), NeuronSpec(1, 0, 0))
    with pytest.raises(InvalidCircuit) as err:
        Circuit(neurons=iter([NeuronSpec(0, 0, 0), NeuronSpec(2, 0, 0)]))
    assert err.value.violations == ["node ids are not contiguous from 0"]


def test_validate_reports_gapped_ids():
    with pytest.raises(InvalidCircuit) as err:
        Circuit(
            neurons=[NeuronSpec(0, 0, 0), NeuronSpec(2, 0, 0)],
            synapses=[],
            ports=[],
            injections=[],
            const_emits=[],
            joins=[],
        )
    assert any("contiguous" in v for v in err.value.violations)


def test_validate_reports_duplicate_ids_and_synapses():
    with pytest.raises(InvalidCircuit) as err:
        Circuit(
            neurons=[NeuronSpec(0, 0, 0), NeuronSpec(0, 1, 0)],
            synapses=[SynapseSpec(0, 0, 1, 0), SynapseSpec(0, 0, 2, 1)],
            ports=[],
            injections=[],
            const_emits=[],
            joins=[],
        )
    violations = err.value.violations
    assert any("not unique" in v for v in violations)
    assert any("duplicate (pre, post)" in v for v in violations)


def test_validate_reports_dangling_references():
    with pytest.raises(InvalidCircuit) as err:
        Circuit(
            neurons=[NeuronSpec(0, 0, 0)],
            synapses=[SynapseSpec(0, 3, 1, 0)],
            ports=[Port("y", 9, "output")],
            injections=[Injection(8, 1, 0)],
            const_emits=[],
            joins=[],
        )
    violations = err.value.violations
    assert any("unknown endpoint" in v for v in violations)
    assert any("unknown node" in v for v in violations)
    assert any("unknown" in v and "injection" in v for v in violations)


def test_validate_reports_join_line_synapse_mismatch():
    # Join 4 is declared over lines 0,1 -> 2,3 but the (1, 4) synapse is missing
    # and an unlisted (2, 4) synapse exists.
    with pytest.raises(InvalidCircuit) as err:
        Circuit(
            neurons=[NeuronSpec(i, 0, 0) for i in range(4)],
            synapses=[SynapseSpec(0, 4, 1, 0), SynapseSpec(2, 4, 1, 0)],
            ports=[],
            injections=[],
            joins=[Join(4, (0, 1), (2, 3))],
        )
    assert err.value.violations == ["join 4: line source 1 has no synapse", "join 4: synapse from unlisted source 2"]


def test_validate_lists_join_violations_in_canonical_order():
    # Join 6 over 0,1 -> 2,3 and join 7 over 2,3 -> 4,5, each missing line
    # synapses, carrying unlisted ones and sending along synapses of its own:
    # those are named in synapse order, the rest join by join.
    with pytest.raises(InvalidCircuit) as err:
        Circuit(
            neurons=[NeuronSpec(i, 0, 0) for i in range(6)],
            synapses=[
                SynapseSpec(0, 6, 1, 0),
                SynapseSpec(5, 6, 1, 0),
                SynapseSpec(4, 6, 1, 0),
                SynapseSpec(6, 5, 1, 0),
                SynapseSpec(6, 2, 1, 0),
                SynapseSpec(2, 7, 1, 0),
                SynapseSpec(3, 7, 1, 0),
                SynapseSpec(0, 7, 1, 0),
                SynapseSpec(7, 1, 1, 0),
            ],
            ports=[],
            injections=[],
            joins=[Join(7, (2, 3), (4, 5)), Join(6, (0, 1), (2, 3))],
        )
    assert err.value.violations == [
        _leaves(6, 2),
        _leaves(6, 5),
        _leaves(7, 1),
        "join 6: line source 1 has no synapse",
        "join 6: synapse from unlisted source 4",
        "join 6: synapse from unlisted source 5",
        "join 7: synapse from unlisted source 0",
    ]


def test_input_port_on_a_join_is_rejected_when_the_circuit_is_built():
    # Nothing may be injected into a join, so an input port on one could never
    # be bound; the builder-made circuit is refused before any run.
    b = CircuitBuilder()
    a, c, d, e = (b.add_neuron(0) for _ in range(4))
    join = b.add_join([a, c], [d, e])
    b.mark_port(join, "input", "x1")
    b.mark_port(join, "output", "y")  # an output port on a join stays allowed
    with pytest.raises(InvalidCircuit) as err:
        b.build()
    assert err.value.violations == [f"port 'x1': input port on join {join} is not allowed"]


def test_a_join_line_must_be_a_plain_wire():
    # Join 6 over 0,1 -> 2,3 and join 7 over 2,3 -> 4,5: every input line
    # synapse with a weight other than 1 or a delay other than 0 is named,
    # joins in id order.
    lines = {(0, 6): (2, 0), (1, 6): (1, 3), (2, 7): (1, 0), (3, 7): (0, -2)}
    with pytest.raises(InvalidCircuit) as err:
        Circuit(
            neurons=[NeuronSpec(i, 0, 0) for i in range(6)],
            synapses=[SynapseSpec(pre, post, *line) for (pre, post), line in lines.items()],
            joins=[Join(7, (2, 3), (4, 5)), Join(6, (0, 1), (2, 3))],
        )
    assert err.value.violations == [
        "synapse (3, 7): delay must be >= 0",
        "join 6: synapse (0, 6) must have weight 1 and delay 0",
        "join 6: synapse (1, 6) must have weight 1 and delay 0",
        "join 7: synapse (3, 7) must have weight 1 and delay 0",
    ]


def test_a_join_line_may_not_end_at_a_join():
    # Join 4's first output line ends at join 5, and join 5's first input
    # line starts at join 4.  That input line's wire (4, 5) starts at a join,
    # so it is named too; the output line has no wire.
    with pytest.raises(InvalidCircuit) as err:
        Circuit(
            neurons=[NeuronSpec(i, 0, 0) for i in range(4)],
            synapses=[SynapseSpec(pre, post, 1, 0) for pre, post in [(0, 4), (1, 4), (2, 5), (4, 5)]],
            injections=[Injection(0, 1, 0), Injection(1, 2, 0)],
            joins=[Join(4, (0, 1), (5, 2)), Join(5, (4, 2), (3, 0))],
        )
    assert err.value.violations == [
        _leaves(4, 5), "join 4: line endpoint 5 is a join", "join 5: line endpoint 4 is a join"
    ]


# ---------------------------------------------------------------------------
# validate(): shuffled sections list what the same records list sorted
# ---------------------------------------------------------------------------

SECTIONS = ("neurons", "synapses", "ports", "injections", "const_emits", "joins")
COMPILED = [compile_program(program).circuit for program in (ADD, MUL, MU_MONUS)]


# Each section's canonical order, which Circuit sorts into once the types hold.
CANONICAL = {
    "neurons": lambda n: n.id,
    "synapses": lambda s: (s.pre, s.post),
    "ports": lambda p: p.name,
    "injections": lambda i: (i.time, i.neuron, i.value),
    "const_emits": lambda c: c.id,
    "joins": lambda j: j.id,
}
# The wording of a field's type rule, by field name; a field not listed is an integer.
KINDS = {
    "leak": "an integer or INFINITE",
    "name": "a non-empty string",
    "inputs": "a tuple of integers",
    "outputs": "a tuple of integers",
}


def _unvalidated(sections: dict) -> Circuit:
    """A circuit holding ``sections`` exactly as given: neither checked nor sorted."""
    circuit = object.__new__(Circuit)
    for name, records in sections.items():
        object.__setattr__(circuit, name, tuple(records))
    return circuit


def _drop(synapses: list, *pairs) -> None:
    synapses[:] = [s for s in synapses if (s.pre, s.post) not in pairs]


@st.composite
def broken_sections(draw):
    """A valid circuit's sections, shuffled, with one rule of validate() broken once.

    Returns the rule's name, the sections, and for a "field type" draw the one
    message it must give.  Each mutation breaks its own rule only, so no other
    rule can stand in for it; "none" leaves the circuit valid.
    """
    circuit = draw(st.one_of(st.sampled_from(COMPILED), built_circuits().map(lambda drawn: drawn[0])))
    s = {name: list(getattr(circuit, name)) for name in SECTIONS}
    neurons, synapses, ports, injections, const_emits, joins = (s[name] for name in SECTIONS)
    total = len(neurons) + len(const_emits) + len(joins)
    outside = draw(st.sampled_from([-1, total]))
    plain = sorted({n.id for n in neurons} | {c.id for c in const_emits})
    rules = ["none", "injection node", "injection time"]
    rules += ["node id", "leak"] if neurons else []
    rules += ["endpoint", "delay", "pair"] if synapses else []
    rules += ["port name", "role", "port node"] if ports else []
    rules += ["input port on a join", "injection into a join", "one line", "line counts", "repeated input",
              "repeated output", "unknown output", "join at a line end", "line wire", "extra synapse",
              "synapse from a join"] if joins else []
    rules += ["field type"] if any(s.values()) else []
    rule = draw(st.sampled_from(rules))
    at = draw(st.integers(0, 10**6))  # which record: taken modulo the section's length
    if rule == "node id":
        i = at % len(neurons)  # out of range, or the next neuron's id
        neurons[i] = neurons[i]._replace(id=draw(st.sampled_from([outside, *(n.id for n in neurons[i + 1 : i + 2])])))
    elif rule == "leak":
        neurons[at % len(neurons)] = neurons[at % len(neurons)]._replace(leak=-draw(st.integers(1, 3)))
    elif rule == "endpoint":
        field = draw(st.sampled_from(["pre", "post"]))
        synapses[at % len(synapses)] = synapses[at % len(synapses)]._replace(**{field: outside})
    elif rule == "delay":
        synapses[at % len(synapses)] = synapses[at % len(synapses)]._replace(delay=-draw(st.integers(1, 3)))
    elif rule == "pair":
        synapses.append(synapses[at % len(synapses)]._replace(weight=draw(st.integers(-9, 9))))
    elif rule == "port name":
        ports.append(Port(ports[at % len(ports)].name, draw(st.sampled_from(plain)), "output"))
    elif rule == "role":
        ports[at % len(ports)] = ports[at % len(ports)]._replace(role=draw(st.sampled_from(["sideways", "Input", ""])))
    elif rule == "port node":
        ports[at % len(ports)] = ports[at % len(ports)]._replace(neuron=outside)
    elif rule == "injection node":
        injections.append(Injection(outside, 1, 0))
    elif rule == "injection time":
        injections.append(Injection(draw(st.sampled_from(plain)), 1, -draw(st.integers(1, 3))))
    elif rule in ("input port on a join", "injection into a join"):
        j = joins[at % len(joins)].id
        if rule == "input port on a join":
            ports.append(Port("join-input", j, "input"))  # no other port name has a "-"
        else:
            injections.append(Injection(j, 1, 0))
    elif rule not in ("none", "field type"):
        index = at % len(joins)
        j, ins, outs = joins[index]
        n = len(ins)
        m, k = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
        if rule == "one line":  # every line but the first goes, with its input wires
            _drop(synapses, *((src, j) for src in ins[1:]))
            ins, outs = ins[:1], outs[:1]
        elif rule == "line counts":  # an extra target: the lines no longer pair up
            outs += (draw(st.sampled_from(plain)),)
        elif rule == "repeated input":  # line k takes line 0's source; its own source's wire goes
            _drop(synapses, (ins[k], j))
            ins = ins[:k] + ins[:1] + ins[k + 1:]
        elif rule == "repeated output":  # output lines have no wires, so no synapse test sees this
            outs = outs[:k] + outs[:1] + outs[k + 1:]
        elif rule == "unknown output":
            outs = outs[:m] + (outside,) + outs[m + 1:]
        elif rule == "join at a line end":  # a line ends at its own join (a line starting there has a wire from it)
            outs = outs[:k] + (j,) + outs[k + 1:]
        elif rule == "line wire":
            wire = draw(st.sampled_from([i for i, w in enumerate(synapses) if w.post == j]))
            field = draw(st.sampled_from(["weight", "delay"]))
            synapses[wire] = synapses[wire]._replace(**{field: getattr(synapses[wire], field) + 1})
        elif rule == "extra synapse":
            pairs = {(w.pre, w.post) for w in synapses}
            free = [x for x in plain if (x, j) not in pairs]
            assume(free)
            synapses.append(SynapseSpec(draw(st.sampled_from(free)), j, 1, 0))
        elif rule == "synapse from a join":  # an output line's wire, as older files carried, or any other
            post, weight, delay = draw(st.sampled_from(plain)), draw(st.integers(-9, 9)), draw(st.integers(0, 3))
            synapses.append(SynapseSpec(j, post, weight, delay))
        joins[index] = Join(j, ins, outs)
    s = {name: draw(st.permutations(records)) for name, records in s.items()}
    message = None
    if rule == "field type":  # one field of the wrong type, named by its place in the shuffled section
        section = draw(st.sampled_from([name for name in SECTIONS if s[name]]))
        index = at % len(s[section])
        record = s[section][index]
        field = draw(st.sampled_from([name for name in record._fields if name != "role"]))  # a role may be anything
        accepted = {"leak": [None], "name": ["x"]}.get(field, [])
        bad = draw(st.sampled_from([v for v in (True, 1.5, "x", None) if v not in accepted]))
        s[section][index] = record._replace(**{field: bad})
        message = f"{section}[{index}].{field} must be {KINDS.get(field, 'an integer')}, got {bad!r}"
    return rule, s, message


@settings(max_examples=400, deadline=None)
@given(broken_sections())
def test_validate_lists_a_broken_rule_whatever_the_record_order(broken):
    # Circuit checks the types as given and sorts the sections only once they
    # hold, so no rule may lean on the order given: the sections come
    # shuffled, and a structural rule lists what the same records list sorted.
    rule, sections, message = broken
    violations = _unvalidated(sections).validate()
    assert (violations == []) == (rule == "none")
    if rule == "field type":
        assert violations == [message]
    else:
        in_order = {name: sorted(records, key=CANONICAL[name]) for name, records in sections.items()}
        assert _unvalidated(in_order).validate() == violations


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _sample_circuit() -> Circuit:
    b = CircuitBuilder()
    x = b.add_neuron(0)
    acc = b.add_neuron(2, leak=INFINITE)
    ce = b.add_const_emit(-3)
    out = b.add_neuron(0, leak=4)
    b.add_synapse(x, acc, 2, 1)
    b.add_synapse(acc, ce, 1, 0)
    b.add_synapse(ce, out, 1, 5)
    b.mark_port(x, "input", "x1")
    b.mark_port(out, "output", "y")
    b.add_injection(x, 7, 2)
    b.add_injection(x, -1, 0)
    return b.build()


def test_serialize_roundtrip_preserves_circuit():
    circuit = _sample_circuit()
    text = circuit.serialize()
    again = Circuit.deserialize(text)
    assert again == circuit
    assert again.serialize() == text  # canonical: re-serialization is stable


def test_circuit_is_frozen_with_tuple_sections():
    circuit = _sample_circuit()
    for f in dataclasses.fields(Circuit):
        assert isinstance(getattr(circuit, f.name), tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(circuit, f.name, ())
    records = (
        NeuronSpec(0, 1, 0),
        SynapseSpec(0, 1, 1, 0),
        Port("y", 0, "output"),
        Injection(0, 1, 0),
        ConstEmit(1, 5),
        Join(2, (0, 1), (3, 4)),
    )
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_serialize_encodes_infinite_leak_and_gadget_kinds():
    # Each record is its named tuple's fields, value for value: INFINITE is
    # null, and each gadget kind has its own section, so no record holds a kind.
    b = CircuitBuilder()
    hold = b.add_neuron(1, leak=INFINITE)
    ce = b.add_const_emit(9)
    srcs = [b.add_neuron(0), b.add_neuron(0)]
    dsts = [b.add_neuron(0), b.add_neuron(0)]
    b.add_join(srcs, dsts)
    b.add_synapse(ce, hold, 1, 0)
    text = b.build().serialize()
    assert f"\n    [{hold}, 1, null],\n" in text
    doc = parse_json_document(text)
    assert doc["const_emits"] == [[ce, 9]]
    assert doc["joins"] == [[6, srcs, dsts]]  # no "n": it is the line count


def test_serialize_is_insertion_order_independent():
    b1 = CircuitBuilder()
    a = b1.add_neuron(0)
    c = b1.add_neuron(1)
    b1.add_synapse(a, c, 1, 0)
    b1.add_synapse(c, a, 1, 0)
    b1.mark_port(a, "input", "x1")
    b1.mark_port(c, "output", "y")

    b2 = CircuitBuilder()
    a2 = b2.add_neuron(0)
    c2 = b2.add_neuron(1)
    b2.add_synapse(c2, a2, 1, 0)
    b2.add_synapse(a2, c2, 1, 0)
    b2.mark_port(c2, "output", "y")
    b2.mark_port(a2, "input", "x1")

    assert b1.build().serialize() == b2.build().serialize()


def test_parse_json_document_reports_position():
    with pytest.raises(ParseError) as err:
        parse_json_document('{\n  "neurons": [,]\n}')
    assert err.value.line == 2
    assert err.value.column is not None


def _malformed(message, mutate, error=ParseError):
    """A document mutation tagged with the error and exact message it must raise.

    The document's shape is the loader's to check (ParseError); its fields are
    the circuit's (InvalidCircuit).
    """
    mutate.message = message
    mutate.error = error
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _malformed("section 'neurons' must be an array", lambda doc: doc.update(neurons=5)),
        _malformed("synapses[0] must be an array of 4 fields", lambda doc: doc.update(synapses=[3])),
        _malformed(
            "invalid circuit: neurons[3].id must be an integer, got 'x'",
            lambda doc: doc["neurons"].append(["x", 0, 0]),
            InvalidCircuit,
        ),
        _malformed(
            "invalid circuit: neurons[3].leak must be an integer or INFINITE, got 'sometimes'",
            lambda doc: doc["neurons"].append([99, 0, "sometimes"]),
            InvalidCircuit,
        ),
        _malformed(
            "invalid circuit: port 'p': role must be input or output",
            lambda doc: doc["ports"].append(["p", 0, "middle"]),
            InvalidCircuit,
        ),
        # A gadget record tagged with its kind, as earlier versions wrote it in one "gadgets" section.
        _malformed(
            "const_emits[1] must be an array of 2 fields",
            lambda doc: doc["const_emits"].append([99, "const_emit", 0]),
        ),
        _malformed(
            "invalid circuit: joins[0].inputs must be a tuple of integers, got (0, 'a')",
            lambda doc: doc["joins"].append([99, [0, "a"], [1, 2]]),
            InvalidCircuit,
        ),
        # Fields that fail only the exact-type test: a bool or a float.
        _malformed(
            "invalid circuit: neurons[3].threshold must be an integer, got True",
            lambda doc: doc["neurons"].append([99, True, 0]),
            InvalidCircuit,
        ),
        _malformed(
            "invalid circuit: neurons[3].leak must be an integer or INFINITE, got -1.5",
            lambda doc: doc["neurons"].append([99, 0, -1.5]),
            InvalidCircuit,
        ),
        _malformed(
            "invalid circuit: synapses[3].weight must be an integer, got 1.0",
            lambda doc: doc["synapses"].append([0, 1, 1.0, 0]),
            InvalidCircuit,
        ),
        _malformed(
            "invalid circuit: synapses[3].delay must be an integer, got False",
            lambda doc: doc["synapses"].append([0, 1, 1, False]),
            InvalidCircuit,
        ),
        # A record that is not an array, or an array of the wrong width.
        _malformed("synapses[3] must be an array of 4 fields", lambda doc: doc["synapses"].append(5)),
        _malformed("synapses[3] must be an array of 4 fields", lambda doc: doc["synapses"].append([0, 1, 1])),
        _malformed("neurons[1] must be an array of 3 fields", lambda doc: doc["neurons"][1].append(0)),
        _malformed("ports[0] must be an array of 3 fields", lambda doc: doc["ports"][0].pop()),
        _malformed("injections[2] must be an array of 3 fields", lambda doc: doc["injections"].append("x")),
        _malformed("const_emits[1] must be an array of 2 fields", lambda doc: doc["const_emits"].append([99])),
        _malformed(
            "joins[0] must be an array of 3 fields",
            lambda doc: doc["joins"].append([99, "join", [0, 1], [1, 2]]),
        ),
        _malformed(
            "joins[0] must be an array of 3 fields",
            lambda doc: doc["joins"].append([99, [0, 1], [1, 2], 2]),  # an "n" has no place
        ),
        _malformed("joins[0] must be an array of 3 fields", lambda doc: doc["joins"].append([99, [0, 1]])),
        # A record written as an object keyed by field name, wherever it stands.
        _malformed(
            "synapses[3] must be an array of 4 fields",
            lambda doc: doc["synapses"].append({"pre": 0, "post": 1, "weight": 1, "delay": 0}),
        ),
        _malformed(
            "synapses[0] must be an array of 4 fields",
            lambda doc: doc["synapses"].insert(0, {"pre": 0, "post": 1, "weight": 1, "delay": 0}),
        ),
        _malformed(
            "const_emits[0] must be an array of 2 fields",
            lambda doc: doc["const_emits"].insert(0, {"id": 99, "value": 5}),
        ),
    ],
)
def test_circuit_from_document_rejects_malformed_shapes(mutate):
    doc = parse_json_document(_sample_circuit().serialize())
    mutate(doc)
    with pytest.raises(mutate.error) as err:
        circuit_from_document(doc)
    assert str(err.value) == mutate.message


def test_circuit_from_document_defaults_missing_sections_to_empty():
    circuit = circuit_from_document({})
    assert circuit.neurons == () and circuit.synapses == () and circuit.gadgets == ()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"nuerons": [[0, 1, 0]]}, "unknown circuit section 'nuerons'"),  # misspelled: not an empty circuit
        ({"gadgets": []}, "unknown circuit section 'gadgets'"),  # the older format's section, even empty
        ({"neurons": [], "joints": [], "gadgets": []}, "unknown circuit sections 'gadgets', 'joints'"),
    ],
)
def test_circuit_from_document_refuses_an_unknown_section(doc, message):
    with pytest.raises(ParseError) as err:
        circuit_from_document(doc)
    assert str(err.value) == message


def test_a_null_leak_reads_as_infinite_and_an_inf_leak_is_refused():
    # INFINITE is None in Python and null in a file; earlier versions wrote "inf", now a bad field.
    doc = parse_json_document(_sample_circuit().serialize())
    doc["neurons"][0][2] = None
    assert circuit_from_document(doc).neurons[0] == NeuronSpec(0, 0, INFINITE)
    doc["neurons"][0][2] = "inf"
    with pytest.raises(InvalidCircuit) as err:
        circuit_from_document(doc)
    assert err.value.violations == ["neurons[0].leak must be an integer or INFINITE, got 'inf'"]


def test_circuit_refuses_every_field_of_the_wrong_type_before_sorting():
    # A string id among integer ids would break the sort; validate()'s type
    # check names it first, with every other mistyped field, in the order
    # given.  A float is not truncated: serialize() writes integers with %d,
    # so a weight of 2.5 would otherwise come back from its file as 2.
    with pytest.raises(InvalidCircuit) as err:
        Circuit(
            neurons=[NeuronSpec(0, 1.5, 0), NeuronSpec("1", 0, 2.0)],
            synapses=[SynapseSpec(0, 1, 2.5, 0), SynapseSpec(1, 0, 1, True)],
            ports=[Port("", 0, "input"), Port(None, 1, "output")],
            injections=[Injection(0, 1, 0.5)],
            const_emits=[ConstEmit(2, 1e9)],
            joins=[Join(3, [0, 1], (0, 1.0))],
        )
    assert err.value.violations == [
        "neurons[0].threshold must be an integer, got 1.5",
        "neurons[1].id must be an integer, got '1'",
        "neurons[1].leak must be an integer or INFINITE, got 2.0",
        "synapses[0].weight must be an integer, got 2.5",
        "synapses[1].delay must be an integer, got True",
        "ports[0].name must be a non-empty string, got ''",
        "ports[1].name must be a non-empty string, got None",
        "injections[0].time must be an integer, got 0.5",
        "const_emits[0].value must be an integer, got 1000000000.0",
        "joins[0].inputs must be a tuple of integers, got [0, 1]",
        "joins[0].outputs must be a tuple of integers, got (0, 1.0)",
    ]


_ONE = (NeuronSpec(0, 0, 0),)
_TWO = (NeuronSpec(0, 0, 0), NeuronSpec(1, 0, 0))


@pytest.mark.parametrize(
    "sections, message",
    [
        (dict(neurons=_ONE, joins=(NeuronSpec(1, 0, 0),)),
         "joins[0] must be a Join, got NeuronSpec(id=1, threshold=0, leak=0)"),
        (dict(neurons=_ONE, joins=((1,),)), "joins[0] must be a Join, got (1,)"),
        (dict(neurons=_ONE, const_emits=((1, 5),)), "const_emits[0] must be a ConstEmit, got (1, 5)"),
        (dict(neurons=[(0, 1.5, 0)]), "neurons[0] must be a NeuronSpec, got (0, 1.5, 0)"),
        (dict(neurons=[(0, 1, 0)]), "neurons[0] must be a NeuronSpec, got (0, 1, 0)"),
        (dict(neurons=_TWO, synapses=[(0, 1, 1)]), "synapses[0] must be a SynapseSpec, got (0, 1, 1)"),
        (dict(neurons=_ONE, ports=[("y", 0, "output")]), "ports[0] must be a Port, got ('y', 0, 'output')"),
        (dict(neurons=_ONE, injections=[Port("y", 0, "output")]),
         "injections[0] must be an Injection, got Port(name='y', neuron=0, role='output')"),
    ],
    ids=["neuron-as-gadget", "1-tuple-gadget", "2-tuple-gadget", "tuple-neuron-float", "tuple-neuron",
         "tuple-synapse", "tuple-port", "port-as-injection"],
)
def test_circuit_refuses_a_record_that_is_not_its_sections_named_tuple(sections, message):
    # Such a record used to be kept (a record of another type, or a plain
    # tuple of the right width) and failed later, in the engine or at save.
    with pytest.raises(InvalidCircuit) as err:
        Circuit(**sections)
    assert err.value.violations == [message]


def test_a_record_of_the_wrong_type_is_listed_with_the_mistyped_fields_in_the_order_given():
    # Its fields are not named (they need not be the section's), and, as with
    # a mistyped field, the structural rules (the negative delay) are not run.
    with pytest.raises(InvalidCircuit) as err:
        Circuit(
            neurons=[NeuronSpec(0, 1.5, 0), (1, 2.5, 0)],
            synapses=[SynapseSpec(0, 1, 1, -1)],
            const_emits=[SynapseSpec(2, 0, 1, 0), ConstEmit(3, 0.5)],
        )
    assert err.value.violations == [
        "neurons[0].threshold must be an integer, got 1.5",
        "neurons[1] must be a NeuronSpec, got (1, 2.5, 0)",
        "const_emits[0] must be a ConstEmit, got SynapseSpec(pre=2, post=0, weight=1, delay=0)",
        "const_emits[1].value must be an integer, got 0.5",
    ]


def _outcome(make):
    """The circuit's text, or the violations that refused it."""
    try:
        return make().serialize()
    except InvalidCircuit as err:
        return err.violations


@settings(max_examples=300, deadline=None)
@given(built_circuits(), st.data())
def test_the_builder_and_the_loader_refuse_a_bad_field_alike(drawn, data):
    circuit, _ = drawn
    section = data.draw(st.sampled_from([name for name in SECTIONS if getattr(circuit, name)]))
    records = list(getattr(circuit, section))
    index = data.draw(st.integers(0, len(records) - 1))
    record = records[index]
    field = data.draw(st.sampled_from(record._fields))
    bad = data.draw(st.sampled_from([1.0, True, "x", "", None]))
    assume(not (field == "leak" and bad is None))  # INFINITE, in Python and in a file
    doc = circuit.to_document()
    position = record._fields.index(field)
    if field in ("inputs", "outputs") and data.draw(st.booleans()):  # one line endpoint instead
        line = list(getattr(record, field))
        line[data.draw(st.integers(0, len(line) - 1))] = bad
        records[index] = record._replace(**{field: tuple(line)})
        doc[section][index][position] = line
    else:
        records[index] = record._replace(**{field: bad})
        doc[section][index][position] = bad
    sections = {name: getattr(circuit, name) for name in SECTIONS}
    sections[section] = records
    built = _outcome(lambda: Circuit(**sections))
    assert _outcome(lambda: circuit_from_document(doc)) == built
    if not (field == "name" and bad == "x"):  # "x" is a good port name; "" is not
        assert isinstance(built, list)


# ---------------------------------------------------------------------------
# properties over builder-made circuits
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(built_circuits())
def test_roundtrip_property(drawn):
    circuit, _ = drawn
    text = circuit.serialize()
    again = Circuit.deserialize(text)
    assert again == circuit
    assert again.serialize() == text


def _reference_circuit_json(doc, indent=""):
    """A circuit document laid out as ``json.dumps(doc, indent=2)`` lays it out, one record per line.

    Each record's line is the text ``json.dumps(record)`` gives.
    """
    inner = indent + "  "
    sections = [
        f"{inner}{json.dumps(key)}: ["
        + ",".join(f"\n{inner}  {json.dumps(record)}" for record in records)
        + (f"\n{inner}]" if records else "]")
        for key, records in doc.items()
    ]
    return "{\n" + ",\n".join(sections) + f"\n{indent}}}"


@settings(max_examples=80, deadline=None)
@given(built_circuits(), st.text(PORT_NAME_CHARS, max_size=5))
def test_serialize_equals_a_json_dumps_rendering(drawn, note):
    circuit, big_m = drawn
    doc = circuit.to_document()
    assert circuit.serialize() == _reference_circuit_json(doc) + "\n"
    assert json.loads(circuit.serialize()) == doc
    meta = {
        "ports": {"inputs": [p.name for p in circuit.ports_by_role("input")], "output": note},
        "big_m": big_m,
        "markers": {note: [1, {"k": None}]},
        "empty": {},
    }
    program = CompiledProgram(circuit=circuit, meta=meta)
    reference = f'{{\n  "circuit": {_reference_circuit_json(doc, "  ")},\n  "meta": {json.dumps(meta)}\n}}\n'
    assert program.serialize() == reference
    assert json.loads(program.serialize()) == program.to_document()


def _two_names_on_one_node():
    """A spiking node with two output names that JSON escapes, one of them non-ASCII."""
    b = CircuitBuilder()
    src = b.add_neuron(0)
    dst = b.add_neuron(0)
    b.add_synapse(src, dst, 3, 1)
    b.mark_port(dst, "output", 'q"\\,\n')
    b.mark_port(dst, "output", "\u00e9\U0001f642")
    b.mark_port(src, "output", "y")
    b.add_injection(src, 2, 0)
    return b.build(), 10**9


def _output_spikes_at_both_ends():
    """A raster whose first and last rows are output spikes, the last two of them in a row."""
    b = CircuitBuilder()
    first = b.add_neuron(0)
    plain = b.add_neuron(0)
    second, third = b.add_neuron(0), b.add_neuron(0)
    b.add_synapse(first, plain, 1, 0)
    b.add_synapse(plain, second, 1, 0)
    b.add_synapse(plain, third, 1, 0)
    for node, name in ((first, "a"), (second, "b"), (third, "c")):
        b.mark_port(node, "output", name)
    b.add_injection(first, 4, 0)
    return b.build(), 10**9


def _reference_raster_csv(circuit, raster):
    """``raster_csv`` as one ``csv.writer`` row per spike and output port name."""
    names = {}
    for p in circuit.ports_by_role("output"):
        names.setdefault(p.neuron, []).append(p.name)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["time", "neuron", "value", "port"])
    for time, neuron, value in raster:
        for name in names.get(neuron, [""]):
            writer.writerow([time, neuron, value, name])
    return out.getvalue()


@settings(max_examples=80, deadline=None)
@given(built_circuits())
@example(_two_names_on_one_node())
@example((CircuitBuilder().build(), 10**9))  # an empty raster
@example(_output_spikes_at_both_ends())
def test_raster_csv_equals_a_csv_writer_rendering(drawn):
    circuit, big_m = drawn
    outcome = Engine(circuit, SimConfig(max_steps=40, big_m=big_m)).run()
    assert raster_csv(circuit, outcome) == _reference_raster_csv(circuit, outcome.raster).encode("utf-8")


def _reference_trace_csv(trace):
    """The ``--trace`` file as one ``csv.writer`` row per delivery; no source is an empty cell."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["time", "target", "source", "value"])
    for d in trace:
        writer.writerow([d.time, d.target, "" if d.source is None else d.source, d.value])
    return out.getvalue()


_BEYOND_63_BITS = st.integers(-(2**70), 2**70)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.builds(Delivery, _BEYOND_63_BITS, _BEYOND_63_BITS, st.none() | _BEYOND_63_BITS, _BEYOND_63_BITS)))
@example([Delivery(1, 2, 0, 3), Delivery(0, 0, None, -(2**64))])  # source 0 is node 0, not "no source"
@example([])
def test_trace_csv_equals_a_csv_writer_rendering(trace):
    assert _trace_csv(trace) == _reference_trace_csv(trace)


def _reference_raster_jsonl(circuit, raster):
    """``raster_jsonl`` as one ``json.dumps`` line per spike and output port name."""
    names = {}
    for p in circuit.ports_by_role("output"):
        names.setdefault(p.neuron, []).append(p.name)
    return "".join(
        json.dumps({"time": time, "neuron": neuron, "value": value, "port": name}) + "\n"
        for time, neuron, value in raster
        for name in names.get(neuron, [""])
    )


@settings(max_examples=80, deadline=None)
@given(built_circuits())
@example(_two_names_on_one_node())
@example((CircuitBuilder().build(), 10**9))  # an empty raster
@example(_output_spikes_at_both_ends())
def test_raster_jsonl_equals_a_json_dumps_rendering(drawn):
    circuit, big_m = drawn
    outcome = Engine(circuit, SimConfig(max_steps=40, big_m=big_m)).run()
    assert raster_jsonl(circuit, outcome) == _reference_raster_jsonl(circuit, outcome.raster).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(built_circuits(), st.integers(0, 6))
def test_stepping_then_running_matches_one_run(drawn, k):
    circuit, big_m = drawn
    config = SimConfig(max_steps=40, big_m=big_m)
    whole = Engine(circuit, config).run()
    stepped = Engine(circuit, config)
    for _ in range(k):
        next_time = stepped.peek_time()
        if next_time is None or next_time > config.max_steps:
            break
        stepped.step()
    outcome = stepped.run()
    assert outcome == whole
    assert outcome.trace == whole.trace
