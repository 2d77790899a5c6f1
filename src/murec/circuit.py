"""Static circuit model: neurons, synapses, ports, injections, constant emitters, joins.

A circuit is a directed graph over one dense id space shared by neurons and
the two native gadgets, constant emitters and joins.  Neurons carry an
integer threshold and a leak (a whole number of timesteps, or
:data:`INFINITE` to hold state until the next event).  Synapses carry an
integer weight and a whole-number delay; total transit time for a spike is
``delay + 1``.  Ports name nodes used for external input or output, and the
injection plan lists externally supplied values a run needs.

Records are named tuples, so they are immutable and cheap to make, and each
section holds one record type.  One table, ``_SECTIONS``, declares the six
sections in :class:`Circuit`'s field order, each with its record type, the
wording of the message for any other record and its canonical order; the
checks, the loader, the builder and the compiler's finish all read it, and a
file record's width is its record type's field count.

Circuits are frozen.  One made as ``Circuit(...)``, by
:meth:`CircuitBuilder.build` or by the loader is checked as it is made: the
record and field types are checked as given, a column at a time; each section
is then made a tuple sorted into canonical order; and one pass over the
sorted records checks the structure (an invalid circuit raises
:class:`InvalidCircuit`).  The circuit ``compile_program`` returns is not
checked: its lowering puts the sections in canonical order itself, and the
circuit is valid by the lowering's claim, which the test suite checks on
sampled programs.  So canonical JSON (stable key order, sorted records, each
record its fields as an array) encodes the sections as they stand, and equal
circuits give byte-equal text.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Iterable, NamedTuple

from .errors import InvalidCircuit, ParseError

#: Leak value meaning "retain state until the next integration or spike".
INFINITE: None = None


class NeuronSpec(NamedTuple):
    id: int
    threshold: int
    leak: int | None  # whole number of steps, or INFINITE (None)


class SynapseSpec(NamedTuple):
    pre: int
    post: int
    weight: int
    delay: int


class Port(NamedTuple):
    name: str
    neuron: int
    role: str  # "input" | "output"


class Injection(NamedTuple):
    neuron: int
    value: int
    time: int


class ConstEmit(NamedTuple):
    """Native node that emits a fixed value one step after any delivery batch.

    Any incoming delivery at time ``t`` (whatever its value, including 0 and
    negatives) makes the node fire ``value`` at ``t + 1``; outgoing synapses
    then apply the usual weight/delay transit.
    """

    id: int
    value: int


class Join(NamedTuple):
    """Native node that synchronizes ``n`` lines.

    Line ``m`` runs from ``inputs[m]`` into the join over a plain wire
    (weight 1, delay 0, as :meth:`Circuit.validate` requires), and out to
    ``outputs[m]`` as this record states: no synapse starts at a join.  Both
    ends are neurons or constant emitters, never joins.  It buffers at most
    one value per step (a later step overwrites it).  At the timestep the
    last empty line fills, every line passes its buffered value on unchanged
    to its target one step later, and all buffers clear.
    """

    id: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


# Each record field's type rule, by field name: a test of a column of the
# field's values, with the wording of its message; a field not listed is an
# integer (exactly: a bool is an int to isinstance).  Port roles are checked by
# value, in the structural pass of validate().
_INTEGER = (lambda column: {int}.issuperset(map(type, column)), "an integer")
_LINE = (
    lambda column: {tuple}.issuperset(map(type, column)) and {int}.issuperset(map(type, chain.from_iterable(column))),
    "a tuple of integers",
)
_FIELD_TYPES = {
    "leak": (lambda column: {int, type(INFINITE)}.issuperset(map(type, column)), "an integer or INFINITE"),
    "name": (lambda column: {str}.issuperset(map(type, column)) and "" not in column, "a non-empty string"),
    "role": (lambda column: True, ""),
    "inputs": _LINE,
    "outputs": _LINE,
}


# Each section, in Circuit's field order: its record type, the wording of the
# message for any other record, and its canonical order as a sort key of field
# positions.  A file record's width is its record type's field count.
_SECTIONS = {
    "neurons": (NeuronSpec, "a NeuronSpec", itemgetter(0)),  # id
    "synapses": (SynapseSpec, "a SynapseSpec", itemgetter(0, 1)),  # (pre, post)
    "ports": (Port, "a Port", itemgetter(0)),  # name
    "injections": (Injection, "an Injection", itemgetter(2, 0, 1)),  # (time, neuron, value)
    "const_emits": (ConstEmit, "a ConstEmit", itemgetter(0)),  # id
    "joins": (Join, "a Join", itemgetter(0)),  # id
}


def _make(record: type, rows: Iterable) -> list:
    """``record`` of each row, each row holding its fields in order.

    ``tuple.__new__`` makes each record in C, where ``record._make`` would
    pay a Python call per row.
    """
    return list(map(tuple.__new__, repeat(record), rows))


def _line_from_json(raw: Any) -> Any:
    return tuple(raw) if type(raw) is list else raw


@dataclass(frozen=True)
class Circuit:
    """Frozen circuit: :meth:`validate` checks it and sorts its sections into tuples; any violation raises InvalidCircuit.

    Only ``compile_program``'s circuit is made unchecked (:meth:`CircuitBuilder._compiled`).
    """

    neurons: tuple[NeuronSpec, ...] = ()
    synapses: tuple[SynapseSpec, ...] = ()
    ports: tuple[Port, ...] = ()
    injections: tuple[Injection, ...] = ()
    const_emits: tuple[ConstEmit, ...] = ()
    joins: tuple[Join, ...] = ()

    def __post_init__(self) -> None:
        violations = self.validate()
        if violations:
            raise InvalidCircuit(violations)

    # -- lookups ---------------------------------------------------------

    @property
    def gadgets(self) -> tuple[ConstEmit | Join, ...]:
        """Every native gadget: the constant emitters, then the joins."""
        return self.const_emits + self.joins

    def ports_by_role(self, role: str) -> list[Port]:
        return [p for p in self.ports if p.role == role]

    # -- validation ------------------------------------------------------

    def validate(self) -> list[str]:
        """List every violation; construction raises on any.

        Types come first, as given: each section's record type, then each
        field's column.  Only a section that fails a test is walked record by
        record, naming a record not of its section's type as
        ``section[index]`` and a mistyped field as ``section[index].field``.
        Such violations are listed alone, since the structural rules compare
        ids.  Otherwise each section becomes a tuple sorted into canonical
        order (the only sort: everything downstream trusts this order), and
        one pass over the sorted records lists every structural violation in
        that order.  On a built circuit it lists nothing and changes nothing.
        """
        violations: list[str] = []
        given = {}  # each section read once, so an iterator is checked and sorted whole
        for section, (record_type, wording, _) in _SECTIONS.items():
            records = given[section] = tuple(getattr(self, section))
            if {record_type}.issuperset(map(type, records)) and all(
                _FIELD_TYPES.get(field, _INTEGER)[0](column)
                for field, column in zip(record_type._fields, zip(*records))
            ):
                continue
            for index, record in enumerate(records):
                if type(record) is not record_type:
                    violations.append(f"{section}[{index}] must be {wording}, got {record!r}")
                    continue
                for field, value in zip(record._fields, record):
                    fits, kind = _FIELD_TYPES.get(field, _INTEGER)
                    if not fits((value,)):
                        violations.append(f"{section}[{index}].{field} must be {kind}, got {value!r}")
        if violations:
            return violations

        for section, (_, _, key) in _SECTIONS.items():
            object.__setattr__(self, section, tuple(sorted(given[section], key=key)))
        neurons, synapses, ports, injections, const_emits, joins = (
            self.neurons, self.synapses, self.ports, self.injections, self.const_emits, self.joins
        )
        known = {*map(itemgetter(0), neurons), *map(itemgetter(0), const_emits), *map(itemgetter(0), joins)}
        if len(known) != len(neurons) + len(const_emits) + len(joins):
            violations.append("node ids are not unique across neurons and gadgets")
        if known and (min(known) != 0 or max(known) != len(known) - 1):
            violations.append("node ids are not contiguous from 0")
        violations += [
            f"neuron {i}: leak must be >= 0 or INFINITE" for i, _, leak in neurons if leak is not None and leak < 0
        ]

        # Synapses into each join with their (weight, delay), gathered in canonical order.
        sources: dict[int, dict[int, tuple[int, int]]] = {j: {} for j, _, _ in joins}
        last_pre = last_post = None  # sorted, so a repeated pair follows its first
        for pre, post, weight, delay in synapses:
            if pre not in known or post not in known:
                violations.append(f"synapse ({pre}, {post}): unknown endpoint")
            if delay < 0:
                violations.append(f"synapse ({pre}, {post}): delay must be >= 0")
            if pre == last_pre and post == last_post:
                violations.append(f"synapse ({pre}, {post}): duplicate (pre, post) pair")
            last_pre, last_post = pre, post
            if pre in sources:
                violations.append(
                    f"synapse ({pre}, {post}): starts at join {pre}, whose record holds its output lines"
                )
            if post in sources:
                sources[post][pre] = weight, delay
        last_name = None  # sorted, so a repeated name follows its first
        for name, node, role in ports:
            if name == last_name:
                violations.append(f"port {name!r}: duplicate name")
            last_name = name
            if node not in known:
                violations.append(f"port {name!r}: unknown node {node}")
            if role not in ("input", "output"):
                violations.append(f"port {name!r}: role must be input or output")
            if role == "input" and node in sources:
                violations.append(f"port {name!r}: input port on join {node} is not allowed")

        for node, _, time in injections:
            if node not in known:
                violations.append(f"injection into unknown node {node}")
            if time < 0:
                violations.append(f"injection into {node}: time must be >= 0")
            if node in sources:
                violations.append(f"injection into join {node} is not allowed")

        for j, ins, outs in joins:
            n = len(ins)
            if n < 2:
                violations.append(f"join {j}: needs at least 2 lines")
            if len(outs) != n:
                violations.append(f"join {j}: inputs and outputs must have equal length")
            if len(set(ins)) != n:
                violations.append(f"join {j}: input lines must be distinct")
            if len(set(outs)) != len(outs):
                violations.append(f"join {j}: output lines must be distinct")
            for node in (*ins, *outs):
                if node not in known:
                    violations.append(f"join {j}: unknown line endpoint {node}")
                elif node in sources:
                    violations.append(f"join {j}: line endpoint {node} is a join")
            for src in ins:
                if src not in sources[j]:
                    violations.append(f"join {j}: line source {src} has no synapse")
            for pre, line in sources[j].items():
                if pre not in ins:
                    violations.append(f"join {j}: synapse from unlisted source {pre}")
                if line != (1, 0):
                    violations.append(f"join {j}: synapse ({pre}, {j}) must have weight 1 and delay 0")

        return violations

    # -- serialization ---------------------------------------------------

    def to_document(self) -> dict[str, Any]:
        """The canonical JSON document: each record its named tuple's fields as an array, value for value.

        So infinite leak (None) is JSON null, and a join's lines are arrays.
        Sections are in the order :meth:`validate` set.
        """
        doc = {section: list(map(list, getattr(self, section))) for section in _SECTIONS}
        doc["joins"] = [[j, list(ins), list(outs)] for j, ins, outs in self.joins]
        return doc

    def serialize(self) -> str:
        """Render ``to_document()`` as canonical JSON text, one record per line (see ``_circuit_json``)."""
        return _circuit_json(self, "") + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "Circuit":
        return circuit_from_document(parse_json_document(text))


def _circuit_json(circuit: Circuit, indent: str) -> str:
    """The canonical text of ``circuit.to_document()``, nested at ``indent``.

    Sections are laid out as ``json.dumps(doc, indent=2)`` lays them out, but
    each record is one line, the text ``json.dumps(record)`` gives.  Each
    section has one template, so the generic encoder's per-value dispatch is
    not paid at all.  Strings go through ``json.dumps``, so their escaping is
    the encoder's own.
    """
    i1 = indent + "  "  # section keys
    i2 = i1 + "  "  # records
    neuron = i2 + "[%d, %d, %s]"
    synapse = i2 + "[%d, %d, %d, %d]"
    port = i2 + "[%s, %d, %s]"
    injection = i2 + "[%d, %d, %d]"
    const_emit = i2 + "[%d, %d]"
    join = i2 + "[%d, [%s], [%s]]"
    sections = {
        "neurons": [neuron % (i, th, "null" if leak is None else leak) for i, th, leak in circuit.neurons],
        # Records are tuples in their template's field order.
        "synapses": [synapse % s for s in circuit.synapses],
        "ports": [port % (json.dumps(name), neuron, json.dumps(role)) for name, neuron, role in circuit.ports],
        "injections": [injection % inj for inj in circuit.injections],
        "const_emits": [const_emit % c for c in circuit.const_emits],
        "joins": [join % (j, ", ".join(map(str, ins)), ", ".join(map(str, outs))) for j, ins, outs in circuit.joins],
    }
    body = ",\n".join(
        f'{i1}"{key}": [\n' + ",\n".join(records) + f"\n{i1}]" if records else f'{i1}"{key}": []'
        for key, records in sections.items()
    )
    return f"{{\n{body}\n{indent}}}"


def parse_json_document(text: str) -> dict[str, Any]:
    """Parse JSON text; syntax errors (with position), over-long integers and deep nesting raise ParseError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise ParseError(f"number too long: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("circuit document must be a JSON object")
    return doc


def _records(doc: dict[str, Any], key: str, record: type) -> list[Any]:
    """A section's rows, each checked to be an array of ``record``'s fields."""
    raw = doc.get(key, [])
    if type(raw) is not list:
        raise ParseError(f"section {key!r} must be an array")
    width = len(record._fields)
    if not ({list}.issuperset(map(type, raw)) and {width}.issuperset(map(len, raw))):
        index = next(i for i, entry in enumerate(raw) if type(entry) is not list or len(entry) != width)
        raise ParseError(f"{key}[{index}] must be an array of {width} fields")
    return raw


def circuit_from_document(doc: dict[str, Any]) -> Circuit:
    """Build a Circuit from a parsed JSON document; absent sections default to empty.

    Each record is an array of its named tuple's fields, in order.  The
    loader checks only that shape: a section that is not an array or a record
    that is not an array of its width raises ParseError naming the section
    and index.  Each array then becomes its record as it stands (JSON null is
    :data:`INFINITE`), but for a join's lines, which become tuples.  Every
    field rule is :class:`Circuit`'s, so a field of the wrong type or value
    raises the same InvalidCircuit as the record built in Python.  A key that
    names no section raises ParseError naming each such key.
    """
    unknown = sorted(doc.keys() - _SECTIONS.keys())
    if unknown:
        raise ParseError(f"unknown circuit section{'s' * (len(unknown) > 1)} {', '.join(map(repr, unknown))}")
    rows = {section: _records(doc, section, record) for section, (record, _, _) in _SECTIONS.items()}
    rows["joins"] = [(j, _line_from_json(ins), _line_from_json(outs)) for j, ins, outs in rows["joins"]]
    return Circuit(**{section: _make(record, rows[section]) for section, (record, _, _) in _SECTIONS.items()})


class CircuitBuilder:
    """Mutable recorder allocating one dense id space for all nodes.

    Its calls never raise: :meth:`build` makes the :class:`Circuit`, which checks every rule.
    Each section is kept in ``_<section>`` as plain tuples in its record's
    field order, and becomes records in :meth:`build`.
    """

    def __init__(self) -> None:
        self._neurons: list[tuple[int, int, int | None]] = []
        self._const_emits: list[tuple[int, int]] = []
        self._joins: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        self._synapses: list[tuple[int, int, int, int]] = []
        self._ports: list[tuple[str, int, str]] = []
        self._injections: list[tuple[int, int, int]] = []

    # -- nodes: the next id is the number of nodes so far -------------------

    def _next_id(self) -> int:
        return len(self._neurons) + len(self._const_emits) + len(self._joins)

    def add_neuron(self, threshold: int, leak: int | None = 0) -> int:
        nid = self._next_id()
        self._neurons.append((nid, threshold, leak))
        return nid

    def add_const_emit(self, value: int) -> int:
        nid = self._next_id()
        self._const_emits.append((nid, value))
        return nid

    def add_join(self, inputs: Iterable[int], outputs: Iterable[int]) -> int:
        ins = tuple(inputs)
        nid = self._next_id()
        self._joins.append((nid, ins, tuple(outputs)))
        # Input lines are plain wires, as Circuit.validate requires; output lines are the record's alone.
        self._synapses += [(src, nid, 1, 0) for src in ins]
        return nid

    # -- edges, ports, plan ------------------------------------------------

    def add_synapse(self, pre: int, post: int, weight: int, delay: int = 0) -> None:
        self._synapses.append((pre, post, weight, delay))

    def mark_port(self, neuron: int, role: str, name: str) -> None:
        self._ports.append((name, neuron, role))

    def add_injection(self, neuron: int, value: int, time: int) -> None:
        self._injections.append((neuron, value, time))

    # -- finish ------------------------------------------------------------

    def build(self) -> Circuit:
        return Circuit(
            **{section: _make(record, getattr(self, f"_{section}")) for section, (record, _, _) in _SECTIONS.items()}
        )

    def _compiled(self) -> Circuit:
        """The lowering's circuit: what :meth:`build` gives, without :meth:`Circuit.validate`.

        For ``compile_program`` alone, whose output is valid by the lowering's
        claim (``tests/test_lowering_validates.py``).  Nodes are recorded in id
        order, and the lowering records no ``(pre, post)`` pair or port name
        twice, so synapses and ports sort canonically as plain tuples.
        """
        circuit = object.__new__(Circuit)
        for section, (record, _, key) in _SECTIONS.items():
            rows = getattr(self, f"_{section}")
            if section in ("synapses", "ports"):
                rows = sorted(rows)
            elif section == "injections":
                rows = sorted(rows, key=key)
            object.__setattr__(circuit, section, tuple(_make(record, rows)))
        return circuit
