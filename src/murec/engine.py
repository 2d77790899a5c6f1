"""Deterministic discrete-time, event-driven execution of circuits.

Timestep semantics:

1. An injection ``(neuron, value, time)`` is a delivery of ``value`` at
   ``time``.  A spike of value ``s`` at time ``t`` on node ``i`` schedules,
   for each synapse ``(i, j)``, a delivery of ``weight * s`` at
   ``t + delay + 1``.
2. At time ``t`` every neuron with at least one arriving delivery integrates:
   ``v <- retained(t) + sum(delivered values)``.
3. A neuron spikes at ``t`` iff it integrated at ``t`` and ``v >= threshold``;
   the spike value is ``v`` and the state resets to 0.  No delivery, no spike.
4. A non-spiking integrated state is retained through ``t + leak`` and is 0
   from ``t + leak + 1`` on; INFINITE leak retains it until the next event.
5. Spikes on output-port nodes are recorded at the spike time itself
   (external taps add no transit).
6. A timestep runs its work node by node in id order, so spikes come out in
   raster order ``(time, node)`` and a fault is the step's first breach in
   that order.

Native gadget nodes run alongside neurons in the same id space: a constant
emitter fires its fixed value one step after any delivery batch; a join
buffers one value per source line and flushes all lines the moment the last
one fills, each value reaching its line's target unchanged one step later.

Arithmetic is checked: values leaving the signed 63-bit range fault with
``overflow``; values reaching magnitude ``2 * big_m`` fault with
``magnitude_breach`` (the big-M separation is gone).  A wire (weight 1,
delay 0, into a neuron or a const emitter) passes on a value already checked.
"""
from __future__ import annotations

import csv
import heapq
import io
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

from .circuit import Circuit, _make
from .errors import EmptyQueue, InvalidCircuit, UnknownNeuron

INT63_MAX = 2**62 - 1
INT63_MIN = -(2**62)

# Work codes, one per work key (see _Plan.op); the neuron codes come first: code <= _NEURON is a neuron.
_LEAK0, _NEURON, _FIRE, _CONST_EMIT, _JOIN = range(5)


class SpikeEvent(NamedTuple):
    time: int
    neuron: int
    value: int


class Delivery(NamedTuple):
    time: int
    target: int
    source: int | None  # None for external injections
    value: int


@dataclass(frozen=True)
class Fault:
    kind: str  # "overflow" | "magnitude_breach"
    time: int
    node: int
    value: int


@dataclass(frozen=True)
class SimConfig:
    max_steps: int = 1_000_000
    big_m: int = 1_000_000_000


@dataclass
class RunOutcome:
    """A run's result.

    ``flat`` is the raster as one flat list of ints, ``[t0, n0, v0, t1, n1,
    v1, ...]``: each spike's time, node and value, in raster order.
    ``raster`` makes a :class:`SpikeEvent` of each triple and ``trace``
    derives every delivery from them, both on first read.
    """

    status: str  # "quiescent" | "timeout" | "fault"
    final_clock: int
    flat: list[int]
    fault: Fault | None = None
    # The trace's other inputs: the plan (its seed is the circuit's injections), each injection
    # added to the engine as (raster length then, time, key, value), the last step run, its last work key.
    _trace_inputs: tuple = field(default=None, repr=False, compare=False)

    @cached_property
    def raster(self) -> list[SpikeEvent]:
        """Every spike as a :class:`SpikeEvent`, in raster order."""
        flat = self.flat
        return _make(SpikeEvent, zip(flat[::3], flat[1::3], flat[2::3]))

    @cached_property
    def trace(self) -> list[Delivery]:
        """Every delivery that arrived, by ``(time, target)``, then in arrival order.

        Made in emission order, which is arrival order within a target, then
        stably sorted by target and then by time (see :func:`_trace`).
        """
        return _trace(*self._trace_inputs, self.flat)

    def spikes_of(self, node: int) -> list[SpikeEvent]:
        """One node's spikes, as in the raster, without building the raster."""
        flat = self.flat
        return _make(SpikeEvent, [flat[3 * i : 3 * i + 3] for i in _positions(flat[1::3], node)])

    @property
    def quiescent(self) -> bool:
        return self.status == "quiescent"


class _Plan(NamedTuple):
    """What an engine needs of a circuit, indexed by work key or node id; read-only.

    Node ``i`` has two work keys: ``2·i``, where a const emitter fires, and
    ``2·i + 1``, where deliveries arrive.  ``op[key]`` is each key's code:
    ``_FIRE`` at ``2·i``; at ``2·i + 1`` ``_LEAK0`` (a neuron of leak 0),
    ``_NEURON``, ``_CONST_EMIT`` or ``_JOIN``.  ``threshold``, ``leak``,
    ``const`` and ``joins`` hold a node's entry at ``2·i + 1``; ``joins`` is,
    for a join, each line's target key, from the join record's outputs (a
    line passes its value on unchanged one step later and never ends at a
    join), and ``join_keys`` lists the joins' keys.  Out-edges are read only
    at a spike, whose record computes the node id anyway, so they are by
    node, in post order: ``wires[i]`` holds the key ``2·post + 1`` of each
    wire, ``edges[i]`` every other synapse as ``(2·post + 1, weight, delay +
    1, line)``, ``line`` being its line index into a join ``post``, else
    None; no synapse starts at a join.  ``seed`` is the circuit's injections
    as ``(time, 2·neuron + 1, value)`` in canonical order, which is sorted
    and so already a heap; it is the only form of them, read by the queue
    and the trace alike.
    """

    # The lists as built, never changed: tuple copies would cost a plan build more than the key layout does.
    op: list[int]
    threshold: list[int]
    leak: list[float]  # INFINITE is float("inf"): retained forever
    const: list[int]
    wires: list[list[int]]
    edges: list[Sequence[tuple[int, int, int, int | None]]]
    joins: list[tuple[int, ...] | None]
    join_keys: list[int]
    seed: tuple[tuple[int, int, int], ...]


def _build_plan(circuit: Circuit) -> _Plan:
    n = len(circuit.neurons) + len(circuit.const_emits) + len(circuit.joins)
    op = [_FIRE, _NEURON] * n
    threshold = [0] * (2 * n)
    leak: list[float] = [float("inf")] * (2 * n)
    const = [0] * (2 * n)
    for i, th, lk in circuit.neurons:
        key = 2 * i + 1
        threshold[key] = th
        if lk is not None:
            leak[key] = lk
            if lk == 0:
                op[key] = _LEAK0
    line_of: list[dict[int, int] | None] = [None] * n  # per join: source -> line index
    joins: list = [None] * (2 * n)
    join_keys = []
    for i, value in circuit.const_emits:
        op[2 * i + 1], const[2 * i + 1] = _CONST_EMIT, value
    for j, inputs, outputs in circuit.joins:
        key = 2 * j + 1
        op[key] = _JOIN
        line_of[j] = {src: m for m, src in enumerate(inputs)}
        joins[key] = tuple([2 * dst + 1 for dst in outputs])
        join_keys.append(key)
    # Synapses are sorted by (pre, post), so each out-list is in post order.
    wires: list[list[int]] = [[] for _ in repeat(None, n)]
    edges: list = [()] * n  # a node's list is made at its first edge: most have none
    for pre, post, weight, delay in circuit.synapses:
        lines = line_of[post]
        if lines is None and weight == 1 and delay == 0:
            wires[pre].append(2 * post + 1)
        else:
            if not edges[pre]:
                edges[pre] = []
            edges[pre].append((2 * post + 1, weight, delay + 1, None if lines is None else lines[pre]))
    return _Plan(
        op, threshold, leak, const, wires, edges, joins, join_keys,
        tuple([(time, 2 * neuron + 1, value) for neuron, value, time in circuit.injections]),
    )


def _plan_of(circuit: Circuit) -> _Plan:
    """The circuit's plan, built the first time an engine sees this object.

    The memo lives in the instance's ``__dict__``, so it dies with the object;
    a :class:`Circuit` is frozen, so it never goes stale.  The plan trusts the
    circuit's canonical order and validity: checked when a circuit is made,
    or, for ``compile_program``'s, the lowering's tested claim.
    """
    plan = circuit.__dict__.get("_engine_plan")
    if plan is None:
        plan = circuit.__dict__["_engine_plan"] = _build_plan(circuit)
    return plan


class Engine:
    """Single-owner stepper over one circuit run.

    What depends only on the circuit (a work code per work key, thresholds,
    leaks, constant values, wires and other out-edges, join lines, the
    circuit's own injections) is one read-only plan per :class:`Circuit`
    object, shared by every engine over it.  An engine owns only its run's state: each neuron's retained value
    and how long it lives, each join's buffered line values, the pending
    work, the raster and the injections added to it.

    Node ids are dense, so pending work lives in lists indexed by work key:
    key ``2·g`` holds the value const emitter ``g`` fires, and key ``2·j +
    1`` what arrives at node ``j``: the sum of the delivered values for a
    neuron or a const emitter, a line -> value dict for a join.  Sorted keys
    run a step in node order (rule 6), and each key's work code
    (``_Plan.op``) says what it does.  Whatever else a key's work reads sits
    at that key too: the plan's node tables, each neuron's retained state
    and each join's buffer.  Out-edges and join lines store their target's
    key.  So the loop computes a node id (``key >> 1``) only to record a
    spike or a fault, and a spike then reads its out-edges by that id.  The
    raster is one flat list of ints, three per spike (see :class:`RunOutcome`).

    Pending work sits in two tiers.  The dense tier is two lists of ``2·n``
    slots (None: no work), each with the list of its keys that hold work:
    one for ``open``, the earliest unprocessed time, and one that step ``t``
    fills for ``t + 1``; they swap after each step.  Almost all work has
    transit 1, and a const emitter's fire and a join's flush always do, so
    they use only this tier.  Everything else (injections and longer
    transits) waits on one heap of ``(time, key, value)``, and merges into
    the dense tier when its step comes.  The next pending time is ``open``
    while dense keys wait, else the heap's head: no empty step is scanned.

    No delivery is recorded: :attr:`RunOutcome.trace` derives them from the
    raster, the plan, the injections added to the engine and where a fault stopped.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: SimConfig | None = None,
        extra_injections: tuple = (),
    ) -> None:
        self.circuit = circuit
        self.config = config or SimConfig()
        self.clock = 0
        self._open = 0  # earliest time no step has processed yet
        self.fault: Fault | None = None
        self._flat: list[int] = []  # the raster: time, node, value of each spike

        plan = self._plan = _plan_of(circuit)
        keys = len(plan.op)
        self._held = [0] * keys  # a neuron's retained value, at its key 2·i + 1 ...
        self._until: list[float] = [-1] * keys  # ... live through this time
        self._lines: dict[int, dict[int, int]] = {j: {} for j in plan.join_keys}  # per join key: line -> value
        self._due, self._due_keys = [None] * keys, []  # the work at time `open`, by key, and its keys
        self._next, self._next_keys = [None] * keys, []  # the same for the step after: empty between steps
        self._later: list[tuple[int, int, int]] = list(plan.seed)  # a heap of (time, key, value)
        self._injected: list[tuple[int, int, int, int]] = []  # added here: (spikes so far, time, key, value)
        self._cut = keys  # the last key of the last step run: all of it, until a fault
        for inj in extra_injections:
            self.add_injection(inj.neuron, inj.value, inj.time)

    def add_injection(self, neuron: int, value: int, time: int) -> None:
        """Schedule a delivery after every processed step; dropped after a fault."""
        if not type(neuron) is type(value) is type(time) is int:  # a bool is refused, as in a circuit file
            name, x = next(f for f in (("neuron", neuron), ("value", value), ("time", time)) if type(f[1]) is not int)
            raise TypeError(f"injection {name} must be an integer, got {x!r}")
        op = self._plan.op
        if not 0 <= 2 * neuron < len(op):
            raise UnknownNeuron(f"node {neuron} does not exist")
        if op[2 * neuron + 1] == _JOIN:
            raise InvalidCircuit([f"injection into join {neuron} is not allowed"])
        if time < self._open:
            raise ValueError(f"injection time must be >= {self._open}, got {time}")
        if self.fault is not None:
            return
        row = (time, 2 * neuron + 1, value)
        self._injected.append((len(self._flat) // 3, *row))
        heapq.heappush(self._later, row)

    # -- inspection --------------------------------------------------------

    def peek_time(self) -> int | None:
        return self._open if self._due_keys else (self._later[0][0] if self._later else None)

    def inspect(self, neuron: int, at: int | None = None) -> int:
        """Retained state of a neuron with leak accounted at time ``at``."""
        op = self._plan.op
        if not 0 <= 2 * neuron < len(op) or op[2 * neuron + 1] > _NEURON:
            raise UnknownNeuron(f"node {neuron} is not a neuron")
        when = self.clock if at is None else at
        key = 2 * neuron + 1
        return self._held[key] if when <= self._until[key] else 0

    def join_lines(self, join_id: int) -> dict[int, int]:
        """Currently buffered values of a join, keyed by line index."""
        return dict(self._lines[2 * join_id + 1])

    # -- execution ---------------------------------------------------------

    def step(self) -> int:
        """Process the earliest pending timestep; return its time."""
        t = self.peek_time()
        if t is None:
            raise EmptyQueue("no pending deliveries")
        return self._advance(t)

    def run(self) -> RunOutcome:
        """Run to quiescence, timeout, or fault."""
        self._advance(self.config.max_steps)
        if self.peek_time() is not None:
            return self._finish("timeout", self.config.max_steps)
        return self._finish("quiescent" if self.fault is None else "fault", self.clock)

    def _advance(self, horizon: int) -> int | None:
        """Process pending timesteps up to ``horizon``; return the last one run.

        A fault ends the step at once and empties the queue; None: no step ran.
        """
        due, due_keys, nxt, nxt_keys, later = self._due, self._due_keys, self._next, self._next_keys, self._later
        op, threshold, leak, const, wires, edges, joins = self._plan[:7]
        held, until, buffers = self._held, self._until, self._lines
        record = self._flat.extend
        # lo <= v <= hi iff v passes both the overflow and the big-M check.
        lo = max(INT63_MIN, 1 - 2 * self.config.big_m)
        hi = min(INT63_MAX, 2 * self.config.big_m - 1)
        heappush, heappop = heapq.heappush, heapq.heappop
        ran = None
        t = self._open - 1
        while True:
            if due_keys:
                t += 1
            elif later:
                t = later[0][0]
            else:
                break
            if t > horizon:
                break
            while later and later[0][0] == t:
                _, key, x = heappop(later)
                v = due[key]
                if v is None:
                    due[key] = x
                    due_keys.append(key)
                else:
                    due[key] = v + x
            due_keys.sort()
            for key in due_keys:
                x = due[key]
                due[key] = None
                o = op[key]
                if o <= _NEURON:
                    # A neuron integrates; a leak-0 one holds nothing from an earlier step.
                    v = x + held[key] if o and t <= until[key] else x
                    if not lo <= v <= hi:
                        return self._stop(t, key >> 1, v, key)
                    if v < threshold[key]:
                        held[key] = v
                        until[key] = t + leak[key]
                        continue
                    held[key] = 0
                    node = key >> 1
                elif o == _FIRE:  # a const emitter fires its constant
                    v = x
                    node = key >> 1
                    if not lo <= v <= hi and wires[node]:  # the first wire breaches, unless an edge before it does
                        record((t, node, v))
                        first = wires[node][0]
                        breach = ((post, w * v) for post, w, _, _ in edges[node] if not lo <= w * v <= hi)
                        post, p = min(next(breach, (first, v)), (first, v))
                        return self._stop(t, post >> 1, p, key)
                elif o == _CONST_EMIT:
                    nxt[key - 1] = const[key]  # the fire key 2·node, set only here
                    nxt_keys.append(key - 1)
                    continue
                else:
                    # Join: a line brings at most one value per step,
                    # range-checked when sent; once every line holds one,
                    # each goes on unchanged to its target at t + 1.
                    lines = buffers[key]
                    lines.update(x)
                    posts = joins[key]
                    if len(lines) < len(posts):
                        continue
                    node = key >> 1
                    for m, post in enumerate(posts):
                        p = lines[m]
                        record((t, node, p))
                        x = nxt[post]
                        if x is None:
                            nxt[post] = p
                            nxt_keys.append(post)
                        else:
                            nxt[post] = x + p
                    lines.clear()
                    continue
                # A neuron spike or a const-emit fire.  Along a wire the value
                # goes on as it is, and lo <= v <= hi already holds; every
                # other edge is checked, in post order whichever tier takes it
                # (a fault is the first breach in that order).
                record((t, node, v))
                for post in wires[node]:
                    x = nxt[post]
                    if x is None:
                        nxt[post] = v
                        nxt_keys.append(post)
                    else:
                        nxt[post] = x + v
                for post, w, d1, line in edges[node]:
                    p = w * v
                    if not lo <= p <= hi:
                        return self._stop(t, post >> 1, p, key)
                    if d1 != 1:
                        heappush(later, (t + d1, post, p))
                        continue
                    x = nxt[post]
                    if line is not None:  # a join line: weight 1, delay 0
                        if x is None:
                            nxt[post] = {line: p}
                            nxt_keys.append(post)
                        else:
                            x[line] = p
                    elif x is None:
                        nxt[post] = p
                        nxt_keys.append(post)
                    else:
                        nxt[post] = x + p
            due_keys.clear()
            due, due_keys, nxt, nxt_keys = nxt, nxt_keys, due, due_keys
            ran = t
        if ran is not None:
            self._due, self._due_keys, self._next, self._next_keys = due, due_keys, nxt, nxt_keys
            self.clock = ran
            self._open = ran + 1
        return ran

    def _stop(self, time: int, node: int, value: int, key: int) -> int:
        """Record the fault for a value outside the run's bound; overflow wins.

        Dropping the pending work makes the fault terminal; ``key``, the work
        the step stopped at, is where the trace ends.
        """
        kind = "magnitude_breach" if INT63_MIN <= value <= INT63_MAX else "overflow"
        self.fault = Fault(kind, time, node, value)
        self._cut = key
        self.clock = time
        self._open = time + 1
        self._due, self._next = [None] * len(self._due), [None] * len(self._due)
        self._due_keys, self._next_keys, self._later = [], [], []
        return time

    def _finish(self, status: str, final_clock: int) -> RunOutcome:
        # Copies: a later run of this engine appends to its records.
        trace_inputs = (self._plan, self._injected.copy(), self._open - 1, self._cut)
        return RunOutcome(status, final_clock, self._flat.copy(), self.fault, trace_inputs)


def _trace(plan: _Plan, injected: list, last: int, cut: int, flat: list[int]) -> list[Delivery]:
    """Every delivery through work key ``cut`` of step ``last``: each fan-out, flushed line and injection.

    Each :class:`Delivery` is made in C, in emission order: the plan's seed,
    then each spike's fan-out in raster order, an injection added to the
    engine going just before the spike the raster was about to hold, and the
    injections added after the last spike at the end.  Two stable sorts, by
    target and then by time, leave them by ``(time, target)`` and in emission
    order within that (least significant key first).  Every delivery's key
    is odd, so a target's order is its key's.
    """
    op, wires, edges, joins = plan.op, plan.wires, plan.edges, plan.joins
    new = tuple.__new__
    rows = _make(Delivery, [(time, key >> 1, None, value) for time, key, value in plan.seed])
    added = _make(Delivery, [(time, key >> 1, None, value) for _, time, key, value in injected])
    at = [r for r, _, _, _ in injected] + [len(flat)]  # each one's spike count then; an end no spike reaches
    i = line = 0
    for r, (t, s, v) in enumerate(zip(flat[::3], flat[1::3], flat[2::3])):
        while at[i] <= r:
            rows.append(added[i])
            i += 1
        if op[2 * s + 1] != _JOIN:
            t1 = t + 1
            rows += [new(Delivery, (t1, post >> 1, s, v)) for post in wires[s]]
            if edges[s]:
                rows += [new(Delivery, (t + d1, post >> 1, s, w * v)) for post, w, d1, _ in edges[s]]
        else:
            line = line + 1 if r and flat[3 * r - 3 : 3 * r - 1] == [t, s] else 0
            rows.append(new(Delivery, (t + 1, joins[2 * s + 1][line] >> 1, s, v)))
    rows += added[i:]
    rows.sort(key=itemgetter(1))
    rows.sort(key=itemgetter(0))
    # Keep (time, 2·target + 1) <= (last, cut).
    del rows[bisect_right(rows, (last, (cut - 1) // 2), key=itemgetter(0, 1)):]
    return rows


def simulate(
    circuit: Circuit,
    extra_injections: tuple = (),
    config: SimConfig | None = None,
) -> RunOutcome:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine(circuit, config=config, extra_injections=tuple(extra_injections)).run()


def port_spikes(circuit: Circuit, raster: list[SpikeEvent], role: str = "output") -> dict[str, list[SpikeEvent]]:
    """Group raster events by port name for ports of the given role."""
    by_node: dict[int, list[str]] = {}
    for p in circuit.ports_by_role(role):
        by_node.setdefault(p.neuron, []).append(p.name)
    found: dict[str, list[SpikeEvent]] = {p.name: [] for p in circuit.ports_by_role(role)}
    for event in raster:
        for name in by_node.get(event.neuron, ()):
            found[name].append(event)
    return found


def _positions(items: list, item) -> list[int]:
    """Every index of ``item`` in ``items``, in order, each found by a ``list.index`` scan in C."""
    found = []
    try:
        while True:
            found.append(items.index(item, found[-1] + 1 if found else 0))
    except ValueError:
        return found


def _render(circuit: Circuit, flat: list[int], header: bytes, bare: bytes, head: bytes, tail) -> bytes:
    """``header``, then each spike's row: ``bare % spike``, or on an output node ``head % spike`` per port name.

    ``list.index`` scans find the output-node spikes, and each run of rows
    between them is one bytes ``%`` over its slice of ``flat``.
    """
    # Per output node [b"", tail(name1), ...]: joined by the spike's head, it
    # gives that spike's row once per port name.
    tails: dict[int, list[bytes]] = {}
    for p in circuit.ports_by_role("output"):
        tails.setdefault(p.neuron, [b""]).append(tail(p.name))
    nodes = flat[1::3]
    rows, start = [header], 0
    for i in sorted([i for node in tails for i in _positions(nodes, node)]):
        spike = tuple(flat[3 * i : 3 * i + 3])
        rows += (bare * (i - start) % tuple(flat[3 * start : 3 * i]), (head % spike).join(tails[nodes[i]]))
        start = i + 1
    rows.append(bare * (len(nodes) - start) % tuple(flat[3 * start :]))
    return b"".join(rows)


def raster_csv(circuit: Circuit, outcome: RunOutcome) -> bytes:
    """The outcome's raster as a UTF-8 CSV file (header ``time,neuron,value,port``).

    Integers never need quoting, so only each output port's cell goes through
    ``csv.writer``.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")

    def cell(name: str) -> bytes:
        out.seek(0)
        out.truncate()
        writer.writerow((0, name))
        return out.getvalue()[2:].encode()

    return _render(circuit, outcome.flat, b"time,neuron,value,port\n", b"%d,%d,%d,\n", b"%d,%d,%d,", cell)


def raster_jsonl(circuit: Circuit, outcome: RunOutcome) -> bytes:
    """The outcome's raster as a UTF-8 JSON-lines file with the CSV's fields.

    Each line is the text ``json.dumps`` gives for the row's dict.
    """
    head, port = b'{"time": %d, "neuron": %d, "value": %d', b', "port": %s}\n'
    return _render(circuit, outcome.flat, b"", head + port % b'""', head, lambda name: port % json.dumps(name).encode())


def trace_csv(outcome: RunOutcome) -> bytes:
    """The outcome's delivery trace as a UTF-8 CSV file (header ``time,target,source,value``).

    One bytes ``%`` per run of rows with a source, and one per injection's
    row, whose source cell is empty.
    """
    trace = outcome.trace
    sourced = b"%d,%d,%d,%d\n"
    rows, start = [b"time,target,source,value\n"], 0
    for i in _positions(list(map(itemgetter(2), trace)), None):
        time, target, _, value = trace[i]
        rows.append(sourced * (i - start) % tuple(chain.from_iterable(trace[start:i])))
        rows.append(b"%d,%d,,%d\n" % (time, target, value))
        start = i + 1
    rows.append(sourced * (len(trace) - start) % tuple(chain.from_iterable(trace[start:])))
    return b"".join(rows)
