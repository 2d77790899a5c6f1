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
one fills.

Arithmetic is checked: values leaving the signed 63-bit range fault with
``overflow``; values reaching magnitude ``2 * big_m`` fault with
``magnitude_breach`` (the big-M separation is gone).
"""
from __future__ import annotations

import csv
import heapq
import io
import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .circuit import Circuit, ConstEmit
from .errors import EmptyQueue, InvalidCircuit, UnknownNeuron

INT63_MAX = 2**62 - 1
INT63_MIN = -(2**62)

_NEURON, _CONST_EMIT, _JOIN = 0, 1, 2


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
    trace: bool = False


@dataclass
class RunOutcome:
    """A run's result.

    ``spikes`` is the raster as plain ``(time, node, value)`` tuples, in raster
    order; ``raster`` wraps each in a :class:`SpikeEvent` on first read.
    """

    status: str  # "quiescent" | "timeout" | "fault"
    final_clock: int
    spikes: list[tuple[int, int, int]]
    fault: Fault | None = None
    trace: list[Delivery] | None = None

    @cached_property
    def raster(self) -> list[SpikeEvent]:
        """Every spike as a :class:`SpikeEvent`, in raster order."""
        return list(map(SpikeEvent._make, self.spikes))

    def spikes_of(self, node: int) -> list[SpikeEvent]:
        """One node's spikes, as in the raster, without building the raster."""
        return [SpikeEvent._make(spike) for spike in self.spikes if spike[1] == node]

    @property
    def quiescent(self) -> bool:
        return self.status == "quiescent"


class _Plan(NamedTuple):
    """What an engine needs of a circuit, indexed by node id; read-only.

    ``out[i]`` lists node ``i``'s out-edges ``(2·post + 1, weight, delay + 1)``
    in post order; ``joins[j]`` is, for a join ``j``, its source -> line index
    map and each line's out-edge, and None for any other node.
    """

    kind: tuple[int, ...]
    threshold: tuple[int, ...]
    leak: tuple[float, ...]  # INFINITE is float("inf"): retained forever
    const: tuple[int, ...]
    out: tuple[tuple[tuple[int, int, int], ...], ...]
    joins: tuple[tuple[dict[int, int], tuple[tuple[int, int, int], ...]] | None, ...]
    join_ids: tuple[int, ...]


def _build_plan(circuit: Circuit) -> _Plan:
    n = len(circuit.neurons) + len(circuit.gadgets)
    kind = [_NEURON] * n
    threshold = [0] * n
    leak: list[float] = [float("inf")] * n
    const = [0] * n
    for spec in circuit.neurons:
        threshold[spec.id] = spec.threshold
        if spec.leak is not None:
            leak[spec.id] = spec.leak
    # Synapses are sorted by (pre, post), so each out-list is in post order.
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for pre, post, weight, delay in circuit.synapses:
        out[pre].append((2 * post + 1, weight, delay + 1))
    joins: list = [None] * n
    for g in circuit.gadgets:
        if isinstance(g, ConstEmit):
            kind[g.id] = _CONST_EMIT
            const[g.id] = g.value
        else:
            kind[g.id] = _JOIN
            edge_to = {edge[0]: edge for edge in out[g.id]}
            line_of = {src: m for m, src in enumerate(g.inputs)}
            joins[g.id] = (line_of, tuple(edge_to[2 * dst + 1] for dst in g.outputs))
    return _Plan(
        tuple(kind), tuple(threshold), tuple(leak), tuple(const), tuple(map(tuple, out)), tuple(joins),
        tuple(j for j in range(n) if kind[j] == _JOIN),
    )


def _plan_of(circuit: Circuit) -> _Plan:
    """The circuit's plan, built the first time an engine sees this object.

    The memo lives in the instance's ``__dict__``, so it dies with the object;
    a :class:`Circuit` is frozen and valid by construction, so it never goes stale.
    """
    plan = circuit.__dict__.get("_engine_plan")
    if plan is None:
        plan = circuit.__dict__["_engine_plan"] = _build_plan(circuit)
    return plan


class Engine:
    """Single-owner stepper over one circuit run.

    What depends only on the circuit (node kinds, thresholds, leaks, constant
    values, out-edges, join line maps) is one read-only plan per
    :class:`Circuit` object, shared by every engine over it.  An engine owns
    only its run's state: each neuron's retained value and how long it lives,
    each join's buffered line values, the pending work and the records.

    Node ids are dense, so per-node state lives in lists indexed by id.
    Pending work is one dict per timestep, on the heap iff it exists: key
    ``2·g`` marks a fire of const emitter ``g``, and key ``2·j + 1`` holds the
    ``(source, value)`` deliveries to node ``j`` in arrival order, so sorted
    keys run a step in node order (rule 6).  Out-edges and join edges store
    their target's key.  ``raster`` and ``trace`` hold plain tuples, already
    in raster and ``(time, target)`` order.
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
        self.raster: list[tuple[int, int, int]] = []
        self.trace: list[tuple[int, int, int | None, int]] | None = [] if self.config.trace else None

        plan = self._plan = _plan_of(circuit)
        n = len(plan.kind)
        self._held = [0] * n  # a neuron's retained value ...
        self._until: list[float] = [-1] * n  # ... live through this time
        self._lines: dict[int, dict[int, int]] = {j: {} for j in plan.join_ids}  # per join: line -> value
        self._pending: dict[int, dict[int, list[tuple[int | None, int]] | None]] = {}
        self._heap: list[int] = []
        for inj in (*circuit.injections, *extra_injections):
            self.add_injection(inj.neuron, inj.value, inj.time)

    def add_injection(self, neuron: int, value: int, time: int) -> None:
        """Schedule a delivery after every processed step; dropped after a fault."""
        kind = self._plan.kind
        if not 0 <= neuron < len(kind):
            raise UnknownNeuron(f"node {neuron} does not exist")
        if kind[neuron] == _JOIN:
            raise InvalidCircuit([f"injection into join {neuron} is not allowed"])
        if time < self._open:
            raise ValueError(f"injection time must be >= {self._open}, got {time}")
        if self.fault is not None:
            return
        batch = self._pending.get(time)
        if batch is None:
            batch = self._pending[time] = {}
            heapq.heappush(self._heap, time)
        batch.setdefault(2 * neuron + 1, []).append((None, value))

    # -- inspection --------------------------------------------------------

    def peek_time(self) -> int | None:
        return self._heap[0] if self._heap else None

    def inspect(self, neuron: int, at: int | None = None) -> int:
        """Retained state of a neuron with leak accounted at time ``at``."""
        kind = self._plan.kind
        if not 0 <= neuron < len(kind) or kind[neuron] != _NEURON:
            raise UnknownNeuron(f"node {neuron} is not a neuron")
        when = self.clock if at is None else at
        return self._held[neuron] if when <= self._until[neuron] else 0

    def join_lines(self, join_id: int) -> dict[int, int]:
        """Currently buffered values of a join, keyed by line index."""
        return dict(self._lines[join_id])

    # -- execution ---------------------------------------------------------

    def step(self) -> int:
        """Process the earliest pending timestep; return its time."""
        if not self._heap:
            raise EmptyQueue("no pending deliveries")
        return self._advance(self._heap[0])

    def run(self) -> RunOutcome:
        """Run to quiescence, timeout, or fault."""
        self._advance(self.config.max_steps)
        if self._heap:
            return self._finish("timeout", self.config.max_steps)
        return self._finish("quiescent" if self.fault is None else "fault", self.clock)

    def _advance(self, horizon: int) -> int | None:
        """Process pending timesteps up to ``horizon``; return the last one run.

        A fault ends the step at once and empties the queue; None: no step ran.
        """
        heap, pending = self._heap, self._pending
        kind, threshold, leak, const, out, joins, _ = self._plan
        held, until, buffers = self._held, self._until, self._lines
        record, trace = self.raster.append, self.trace
        # lo <= v <= hi iff v passes both the overflow and the big-M check.
        lo = max(INT63_MIN, 1 - 2 * self.config.big_m)
        hi = min(INT63_MAX, 2 * self.config.big_m - 1)
        heappush, heappop = heapq.heappush, heapq.heappop
        t = None
        while heap and heap[0] <= horizon:
            t = heappop(heap)
            self.clock = t
            self._open = t + 1
            batch = pending.pop(t)
            for key in sorted(batch):
                node = key >> 1
                if not key & 1:  # a fire of const emitter `node`
                    v = const[node]
                else:
                    arrivals = batch[key]
                    if trace is not None:
                        trace.extend([(t, node, source, x) for source, x in arrivals])
                    k = kind[node]
                    if k == _NEURON:
                        v = held[node] if t <= until[node] else 0
                        for _, x in arrivals:
                            v += x
                        if not lo <= v <= hi:
                            return self._stop(t, node, v)
                        if v < threshold[node]:
                            held[node] = v
                            until[node] = t + leak[node]
                            continue
                        held[node] = 0
                    elif k == _CONST_EMIT:
                        nxt = pending.get(t + 1)
                        if nxt is None:
                            nxt = pending[t + 1] = {}
                            heappush(heap, t + 1)
                        nxt[key - 1] = None  # the fire key 2·node
                        continue
                    else:
                        # Join: a line's one synapse brings at most one value
                        # per step, range-checked when sent; once every line
                        # holds a value, all flush along their own edges.
                        line_of, edges = joins[node]
                        lines = buffers[node]
                        for source, x in arrivals:
                            lines[line_of[source]] = x
                        if len(lines) < len(edges):
                            continue
                        for m, (post, w, d1) in enumerate(edges):
                            x = lines[m]
                            record((t, node, x))
                            p = w * x
                            if not lo <= p <= hi:
                                return self._stop(t, post >> 1, p)
                            nxt = pending.get(t + d1)
                            if nxt is None:
                                nxt = pending[t + d1] = {}
                                heappush(heap, t + d1)
                            inbox = nxt.get(post)
                            if inbox is None:
                                nxt[post] = [(node, p)]
                            else:
                                inbox.append((node, p))
                        lines.clear()
                        continue
                # A neuron spike or a const-emit fire: fan out along every edge.
                record((t, node, v))
                for post, w, d1 in out[node]:
                    p = w * v
                    if not lo <= p <= hi:
                        return self._stop(t, post >> 1, p)
                    nxt = pending.get(t + d1)
                    if nxt is None:
                        nxt = pending[t + d1] = {}
                        heappush(heap, t + d1)
                    inbox = nxt.get(post)
                    if inbox is None:
                        nxt[post] = [(node, p)]
                    else:
                        inbox.append((node, p))
        return t

    def _stop(self, time: int, node: int, value: int) -> int:
        """Record the fault for a value outside the run's bound; overflow wins.

        Dropping the pending work makes the fault terminal.
        """
        kind = "magnitude_breach" if INT63_MIN <= value <= INT63_MAX else "overflow"
        self.fault = Fault(kind, time, node, value)
        self._heap.clear()
        self._pending.clear()
        return time

    def _finish(self, status: str, final_clock: int) -> RunOutcome:
        trace = None if self.trace is None else list(map(Delivery._make, self.trace))
        # A copy: a later run of this engine appends to its records.
        return RunOutcome(status, final_clock, self.raster.copy(), self.fault, trace)


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


def _render(circuit: Circuit, raster: list[tuple[int, int, int]], bare: str, head: str, tail) -> str:
    """Each spike's row: ``bare % event``, or on an output node ``head % event`` per port name."""
    # Per output node ["", tail(name1), ...]: joined by the spike's head, it
    # gives that spike's row once per port name.
    tails: dict[int, list[str]] = {}
    for p in circuit.ports_by_role("output"):
        tails.setdefault(p.neuron, [""]).append(tail(p.name))
    return "".join(
        [bare % event if event[1] not in tails else (head % event).join(tails[event[1]]) for event in raster]
    )


def raster_csv(circuit: Circuit, raster: list[tuple[int, int, int]]) -> str:
    """Render ``RunOutcome.spikes`` or ``.raster`` as CSV (header ``time,neuron,value,port``).

    Integers never need quoting, so only each output port's cell goes through
    ``csv.writer``.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")

    def cell(name: str) -> str:
        out.seek(0)
        out.truncate()
        writer.writerow((0, name))
        return out.getvalue()[2:]

    return "time,neuron,value,port\n" + _render(circuit, raster, "%d,%d,%d,\n", "%d,%d,%d,", cell)


def raster_jsonl(circuit: Circuit, raster: list[tuple[int, int, int]]) -> str:
    """Render a raster (as for :func:`raster_csv`) as JSON lines with the CSV's fields.

    Each line is the text ``json.dumps`` gives for the row's dict.
    """
    head = '{"time": %d, "neuron": %d, "value": %d'
    return _render(circuit, raster, head + ', "port": ""}\n', head, lambda name: ', "port": %s}\n' % json.dumps(name))
