"""The engine against a naive reference simulator written from README's Model section.

``Reference`` shares no code with :mod:`murec.engine`.  It keeps pending work
in plain dicts keyed by time, runs a step by walking every node in id order,
and runs a circuit one timestep at a time.  The properties draw synapse
delays of 0 (a transit of one step) up to hundreds of steps, with late
injections soon and around every power-of-two horizon, so that both the
engine's dense next-step tier and its heap carry arrivals, and one step often
takes work from both.  The reference records every delivery as it makes it,
so it checks the trace that the engine's outcome derives from the raster.
"""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import built_circuits, const_fire_past_the_bound
from murec import ConstEmit, EmptyQueue, Engine, Injection, Join, SimConfig

GUARD_MIN, GUARD_MAX = -(2**62), 2**62 - 1  # the machine-integer guard band: signed 63-bit


class Reference:
    """One run of a circuit by the README's rules, step by step and node by node."""

    def __init__(self, circuit, config: SimConfig, extra=()):
        self.config = config
        self.nodes = range(len(circuit.neurons) + len(circuit.gadgets))
        self.neurons = {spec.id: spec for spec in circuit.neurons}
        self.emitters = {g.id: g.value for g in circuit.gadgets if isinstance(g, ConstEmit)}
        self.joins = {g.id: g for g in circuit.gadgets if isinstance(g, Join)}
        self.synapses: dict[int, list[tuple[int, int, int]]] = {}  # pre -> (post, weight, delay), by post
        for pre, post, weight, delay in sorted(circuit.synapses):
            self.synapses.setdefault(pre, []).append((post, weight, delay))
        self.arriving: dict[int, list[tuple[int, int | None, int]]] = {}  # time -> (target, source, value)
        self.firing: dict[int, set[int]] = {}  # time -> the const emitters that fire then
        self.parked: dict[int, tuple[int, int]] = {}  # neuron -> (value, time it was set)
        self.lines: dict[int, dict[int, int]] = {j: {} for j in self.joins}
        self.clock = 0
        self.done: int | None = None  # the last step run
        self.spikes: list[tuple[int, int, int]] = []
        self.fault: tuple[str, int, int, int] | None = None
        self.trace: list[tuple[int, int, int | None, int]] = []
        for node, value, time in (*circuit.injections, *extra):
            self.add_injection(node, value, time)

    def add_injection(self, node: int, value: int, time: int) -> None:
        if self.fault is None:
            self.arriving.setdefault(time, []).append((node, None, value))

    def peek_time(self) -> int | None:
        return min((*self.arriving, *self.firing), default=None)

    def step(self) -> int | None:
        t = self.peek_time()
        if t is not None:
            self._step(t)
        return t

    def run(self) -> tuple[str, int]:
        """Status and final clock; the records are the instance's."""
        t = 0 if self.done is None else self.done + 1
        while self.fault is None and (self.arriving or self.firing):
            if t > self.config.max_steps:
                return "timeout", self.config.max_steps
            if t in self.arriving or t in self.firing:
                self._step(t)
            t += 1
        return ("quiescent" if self.fault is None else "fault"), self.clock

    def _step(self, t: int) -> None:
        self.clock = self.done = t
        arrivals = self.arriving.pop(t, [])
        fires = self.firing.pop(t, set())
        for node in self.nodes:
            if node in fires and not self._spike(t, node, self.emitters[node]):
                return
            mine = [(source, value) for target, source, value in arrivals if target == node]
            if not mine:
                continue
            self.trace += [(t, node, source, value) for source, value in mine]
            if node in self.emitters:
                self.firing.setdefault(t + 1, set()).add(node)
            elif node in self.joins:
                if not self._join(t, node, mine):
                    return
            elif not self._integrate(t, node, sum(value for _, value in mine)):
                return

    def _integrate(self, t: int, node: int, arrived: int) -> bool:
        spec = self.neurons[node]
        value, since = self.parked.pop(node, (0, t))
        if spec.leak is not None and t > since + spec.leak:
            value = 0
        v = value + arrived
        if not self._within_bounds(t, node, v):
            return False
        if v >= spec.threshold:
            return self._spike(t, node, v)
        self.parked[node] = (v, t)
        return True

    def _join(self, t: int, node: int, mine: list) -> bool:
        join, lines = self.joins[node], self.lines[node]
        for source, value in mine:
            lines[join.inputs.index(source)] = value
        if len(lines) < len(join.inputs):
            return True
        for m, target in enumerate(join.outputs):
            self.spikes.append((t, node, lines[m]))
            if not self._send(t, node, target, lines[m], 0):
                return False
        lines.clear()
        return True

    def _spike(self, t: int, node: int, value: int) -> bool:
        self.spikes.append((t, node, value))
        edges = self.synapses.get(node, ())
        return all(self._send(t, node, post, weight * value, delay) for post, weight, delay in edges)

    def _send(self, t: int, source: int, target: int, value: int, delay: int) -> bool:
        if not self._within_bounds(t, target, value):
            return False
        self.arriving.setdefault(t + delay + 1, []).append((target, source, value))
        return True

    def _within_bounds(self, t: int, node: int, value: int) -> bool:
        if not GUARD_MIN <= value <= GUARD_MAX:
            self.fault = ("overflow", t, node, value)
        elif abs(value) >= 2 * self.config.big_m:
            self.fault = ("magnitude_breach", t, node, value)
        else:
            return True
        self.arriving.clear()
        self.firing.clear()
        return False


def _results(engine: Engine) -> tuple:
    outcome = engine.run()
    fault = outcome.fault and (outcome.fault.kind, outcome.fault.time, outcome.fault.node, outcome.fault.value)
    return outcome.status, outcome.final_clock, outcome.flat, fault, [tuple(d) for d in outcome.trace]


def _reference_results(ref: Reference) -> tuple:
    status, final_clock = ref.run()
    return status, final_clock, [x for spike in ref.spikes for x in spike], ref.fault, ref.trace


CAP = 256  # the ring size an earlier engine capped at; kept so the same delays and offsets are drawn
DELAYS = st.one_of(st.integers(0, 4), st.integers(0, 40), st.integers(CAP - 3, CAP + 3), st.integers(CAP, 3 * CAP))
# A late injection `dt` steps after the earliest unprocessed time: soon, or
# about each power of two (dt = 2**k - 1).
HORIZONS = st.sampled_from([2**k for k in range(1, 10)])
OFFSETS = st.one_of(st.integers(0, 6), HORIZONS.flatmap(lambda horizon: st.integers(horizon - 2, horizon + 1)))
CONFIGS = st.builds(
    SimConfig,
    max_steps=st.sampled_from([30, 4 * CAP]),
    big_m=st.sampled_from([3, 40, 10**9]),
)


@settings(max_examples=300, deadline=None)
@given(built_circuits(DELAYS), CONFIGS, st.lists(st.tuples(st.integers(0, 7), st.integers(-9, 9), OFFSETS), max_size=3))
@example((const_fire_past_the_bound()[0], 3), SimConfig(max_steps=30, big_m=3), [])  # a fire past the bound
def test_runs_match_the_reference(drawn, config, extra):
    circuit, _ = drawn
    n = len(circuit.neurons) + len(circuit.gadgets)
    joins = {g.id for g in circuit.gadgets if isinstance(g, Join)}
    extra = tuple(Injection(node % n, value, dt) for node, value, dt in extra if node % n not in joins)
    assert _results(Engine(circuit, config, extra)) == _reference_results(Reference(circuit, config, extra))


@settings(max_examples=300, deadline=None)
@given(
    built_circuits(DELAYS),
    CONFIGS,
    st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(-9, 9), OFFSETS)), max_size=16),
)
def test_stepped_runs_match_the_reference(drawn, config, script):
    """A step (None) or a late injection (node, value, dt) per action, then a run."""
    circuit, _ = drawn
    n = len(circuit.neurons) + len(circuit.gadgets)
    joins = {g.id for g in circuit.gadgets if isinstance(g, Join)}
    engine, ref = Engine(circuit, config), Reference(circuit, config)
    for action in script:
        if action is None:
            if ref.peek_time() is None:
                with pytest.raises(EmptyQueue):
                    engine.step()
            else:
                assert engine.step() == ref.step()
        elif action[0] % n not in joins:
            node, value, dt = action
            time = (0 if ref.done is None else ref.done + 1) + dt
            engine.add_injection(node % n, value, time)
            ref.add_injection(node % n, value, time)
        assert engine.peek_time() == ref.peek_time()
    assert _results(engine) == _reference_results(ref)
