"""The disjoint-union law: circuits that share no node run independently.

Put two circuits side by side, the second's node ids moved past the first's,
and run them as one, each with its own added injections.  Where neither
circuit faults on its own, the union's raster is the merge of the two rasters
by ``(time, node)``, its final clock is the later of the two, and its trace is
the merge of the two traces by ``(time, target)``.  No rule reads another
node's state, and a step runs its work in node order whichever circuit a node
came from.
"""
from __future__ import annotations

from itertools import combinations_with_replacement
from operator import itemgetter

import pytest
from hypothesis import given, settings

from conftest import ADD, ALWAYS_POSITIVE, MONUS, MU_MONUS, MUL, PRED, circuits_with_added_injections
from murec import Circuit, Engine, Injection, SimConfig, bind_args, compile_program


def _moved(circuit, k, prefix):
    """``circuit``'s sections with every node id ``k`` higher and every port name behind ``prefix``."""
    return dict(
        neurons=[n._replace(id=n.id + k) for n in circuit.neurons],
        synapses=[s._replace(pre=s.pre + k, post=s.post + k) for s in circuit.synapses],
        ports=[p._replace(name=prefix + p.name, neuron=p.neuron + k) for p in circuit.ports],
        injections=[inj._replace(neuron=inj.neuron + k) for inj in circuit.injections],
        const_emits=[g._replace(id=g.id + k) for g in circuit.const_emits],
        joins=[
            j._replace(id=j.id + k, inputs=tuple(i + k for i in j.inputs), outputs=tuple(o + k for o in j.outputs))
            for j in circuit.joins
        ],
    )


def _assert_runs_side_by_side(first, first_added, second, second_added, config):
    """Run each circuit alone and both as one; where neither faults alone, compare."""
    alone = Engine(first, config, first_added).run()
    other = Engine(second, config, second_added).run()
    if alone.fault is not None or other.fault is not None:
        return
    k = len(first.neurons) + len(first.const_emits) + len(first.joins)
    sections, moved = _moved(first, 0, "a"), _moved(second, k, "b")
    union = Circuit(**{name: records + moved[name] for name, records in sections.items()})
    added = first_added + tuple(inj._replace(neuron=inj.neuron + k) for inj in second_added)
    both = Engine(union, config, added).run()

    assert both.fault is None
    assert both.status == ("timeout" if "timeout" in (alone.status, other.status) else "quiescent")
    assert both.final_clock == max(alone.final_clock, other.final_clock)
    raster = alone.raster + [spike._replace(neuron=spike.neuron + k) for spike in other.raster]
    assert both.raster == sorted(raster, key=itemgetter(0, 1))
    trace = alone.trace + [
        d._replace(target=d.target + k, source=None if d.source is None else d.source + k) for d in other.trace
    ]
    assert both.trace == sorted(trace, key=itemgetter(0, 1))


@settings(max_examples=200, deadline=None)
@given(circuits_with_added_injections(), circuits_with_added_injections())
def test_two_built_circuits_side_by_side_run_as_each_does_alone(drawn, other):
    (first, first_m, first_added), (second, second_m, second_added) = drawn, other
    config = SimConfig(max_steps=60, big_m=max(first_m, second_m))
    _assert_runs_side_by_side(first, first_added, second, second_added, config)


_PROGRAMS = {
    "add": (ADD, (2, 3)),
    "mul": (MUL, (2, 3)),
    "pred": (PRED, (3, 1)),
    "monus": (MONUS, (1, 4)),
    "mu_monus": (MU_MONUS, (3,)),
    "always_positive": (ALWAYS_POSITIVE, (1,)),
}


def _compiled(name):
    """The program's circuit and its arguments as injections at time 0."""
    expr, args = _PROGRAMS[name]
    program = compile_program(expr)
    ports = {p.name: p.neuron for p in program.circuit.ports}
    arguments = tuple(Injection(ports[port], value, 0) for port, value in bind_args(program, args).items())
    return program.circuit, arguments, program.meta["big_m"]


@pytest.mark.parametrize("names", list(combinations_with_replacement(_PROGRAMS, 2)), ids="+".join)
def test_two_compiled_programs_side_by_side_run_as_each_does_alone(names):
    # ALWAYS_POSITIVE runs to its timeout, and so does every union with it.
    (first, first_args, first_m), (second, second_args, second_m) = map(_compiled, names)
    assert first_m == second_m
    _assert_runs_side_by_side(first, first_args, second, second_args, SimConfig(max_steps=3000, big_m=first_m))
