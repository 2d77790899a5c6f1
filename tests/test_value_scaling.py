"""The value-scaling law: values enter the model only linearly.

Multiply every threshold, constant emitter's value, injection value and
``big_m`` of a run by ``c >= 1``.  Then every spike, the fault and every
delivery carry ``c`` times their value, and nothing else changes: not the
status, the final clock, nor any time or node.  Weights and a join's hand-off
are linear, ``v >= threshold`` iff ``c * v >= c * threshold``, and for
integers ``v <= 2 * big_m - 1`` iff ``c * v <= 2 * c * big_m - 1``.
"""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADD, ALWAYS_POSITIVE, MONUS, MU_MONUS, MUL, PRED, circuits_with_added_injections
from murec import Engine, Injection, SimConfig, bind_args, compile_program


def _scaled(injections, c):
    return tuple(inj._replace(value=c * inj.value) for inj in injections)


def _assert_scaled_by(c, circuit, injections, config):
    """Run ``circuit`` with ``injections``, then with every value ``c`` times larger, and compare."""
    base = Engine(circuit, config, injections).run()
    larger_circuit = replace(
        circuit,
        neurons=tuple(n._replace(threshold=c * n.threshold) for n in circuit.neurons),
        const_emits=tuple(g._replace(value=c * g.value) for g in circuit.const_emits),
        injections=_scaled(circuit.injections, c),
    )
    larger_config = SimConfig(max_steps=config.max_steps, big_m=c * config.big_m)
    larger = Engine(larger_circuit, larger_config, _scaled(injections, c)).run()
    assert larger.status == base.status
    assert larger.final_clock == base.final_clock
    assert (larger.flat[0::3], larger.flat[1::3]) == (base.flat[0::3], base.flat[1::3])
    assert larger.flat[2::3] == [c * v for v in base.flat[2::3]]
    if base.fault is None:
        assert larger.fault is None
    else:
        assert larger.fault == replace(base.fault, value=c * base.fault.value)
    assert larger.trace == [d._replace(value=c * d.value) for d in base.trace]


@settings(max_examples=200, deadline=None)
@given(circuits_with_added_injections(), st.integers(2, 7))
def test_scaling_every_value_scales_a_built_circuits_run(drawn, c):
    circuit, big_m, added = drawn
    # A big_m of at most 40 keeps every value, scaled ones too, far from the 63-bit range.
    _assert_scaled_by(c, circuit, added, SimConfig(max_steps=60, big_m=min(big_m, 40)))


@pytest.mark.parametrize("c", [2, 3, 7])
@pytest.mark.parametrize(
    "expr, args",
    [(ADD, (2, 3)), (MUL, (2, 3)), (PRED, (3, 1)), (MONUS, (1, 4)), (MU_MONUS, (3,)), (ALWAYS_POSITIVE, (1,))],
    ids=["add", "mul", "pred", "monus", "mu_monus", "always_positive"],
)
def test_scaling_every_value_scales_a_compiled_programs_run(expr, args, c):
    # The arguments, the static boxes' start pulses and every threshold that
    # big_m sets scale together; ALWAYS_POSITIVE runs to its timeout.
    program = compile_program(expr)
    ports = {p.name: p.neuron for p in program.circuit.ports}
    arguments = tuple(Injection(ports[name], value, 0) for name, value in bind_args(program, args).items())
    _assert_scaled_by(c, program.circuit, arguments, SimConfig(max_steps=3000, big_m=program.meta["big_m"]))
