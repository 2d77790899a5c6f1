"""The time-shift law: no rule of the model reads absolute time.

Shift every injection of a run by ``k`` (the circuit's own and those added
to the engine) and allow ``k`` more steps.  Then every spike, the fault, the
final clock and every delivery move ``k`` steps later, and nothing else
changes: not the status, nor any node or value.
"""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADD, ALWAYS_POSITIVE, MONUS, MU_MONUS, MUL, PRED, circuits_with_added_injections
from murec import Engine, Injection, SimConfig, bind_args, compile_program


def _shifted(injections, k):
    return tuple(inj._replace(time=inj.time + k) for inj in injections)


def _assert_shifted_by(k, circuit, injections, config):
    """Run ``circuit`` with ``injections``, then with every injection ``k`` steps later, and compare."""
    base = Engine(circuit, config, injections).run()
    later_circuit = replace(circuit, injections=_shifted(circuit.injections, k))
    later_config = SimConfig(max_steps=config.max_steps + k, big_m=config.big_m)
    later = Engine(later_circuit, later_config, _shifted(injections, k)).run()
    assert later.status == base.status
    assert later.final_clock == base.final_clock + k
    assert later.flat[0::3] == [t + k for t in base.flat[0::3]]
    assert (later.flat[1::3], later.flat[2::3]) == (base.flat[1::3], base.flat[2::3])
    if base.fault is None:
        assert later.fault is None
    else:
        assert later.fault == replace(base.fault, time=base.fault.time + k)
    assert later.trace == [d._replace(time=d.time + k) for d in base.trace]


@settings(max_examples=200, deadline=None)
@given(circuits_with_added_injections(), st.integers(1, 50))
def test_shifting_every_injection_shifts_a_built_circuits_run(drawn, k):
    circuit, big_m, added = drawn
    _assert_shifted_by(k, circuit, added, SimConfig(max_steps=60, big_m=big_m))


@pytest.mark.parametrize("k", [1, 17, 50])
@pytest.mark.parametrize(
    "expr, args",
    [(ADD, (2, 3)), (MUL, (2, 3)), (PRED, (3, 1)), (MONUS, (1, 4)), (MU_MONUS, (3,)), (ALWAYS_POSITIVE, (1,))],
    ids=["add", "mul", "pred", "monus", "mu_monus", "always_positive"],
)
def test_shifting_every_injection_shifts_a_compiled_programs_run(expr, args, k):
    # The circuit's own injections (the static boxes' start pulses) move too,
    # so the law holds; ALWAYS_POSITIVE runs to its timeout.
    program = compile_program(expr)
    ports = {p.name: p.neuron for p in program.circuit.ports}
    arguments = tuple(Injection(ports[name], value, 0) for name, value in bind_args(program, args).items())
    _assert_shifted_by(k, program.circuit, arguments, SimConfig(max_steps=3000, big_m=program.meta["big_m"]))
