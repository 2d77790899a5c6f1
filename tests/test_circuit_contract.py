"""``Circuit.gadgets`` still holds what the benchmark reads.

``bench/workloads.py`` imports ``ConstEmit`` and ``Join`` from
``murec.circuit``, tells a spike's node kind by ``isinstance`` over
``circuit.gadgets``, counts the joins and the const emitters there, and takes
``len(circuit.neurons) + len(circuit.gadgets)`` as the node count.  A rename
or a change of what ``gadgets`` holds would only surface in a benchmark run,
so this pins both reads on the shared programs.
"""
from __future__ import annotations

import pytest

from conftest import ADD, MONUS, MU_MONUS, MUL, PRED
from murec import compile_program
from murec.circuit import ConstEmit, Join

PROGRAMS = {"add": ADD, "mul": MUL, "pred": PRED, "monus": MONUS, "mu_monus": MU_MONUS}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_gadgets_holds_exactly_the_const_emitters_and_the_joins(name):
    circuit = compile_program(PROGRAMS[name]).circuit
    gadgets = circuit.gadgets
    assert circuit.const_emits and circuit.joins
    assert [g for g in gadgets if isinstance(g, ConstEmit)] == list(circuit.const_emits)
    assert [g for g in gadgets if isinstance(g, Join)] == list(circuit.joins)
    assert len(gadgets) == len(circuit.const_emits) + len(circuit.joins)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_neurons_and_gadgets_count_the_nodes(name):
    circuit = compile_program(PROGRAMS[name]).circuit
    ids = [n.id for n in circuit.neurons] + [c.id for c in circuit.const_emits] + [j.id for j in circuit.joins]
    assert sorted(ids) == list(range(len(circuit.neurons) + len(circuit.gadgets)))
