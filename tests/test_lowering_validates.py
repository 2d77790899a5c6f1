"""The lowering's claim: every circuit ``compile_program`` returns is valid.

``compile_program`` finishes its circuit without :meth:`Circuit.validate`
(see ``CircuitBuilder._compiled``), so these tests check its output instead,
on sampled programs (translation validation).  For each program the circuit
must validate clean, equal what ``build()`` makes from the same builder,
field for field, serialize to the same text and survive a load unchanged.
The order and types are compared before ``validate()`` runs, since it sorts
the sections in place.

The same samples also check that every node leads to the ``y`` port: a node
with no path there cannot change the value and only spends spikes.  The one
such node the lowering still builds is each ``prec``'s ``go_sink``, the end of
its state join's release line.
"""
from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import ADD, ALWAYS_POSITIVE, MONUS, MU_MONUS, MUL, PRED
from murec import Circuit, CircuitBuilder, Compose, Const, Mu, PrimRec, Proj, Succ, compile_program, gen_expr

# The compile_large shape: Compose(H, (e, Proj(k, 2))) for a seeded order of heads.
LARGE_HEADS = [MUL, MUL, MUL, MUL, MONUS, ADD]


def _large(seed: int):
    rng = random.Random(seed)
    heads = list(LARGE_HEADS)
    rng.shuffle(heads)
    expr = Proj(rng.randint(1, 2), 2)
    for head in heads:
        expr = Compose(head, (expr, Proj(rng.randint(1, 2), 2)))
    return expr


LOOPING = {
    "add": ADD,
    "mul": MUL,
    "monus": MONUS,
    "mu_monus": MU_MONUS,
    "mu_in_compose": Compose(ADD, (MU_MONUS, Proj(1, 1))),
    "mu_in_prec_step": PrimRec(Proj(1, 1), Compose(MU_MONUS, (Proj(2, 3),))),
    "nullary_mu": Mu(Proj(1, 1)),
    "nullary_const": Compose(Succ(), (Const(2, 0),)),
    "large_1": _large(1),
    "large_2": _large(2),
}


def _compile_both(expr, monkeypatch):
    """``compile_program(expr)``'s circuit, and what ``build()`` makes from the same builder."""
    built = []
    compiled = CircuitBuilder._compiled

    def both(builder):
        built.append(builder.build())  # raises InvalidCircuit on a bad lowering
        return compiled(builder)

    with monkeypatch.context() as patch:
        patch.setattr(CircuitBuilder, "_compiled", both)
        circuit = compile_program(expr).circuit
    assert len(built) == 1
    return circuit, built[0]


def _assert_valid_and_canonical(expr, monkeypatch):
    circuit, built = _compile_both(expr, monkeypatch)
    for section in (field.name for field in dataclasses.fields(Circuit)):
        records = getattr(circuit, section)
        assert type(records) is tuple, section
        assert records == getattr(built, section), section
    text = circuit.serialize()
    assert text == built.serialize()
    assert Circuit.deserialize(text) == circuit
    assert circuit.validate() == []


@pytest.mark.parametrize(
    "expr", [ADD, MUL, PRED, MONUS, MU_MONUS, ALWAYS_POSITIVE], ids=["add", "mul", "pred", "monus", "mu_monus", "diverges"]
)
def test_the_conftest_programs_lower_to_valid_canonical_circuits(expr, monkeypatch):
    _assert_valid_and_canonical(expr, monkeypatch)


@pytest.mark.parametrize("expr", LOOPING.values(), ids=LOOPING.keys())
def test_programs_with_prec_and_mu_lower_to_valid_canonical_circuits(expr, monkeypatch):
    _assert_valid_and_canonical(expr, monkeypatch)


def test_a_sample_of_generated_programs_lowers_to_valid_canonical_circuits(monkeypatch):
    rng = random.Random(32)
    for _ in range(300):
        _assert_valid_and_canonical(gen_expr(rng, rng.randint(1, 3), rng.randint(0, 4)), monkeypatch)


def _loop(rng, n_args):
    """A random ``prec`` of arity ``n_args`` >= 2, now and then minimized over one more argument."""
    if rng.random() < 0.3:
        return Mu(_loop(rng, n_args + 1))
    return PrimRec(gen_expr(rng, n_args - 1, 2), gen_expr(rng, n_args + 1, 2))


def test_a_sample_of_generated_programs_with_loops_lowers_to_valid_canonical_circuits(monkeypatch):
    # Two loops side by side under a random head, whatever the loops compute
    # (a mu may diverge: it is only compiled here).
    rng = random.Random(3232)
    for _ in range(100):
        n_args = rng.randint(2, 3)
        expr = Compose(gen_expr(rng, 2, 2), (_loop(rng, n_args), _loop(rng, n_args)))
        _assert_valid_and_canonical(expr, monkeypatch)


def test_the_large_programs_have_the_size_they_stand_for():
    # About 1.1k nodes, like the benchmark's large compositions.
    circuit = compile_program(_large(1)).circuit
    assert len(circuit.neurons) + len(circuit.gadgets) > 1000


def _dead_ends(circuit) -> list[int]:
    """The nodes from which no path leads to ``y``: over synapses, of any weight, and join lines."""
    feeds = {}
    for s in circuit.synapses:
        feeds.setdefault(s.post, []).append(s.pre)
    for join in circuit.joins:
        for out in join.outputs:
            feeds.setdefault(out, []).append(join.id)
    y, = (p.neuron for p in circuit.ports if p.name == "y")
    seen, todo = {y}, [y]
    while todo:
        for pre in feeds.get(todo.pop(), ()):
            if pre not in seen:
                seen.add(pre)
                todo.append(pre)
    nodes = [n.id for n in circuit.neurons] + [g.id for g in circuit.gadgets]
    return sorted(set(nodes) - seen)


def _go_sinks(program) -> list[int]:
    """Each ``prec``'s ``go_sink``: its state join's last output, which drives nothing."""
    joins = {j.id: j for j in program.circuit.joins}
    return sorted(joins[m["state_join"]].outputs[-1] for m in program.meta["instances"] if m["kind"] == "primrec")


@pytest.mark.parametrize("name", ["pred", "diverges", *LOOPING])
def test_every_node_of_a_program_but_go_sink_leads_to_y(name):
    program = compile_program({"pred": PRED, "diverges": ALWAYS_POSITIVE, **LOOPING}[name])
    assert _dead_ends(program.circuit) == _go_sinks(program)


def test_every_node_of_a_generated_program_but_go_sink_leads_to_y():
    rng = random.Random(7331)
    exprs = [gen_expr(rng, rng.randint(1, 3), rng.randint(0, 4)) for _ in range(100)]
    for _ in range(40):
        n_args = rng.randint(2, 3)
        exprs.append(Compose(gen_expr(rng, 2, 2), (_loop(rng, n_args), _loop(rng, n_args))))
    for expr in exprs:
        program = compile_program(expr)
        assert _dead_ends(program.circuit) == _go_sinks(program), expr
