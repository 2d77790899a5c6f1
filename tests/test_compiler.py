"""Compilation of expressions to circuits, program runs, differential checks."""
from __future__ import annotations

import copy
import itertools
import json
import random

import pytest

import murec.compiler
import murec.expr
from conftest import (
    ADD,
    ALWAYS_POSITIVE,
    MONUS,
    MU_MONUS,
    MUL,
    PRED,
    assert_return_precedes_erase,
    engine_run,
)
from murec import (
    ArityError,
    CompiledProgram,
    Compose,
    ConfigError,
    Const,
    Join,
    LoweringConfig,
    Mu,
    ParseError,
    PrimRec,
    Proj,
    StrictModeViolation,
    Succ,
    UnboundPort,
    UnknownPort,
    bind_args,
    Value,
    compile_program,
    eval_oracle,
    gen_expr,
    parse_program,
    run_diff,
    run_program,
)


# ---------------------------------------------------------------------------
# flat programs: constants, successor, projection
# ---------------------------------------------------------------------------


def test_constant_program_shape_and_run():
    program = compile_program(Const(5, 1))
    circuit = program.circuit
    assert (len(circuit.neurons), len(circuit.synapses), len(circuit.gadgets)) == (3, 2, 0)
    assert program.meta["latency"] == 1
    for x in (0, 3, 20):
        run = run_program(program, [x])
        assert run.status == "ok"
        assert run.value == 5
        assert [e.time for e in run.y_spikes] == [1]


def test_successor_program_shape_and_run():
    program = compile_program(Succ())
    circuit = program.circuit
    assert (len(circuit.neurons), len(circuit.synapses), len(circuit.gadgets)) == (3, 2, 0)
    assert program.meta["latency"] == 1
    for x in (0, 41, 100):
        run = run_program(program, [x])
        assert (run.status, run.value) == ("ok", x + 1)
        assert run.y_spikes[0].time == 1


def test_projection_program_selects_and_counts_nodes():
    program = compile_program(Proj(2, 2))
    assert len(program.circuit.gadgets) == 3  # two lane emitters plus the replenisher
    assert program.meta["latency"] == 7
    run = run_program(program, [4, 9])
    assert (run.status, run.value) == ("ok", 9)
    assert run.y_spikes[0].time == 7


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_projection_programs_exhaustively(arity):
    for index in range(1, arity + 1):
        program = compile_program(Proj(index, arity))
        for values in itertools.product((0, 1, 13), repeat=arity):
            run = run_program(program, list(values))
            assert (run.status, run.value) == ("ok", values[index - 1])


def test_every_compiled_program_exposes_exactly_one_output_port():
    for expr in (Const(2, 1), Succ(), Proj(1, 2), ADD, MU_MONUS):
        program = compile_program(expr)
        outputs = program.circuit.ports_by_role("output")
        assert [p.name for p in outputs] == ["y"]


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_successor_after_constant():
    program = compile_program(Compose(Succ(), (Const(3, 1),)))
    assert program.meta["latency"] == 4  # operand 1 + head 1 + two crossings
    run = run_program(program, [9])
    assert (run.status, run.value) == ("ok", 4)
    assert run.y_spikes[0].time == 4


def test_compose_argument_swap_through_projections():
    swap_then_first = Compose(Proj(1, 2), (Proj(2, 2), Proj(1, 2)))
    program = compile_program(swap_then_first)
    assert program.meta["latency"] == 16  # 7 + 2 + 7
    run = run_program(program, [5, 8])
    assert (run.status, run.value) == ("ok", 8)
    assert run.y_spikes[0].time == 16


def test_compose_pads_the_faster_operand_lane():
    fast = Compose(Succ(), (Const(3, 1),))  # latency 4
    slow = Proj(1, 1)  # latency 7
    program = compile_program(Compose(Proj(1, 2), (fast, slow)))
    assert program.meta["latency"] == 16  # max(4, 7) + 2 + 7
    delays = sorted(s.delay for s in program.circuit.synapses if s.delay)
    assert delays == [3]  # the one padding synapse closing the 7 - 4 gap
    run = run_program(program, [9])
    assert (run.status, run.value) == ("ok", 4)
    assert run.y_spikes[0].time == 16


def test_known_latency_equals_observed_spike_time():
    cases = [
        (Const(0, 2), [7, 7]),
        (Succ(), [12]),
        (Proj(3, 3), [1, 2, 3]),
        (Compose(Succ(), (Succ(),)), [5]),
        (Compose(Proj(2, 2), (Const(1, 1), Proj(1, 1))), [6]),
    ]
    for expr, args in cases:
        program = compile_program(expr)
        latency = program.meta["latency"]
        assert latency is not None
        run = run_program(program, args)
        assert run.status == "ok"
        assert [e.time for e in run.y_spikes] == [latency]


@pytest.mark.parametrize(
    "source, closed_form",
    [
        # One operand of input-dependent latency: wired straight to the head, no join.
        ("(compose (succ) ((prec (proj 1 1) (compose (succ) ((proj 2 3))))))", lambda i, x: i + x + 1),
        # A nullary base case, started by the counter's own pulse.
        ("(prec (const 3 0) (compose (succ) ((proj 2 2))))", lambda i: 3 + i),
    ],
    ids=["compose_one_dynamic_operand", "prec_nullary_base"],
)
def test_rarer_lowerings_match_the_interpreter_and_closed_form(source, closed_form):
    expr = parse_program(source)
    program = compile_program(expr)
    n_args = closed_form.__code__.co_argcount
    for args in itertools.product(range(5), repeat=n_args):
        run = run_program(program, list(args))
        assert (run.status, run.value) == ("ok", closed_form(*args)), args
        assert eval_oracle(expr, list(args)) == Value(run.value), args


def test_nullary_programs_run_off_the_dummy_pulse():
    program = compile_program(Const(7, 0))
    assert [p.name for p in program.circuit.ports] == ["y"]
    # The program injects its own activation pulse: value 0 at time 0.
    assert sum(1 for i in program.circuit.injections if (i.value, i.time) == (0, 0)) == 1
    run = run_program(program, [])
    assert (run.status, run.value) == ("ok", 7)

    chained = compile_program(Compose(Succ(), (Const(3, 0),)))
    assert (run_program(chained, []).value) == 4


# ---------------------------------------------------------------------------
# primitive recursion
# ---------------------------------------------------------------------------


def test_addition_small_grid(compiled_add):
    for i in range(6):
        for x in range(6):
            run = run_program(compiled_add, [i, x])
            assert (run.status, run.value) == ("ok", i + x), (i, x)


def test_addition_past_a_third_of_big_m(compiled_add):
    # Each round parks x1 on a projection hold that does not select it; the
    # hold must let it go, or three rounds of 250000001 reach big_m and spike.
    run = run_program(compiled_add, [4, 250_000_001])
    assert (run.status, run.value) == ("ok", 250_000_005)


# Loop programs at big_m = 100 over grids whose arguments and value stay
# below big_m / 2, so only the loop's rounds can add up past big_m.
SMALL_M_GRIDS = {
    "add": (ADD, lambda i, x: i + x, [(i, x) for i in range(12) for x in range(50)], 10**6),
    "mul": (MUL, lambda a, b: a * b, [(a, b) for a in range(12) for b in range(50)], 10**6),
    "monus": (MONUS, lambda z, x: max(x - z, 0), [(z, x) for z in range(8) for x in range(0, 50, 4)], 10**6),
    "mu_monus": (MU_MONUS, lambda x: max(x, 1), [(x,) for x in range(1, 21)], 5 * 10**6),
}


@pytest.mark.parametrize("name", SMALL_M_GRIDS)
def test_loops_stay_right_when_their_rounds_sum_past_big_m(name):
    expr, closed_form, grid, max_steps = SMALL_M_GRIDS[name]
    program = compile_program(expr, LoweringConfig(big_m=100))
    cases = [args for args in grid if max(*args, closed_form(*args)) < 50]
    for args in cases:
        run = run_program(program, list(args), max_steps=max_steps)
        assert (run.status, run.value) == ("ok", closed_form(*args)), args


def test_addition_marker_trail(compiled_add):
    markers = compiled_add.meta["instances"][-1]
    assert markers["kind"] == "primrec"
    run = run_program(compiled_add, [3, 4])
    assert run.value == 7
    checks = [e.value for e in run.outcome.raster if e.neuron == markers["check"]]
    assert checks == [3, 2, 1, 0]  # activation check, then the countdown
    h_fires = [e for e in run.outcome.raster if e.neuron == markers["h_out"]]
    assert len(h_fires) == 3  # the step box runs exactly i times
    assert [e.value for e in h_fires] == [5, 6, 7]


def test_zero_iterations_returns_the_base_case(compiled_add):
    markers = compiled_add.meta["instances"][-1]
    run = run_program(compiled_add, [0, 9])
    assert run.value == 9
    assert [e for e in run.outcome.raster if e.neuron == markers["h_out"]] == []


def test_predecessor_ignores_its_dummy_argument(compiled_pred):
    for i in range(12):
        run = run_program(compiled_pred, [i, 0])
        assert (run.status, run.value) == ("ok", max(i - 1, 0))


def test_multiplication_uses_a_nested_recursion(compiled_mul):
    assert len(compiled_mul.meta["instances"]) == 2
    assert compiled_mul.meta["stats"]["trigger_cells"] == 4
    for i, x in [(0, 5), (1, 7), (3, 4), (5, 5)]:
        run = run_program(compiled_mul, [i, x])
        assert (run.status, run.value) == ("ok", i * x), (i, x)


def test_truncated_subtraction_by_composed_recursions(compiled_monus):
    for z, x in [(0, 0), (0, 9), (3, 10), (10, 3), (7, 7)]:
        run = run_program(compiled_monus, [z, x])
        assert (run.status, run.value) == ("ok", max(x - z, 0)), (z, x)


def test_return_never_races_the_erase(compiled_add, compiled_mul):
    for program, args in [(compiled_add, [4, 2]), (compiled_mul, [3, 3])]:
        run = run_program(program, args)
        assert run.status == "ok"
        for markers in program.meta["instances"]:
            assert_return_precedes_erase(run.outcome.raster, markers)


def test_loop_machinery_is_clean_after_the_run(compiled_add):
    engine, outcome = engine_run(compiled_add, [3, 4])
    assert outcome.status == "quiescent"
    markers = compiled_add.meta["instances"][-1]
    big_m = compiled_add.meta["big_m"]
    assert engine.inspect(markers["ret_store"]) == 0
    assert engine.inspect(markers["ret_out"]) == -big_m  # re-armed
    assert engine.inspect(markers["gate_ret"]) == 0
    assert engine.inspect(markers["gate_loop"]) == 0
    # The final round parks carrier values in the joins (a later activation
    # overwrites them); what must be missing is each join's release line.
    state_lines = engine.join_lines(markers["state_join"])
    state_join, = (g for g in compiled_add.circuit.gadgets if g.id == markers["state_join"])
    go_line = len(state_join.inputs) - 1
    assert go_line not in state_lines
    h_lines = engine.join_lines(markers["h_join"])
    assert 1 not in h_lines  # the accumulator line only fills on a continue


def _y_after(program, outcome, start: int) -> list[tuple[int, int]]:
    """The output spikes of ``outcome`` from ``start`` on, as (steps after ``start``, value)."""
    y, = (p.neuron for p in program.circuit.ports if p.name == "y")
    return [(time - start, value) for time, _, value in outcome.spikes_of(y) if time >= start]


@pytest.mark.parametrize(
    "program",
    [
        ADD,
        MUL,
        MONUS,
        MU_MONUS,
        Compose(Succ(), (MU_MONUS,)),  # (compose (succ) (MU_MONUS))
        # (prec (proj 1 1) (compose (succ) ((compose MU_MONUS ((proj 2 3)))))): a mu in a prec step
        PrimRec(Proj(1, 1), Compose(Succ(), (Compose(MU_MONUS, (Proj(2, 3),)),))),
    ],
    ids=["add", "mul", "monus", "mu_monus", "succ_of_mu_monus", "mu_monus_in_prec_step"],
)
def test_a_drained_program_runs_again_as_a_fresh_one(program):
    # A box may be re-activated once its previous activation has drained:
    # after quiescence, a second argument tuple gives the value, and the
    # offset from its injection, of a fresh run, although joins still buffer
    # lines from the first activation.  That holds for a mu under a
    # composition and inside a prec step too.
    compiled = compile_program(program)
    ports = {p.name: p.neuron for p in compiled.circuit.ports}
    joins = [g.id for g in compiled.circuit.gadgets if isinstance(g, Join)]
    grid = list(itertools.product(range(3), repeat=len(compiled.circuit.ports_by_role("input"))))
    fresh = {args: _y_after(compiled, engine_run(compiled, list(args))[1], 0) for args in grid}
    for first, second in itertools.product(grid, repeat=2):
        engine, outcome = engine_run(compiled, list(first))
        assert outcome.status == "quiescent" and any(map(engine.join_lines, joins))
        start = outcome.final_clock + 1
        for name, value in bind_args(compiled, list(second)).items():
            engine.add_injection(ports[name], value, start)
        again = engine.run()
        assert again.status == "quiescent"
        assert _y_after(compiled, again, start) == fresh[second], (first, second)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_minimization_finds_the_least_root(compiled_mu_monus):
    for x in range(8):
        run = run_program(compiled_mu_monus, [x])
        assert (run.status, run.value) == ("ok", max(x, 1)), x


def test_minimization_searches_from_one_not_zero():
    # murec's mu is the least y >= 1 with f(y, xs) = 0: a function that is
    # already 0 at y = 0 still gives 1, from the oracle and the circuit alike.
    expr = parse_program("(mu (const 0 1))")
    assert eval_oracle(expr, ()) == Value(1)
    run = run_program(compile_program(expr), [])
    assert (run.status, run.value) == ("ok", 1)


def test_minimization_probe_counts_down(compiled_mu_monus):
    markers = compiled_mu_monus.meta["instances"][-1]
    assert markers["kind"] == "mu"
    run = run_program(compiled_mu_monus, [4])
    probes = [e.value for e in run.outcome.raster if e.neuron == markers["probe"]]
    assert probes == [3, 2, 1, 0]  # monus(z, 4) for z = 1..4
    zero_hits = [e for e in run.outcome.raster if e.neuron == markers["zero_det"]]
    assert len(zero_hits) == 1
    nonzero_hits = [e for e in run.outcome.raster if e.neuron == markers["nonzero_det"]]
    assert len(nonzero_hits) == 3
    assert_return_precedes_erase(run.outcome.raster, markers)


def test_divergent_search_times_out_with_no_output():
    program = compile_program(ALWAYS_POSITIVE)
    run = run_program(program, [5], max_steps=10_000)
    assert run.status == "timeout"
    assert run.value is None
    assert run.y_spikes == []
    assert run.outcome.final_clock == 10_000


def test_minimization_instances_cover_the_nested_recursions(compiled_mu_monus):
    kinds = [m["kind"] for m in compiled_mu_monus.meta["instances"]]
    assert sorted(kinds) == ["mu", "primrec", "primrec"]
    assert compiled_mu_monus.meta["instances"][-1]["kind"] == "mu"


# ---------------------------------------------------------------------------
# the arity walk
# ---------------------------------------------------------------------------


def _nodes(expr) -> int:
    if isinstance(expr, Compose):
        return 1 + _nodes(expr.outer) + sum(_nodes(g) for g in expr.inner)
    if isinstance(expr, PrimRec):
        return 1 + _nodes(expr.base) + _nodes(expr.step)
    if isinstance(expr, Mu):
        return 1 + _nodes(expr.body)
    return 1


def _succ_chain(depth: int):
    expr = Succ()
    for _ in range(depth):
        expr = Compose(Succ(), (expr,))
    return expr


def _count_arity_calls(monkeypatch) -> dict[str, int]:
    """Count every call of ``arity`` and ``check_arity``, recursive ones included, from here on."""
    calls = {"arity": 0, "check_arity": 0}
    for name in calls:
        original = getattr(murec.expr, name)

        def counted(e, name=name, original=original):
            calls[name] += 1
            return original(e)

        monkeypatch.setattr(murec.expr, name, counted)
        monkeypatch.setattr(murec.compiler, name, counted, raising=False)
    return calls


@pytest.mark.parametrize(
    "expr",
    [ADD, MUL, PRED, MONUS, MU_MONUS, ALWAYS_POSITIVE, _succ_chain(200)],
    ids=["add", "mul", "pred", "monus", "mu_monus", "always_positive", "succ_chain_200"],
)
def test_compile_checks_arity_in_one_walk_and_never_recomputes_it(expr, monkeypatch):
    # The lowering takes each subexpression's arity from its parent; a
    # recomputation per node would make the chain's compile quadratic.
    calls = _count_arity_calls(monkeypatch)
    compile_program(expr)
    assert calls == {"arity": 0, "check_arity": _nodes(expr)}


@pytest.mark.parametrize(
    "expr, cases",
    [(ADD, [(0, 0), (1, 2), (3, 1), (2, 2)]), (MU_MONUS, [(0,), (2,), (3,)]), (Const(4, 0), [(), ()])],
    ids=["add", "mu_monus", "nullary"],
)
def test_diff_checks_arity_in_one_walk_for_all_its_cases(expr, cases, monkeypatch):
    # The interpreter takes the arity that one walk gave, not a walk per case.
    program = compile_program(expr)
    calls = _count_arity_calls(monkeypatch)
    report = run_diff(expr, program, cases)
    assert (report.ok, report.cases) == (True, len(cases))
    assert calls == {"arity": 0, "check_arity": _nodes(expr)}


# ---------------------------------------------------------------------------
# configuration and strict mode
# ---------------------------------------------------------------------------


def test_big_m_must_be_at_least_two():
    with pytest.raises(ConfigError):
        compile_program(Succ(), LoweringConfig(big_m=1))
    compile_program(Succ(), LoweringConfig(big_m=2))


@pytest.mark.parametrize("big_m", [1e9, True, "1000", None])
def test_big_m_must_be_an_exact_integer(big_m):
    # The same rule CompiledProgram.from_document applies to meta.big_m, so
    # compile never writes a file that run refuses.
    with pytest.raises(ConfigError) as err:
        compile_program(Succ(), LoweringConfig(big_m=big_m))
    assert str(err.value) == f"big_m must be an integer, got {big_m!r}"


def test_strict_mode_accepts_pure_chains():
    cfg = LoweringConfig(strict_primitive=True)
    program = compile_program(Compose(Succ(), (Compose(Succ(), (Const(0, 1),)),)), cfg)
    assert run_program(program, [9]).value == 2


@pytest.mark.parametrize("expr", [ADD, MU_MONUS, Proj(1, 2), Compose(Succ(), (Proj(1, 1),))])
def test_strict_mode_rejects_loops_and_projections(expr):
    with pytest.raises(StrictModeViolation):
        compile_program(expr, LoweringConfig(strict_primitive=True))


def _needs_native_gadgets(expr):
    """Whether ``expr`` holds a projection (lane emitters) or a loop."""
    if isinstance(expr, (Proj, PrimRec, Mu)):
        return True
    if isinstance(expr, Compose):
        return any(_needs_native_gadgets(e) for e in (expr.outer, *expr.inner))
    return False


def _chain(rng, n_args, depth):
    """A random const/succ/compose chain of the given arity, now and then with a projection leaf."""
    if depth <= 0 or rng.random() < 0.3:
        if n_args >= 1 and rng.random() < 0.1:
            return Proj(rng.randint(1, n_args), n_args)
        return Const(rng.randint(0, 9), n_args)
    if rng.random() < 0.5:
        return Compose(Succ(), (_chain(rng, n_args, depth - 1),))
    operands = rng.randint(1, 3)
    inner = tuple(_chain(rng, n_args, depth - 1) for _ in range(operands))
    return Compose(Const(rng.randint(0, 9), operands), inner)


def test_strict_mode_rejects_exactly_the_programs_with_projections_or_loops():
    rng = random.Random(20211)
    programs = [ADD, MUL, PRED, MONUS, MU_MONUS, ALWAYS_POSITIVE]
    programs += [gen_expr(rng, rng.randint(1, 3), rng.randint(0, 3)) for _ in range(300)]
    programs += [_chain(rng, rng.randint(0, 3), rng.randint(0, 4)) for _ in range(200)]
    cfg = LoweringConfig(strict_primitive=True)
    verdicts = {True: 0, False: 0}
    for expr in programs:
        expected = _needs_native_gadgets(expr)
        try:
            compile_program(expr, cfg)
            rejected = False
        except StrictModeViolation:
            rejected = True
        assert rejected == expected, expr
        verdicts[rejected] += 1
    assert min(verdicts.values()) >= 100  # both sides of the rule are exercised


def test_meta_records_latency_and_trigger_cells(compiled_add):
    meta = compiled_add.meta
    inputs = sorted(compiled_add.circuit.ports_by_role("input"), key=lambda p: p.neuron)
    assert [p.name for p in inputs] == ["i", "x1"]
    assert meta["latency"] is None  # loops finish at input-dependent times
    assert meta["stats"] == {"trigger_cells": 2}


# ---------------------------------------------------------------------------
# argument binding
# ---------------------------------------------------------------------------


def test_bind_args_positional_and_named(compiled_add):
    assert bind_args(compiled_add, [2, 3]) == {"i": 2, "x1": 3}
    assert bind_args(compiled_add, {"i": 2, "x1": 3}) == {"i": 2, "x1": 3}
    assert run_program(compiled_add, {"i": 2, "x1": 3}).value == 5


def test_bind_args_rejects_bad_shapes(compiled_add):
    with pytest.raises(ArityError):
        bind_args(compiled_add, [1])
    with pytest.raises(UnknownPort):
        bind_args(compiled_add, {"i": 1, "x1": 2, "x9": 3})
    with pytest.raises(UnboundPort):
        bind_args(compiled_add, {"i": 1})


def test_run_program_validates_argument_values(compiled_add):
    with pytest.raises(ConfigError):
        run_program(compiled_add, [-1, 2])
    with pytest.raises(ConfigError):
        run_program(compiled_add, [1, True])
    doc = compiled_add.to_document()
    doc["meta"]["big_m"] = 4  # a run-time big_m, as a hand-edited file would set it
    with pytest.raises(ConfigError):
        run_program(CompiledProgram.from_document(doc), [1, 2])  # 2*2 >= 4


def test_run_program_needs_exactly_one_y_spike(compiled_add):
    # Hand-edited ADD files: y loses its one driver, or gains a second one
    # (the i input, which spikes at once).
    doc = compiled_add.to_document()
    ports = {name: neuron for name, neuron, _ in doc["circuit"]["ports"]}
    synapses = doc["circuit"]["synapses"]
    undriven = copy.deepcopy(doc)
    undriven["circuit"]["synapses"] = [s for s in synapses if s[1] != ports["y"]]
    twice = copy.deepcopy(doc)
    twice["circuit"]["synapses"].append([ports["i"], ports["y"], 1, 0])  # pre, post, weight, delay
    runs = [run_program(CompiledProgram.from_document(d), [2, 3]) for d in (undriven, twice)]
    assert [(r.status, r.value, r.outcome.status) for r in runs] == [
        ("no_output", None, "quiescent"), ("multi_output", None, "quiescent"),
    ]
    assert runs[0].y_spikes == []
    assert [e.value for e in runs[1].y_spikes] == [2, 5]


def test_nullary_programs_bind_no_ports():
    program = compile_program(Const(7, 0))
    assert bind_args(program, []) == {}
    with pytest.raises(ArityError):
        bind_args(program, [1])


# ---------------------------------------------------------------------------
# document round-trip
# ---------------------------------------------------------------------------


def test_compiled_program_roundtrip(compiled_add):
    text = compiled_add.serialize()
    again = CompiledProgram.deserialize(text)
    assert again.circuit == compiled_add.circuit
    assert again.meta == compiled_add.meta
    assert run_program(again, [2, 3]).value == 5


def test_a_file_with_the_older_meta_keys_still_runs(compiled_add):
    # Compiled files once also carried meta.arity, meta.markers (the
    # top-level loop's marker ids) and meta.conventions; loading ignores them.
    doc = compiled_add.to_document()
    old = copy.deepcopy(doc)
    old["meta"]["arity"] = 2
    old["meta"]["markers"] = dict(old["meta"]["instances"][-1])
    old["meta"]["conventions"] = {
        "relay": "threshold 0, leak 0, unit-weight synapses for plain value routing",
        "zero_test": "threshold 0 fed by weight -1: spikes iff the tested natural is 0",
        "nonzero_test": "threshold 1 fed by weight +1: spikes iff the tested natural is >= 1",
    }
    runs = [
        run_program(CompiledProgram.deserialize(json.dumps(d)), [3, 4])
        for d in (doc, old)
    ]
    assert [(r.status, r.value) for r in runs] == [("ok", 7)] * 2
    assert runs[0].outcome.final_clock == runs[1].outcome.final_clock
    assert runs[0].outcome.raster == runs[1].outcome.raster


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.pop("meta"),
        lambda doc: doc["meta"].pop("big_m"),
        lambda doc: doc["meta"].update(big_m="lots"),
        lambda doc: doc.update(circuit=5),
        lambda doc: doc["circuit"].update(neurons=5),
    ],
)
def test_compiled_program_rejects_malformed_documents(mutate, compiled_add):
    doc = compiled_add.to_document()
    mutate(doc)
    with pytest.raises(ParseError):
        CompiledProgram.from_document(doc)


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"metta": {}}, "unknown top-level key 'metta'"),  # misspelled: not ignored
        ({"metta": {}, "circuits": []}, "unknown top-level keys 'circuits', 'metta'"),
    ],
)
def test_compiled_program_refuses_an_unknown_top_level_key(extra, message, compiled_add):
    doc = {**compiled_add.to_document(), **extra}
    with pytest.raises(ParseError) as err:
        CompiledProgram.from_document(doc)
    assert str(err.value) == message


def test_compiled_program_ignores_an_unknown_meta_key(compiled_add):
    doc = compiled_add.to_document()
    doc["meta"]["note"] = {"written by": "hand"}
    assert run_program(CompiledProgram.from_document(doc), [2, 3]).value == 5


# ---------------------------------------------------------------------------
# differential runs
# ---------------------------------------------------------------------------


def test_diff_agrees_on_addition(compiled_add):
    cases = [(i, x) for i in range(5) for x in range(5)]
    report = run_diff(ADD, compiled_add, cases)
    assert report.ok
    assert report.cases == 25
    assert report.timeouts == 0


def test_diff_flags_a_wrong_circuit():
    plus_two = compile_program(Compose(Succ(), (Succ(),)))
    report = run_diff(Succ(), plus_two, [(3,), (10,)])
    assert not report.ok
    assert len(report.mismatches) == 2
    first = report.mismatches[0]
    assert first["expr"] == "(succ)"
    assert first["args"] == [3]
    assert first["oracle"] == 4
    assert first["circuit"] == 5


@pytest.mark.parametrize(
    "case, error, message",
    [((1,), ArityError, "expected 2 arguments, got 1"), ((1, -1), ValueError, "arguments must be naturals")],
    ids=["wrong_length", "negative"],
)
def test_diff_refuses_a_bad_case_as_the_interpreter_does(compiled_add, case, error, message):
    with pytest.raises(error) as oracle_err:
        eval_oracle(ADD, list(case))
    with pytest.raises(error) as diff_err:
        run_diff(ADD, compiled_add, [(0, 0), case])
    assert str(diff_err.value) == str(oracle_err.value) == message


def test_diff_treats_fuel_exhaustion_and_timeout_as_agreement():
    program = compile_program(ALWAYS_POSITIVE)
    report = run_diff(ALWAYS_POSITIVE, program, [(2,)], fuel=500, max_steps=2_000)
    assert report.ok
    assert report.timeouts == 1
