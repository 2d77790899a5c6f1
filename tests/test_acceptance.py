"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Each criterion prints ``[criterion N] <name>: PASS|FAIL (<elapsed>)`` with
output capture suspended, so the verdicts are visible in any pytest run.
Criteria with a stated runtime budget also assert it.
"""
from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager

import pytest

from conftest import (
    ADD,
    ALWAYS_POSITIVE,
    MONUS,
    MU_MONUS,
    MUL,
    PRED,
    CELL_GAMMA,
    assert_return_precedes_erase,
    cell_injections,
)
from murec import (
    INFINITE,
    CircuitBuilder,
    Const,
    Engine,
    Proj,
    SimConfig,
    SpikeEvent,
    Succ,
    Value,
    build_projection,
    build_trigger_cell,
    compile_program,
    eval_oracle,
    gen_expr,
    raster_csv,
    run_diff,
    run_program,
    simulate,
)


@contextmanager
def criterion(number: int, name: str, capsys, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(capsys, number, name, "FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        _announce(capsys, number, name, "FAIL", elapsed)
        raise AssertionError(f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s")
    _announce(capsys, number, name, "PASS", elapsed)


def _announce(capsys, number: int, name: str, verdict: str, elapsed: float) -> None:
    with capsys.disabled():
        sys.stdout.write(f"[criterion {number}] {name}: {verdict} ({elapsed:.2f}s)\n")
        sys.stdout.flush()


def _wire(weight=1, delay=0):
    b = CircuitBuilder()
    src = b.add_neuron(0)
    dst = b.add_neuron(0)
    b.add_synapse(src, dst, weight, delay)
    b.mark_port(dst, "output", "y")
    return b, src, dst


def test_criterion_1_engine_semantics(capsys):
    with criterion(1, "delivery, integration, leak, determinism", capsys, budget=1.0):
        # transit: a spike crosses a synapse in delay + 1 steps
        for delay in (0, 1, 3, 10):
            b, src, dst = _wire(delay=delay)
            b.add_injection(src, 5, 0)
            outcome = simulate(b.build())
            assert outcome.raster == [SpikeEvent(0, src, 5), SpikeEvent(delay + 1, dst, 5)]

        # event-driven: wired threshold-0 neurons stay silent with no plan
        b = CircuitBuilder()
        idle = [b.add_neuron(0) for _ in range(4)]
        for pre, post in zip(idle, idle[1:]):
            b.add_synapse(pre, post, 1, 0)
        outcome = simulate(b.build(), config=SimConfig(max_steps=10_000))
        assert outcome.status == "quiescent"
        assert outcome.raster == [] and outcome.final_clock == 0

        # reset: a spike clears the integrated state
        b = CircuitBuilder()
        n = b.add_neuron(4, leak=INFINITE)
        for value, at in [(9, 0), (3, 5), (1, 8)]:
            b.add_injection(n, value, at)
        hits = [e for e in simulate(b.build()).raster if e.neuron == n]
        assert hits == [SpikeEvent(0, n, 9), SpikeEvent(8, n, 4)]

        # leak extremes: zero-leak state dies immediately, infinite holds
        b = CircuitBuilder()
        fast = b.add_neuron(100, leak=0)
        hold = b.add_neuron(100, leak=INFINITE)
        b.add_injection(fast, 7, 0)
        b.add_injection(hold, 7, 0)
        engine = Engine(b.build())
        engine.run()
        assert engine.inspect(fast, at=0) == 7 and engine.inspect(fast, at=1) == 0
        assert engine.inspect(hold, at=10**6) == 7

        # determinism: repeated runs and reordered synapse insertion agree
        def build(flipped):
            b = CircuitBuilder()
            nodes = [b.add_neuron(i % 3) for i in range(5)]
            edges = [(0, 2, 2, 0), (1, 2, 1, 1), (2, 3, 1, 0), (3, 4, -1, 2), (0, 4, 1, 0)]
            for pre, post, w, d in reversed(edges) if flipped else edges:
                b.add_synapse(nodes[pre], nodes[post], w, d)
            b.mark_port(nodes[4], "output", "y")
            for i in range(2):
                b.add_injection(nodes[i], i + 2, i)
            return b.build()

        texts = {
            raster_csv(c, simulate(c))
            for c in (build(False), build(False), build(True))
        }
        assert len(texts) == 1


def test_criterion_2_constant_and_successor(capsys):
    with criterion(2, "constant and successor programs", capsys, budget=1.0):
        for k in (0, 1, 5, 100):
            program = compile_program(Const(k, 1))
            latency = program.meta["latency"]
            for x in range(21):
                run = run_program(program, [x])
                assert run.status == "ok" and run.value == k
                assert [e.time for e in run.y_spikes] == [latency]
        program = compile_program(Succ())
        latency = program.meta["latency"]
        for x in range(101):
            run = run_program(program, [x])
            assert run.status == "ok" and run.value == x + 1
            assert [e.time for e in run.y_spikes] == [latency]


def test_criterion_3_projection_lanes(capsys):
    with criterion(3, "projection lane selection", capsys, budget=10.0):
        rng = random.Random(3)
        for arity in range(1, 7):
            for index in range(1, arity + 1):
                program = compile_program(Proj(index, arity))
                latency = program.meta["latency"]
                for _ in range(50):
                    values = [rng.randint(0, 100) for _ in range(arity)]
                    run = run_program(program, values)
                    assert run.status == "ok"
                    assert run.value == values[index - 1]
                    assert [e.time for e in run.y_spikes] == [latency]
                    # lane coincidence neurons (ids 2N+m) spike iff m <= index
                    fired = {e.neuron for e in run.outcome.raster}
                    for m in range(1, arity + 1):
                        assert ((2 * arity + m) in fired) == (m <= index)


def test_criterion_4_trigger_cell_protocol(capsys):
    with criterion(4, "trigger cell store/erase/trigger", capsys, budget=1.0):
        big_m = 10**9

        def run_cell(ops):
            b = CircuitBuilder()
            cell = build_trigger_cell(b, big_m)
            outcome = simulate(b.build(), extra_injections=tuple(cell_injections(cell, ops)))
            return cell, [(e.time, e.value) for e in outcome.raster if e.neuron == cell.out]

        _, hits = run_cell([("store", 0, 7), ("trigger", 5, big_m)])
        assert hits == [(6, 7)]

        _, hits = run_cell([("store", 0, 7), ("erase", 2, 7), ("trigger", 5, big_m)])
        assert hits == [(6, 0)]

        cell, hits = run_cell(
            [
                ("store", 0, 7),
                ("trigger", 5, big_m),
                ("store", 10, 9),
                ("trigger", 13, big_m),
                ("store", 20, 4),
                ("trigger", 23, big_m),
            ]
        )
        assert hits == [(6, 7), (14, 9), (24, 4)]
        assert all(t2 - t1 >= CELL_GAMMA for t1, t2 in zip([5, 13], [10, 20]))

        b = CircuitBuilder()
        cell = build_trigger_cell(b, big_m)
        with pytest.raises(ValueError):
            cell_injections(cell, [("store", 3, 7), ("trigger", 3, big_m)])


def test_criterion_5_random_programs_match_the_interpreter(capsys):
    with criterion(5, "random flat programs vs interpreter", capsys, budget=60.0):
        rng = random.Random(20260814)
        total = 0
        for _ in range(1000):
            n_args = rng.randint(1, 3)
            expr = gen_expr(rng, n_args, depth=3)
            program = compile_program(expr)
            cases = [
                tuple(rng.randint(0, 50) for _ in range(n_args)) for _ in range(5)
            ]
            report = run_diff(expr, program, cases)
            assert report.ok, report.mismatches[:3]
            assert report.timeouts == 0
            total += report.cases
        assert total == 5000


def test_criterion_6_recursion_loops(capsys):
    with criterion(6, "recursion loops vs interpreter", capsys, budget=120.0):
        add = compile_program(ADD)
        add_markers = add.meta["instances"][-1]
        for i in range(11):
            for x in range(11):
                run = run_program(add, [i, x])
                assert (run.status, run.value) == ("ok", i + x), (i, x)
                rounds = [e for e in run.outcome.raster if e.neuron == add_markers["h_out"]]
                assert len(rounds) == i  # the step box runs exactly i times
                for markers in add.meta["instances"]:
                    assert_return_precedes_erase(run.outcome.raster, markers, require_fire=False)

        mul = compile_program(MUL)
        mul_markers = mul.meta["instances"][-1]
        for i in range(9):
            for x in range(9):
                run = run_program(mul, [i, x])
                assert (run.status, run.value) == ("ok", i * x), (i, x)
                rounds = [e for e in run.outcome.raster if e.neuron == mul_markers["h_out"]]
                assert len(rounds) == i
                for markers in mul.meta["instances"]:
                    assert_return_precedes_erase(run.outcome.raster, markers, require_fire=False)

        pred = compile_program(PRED)
        pred_markers = pred.meta["instances"][-1]
        for i in range(21):
            run = run_program(pred, [i, 0])
            assert (run.status, run.value) == ("ok", max(i - 1, 0)), i
            rounds = [e for e in run.outcome.raster if e.neuron == pred_markers["h_out"]]
            assert len(rounds) == i
            for markers in pred.meta["instances"]:
                assert_return_precedes_erase(run.outcome.raster, markers, require_fire=False)


def test_criterion_7_minimization(capsys):
    with criterion(7, "minimization: least roots and divergence", capsys, budget=60.0):
        program = compile_program(MU_MONUS)
        for x in range(13):
            run = run_program(program, [x])
            oracle = eval_oracle(MU_MONUS, [x])
            assert isinstance(oracle, Value)
            assert (run.status, run.value) == ("ok", oracle.value), x
            for markers in program.meta["instances"]:
                assert_return_precedes_erase(run.outcome.raster, markers, require_fire=False)

        diverging = compile_program(ALWAYS_POSITIVE)
        run = run_program(diverging, [3], max_steps=10_000)
        assert run.status == "timeout"
        assert run.outcome.final_clock == 10_000
        assert run.y_spikes == []


def test_criterion_8_differential_suite(capsys):
    with criterion(8, "differential suite over the program family", capsys):
        suites = [
            (ADD, [(i, x) for i in range(7) for x in range(7)]),
            (MUL, [(i, x) for i in range(6) for x in range(6)]),
            (PRED, [(i, 0) for i in range(11)]),
            (MONUS, [(z, x) for z in range(7) for x in range(7)]),
            (MU_MONUS, [(x,) for x in range(9)]),
        ]
        for expr, cases in suites:
            report = run_diff(expr, compile_program(expr), cases)
            assert report.ok, report.mismatches[:3]


def test_criterion_9_magnitude_guard(capsys):
    with criterion(9, "magnitude guard on the separation bound", capsys):
        # generous bound: values near 100 pass through untouched
        b = CircuitBuilder()
        box = build_projection(b, 1, 2, 10**9, at=0)
        for node, value in zip(box.inputs, (100, 100)):
            b.add_injection(node, value, 0)
        outcome = simulate(b.build(), config=SimConfig(big_m=10**9))
        assert outcome.status == "quiescent"
        assert [e.value for e in outcome.raster if e.neuron == box.output] == [100]

        # tight bound: the same inputs trip the guard at twice big_m
        b = CircuitBuilder()
        box = build_projection(b, 1, 2, 8, at=0)
        for node, value in zip(box.inputs, (100, 100)):
            b.add_injection(node, value, 0)
        outcome = simulate(b.build(), config=SimConfig(big_m=8))
        assert outcome.status == "fault"
        assert outcome.fault.kind == "magnitude_breach"

        # a healthy program at the default bound never faults
        run = run_program(compile_program(ADD), [10, 7])
        assert (run.status, run.value) == ("ok", 17)
