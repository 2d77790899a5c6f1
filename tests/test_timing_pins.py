"""Timing pins: when each compiled program's output spikes, case by case.

Every row gives a case's status, value, final clock and ``y`` spike times, as
the lowering produced them before its pass-through nodes (the ``prec`` seed
emitter, the ``prec`` sink relay and the static boxes' auxiliary neurons)
were deleted.  A lowering change that keeps these rows moves no clock; the
golden digests, which also pin node ids and spike counts, do not say that.
"""
from __future__ import annotations

import itertools

import pytest

from conftest import ADD_REC, ALWAYS_POSITIVE, MONUS_REC, MU_MONUS_REC, MUL, MUL_REC, PRED_REC
from murec import CompiledProgram, compile_program, parse_program, run_program


def _nest() -> str:
    """A ``compile_large``-shaped nest: six loop heads composed over ``(proj 1 2)``."""
    source = "(proj 1 2)"
    for head in (MUL_REC, MUL_REC, MONUS_REC, MUL_REC, ADD_REC, MUL_REC):
        source = f"(compose {head} ({source} (proj 2 2)))"
    return source


# name: (source, argument axes, max_steps or None,
#        {case: (status, value, final clock, y spike times)})
PINS = {
    "add": (ADD_REC, [range(4), range(4)], None, {
        (0, 0): ("ok", 0, 21, [20]),
        (0, 1): ("ok", 1, 21, [20]),
        (0, 2): ("ok", 2, 21, [20]),
        (0, 3): ("ok", 3, 21, [20]),
        (1, 0): ("ok", 1, 46, [45]),
        (1, 1): ("ok", 2, 46, [45]),
        (1, 2): ("ok", 3, 46, [45]),
        (1, 3): ("ok", 4, 46, [45]),
        (2, 0): ("ok", 2, 71, [70]),
        (2, 1): ("ok", 3, 71, [70]),
        (2, 2): ("ok", 4, 71, [70]),
        (2, 3): ("ok", 5, 71, [70]),
        (3, 0): ("ok", 3, 96, [95]),
        (3, 1): ("ok", 4, 96, [95]),
        (3, 2): ("ok", 5, 96, [95]),
        (3, 3): ("ok", 6, 96, [95]),
    }),
    "mul": (MUL_REC, [range(4), range(3)], None, {
        (0, 0): ("ok", 0, 14, [13]),
        (0, 1): ("ok", 0, 14, [13]),
        (0, 2): ("ok", 0, 14, [13]),
        (1, 0): ("ok", 0, 56, [55]),
        (1, 1): ("ok", 1, 56, [55]),
        (1, 2): ("ok", 2, 56, [55]),
        (2, 0): ("ok", 0, 98, [97]),
        (2, 1): ("ok", 2, 123, [122]),
        (2, 2): ("ok", 4, 148, [147]),
        (3, 0): ("ok", 0, 140, [139]),
        (3, 1): ("ok", 3, 215, [214]),
        (3, 2): ("ok", 6, 290, [289]),
    }),
    "pred": (PRED_REC, [range(4), range(2)], None, {
        (0, 0): ("ok", 0, 14, [13]),
        (0, 1): ("ok", 0, 14, [13]),
        (1, 0): ("ok", 0, 34, [33]),
        (1, 1): ("ok", 0, 34, [33]),
        (2, 0): ("ok", 1, 54, [53]),
        (2, 1): ("ok", 1, 54, [53]),
        (3, 0): ("ok", 2, 74, [73]),
        (3, 1): ("ok", 2, 74, [73]),
    }),
    "monus": (MONUS_REC, [range(4), range(4)], None, {
        (0, 0): ("ok", 0, 21, [20]),
        (0, 1): ("ok", 1, 21, [20]),
        (0, 2): ("ok", 2, 21, [20]),
        (0, 3): ("ok", 3, 21, [20]),
        (1, 0): ("ok", 0, 56, [55]),
        (1, 1): ("ok", 0, 76, [75]),
        (1, 2): ("ok", 1, 96, [95]),
        (1, 3): ("ok", 2, 116, [115]),
        (2, 0): ("ok", 0, 91, [90]),
        (2, 1): ("ok", 0, 111, [110]),
        (2, 2): ("ok", 0, 151, [150]),
        (2, 3): ("ok", 1, 191, [190]),
        (3, 0): ("ok", 0, 126, [125]),
        (3, 1): ("ok", 0, 146, [145]),
        (3, 2): ("ok", 0, 186, [185]),
        (3, 3): ("ok", 0, 246, [245]),
    }),
    "mu_monus": (MU_MONUS_REC, [range(5)], None, {
        (0,): ("ok", 1, 67, [66]),
        (1,): ("ok", 1, 87, [86]),
        (2,): ("ok", 2, 269, [268]),
        (3,): ("ok", 3, 586, [585]),
        (4,): ("ok", 4, 1078, [1077]),
    }),
    "always_positive": (None, [range(3)], 300, {
        (0,): ("timeout", None, 300, []),
        (1,): ("timeout", None, 300, []),
        (2,): ("timeout", None, 300, []),
    }),
    "nest": (_nest(), [[0], [0]], None, {
        (0, 0): ("ok", 0, 117, [116]),
    }),
    # Static compositions: every box below a known arrival time is static.
    "chain": ("(compose (succ) ((succ)))", [range(4)], None, {
        (0,): ("ok", 2, 4, [4]),
        (1,): ("ok", 3, 4, [4]),
        (2,): ("ok", 4, 4, [4]),
        (3,): ("ok", 5, 4, [4]),
    }),
    "const_head": ("(compose (const 4 2) ((proj 1 2) (compose (succ) ((proj 2 2)))))", [range(2), range(2)], None, {
        (0, 0): ("ok", 4, 13, [13]),
        (0, 1): ("ok", 4, 13, [13]),
        (1, 0): ("ok", 4, 13, [13]),
        (1, 1): ("ok", 4, 13, [13]),
    }),
    "succ_of_const": ("(compose (succ) ((const 3 1)))", [range(3)], None, {
        (0,): ("ok", 4, 4, [4]),
        (1,): ("ok", 4, 4, [4]),
        (2,): ("ok", 4, 4, [4]),
    }),
    "nullary": ("(compose (succ) ((const 0 0)))", [], None, {
        (): ("ok", 1, 4, [4]),
    }),
    # Static boxes whose results feed a loop.
    "static_into_add": (f"(compose {ADD_REC} ((succ) (const 2 1)))", [range(4)], None, {
        (0,): ("ok", 3, 49, [48]),
        (1,): ("ok", 4, 74, [73]),
        (2,): ("ok", 5, 99, [98]),
        (3,): ("ok", 6, 124, [123]),
    }),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_each_case_spikes_y_at_its_pinned_time(name):
    source, axes, max_steps, rows = PINS[name]
    program = compile_program(ALWAYS_POSITIVE if source is None else parse_program(source))
    limits = {} if max_steps is None else {"max_steps": max_steps}
    got = {}
    for case in itertools.product(*axes):
        run = run_program(program, list(case), **limits)
        got[case] = (run.status, run.value, run.outcome.final_clock, [e.time for e in run.y_spikes])
    assert got == rows


def test_a_loop_faults_at_its_pinned_time_and_value():
    # A run-time big_m just above half the compiled one: MUL(4, 3)'s trigger
    # cell breaches 2 * big_m at the same step, with the same value.
    doc = compile_program(MUL).to_document()
    doc["meta"]["big_m"] = 500_000_001
    run = run_program(CompiledProgram.from_document(doc), [4, 3])
    fault = run.outcome.fault
    assert (run.status, run.outcome.final_clock, run.y_spikes) == ("fault", 24, [])
    assert (fault.kind, fault.time, fault.value) == ("magnitude_breach", 24, 1_000_000_003)
