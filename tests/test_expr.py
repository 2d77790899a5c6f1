"""Expression trees: parsing, arity checking, the fueled oracle."""
from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADD, ADD_REC, ALWAYS_POSITIVE, MONUS, MU_MONUS, MUL, PRED, compose_chain
from murec import (
    MAX_DEPTH,
    ArityError,
    CompiledProgram,
    Compose,
    Const,
    FuelExhausted,
    Mu,
    ParseError,
    PrimRec,
    Proj,
    Succ,
    Value,
    arity,
    check_arity,
    compile_program,
    eval_oracle,
    gen_expr,
    parse_program,
    run_diff,
    run_program,
    to_sexpr,
)
from murec.expr import _TOKEN, _tokens

_INT_DIGITS_MESSAGE = (
    f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer string conversion: "
    "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_each_form():
    assert parse_program("(const 4 2)") == Const(4, 2)
    assert parse_program("(succ)") == Succ()
    assert parse_program("(proj 2 3)") == Proj(2, 3)
    assert parse_program("(compose (succ) ((proj 1 2)))") == Compose(Succ(), (Proj(1, 2),))
    assert parse_program("(prec (const 0 1) (proj 1 3))") == PrimRec(Const(0, 1), Proj(1, 3))
    assert parse_program("(mu (proj 1 2))") == Mu(Proj(1, 2))


def test_parse_handles_comments_and_whitespace():
    text = """
    ; addition by recursion on the first argument
    (prec (proj 1 1)            ; base: identity
          (compose (succ)       ; step: bump the accumulator
                   ((proj 2 3))))
    """
    assert parse_program(text) == ADD


def test_parse_compose_takes_a_parenthesized_operand_list():
    got = parse_program("(compose (proj 2 2) ((const 1 1) (succ)))")
    assert got == Compose(Proj(2, 2), (Const(1, 1), Succ()))


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_program("(const 1\n   oops)")
    assert err.value.line == 2
    assert err.value.column == 4


@pytest.mark.parametrize(
    "text",
    [
        "",
        "(",
        ")",
        "(const 1 1) extra",
        "(frobnicate 1)",
        "(const -1 1)",
        "(const x 1)",
        "(succ 1)",
        "(compose (succ))",
        "(compose (succ) (proj 1 1))",  # operand list must be parenthesized
        "(mu)",
    ],
)
def test_parse_rejects_malformed_programs(text):
    with pytest.raises(ParseError):
        parse_program(text)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("", "unexpected end of input", None, None),
        ("(", "unexpected end of input", 1, 1),
        (")", "expected '(', got ')'", 1, 1),
        ("(const 1 1) extra", "trailing input after program", 1, 13),
        ("(frobnicate 1)", "unknown form 'frobnicate'", 1, 2),
        ("(const -1 1)", "expected a natural number, got '-1'", 1, 8),
        ("(const x 1)", "expected a natural number, got 'x'", 1, 8),
        ("(succ 1)", "expected ')', got '1'", 1, 7),
        ("(compose (succ))", "expected '(', got ')'", 1, 16),
        ("(compose (succ) (proj 1 1))", "expected '(', got 'proj'", 1, 18),
        ("(mu)", "expected '(', got ')'", 1, 4),
        # Only "\n" starts a line; other line breaks are whitespace in a column.
        ("(const 1 1\u2028 2)", "expected ')', got '2'", 1, 13),
        ("(const 1 1)\t\x85(", "trailing input after program", 1, 14),
        (";c\n", "unexpected end of input", None, None),
        # Past the last token the error points at that token.
        ("(prec (succ)\n  ; step\n  (proj 1 3)", "unexpected end of input", 3, 12),
        ("(const \u00b2 1)", "expected a natural number, got '\u00b2'", 1, 8),
        # A comment runs to the end of its line, parentheses and all.
        ("(succ ; a ) in a comment\n 1)", "expected ')', got '1'", 2, 2),
        # A ";" touching an atom ends it and starts a comment.
        ("(const 1 2;)\n x", "expected ')', got 'x'", 2, 2),
        ("(const 1 x;y\n)", "expected a natural number, got 'x'", 1, 10),
        # Every character str.isspace accepts separates atoms.
        ("(const\x1c1\u20032 3)", "expected ')', got '3'", 1, 12),
        ("(const " + "1" * 5000 + " 0)", "number too long: " + _INT_DIGITS_MESSAGE, 1, 8),
        # The first form nested past MAX_DEPTH is refused, at its "("; an
        # operand list is not a form.
        ("(compose " * 3000, "program nested too deeply", 1, 9 * MAX_DEPTH + 1),
        # Here the refused form is the head of the MAX_DEPTH-th composition.
        ("(compose (succ) (" * 3000, "program nested too deeply", 1, 17 * (MAX_DEPTH - 1) + 10),
        ("(mu " * 3000, "program nested too deeply", 1, 4 * MAX_DEPTH + 1),
        ("(mu " * MAX_DEPTH + "x", "expected '(', got 'x'", 1, 4 * MAX_DEPTH + 1),
    ],
)
def test_parse_error_message_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    where = "" if line is None else f" (line {line}, column {column})"
    assert (str(err.value), err.value.line, err.value.column) == (message + where, line, column)


def test_a_number_too_long_chains_the_conversion_error():
    with pytest.raises(ParseError) as err:
        parse_program("(const " + "1" * 5000 + " 0)")
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value.__cause__) == _INT_DIGITS_MESSAGE


# Pieces of program text: every token kind, comments, and separators of each sort.
_TEXT_PIECES = [
    "(", ")", "const", "proj", "compose", "12", "x", "\u00b2", "-1", ";", "; a ) comment", ";(",
    " ", "\n", "\t", "\r\n", "\x1c", "\x85", "\u2003", "\u2028", "\u3000", "\x0b",
]


def test_the_token_list_is_what_the_token_pattern_finds():
    rng = random.Random(33)
    for _ in range(3000):
        text = "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randint(0, 30)))
        assert _tokens(text) == [t for t in _TOKEN.findall(text) if t[0] != ";"], repr(text)


# ---------------------------------------------------------------------------
# nesting limit
# ---------------------------------------------------------------------------


def _prec_nest(depth):
    """``depth`` forms: recursions nested in base and step by turns, so the arity stays 1 or 2."""
    text = "(proj 1 1)"
    for level in range(depth - 1):
        text = f"(prec {text} (proj 1 3))" if level % 2 == 0 else f"(prec (const 0 0) {text})"
    return text


def _mu_nest(depth):
    """``depth`` forms: minimizations down to a constant, nullary at the top; it diverges."""
    return "(mu " * (depth - 1) + f"(const 0 {depth - 1})" + ")" * (depth - 1)


_NESTS = [compose_chain, _prec_nest, _mu_nest]


def _frames_down(frames, f, *args):
    """``f(*args)``, called with ``frames`` more frames on the stack."""
    return f(*args) if frames == 0 else _frames_down(frames - 1, f, *args)


def _nesting_error(text):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    return str(err.value), err.value.line, err.value.column


@pytest.mark.parametrize("nest", _NESTS, ids=lambda f: f.__name__.lstrip("_"))
def test_the_nesting_limit_is_the_same_from_any_stack(nest):
    refused = _nesting_error(nest(MAX_DEPTH + 1))
    assert refused[0].startswith("program nested too deeply")
    assert _frames_down(300, _nesting_error, nest(MAX_DEPTH + 1)) == refused


def _every_walk(text):
    """Run every recursive walk over the parsed ``text`` at zero arguments, with small budgets."""
    expr = parse_program(text)
    n_args = check_arity(expr)
    zeros = [0] * n_args
    program = CompiledProgram.deserialize(compile_program(expr).serialize())
    run = run_program(program, zeros, max_steps=2000)
    report = run_diff(expr, program, [tuple(zeros)], fuel=1000, max_steps=2000)
    oracle = eval_oracle(expr, zeros, fuel=1000)
    again = parse_program(to_sexpr(expr))
    assert again == expr and again is not expr and hash(again) == hash(expr)
    assert repr(again) == repr(expr)
    return run.status, report.ok, oracle


@pytest.mark.parametrize(
    "nest, outcome",
    [
        (compose_chain, ("ok", True, Value(MAX_DEPTH - 1))),
        (_prec_nest, ("ok", True, Value(0))),
        (_mu_nest, ("timeout", True, FuelExhausted())),
    ],
    ids=["compose_chain", "prec_nest", "mu_nest"],
)
def test_a_program_nested_to_the_limit_fits_every_walk_from_100_frames_down(nest, outcome):
    assert _frames_down(100, _every_walk, nest(MAX_DEPTH)) == outcome


def test_sexpr_roundtrip_for_the_program_family():
    for expr in [ADD, MUL, PRED, MONUS, MU_MONUS, ALWAYS_POSITIVE]:
        assert parse_program(to_sexpr(expr)) == expr


def test_parse_of_the_conftest_source_matches_the_tree():
    assert parse_program(ADD_REC) == ADD


# ---------------------------------------------------------------------------
# arity rules
# ---------------------------------------------------------------------------


def test_arities_of_the_program_family():
    assert arity(ADD) == 2
    assert arity(MUL) == 2
    assert arity(PRED) == 2
    assert arity(MONUS) == 2
    assert arity(MU_MONUS) == 1
    assert arity(ALWAYS_POSITIVE) == 1
    for expr in [ADD, MUL, PRED, MONUS, MU_MONUS, ALWAYS_POSITIVE]:
        assert check_arity(expr) == arity(expr)


@pytest.mark.parametrize(
    "expr",
    [
        Const(-1, 1),
        Const(0, -1),
        Proj(0, 2),
        Proj(3, 2),
        Proj(1, 0),
        Compose(Succ(), ()),
        Compose(Succ(), (Proj(1, 2), Proj(2, 2))),  # head arity 1, two operands
        Compose(Proj(2, 2), (Const(0, 1), Const(0, 2))),  # operands disagree
        PrimRec(Proj(1, 1), Proj(1, 2)),  # step must take base_arity + 2
        Mu(Const(0, 0)),  # body needs a search variable
    ],
)
def test_check_arity_rejects_ill_formed_trees(expr):
    with pytest.raises(ArityError):
        check_arity(expr)
    with pytest.raises(ArityError):  # arity is check_arity, so it gives no number for these
        arity(expr)


@pytest.mark.parametrize(
    "walk",
    [arity, check_arity, to_sexpr, lambda e: eval_oracle(e, []), compile_program],
    ids=["arity", "check_arity", "to_sexpr", "eval_oracle", "compile_program"],
)
def test_a_non_expression_is_refused(walk):
    with pytest.raises(TypeError, match="not an expression: '\\(succ\\)'"):
        walk("(succ)")


def test_check_arity_accepts_nullary_constructions():
    assert check_arity(Const(7, 0)) == 0
    assert check_arity(Compose(Succ(), (Const(3, 0),))) == 0
    assert check_arity(PrimRec(Const(1, 0), Proj(2, 2))) == 1


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_add_mul_pred_monus():
    assert eval_oracle(ADD, [2, 3]) == Value(5)
    assert eval_oracle(MUL, [3, 4]) == Value(12)
    assert eval_oracle(PRED, [6, 0]) == Value(5)
    assert eval_oracle(PRED, [0, 0]) == Value(0)
    assert eval_oracle(MONUS, [3, 10]) == Value(7)
    assert eval_oracle(MONUS, [10, 3]) == Value(0)


def test_oracle_minimization_finds_the_least_root_at_least_one():
    # least z >= 1 with x - z == 0 is max(x, 1)
    assert eval_oracle(MU_MONUS, [0]) == Value(1)
    assert eval_oracle(MU_MONUS, [1]) == Value(1)
    assert eval_oracle(MU_MONUS, [9]) == Value(9)


def test_oracle_rejects_bad_arguments():
    with pytest.raises(ArityError):
        eval_oracle(ADD, [1])
    with pytest.raises(ValueError):
        eval_oracle(ADD, [1, -1])


def test_oracle_runs_out_of_fuel_on_divergence():
    assert eval_oracle(ALWAYS_POSITIVE, [5], fuel=10_000) == FuelExhausted()


def test_fuel_is_monotone():
    # mul(8, 8) needs a few hundred applications; starve it, then feed it.
    assert eval_oracle(MUL, [8, 8], fuel=10) == FuelExhausted()
    assert eval_oracle(MUL, [8, 8], fuel=100_000) == Value(64)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 20), st.integers(0, 20))
def test_oracle_addition_law(i, x):
    assert eval_oracle(ADD, [i, x]) == Value(i + x)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12))
def test_oracle_multiplication_law(i, x):
    assert eval_oracle(MUL, [i, x]) == Value(i * x)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 20), st.integers(0, 20))
def test_oracle_truncated_subtraction_law(z, x):
    assert eval_oracle(MONUS, [z, x]) == Value(max(x - z, 0))


# ---------------------------------------------------------------------------
# random program generator
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(0, 3))
def test_generated_expressions_are_well_typed(seed, n_args, depth):
    expr = gen_expr(random.Random(seed), n_args, depth)
    assert check_arity(expr) == n_args
    # primitive fragment: always terminates on small arguments
    result = eval_oracle(expr, [1] * n_args)
    assert isinstance(result, Value)
    assert result.value >= 0


def test_generator_requires_at_least_one_argument():
    with pytest.raises(ValueError):
        gen_expr(random.Random(0), 0, 2)
