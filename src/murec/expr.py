"""The function IR: abstract syntax, parsing, arity rules, reference oracle.

Expressions denote functions over the naturals built from the constant,
successor, and projection functions by composition, primitive recursion, and
minimization.  The oracle interpreter is fueled: every operator application
costs one unit, so evaluation always terminates with either a value or
:class:`FuelExhausted`, and it serves as the ground truth for the compiler's
differential tests.

A program nests at most :data:`MAX_DEPTH` forms deep, a limit the parser
checks, so every recursive walk over a parsed program fits Python's default
recursion limit, from any caller with 100 frames or fewer on its stack.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Union

from .errors import ArityError, ParseError


@dataclass(frozen=True)
class Const:
    value: int
    arity: int = 1


@dataclass(frozen=True)
class Succ:
    pass


@dataclass(frozen=True)
class Proj:
    index: int  # 1-based
    arity: int


@dataclass(frozen=True)
class Compose:
    outer: "RecExpr"
    inner: tuple["RecExpr", ...]


@dataclass(frozen=True)
class PrimRec:
    base: "RecExpr"  # g, arity N
    step: "RecExpr"  # h, arity N + 2


@dataclass(frozen=True)
class Mu:
    body: "RecExpr"  # f, arity N + 1


RecExpr = Union[Const, Succ, Proj, Compose, PrimRec, Mu]


def arity(expr: RecExpr) -> int:
    """``check_arity`` under its old name: the tree's arity, or ArityError if it is ill-formed."""
    return check_arity(expr)


def check_arity(expr: RecExpr) -> int:
    """Validate the whole tree and return its arity; raise ArityError if bad."""
    if isinstance(expr, Const):
        if expr.value < 0:
            raise ArityError(f"constant value must be a natural, got {expr.value}")
        if expr.arity < 0:
            raise ArityError(f"constant arity must be >= 0, got {expr.arity}")
        return expr.arity
    if isinstance(expr, Succ):
        return 1
    if isinstance(expr, Proj):
        if expr.arity < 1:
            raise ArityError(f"projection arity must be >= 1, got {expr.arity}")
        if not 1 <= expr.index <= expr.arity:
            raise ArityError(f"projection index {expr.index} out of range 1..{expr.arity}")
        return expr.arity
    if isinstance(expr, Compose):
        if not expr.inner:
            raise ArityError("composition needs at least one operand")
        outer_arity = check_arity(expr.outer)
        if outer_arity != len(expr.inner):
            raise ArityError(
                f"composition head has arity {outer_arity} but {len(expr.inner)} operands"
            )
        arities = [check_arity(g) for g in expr.inner]
        if len(set(arities)) != 1:
            raise ArityError(f"composition operands disagree on arity: {arities}")
        return arities[0]
    if isinstance(expr, PrimRec):
        base_arity = check_arity(expr.base)
        step_arity = check_arity(expr.step)
        if step_arity != base_arity + 2:
            raise ArityError(
                f"recursion step must have arity {base_arity + 2}, got {step_arity}"
            )
        return base_arity + 1
    if isinstance(expr, Mu):
        body_arity = check_arity(expr.body)
        if body_arity < 1:
            raise ArityError("minimization body must have arity >= 1")
        return body_arity - 1
    raise TypeError(f"not an expression: {expr!r}")


def to_sexpr(expr: RecExpr) -> str:
    if isinstance(expr, Const):
        return f"(const {expr.value} {expr.arity})"
    if isinstance(expr, Succ):
        return "(succ)"
    if isinstance(expr, Proj):
        return f"(proj {expr.index} {expr.arity})"
    if isinstance(expr, Compose):
        inner = " ".join(to_sexpr(g) for g in expr.inner)
        return f"(compose {to_sexpr(expr.outer)} ({inner}))"
    if isinstance(expr, PrimRec):
        return f"(prec {to_sexpr(expr.base)} {to_sexpr(expr.step)})"
    if isinstance(expr, Mu):
        return f"(mu {to_sexpr(expr.body)})"
    raise TypeError(f"not an expression: {expr!r}")


# -- parsing ---------------------------------------------------------------


# A comment, a parenthesis or an atom.  Regex ``\s``, ``str.isspace`` and
# ``str.split`` accept exactly the same code points, so whitespace is what
# separates atoms, and ``_tokens`` splits out exactly the atoms and
# parentheses this pattern finds.  It is run only to place an error.
_TOKEN = re.compile(r";[^\n]*|[()]|[^\s();]+")
_COMMENT = re.compile(r";[^\n]*")

#: How deep a program's forms may nest; a composition's operand list is not a form.
MAX_DEPTH = 200


class _Error(Exception):
    """A parse error at a token: ``args`` is ``(token index, message)``."""


def _tokens(text: str) -> list[str]:
    """The atoms and parentheses of ``text`` in order, comments dropped."""
    if ";" in text:
        text = _COMMENT.sub("", text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _expected(tokens: list, i: int, what: str) -> _Error:
    tok = tokens[i]
    return _Error(i, "unexpected end of input" if tok is None else f"expected {what}, got {tok!r}")


def _natural(tokens: list, i: int) -> int:
    tok = tokens[i]
    if tok is None or not tok.isdecimal():  # isdigit() would pass "²", which int() refuses
        raise _expected(tokens, i, "a natural number")
    try:
        return int(tok)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise _Error(i, f"number too long: {exc}") from exc


def _expr(tokens: list, i: int, depth: int) -> tuple[RecExpr, int]:
    """The form opened by token ``i``, at nesting ``depth``, and the index past its ``)``."""
    if tokens[i] != "(":
        raise _expected(tokens, i, "'('")
    if depth > MAX_DEPTH:
        raise _Error(i, "program nested too deeply")
    head = tokens[i + 1]
    j = i + 2
    depth += 1
    if head == "proj":
        node: RecExpr = Proj(_natural(tokens, j), _natural(tokens, j + 1))
        j += 2
    elif head == "compose":
        outer, j = _expr(tokens, j, depth)
        if tokens[j] != "(":
            raise _expected(tokens, j, "'('")
        operand, j = _expr(tokens, j + 1, depth)
        inner = [operand]
        while tokens[j] == "(":
            operand, j = _expr(tokens, j, depth)
            inner.append(operand)
        if tokens[j] != ")":
            raise _expected(tokens, j, "')'")
        node = Compose(outer, tuple(inner))
        j += 1
    elif head == "const":
        node = Const(_natural(tokens, j), _natural(tokens, j + 1))
        j += 2
    elif head == "succ":
        node = Succ()
    elif head == "prec":
        base, j = _expr(tokens, j, depth)
        step, j = _expr(tokens, j, depth)
        node = PrimRec(base, step)
    elif head == "mu":
        body, j = _expr(tokens, j, depth)
        node = Mu(body)
    else:
        raise _Error(i + 1, "unexpected end of input" if head is None else f"unknown form {head!r}")
    if tokens[j] != ")":
        raise _expected(tokens, j, "')'")
    return node, j + 1


def parse_program(text: str) -> RecExpr:
    """Parse one expression in the s-expression grammar; ``;`` starts a comment.

    Malformed text, a form nested deeper than ``MAX_DEPTH`` and a number too
    long to convert all raise ParseError, whatever the caller's stack.  Only
    an error re-scans the text for its token's line and column.
    """
    tokens = _tokens(text)
    tokens.append(None)  # the end of input
    try:
        node, end = _expr(tokens, 0, 1)
        if tokens[end] is None:
            return node
        raise _Error(end, "trailing input after program")
    except _Error as err:
        (index, message), cause = err.args, err.__cause__
    # Past the end, the error points at the last token; only "\n" starts a line.
    offsets = [m.start() for m in _TOKEN.finditer(text) if m[0][0] != ";"]
    if not offsets:
        raise ParseError(message) from cause
    at = offsets[min(index, len(offsets) - 1)]
    line = text.count("\n", 0, at) + 1
    raise ParseError(message, line=line, column=at - text.rfind("\n", 0, at)) from cause


# -- oracle ------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    value: int


@dataclass(frozen=True)
class FuelExhausted:
    pass


EvalResult = Union[Value, FuelExhausted]


class _OutOfFuel(Exception):
    pass


DEFAULT_FUEL = 100_000


def eval_oracle(expr: RecExpr, args: list[int], fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Big-step fueled evaluation; the ground truth for differential testing."""
    return _eval_checked(expr, check_arity(expr), args, fuel)


def _eval_checked(expr: RecExpr, n_args: int, args: list[int], fuel: int) -> EvalResult:
    """``eval_oracle`` of an expression whose arity ``check_arity`` gave as ``n_args``."""
    if len(args) != n_args:
        raise ArityError(f"expected {n_args} arguments, got {len(args)}")
    for a in args:
        if a < 0:
            raise ValueError("arguments must be naturals")
    budget = [fuel]
    try:
        return Value(_eval(expr, tuple(args), budget))
    except _OutOfFuel:
        return FuelExhausted()


def _eval(expr: RecExpr, args: tuple[int, ...], budget: list[int]) -> int:
    budget[0] -= 1
    if budget[0] < 0:
        raise _OutOfFuel
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Succ):
        return args[0] + 1
    if isinstance(expr, Proj):
        return args[expr.index - 1]
    if isinstance(expr, Compose):
        results = tuple(_eval(g, args, budget) for g in expr.inner)
        return _eval(expr.outer, results, budget)
    if isinstance(expr, PrimRec):
        i, rest = args[0], args[1:]
        acc = _eval(expr.base, rest, budget)
        for n in range(i):
            acc = _eval(expr.step, (n, acc) + rest, budget)
        return acc
    if isinstance(expr, Mu):
        z = 1
        while True:
            if _eval(expr.body, (z,) + args, budget) == 0:
                return z
            z += 1
    raise TypeError(f"not an expression: {expr!r}")


# -- random programs --------------------------------------------------------


def gen_expr(rng: random.Random, n_args: int, depth: int) -> RecExpr:
    """Random well-typed expression over {Const, Succ, Proj, Compose}.

    ``n_args`` must be >= 1; Succ only appears where the arity is 1.
    """
    if n_args < 1:
        raise ValueError("generated expressions need arity >= 1")
    leaves = ["const", "proj"] + (["succ"] if n_args == 1 else [])
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.choice(leaves)
        if kind == "const":
            return Const(rng.randint(0, 9), n_args)
        if kind == "proj":
            return Proj(rng.randint(1, n_args), n_args)
        return Succ()
    operands = rng.randint(1, 3)
    outer = gen_expr(rng, operands, depth - 1)
    inner = tuple(gen_expr(rng, n_args, depth - 1) for _ in range(operands))
    return Compose(outer, inner)
