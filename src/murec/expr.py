"""The function IR: abstract syntax, parsing, arity rules, reference oracle.

Expressions denote functions over the naturals built from the constant,
successor, and projection functions by composition, primitive recursion, and
minimization.  The oracle interpreter is fueled: every operator application
costs one unit, so evaluation always terminates with either a value or
:class:`FuelExhausted`, and it serves as the ground truth for the compiler's
differential tests.
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


# A comment, a parenthesis or an atom.  Regex ``\s`` matches exactly the
# characters ``str.isspace`` accepts, so whitespace is what separates atoms.
_TOKEN = re.compile(r";[^\n]*|[()]|[^\s();]+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # (text, offset) pairs; the offsets only serve error positions.
        self.tokens = [(m[0], m.start()) for m in _TOKEN.finditer(text) if m[0][0] != ";"]
        self.pos = 0

    def _fail(self, message: str) -> ParseError:
        """The error at the current token (past the end, the last one); only ``\\n`` starts a line."""
        if not self.tokens:
            return ParseError(message)
        at = self.tokens[min(self.pos, len(self.tokens) - 1)][1]
        line = self.text.count("\n", 0, at) + 1
        return ParseError(message, line=line, column=at - self.text.rfind("\n", 0, at))

    def _next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise self._fail("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, text: str) -> None:
        tok = self._next()
        if tok[0] != text:
            self.pos -= 1
            raise self._fail(f"expected {text!r}, got {tok[0]!r}")

    def _natural(self) -> int:
        tok = self._next()
        if not tok[0].isdecimal():  # isdigit() would pass "²", which int() refuses
            self.pos -= 1
            raise self._fail(f"expected a natural number, got {tok[0]!r}")
        try:
            return int(tok[0])
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            self.pos -= 1
            raise self._fail(f"number too long: {exc}") from exc

    def expr(self) -> RecExpr:
        self._expect("(")
        head = self._next()
        if head[0] == "const":
            value = self._natural()
            ar = self._natural()
            node: RecExpr = Const(value, ar)
        elif head[0] == "succ":
            node = Succ()
        elif head[0] == "proj":
            index = self._natural()
            ar = self._natural()
            node = Proj(index, ar)
        elif head[0] == "compose":
            outer = self.expr()
            self._expect("(")
            inner = [self.expr()]
            while self.pos < len(self.tokens) and self.tokens[self.pos][0] == "(":
                inner.append(self.expr())
            self._expect(")")
            node = Compose(outer, tuple(inner))
        elif head[0] == "prec":
            base = self.expr()
            step = self.expr()
            node = PrimRec(base, step)
        elif head[0] == "mu":
            node = Mu(self.expr())
        else:
            self.pos -= 1
            raise self._fail(f"unknown form {head[0]!r}")
        self._expect(")")
        return node


def parse_program(text: str) -> RecExpr:
    """Parse one expression in the s-expression grammar; ``;`` starts a comment.

    Malformed text, nesting past the recursion limit and a number too long
    to convert all raise ParseError.
    """
    parser = _Parser(text)
    try:
        node = parser.expr()
    except RecursionError as exc:
        raise parser._fail("program nested too deeply") from exc
    if parser.pos != len(parser.tokens):
        raise parser._fail("trailing input after program")
    return node


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
    expected = check_arity(expr)
    if len(args) != expected:
        raise ArityError(f"expected {expected} arguments, got {len(args)}")
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
