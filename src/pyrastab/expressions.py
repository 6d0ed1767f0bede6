"""Arithmetic expression trees with exact forward-mode derivatives.

Right-hand sides of an autonomous field x' = f(x) can be given as strings
over the variables ``x1 .. xN``, named parameters, the operators ``+ - * /
^`` (``^`` restricted to integer literal exponents) and the functions ``sin
cos exp log sqrt tanh``.  Precedence is ``^`` over unary ``-`` over ``* /``
over ``+ -``.  The grammar has no time variable: ``t`` is an identifier like
any other, unknown unless declared as a parameter.

Parsing produces a small immutable AST.  Evaluation is done in dual-number
style: one pass yields the value together with the exact partial derivative
with respect to a chosen variable, so a Jacobian costs one pass per input
variable and never falls back to finite differences.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

__all__ = [
    "ParseError",
    "DomainError",
    "Expr",
    "Num",
    "Var",
    "Param",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "value_and_partial",
    "to_source",
]


class ParseError(ValueError):
    """Syntax, identifier or arity problem, with source position."""

    def __init__(self, message: str, source: str, position: int):
        self.source = source
        self.position = position
        super().__init__(f"{message} (column {position + 1}): {source!r}")


class DomainError(ArithmeticError):
    """Evaluation left the domain (log/sqrt argument, division by zero, overflow)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based; prints as x{index+1}


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expr"


Expr = Union[Num, Var, Param, Neg, Add, Sub, Mul, Div, Pow, Call]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")

_VAR_RE = re.compile(r"^x([0-9]+)$")

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _tokenize(source: str):
    # yields (kind, text, position); kind in {"num", "ident", "op", "end"}
    pos = 0
    out = []
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[at]!r}", source, at)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(source)))
    return out


class _Parser:
    def __init__(self, source: str, dim: int, params):
        self.source = source
        self.dim = dim
        self.params = frozenset(params)
        self.tokens = _tokenize(source)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def fail(self, message, position):
        raise ParseError(message, self.source, position)

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            self.fail(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            self.fail(f"unexpected {text!r}", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = Pow(node, self.exponent_literal())
            kind, text, pos = self.peek()
            if kind == "op" and text == "^":
                self.fail("'^' is not associative; parenthesize the base", pos)
        return node

    def exponent_literal(self) -> int:
        # integer literal, optionally negated; anything else is rejected so
        # that d/dx stays exact (n * base^(n-1))
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "num" or any(c in text for c in ".eE"):
            self.fail("exponent must be an integer literal", pos)
        self.advance()
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            return self.identifier(text, pos)
        self.fail(f"unexpected {text!r}" if text else "unexpected end of input", pos)

    def identifier(self, name, pos) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "(":
            if name not in FUNCTIONS:
                self.fail(f"unknown function {name!r}", pos)
            self.advance()
            args = [self.expr()]
            while True:
                kind, text, p = self.peek()
                if kind == "op" and text == ",":
                    self.advance()
                    args.append(self.expr())
                else:
                    break
            self.expect_op(")")
            if len(args) != 1:
                self.fail(f"{name} takes 1 argument, got {len(args)}", pos)
            return Call(name, args[0])
        m = _VAR_RE.match(name)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= self.dim:
                self.fail(
                    f"variable {name} out of range for dimension {self.dim}", pos
                )
            return Var(index - 1)
        if name in self.params:
            return Param(name)
        if name in FUNCTIONS:
            self.fail(f"function {name!r} must be called", pos)
        self.fail(f"unknown identifier {name!r}", pos)


def parse(source: str, dim: int, params=()) -> Expr:
    """Parse one component expression over x1..x{dim} and `params`."""
    return _Parser(source, dim, params).parse()


def _dual(node: Expr, x, params, seed: int):
    """Return (value, d value / d x_seed); seed=-1 tracks nothing."""
    if isinstance(node, Num):
        return node.value, 0.0
    if isinstance(node, Var):
        return float(x[node.index]), 1.0 if node.index == seed else 0.0
    if isinstance(node, Param):
        return float(params[node.name]), 0.0
    if isinstance(node, Neg):
        v, d = _dual(node.arg, x, params, seed)
        return -v, -d
    if isinstance(node, Add):
        va, da = _dual(node.left, x, params, seed)
        vb, db = _dual(node.right, x, params, seed)
        return va + vb, da + db
    if isinstance(node, Sub):
        va, da = _dual(node.left, x, params, seed)
        vb, db = _dual(node.right, x, params, seed)
        return va - vb, da - db
    if isinstance(node, Mul):
        va, da = _dual(node.left, x, params, seed)
        vb, db = _dual(node.right, x, params, seed)
        return va * vb, da * vb + va * db
    if isinstance(node, Div):
        va, da = _dual(node.left, x, params, seed)
        vb, db = _dual(node.right, x, params, seed)
        if vb == 0.0:
            raise DomainError("division by zero")
        return va / vb, (da * vb - va * db) / (vb * vb)
    if isinstance(node, Pow):
        vb, db = _dual(node.base, x, params, seed)
        n = node.exponent
        if n == 0:
            return 1.0, 0.0
        if vb == 0.0 and n < 0:
            raise DomainError("zero raised to a negative power")
        try:
            v = vb**n
            d = float(n) * vb ** (n - 1) * db if n != 1 else db
        except OverflowError as exc:
            raise DomainError(f"overflow in power: {vb!r}^{n}") from exc
        return v, d
    if isinstance(node, Call):
        va, da = _dual(node.arg, x, params, seed)
        try:
            if node.name == "sin":
                return math.sin(va), math.cos(va) * da
            if node.name == "cos":
                return math.cos(va), -math.sin(va) * da
            if node.name == "exp":
                v = math.exp(va)
                return v, v * da
            if node.name == "tanh":
                v = math.tanh(va)
                return v, (1.0 - v * v) * da
            if node.name == "log":
                if va <= 0.0:
                    raise DomainError(f"log of nonpositive value {va!r}")
                return math.log(va), da / va
            if node.name == "sqrt":
                if va < 0.0 or (va == 0.0 and (seed >= 0 and da != 0.0)):
                    raise DomainError(f"sqrt outside domain at {va!r}")
                v = math.sqrt(va)
                return v, (da / (2.0 * v) if da != 0.0 else 0.0)
        except OverflowError as exc:
            raise DomainError(f"overflow in {node.name}({va!r})") from exc
        raise AssertionError(f"unhandled function {node.name}")
    raise AssertionError(f"unhandled node {node!r}")


def evaluate(node: Expr, x, params=None) -> float:
    return _dual(node, x, params or {}, -1)[0]


def value_and_partial(node: Expr, x, params, index: int):
    """Value together with the exact partial d/d x_{index+1} (0-based index)."""
    return _dual(node, x, params or {}, index)


# printing -------------------------------------------------------------

# precedence levels used for minimal parenthesization; a child is wrapped
# whenever its own level is below what its syntactic slot requires
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def _prec(node: Expr) -> int:
    if isinstance(node, (Add, Sub)):
        return _ADD
    if isinstance(node, (Mul, Div)):
        return _MUL
    if isinstance(node, Neg):
        return _NEG
    if isinstance(node, Pow):
        return _POW
    return _ATOM


def _wrap(node: Expr, need: int) -> str:
    text = to_source(node)
    return f"({text})" if _prec(node) < need else text


def to_source(node: Expr) -> str:
    """Render with minimal parentheses; reparsing a parser-produced tree
    gives back a structurally identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _NEG)
    if isinstance(node, Add):
        # right operand must bind tighter than +- or the reparse would
        # reassociate to the left
        return f"{_wrap(node.left, _ADD)} + {_wrap(node.right, _ADD + 1)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, _ADD)} - {_wrap(node.right, _ADD + 1)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, _MUL)}*{_wrap(node.right, _NEG)}"
    if isinstance(node, Div):
        return f"{_wrap(node.left, _MUL)}/{_wrap(node.right, _NEG)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, _ATOM)}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.name}({to_source(node.arg)})"
    raise AssertionError(f"unhandled node {node!r}")
