"""A small arithmetic expression language for problem configuration files.

Grammar (whitespace insignificant, no implicit multiplication):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'x' | 't' | 'pi'
            | NAME '(' expr ')'
            | '(' expr ')'

Unary minus binds looser than '^', so -x^2 is -(x^2); 2^3^2 is 2^(3^2).
Numbers are unsigned decimals with optional fraction and exponent.
Known functions: sin, cos, tan, exp, sqrt, abs.  Parentheses, function
calls, unary minus and '^' may nest at most ``MAX_NESTING`` levels deep.

A parsed :class:`Expression` is compiled once into a tree of closures over
numpy operations, so ``expression(x, t)`` evaluates it on floats or, with
numpy broadcasting, on whole float64 arrays in one call.  Arithmetic
follows numpy's (``^`` is numpy's ``**``), and :class:`EvaluationError`
is raised where the scalar ``math`` functions would fail, checked element
by element: a zero divisor, or a function or ``^`` that turns non-NaN
operands into NaN or finite operands into an infinity.  The error names
the operands of the first offending element.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NoReturn, Union

import numpy as np

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_VARIABLES = ("x", "t")

# deepest nesting of parentheses, calls, unary minus and '^' the parser accepts
MAX_NESTING = 100


class ExpressionError(ValueError):
    """Base class for everything this module raises."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed source text; carries the byte offset and what was expected."""

    def __init__(self, position: int, expected: tuple[str, ...], found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at offset {position}: expected "
            f"{' or '.join(expected)}, found {found}"
        )


class UnknownFunctionError(ExpressionError):
    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(
            f"unknown function {name!r} at offset {position} "
            f"(known: {', '.join(sorted(_FUNCTIONS))})"
        )


class EvaluationError(ExpressionError):
    """Division by zero or a domain violation while evaluating."""

    def __init__(self, operation: str, operands: tuple[float, ...]):
        self.operation = operation
        self.operands = operands
        shown = ", ".join(repr(v) for v in operands)
        super().__init__(f"cannot evaluate {operation!r} with operands ({shown})")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    position: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None or match.lastgroup is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            at = len(source) - len(stripped)
            raise ExpressionSyntaxError(at, ("a number", "a name", "an operator"), repr(source[at]))
        tokens.append(
            _Token(match.lastgroup, match.group(match.lastgroup), match.start(match.lastgroup))
        )
        pos = match.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.cursor = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.cursor]

    def advance(self) -> _Token:
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def fail(self, expected: tuple[str, ...]) -> None:
        token = self.peek()
        found = "end of input" if token.kind == "end" else repr(token.text)
        raise ExpressionSyntaxError(token.position, expected, found)

    def expect_op(self, text: str) -> None:
        token = self.peek()
        if token.kind == "op" and token.text == text:
            self.advance()
            return
        self.fail((repr(text),))

    def parse(self) -> Node:
        node = self.expr()
        if self.peek().kind != "end":
            self.fail(("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        # every nested construct recurses through here, so this bounds the
        # parser's recursion and the nesting of the compiled closures
        if self.depth == MAX_NESTING:
            self.fail((f"at most {MAX_NESTING} levels of nesting",))
        self.depth += 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            node: Node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return Num(float(token.text))
        if token.kind == "name":
            self.advance()
            if token.text in _VARIABLES:
                return Var(token.text)
            if token.text == "pi":
                return Num(math.pi)
            if self.peek().kind == "op" and self.peek().text == "(":
                if token.text not in _FUNCTIONS:
                    raise UnknownFunctionError(token.text, token.position)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(token.text, arg)
            raise UnknownFunctionError(token.text, token.position)
        if token.kind == "op" and token.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail(("a number", "'x'", "'t'", "'pi'", "a function name", "'('"))
        raise AssertionError("unreachable")


def _operand(value):
    """Arrays pass through; scalars become numpy floats, so every operation
    follows numpy semantics (no Python exceptions, no complex powers)."""
    return value if isinstance(value, np.ndarray) else np.float64(value)


def _fail(operation: str, operands: tuple, bad) -> NoReturn:
    """Raise for the first element where ``bad`` holds."""
    bad, *operands = np.broadcast_arrays(bad, *operands)
    first = bad.argmax()
    raise EvaluationError(operation, tuple(float(v.flat[first]) for v in operands))


def _checked(operation: str, operands: tuple, out):
    """``out``, unless non-NaN operands gave NaN or finite ones an infinity."""
    if np.isfinite(out).all():
        return out
    nan_in, finite_in = np.False_, np.True_
    for value in operands:
        nan_in = nan_in | np.isnan(value)
        finite_in = finite_in & np.isfinite(value)
    bad = (np.isnan(out) & ~nan_in) | (np.isinf(out) & finite_in)
    if bad.any():
        _fail(operation, operands, bad)
    return out


def _divide(left, right):
    def divide(x, t):
        numerator, divisor = left(x, t), right(x, t)
        if not divisor.all():
            _fail("/", (numerator, divisor), divisor == 0)
        return numerator / divisor

    return divide


def _power(left, right):
    def power(x, t):
        base, exponent = left(x, t), right(x, t)
        return _checked("^", (base, exponent), base**exponent)

    return power


_BINARY = {
    "+": lambda left, right: lambda x, t: left(x, t) + right(x, t),
    "-": lambda left, right: lambda x, t: left(x, t) - right(x, t),
    "*": lambda left, right: lambda x, t: left(x, t) * right(x, t),
    "/": _divide,
    "^": _power,
}


def _negate(operand):
    return lambda x, t: -operand(x, t)


def _call(name: str, arg):
    function = _FUNCTIONS[name]

    def call(x, t):
        value = arg(x, t)
        return _checked(name, (value,), function(value))

    return call


def _compile(node: Node):
    """A closure ``f(x, t)`` evaluating ``node``; x and t are numpy values."""
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda x, t: value
    if isinstance(node, Var):
        return (lambda x, t: x) if node.name == "x" else (lambda x, t: t)
    if isinstance(node, Neg):
        return _negate(_compile(node.operand))
    if isinstance(node, BinOp):
        return _BINARY[node.op](_compile(node.left), _compile(node.right))
    if isinstance(node, Call):
        return _call(node.func, _compile(node.arg))
    raise TypeError(f"not an expression node: {node!r}")


def _unparse(node: Node) -> str:
    if isinstance(node, Num):
        # parse() never produces a negative literal (a leading '-' becomes Neg),
        # so repr round-trips every reachable Num.
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_unparse(node.operand)})"
    if isinstance(node, BinOp):
        return f"({_unparse(node.left)} {node.op} {_unparse(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({_unparse(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


def _collect_variables(node: Node, out: set[str]) -> None:
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_variables(node.operand, out)
    elif isinstance(node, BinOp):
        _collect_variables(node.left, out)
        _collect_variables(node.right, out)
    elif isinstance(node, Call):
        _collect_variables(node.arg, out)


@dataclass(frozen=True)
class Expression:
    """A parsed expression in the variables x and t.

    Calling it, ``expression(x, t)``, evaluates it with numpy broadcasting:
    x and t may each be a float or a float64 array, and the result is a
    numpy float or array.  A result that depends on neither variable is a
    numpy float whatever the inputs' shapes.
    """

    root: Node
    _function: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_function", _compile(self.root))

    def __call__(self, x=0.0, t=0.0):
        with np.errstate(all="ignore"):
            return self._function(_operand(x), _operand(t))

    def evaluate(self, x: float = 0.0, t: float = 0.0) -> float:
        # a one-element array takes the code path of a knot array (numpy's
        # scalar and array powers can differ in the last bit), so this agrees
        # bit for bit with each element of an array call
        return float(np.ravel(self(np.array([x], dtype=float), t))[0])

    def variables(self) -> frozenset[str]:
        names: set[str] = set()
        _collect_variables(self.root, names)
        return frozenset(names)

    def __str__(self) -> str:
        return _unparse(self.root)


def parse(source: str) -> Expression:
    """Parse source text into an :class:`Expression`."""
    return Expression(_Parser(source).parse())


def evaluate(expression: Expression, x: float = 0.0, t: float = 0.0) -> float:
    """Evaluate a parsed expression at the point (x, t)."""
    return expression.evaluate(x, t)
