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
calls, unary minus and '^' may nest at most ``MAX_NESTING`` levels deep, and
one expression holds at most ``MAX_OPERATORS`` operators, which keeps the
recursive compile and evaluation within Python's recursion limit.

A parsed :class:`Expression` is compiled once into a tree of closures over
numpy operations, so ``expression(x, t)`` evaluates it on floats or, with
numpy broadcasting, on whole float64 arrays in one call.  Each largest part
below the root that reads x but not t, such as ``sin(x)`` in
``exp(-t)*sin(x)``, keeps its last value and computes it again only when
the bits of x change, so a run that passes the same knots at every step
evaluates it once.  Each largest part that reads neither x nor t, such as
``(2 - 2*1.3 + 1.7^2)``, is evaluated once when the expression is built,
unless that raises :class:`EvaluationError`: then it stays as it is and
raises at every call, as an unfolded part would.  Arithmetic
follows numpy's (``^`` is numpy's ``**``), and :class:`EvaluationError`
is raised where the scalar ``math`` functions would fail, checked element
by element: a zero divisor, or a function or ``^`` that turns non-NaN
operands into NaN or finite operands into an infinity.  The error names
the operands of the first offending element.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple, NoReturn, Union

import numpy as np

from ._record import FrozenRecord

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
# most operators ('+', '-', '*', '/', '^') one expression may hold
MAX_OPERATORS = 600


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


# The tree's nodes: equal when of one type with equal fields, so a Var is
# never equal to a Num holding the same value.


class Num(FrozenRecord):
    __slots__ = _fields = ("value",)
    value: float

    def __init__(self, value: float) -> None:
        self._assign(value)


class Var(FrozenRecord):
    __slots__ = _fields = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        self._assign(name)


class Neg(FrozenRecord):
    __slots__ = _fields = ("operand",)
    operand: Node

    def __init__(self, operand: Node) -> None:
        self._assign(operand)


class BinOp(FrozenRecord):
    __slots__ = _fields = ("op", "left", "right")
    op: str
    left: Node
    right: Node

    def __init__(self, op: str, left: Node, right: Node) -> None:
        self._assign(op, left, right)


class Call(FrozenRecord):
    __slots__ = _fields = ("func", "arg")
    func: str
    arg: Node

    def __init__(self, func: str, arg: Node) -> None:
        self._assign(func, arg)


Node = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


class _Token(NamedTuple):
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
        self.operators = 0

    def peek(self) -> _Token:
        return self.tokens[self.cursor]

    def advance(self) -> _Token:
        token = self.tokens[self.cursor]
        if token.kind == "op" and token.text in "+-*/^":
            # a tree holds at most one node per operator besides the calls,
            # which the nesting limit bounds, so this bounds its depth too
            if self.operators == MAX_OPERATORS:
                self.fail((f"at most {MAX_OPERATORS} operators",))
            self.operators += 1
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


_X_ONLY = frozenset({"x"})


def _kept(closure):
    """The closure of a subtree that reads x but not t, keeping its last value
    (see :func:`telespline.problem._memo`)."""
    # imported on first use: the constants that ``stability --domain`` parses
    # keep nothing, so that command does not load ``problem``
    from .problem import _memo

    memo = _memo(lambda x: closure(x, None))
    return lambda x, t: memo(x)


def _folded(closure):
    """The closure of a subtree that reads neither x nor t, evaluated once.

    The value is a numpy float whatever the call's x and t, so the call
    would compute the same bits.  A subtree whose evaluation raises stays a
    closure, so its :class:`EvaluationError` is raised at each call, as
    before folding.
    """
    try:
        with np.errstate(all="ignore"):
            value = closure(None, None)
    except EvaluationError:
        return closure
    return lambda x, t: value


def _hoisted(children, root: bool):
    """The closures of a node's ``(child, (closure, reads))`` pairs, and the
    variables the node reads.

    A child that reads x but not t is kept (:func:`_kept`) when it is a
    maximal such subtree: when the node reads t, or is the root.  The root
    itself is never kept, because a caller may write into the array it
    gets.  Nor is a bare ``x``: it costs nothing, and keeping it would make
    the caller's array read-only.  A child that reads no variable is
    folded (:func:`_folded`) when the node reads one; a constant root is
    folded by :class:`Expression`.
    """
    reads = frozenset().union(*(variables for _, (_, variables) in children))
    if not reads or (reads == _X_ONLY and not root):
        return [closure for _, (closure, _) in children], reads
    return [
        _kept(closure) if variables == _X_ONLY and not isinstance(child, Var)
        else _folded(closure) if not variables and not isinstance(child, Num)
        else closure
        for child, (closure, variables) in children
    ], reads


def _compile(node: Node, root: bool = False):
    """A closure ``f(x, t)`` evaluating ``node`` (x and t are numpy values),
    and the variables it reads, from one bottom-up pass.

    The children are compiled inline, one stack frame per tree level, which
    keeps the deepest tree the parser accepts within the recursion limit.
    """
    if isinstance(node, Num):
        value = np.float64(node.value)
        return (lambda x, t: value), frozenset()
    if isinstance(node, Var):
        closure = (lambda x, t: x) if node.name == "x" else (lambda x, t: t)
        return closure, frozenset({node.name})
    if isinstance(node, Neg):
        (operand,), reads = _hoisted([(node.operand, _compile(node.operand))], root)
        return _negate(operand), reads
    if isinstance(node, BinOp):
        children = [(node.left, _compile(node.left)), (node.right, _compile(node.right))]
        (left, right), reads = _hoisted(children, root)
        return _BINARY[node.op](left, right), reads
    if isinstance(node, Call):
        (arg,), reads = _hoisted([(node.arg, _compile(node.arg))], root)
        return _call(node.func, arg), reads
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


class Expression(FrozenRecord):
    """A parsed expression in the variables x and t.

    Calling it, ``expression(x, t)``, evaluates it with numpy broadcasting:
    x and t may each be a float or a float64 array, and the result is a
    numpy float or array.  A result that depends on neither variable is a
    numpy float whatever the inputs' shapes.  Expressions are equal when
    their trees are.
    """

    __slots__ = ("root", "_function", "_variables")
    _fields = ("root",)
    root: Node
    _function: Callable
    _variables: frozenset[str]

    def __init__(self, root: Node) -> None:
        function, variables = _compile(root, root=True)
        if not variables:
            function = _folded(function)
        self._assign(root, function, variables)

    def __call__(self, x=0.0, t=0.0):
        with np.errstate(all="ignore"):
            return self._function(_operand(x), _operand(t))

    def evaluate(self, x: float = 0.0, t: float = 0.0) -> float:
        # a one-element array takes the code path of a knot array (numpy's
        # scalar and array powers can differ in the last bit), so this agrees
        # bit for bit with each element of an array call
        return float(np.ravel(self(np.array([x], dtype=float), t))[0])

    def variables(self) -> frozenset[str]:
        return self._variables

    def __str__(self) -> str:
        return _unparse(self.root)


def parse(source: str) -> Expression:
    """Parse source text into an :class:`Expression`."""
    return Expression(_Parser(source).parse())

