"""Expression parser and evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telespline.expr as expr_module
from telespline.expr import (
    MAX_NESTING,
    MAX_OPERATORS,
    BinOp,
    Call,
    EvaluationError,
    Expression,
    ExpressionSyntaxError,
    Neg,
    Num,
    UnknownFunctionError,
    Var,
    parse,
)


class TestGrammar:
    def test_power_is_right_associative(self):
        assert parse("2^3^2").evaluate() == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-2^2").evaluate() == -4.0
        assert parse("(-2)^2").evaluate() == 4.0

    def test_unary_minus_binds_tighter_than_product(self):
        assert parse("-2*3").evaluate() == -6.0
        assert parse("-2*3 + 1").evaluate() == -5.0

    def test_double_negation(self):
        tree = parse("--2")
        assert tree.root == Neg(Neg(Num(2.0)))
        assert tree.evaluate() == 2.0

    def test_left_associative_products_and_sums(self):
        assert parse("8/4/2").evaluate() == 1.0
        assert parse("8 - 4 - 2").evaluate() == 2.0

    def test_precedence_mix(self):
        assert parse("2 + 3*4^2").evaluate() == 50.0

    def test_variables(self):
        assert parse("x").evaluate(x=7.0) == 7.0
        assert parse("t").evaluate(t=-1.5) == -1.5
        assert parse("x - x^2").evaluate(x=0.5, t=99.0) == 0.25

    def test_pi_folds_to_constant(self):
        tree = parse("pi")
        assert tree.root == Num(math.pi)
        assert tree.variables() == frozenset()

    def test_whitespace_is_insignificant(self):
        assert parse(" 2 * ( x + 1 ) ").evaluate(x=3.0) == parse("2*(x+1)").evaluate(
            x=3.0
        )

    def test_number_formats(self):
        assert parse("1.5e2").evaluate() == 150.0
        assert parse(".5").evaluate() == 0.5
        assert parse("2.").evaluate() == 2.0
        assert parse("1e-3").evaluate() == 0.001

    def test_functions(self):
        assert parse("sin(pi/2)").evaluate() == pytest.approx(1.0, rel=1e-15)
        assert parse("sqrt(9)").evaluate() == 3.0
        assert parse("abs(0 - 4)").evaluate() == 4.0
        # frozen library reference value for tan(1)
        assert parse("tan((x + t)/2)").evaluate(x=1.0, t=1.0) == pytest.approx(
            1.5574077246549023, rel=1e-15
        )
        assert parse("exp(-t)*sin(x)").evaluate(x=math.pi / 2, t=0.0) == 1.0

    def test_variables_reported(self):
        assert parse("exp(-t)*sin(x)").variables() == frozenset({"x", "t"})
        assert parse("2 + 2").variables() == frozenset()


class TestSyntaxErrors:
    def test_no_implicit_multiplication(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("2x")
        assert info.value.position == 1

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("(2 + 3")
        assert info.value.position == 6
        assert "')'" in info.value.expected

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("")
        assert info.value.position == 0

    def test_dangling_operator(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("2 +")

    def test_double_star_is_not_power(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("2**3")

    def test_unknown_character(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("2 & 3")
        assert info.value.position == 2

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError) as info:
            parse("foo(2)")
        assert info.value.name == "foo"

    def test_bare_name_is_not_a_variable(self):
        with pytest.raises(UnknownFunctionError):
            parse("y + 1")

    @pytest.mark.parametrize(
        "opener", ["(", "sin(", "-", "1^"], ids=["parens", "calls", "minus", "power"]
    )
    def test_nesting_limit(self, opener):
        closer = ")" if opener.endswith("(") else ""
        deep = opener * 150 + "x" + closer * 150
        with pytest.raises(ExpressionSyntaxError) as info:
            parse(deep)
        # the construct that would open level MAX_NESTING + 1
        assert info.value.position == MAX_NESTING * len(opener)
        assert "levels of nesting" in str(info.value)
        shallow = opener * 50 + "x" + closer * 50
        assert math.isfinite(parse(shallow).evaluate(x=0.25))

    def test_operator_limit(self):
        # a flat chain is not nested, but compiling and evaluating it recurse
        # once per operator
        longest = "x" + "+x" * MAX_OPERATORS
        with pytest.raises(ExpressionSyntaxError) as info:
            parse(longest + "+x")
        assert info.value.position == len(longest)
        assert f"at most {MAX_OPERATORS} operators" in str(info.value)
        x = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(
            parse(longest)(x, 0.0), (MAX_OPERATORS + 1) * x, rtol=1e-13
        )
        # a 500-term chain adds left to right, exactly as numpy does
        terms = ["x" if k % 2 else f"{k}e-3" for k in range(1, 501)]
        expected = x
        for term in terms[1:]:
            expected = expected + (x if term == "x" else float(term))
        assert parse("+".join(terms))(x, 0.0).tobytes() == expected.tobytes()


class TestArrays:
    def test_array_call_broadcasts(self):
        x = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(parse("x^2 + t")(x, 1.0), x**2 + 1.0)
        assert parse("exp(-t)")(x, 0.0) == 1.0
        assert np.shape(parse("exp(-t)")(x, 0.0)) == ()

    def test_scalar_call_and_evaluate_agree(self):
        tree = parse("tan((x + t)/2)")
        assert tree(1.0, 1.0) == tree.evaluate(x=1.0, t=1.0)
        assert isinstance(tree.evaluate(x=1.0, t=1.0), float)


class TestEvaluationErrors:
    def test_division_by_zero(self):
        tree = parse("1/(x - x)")
        with pytest.raises(EvaluationError) as info:
            tree.evaluate(x=3.0)
        assert info.value.operation == "/"
        assert info.value.operands == (1.0, 0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvaluationError) as info:
            parse("sqrt(-1)").evaluate()
        assert info.value.operation == "sqrt"
        assert info.value.operands == (-1.0,)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvaluationError) as info:
            parse("(-1)^0.5").evaluate()
        assert info.value.operation == "^"

    def test_overflow(self):
        with pytest.raises(EvaluationError):
            parse("exp(1000)").evaluate()
        with pytest.raises(EvaluationError):
            parse("10^10000").evaluate()

    def test_operands_of_the_first_offending_element(self):
        x = np.array([1.0, 3.0, 5.0])
        with pytest.raises(EvaluationError) as info:
            parse("1/(x - 3)")(x, 0.0)
        assert (info.value.operation, info.value.operands) == ("/", (1.0, 0.0))
        with pytest.raises(EvaluationError) as info:
            parse("sqrt(2 - x)")(x, 0.0)
        assert (info.value.operation, info.value.operands) == ("sqrt", (-1.0,))
        with pytest.raises(EvaluationError) as info:
            parse("(1 - x)^t")(x, 0.5)
        assert (info.value.operation, info.value.operands) == ("^", (-2.0, 0.5))
        with pytest.raises(EvaluationError) as info:
            parse("exp(300*x)")(x, 0.0)
        assert (info.value.operation, info.value.operands) == ("exp", (900.0,))

    def test_non_finite_inputs_are_not_errors(self):
        # math.exp(inf) and math.pow(inf, 2) return inf rather than raising
        x = np.array([1.0, 2.0])
        assert np.all(np.isinf(parse("exp(1e308*10*x)")(x, 0.0)))
        assert np.all(np.isinf(parse("(1e308*10*x)^2")(x, 0.0)))


# random expression trees; literals are nonnegative so '-' only appears as Neg
def _trees():
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6).map(lambda v: Num(abs(v))),
        st.sampled_from([Var("x"), Var("t")]),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda ops: BinOp(ops[0], ops[1], ops[2])
            ),
            st.tuples(
                st.sampled_from(["sin", "cos", "tan", "exp", "sqrt", "abs"]), children
            ).map(lambda ops: Call(ops[0], ops[1])),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(tree=_trees())
def test_unparse_parse_round_trip(tree):
    assert parse(str(Expression(tree))).root == tree


# random trees over x, t and small constants, for the array/scalar agreement
def _small_trees():
    leaves = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Num),
        st.sampled_from([Var("x"), Var("t")]),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda ops: BinOp(ops[0], ops[1], ops[2])
            ),
            st.tuples(
                st.sampled_from(["sin", "cos", "tan", "exp", "sqrt", "abs"]), children
            ).map(lambda ops: Call(ops[0], ops[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


# 64 points on [-4, 4) in steps of 1/8, so 0 and the integers are hit exactly
_GRID = np.arange(64) / 8.0 - 4.0


def _outcome(function):
    try:
        return function()
    except EvaluationError:
        return EvaluationError


@settings(max_examples=300, deadline=None)
@given(tree=_small_trees(), t=st.sampled_from([0.0, -0.75, 0.5, 2.0]))
def test_array_call_matches_evaluate_elementwise(tree, t):
    expression = Expression(tree)
    whole = _outcome(lambda: np.broadcast_to(expression(_GRID, t), _GRID.shape))
    each = [_outcome(lambda: expression.evaluate(x=float(x), t=t)) for x in _GRID]
    raised = [value is EvaluationError for value in each]
    assert (whole is EvaluationError) == any(raised)
    if whole is not EvaluationError:
        each = np.array(each)
        same_bits = whole.view(np.uint64) == each.view(np.uint64)
        assert np.all(same_bits | (np.isnan(whole) & np.isnan(each)))


def _bits(value):
    """What a call gave, down to the bits: the error, or type, shape and bytes."""
    if value is EvaluationError:
        return value
    return type(value), np.shape(value), np.asarray(value).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    tree=_small_trees(),
    t=st.sampled_from([0.0, -0.75, 0.5]),
    changed=st.integers(min_value=0, max_value=_GRID.size - 1),
)
def test_kept_subtrees_give_the_bits_of_a_fresh_parse(tree, t, changed):
    # the x-only subtrees keep their last value between calls; it must be
    # the value they would recompute, whatever happened to x in between
    expression = parse(str(Expression(tree)))

    def fresh(x):
        return _bits(_outcome(lambda: parse(str(Expression(tree)))(x, t)))

    x = _GRID.copy()
    for points in (x, x, x.copy(), np.array(x[::-1][::-1])):
        assert _bits(_outcome(lambda: expression(points, t))) == fresh(points)
    x[changed] = -x[changed] - 0.375  # in place: same object, new bits
    assert _bits(_outcome(lambda: expression(x, t))) == fresh(x)
    x *= 0.5
    result = _outcome(lambda: expression(x, t))
    assert _bits(result) == fresh(x)
    # the root is never kept, so a caller may write into what it gets
    if isinstance(result, np.ndarray) and result is not x:
        assert result.flags.writeable
        result[...] = 7.0
        assert _bits(_outcome(lambda: expression(x, t))) == fresh(x)


class TestKeptSubtrees:
    def test_failing_subtree_raises_on_every_call(self):
        expression = parse("t*(1/sin(x))")
        x = np.linspace(0.0, 1.0, 5)
        for _ in range(3):
            with pytest.raises(EvaluationError) as info:
                expression(x, 0.5)
            assert info.value.operation == "/"
        assert np.isfinite(expression(x[1:], 0.5)).all()
        with pytest.raises(EvaluationError):
            expression(x, 0.5)

    def test_x_only_factor_is_evaluated_once(self, monkeypatch):
        calls = []

        def sine(value):
            calls.append(value)
            return np.sin(value)

        monkeypatch.setitem(expr_module._FUNCTIONS, "sin", sine)
        expression = parse("(2 - 2*1.3 + 1.7^2)*exp(-t)*sin(x)")
        x = np.linspace(0.0, 3.0, 9)
        for t in (0.0, 0.1, 0.2):
            want = (2 - 2 * 1.3 + 1.7**2) * np.exp(-t) * np.sin(x)
            assert expression(x, t).tobytes() == want.tobytes()
        assert len(calls) == 1
        # the root is not kept, even when it reads x alone
        root = parse("sin(x)")
        root(x, 0.0)
        root(x, 0.0)
        assert len(calls) == 3

    def test_variables_come_from_the_compile_pass(self):
        assert parse("exp(-t)*sin(x) + 2").variables() == {"x", "t"}
        assert parse("sin(x)^2").variables() == {"x"}
        assert parse("2*pi").variables() == frozenset()
        longest = "x" + "+x" * MAX_OPERATORS
        assert parse(longest).variables() == {"x"}


def _result(expression, x, t):
    """A call's bits, or the operation and operands of the error it raised."""
    try:
        return _bits(expression(x, t))
    except EvaluationError as error:
        return EvaluationError, error.operation, error.operands


@settings(max_examples=300, deadline=None)
@given(tree=_small_trees(), t=st.sampled_from([0.0, -0.75, 0.5]))
def test_folded_constants_give_the_bits_of_unfolded_ones(tree, t):
    folded = Expression(tree)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr_module, "_folded", lambda closure: closure)
        unfolded = Expression(tree)
    for x in (_GRID, 0.25, -3.0):
        assert _result(folded, x, t) == _result(unfolded, x, t)


class TestFoldedConstants:
    def test_constant_subtree_is_evaluated_once(self, monkeypatch):
        calls = []

        def exponential(value):
            calls.append(value)
            return np.exp(value)

        monkeypatch.setitem(expr_module._FUNCTIONS, "exp", exponential)
        expression = parse("(2 - 2*1.3 + 1.7^2)*exp(-1.5)*t + exp(-t)")
        assert len(calls) == 1
        for t in (0.0, 0.1, 0.2):
            want = (2 - 2 * 1.3 + 1.7**2) * np.exp(-1.5) * t + np.exp(-t)
            assert expression(0.0, t) == want
        # only exp(-t) runs at each call
        assert len(calls) == 4
        assert parse("exp(2)").evaluate() == np.exp(2.0)
        assert len(calls) == 5

    @pytest.mark.parametrize(
        "source, operation, operands",
        [
            ("1/0 + x", "/", (1.0, 0.0)),
            ("1/0", "/", (1.0, 0.0)),
            ("t*sqrt(-1)", "sqrt", (-1.0,)),
            ("(2^3 + (-1)^0.5)*x", "^", (-1.0, 0.5)),
            ("exp(1000) - exp(1000) + t", "exp", (1000.0,)),
        ],
    )
    def test_failing_constant_raises_at_every_call(self, source, operation, operands):
        expression = parse(source)
        for _ in range(2):
            with pytest.raises(EvaluationError) as info:
                expression(np.linspace(0.0, 1.0, 3), 0.5)
            assert (info.value.operation, info.value.operands) == (operation, operands)

    def test_constant_root_is_a_numpy_float(self):
        x = np.linspace(0.0, 1.0, 4)
        value = parse("2*pi - 1")(x, np.zeros(3))
        assert type(value) is np.float64
        assert value == 2 * math.pi - 1
