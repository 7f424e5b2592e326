"""Expression parser and evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telespline.expr import (
    MAX_NESTING,
    BinOp,
    Call,
    EvaluationError,
    Expression,
    ExpressionSyntaxError,
    Neg,
    Num,
    UnknownFunctionError,
    Var,
    evaluate,
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

    def test_module_level_evaluate(self):
        assert evaluate(parse("x + t"), x=1.0, t=2.0) == 3.0


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
