"""Equation tree primitives: triggers, projectivity, expressions, parsing."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eqparse.core import (
    Apply,
    Const,
    Leaf,
    MAX_EQUATION_DEPTH,
    Node,
    Op,
    Order,
    QuantityTrigger,
    Span,
    Var,
    VariableTrigger,
    evaluate_expr,
    expr,
    expr_sort_key,
    format_expr,
    format_tree,
    internal_nodes,
    is_projective,
    location,
    make_apply,
    parse_equation,
    sort_triggers,
    span_end,
    span_start,
    tree_leaves,
    validate_tree,
    validate_trigger_list,
)
from eqparse.evaluation import align_gold_tree, canonicalize

from helpers import nested_equation, random_equation


def q(value, start, end=None) -> QuantityTrigger:
    return QuantityTrigger(Fraction(value), Span(start, start + 1 if end is None else end))


def v(label, start, end=None) -> VariableTrigger:
    return VariableTrigger(label, Span(start, start + 1 if end is None else end))


def twice_triple_tree():
    """Gold tree for 'Twice a number equals 25 less than triple the same
    number.' over triggers [2@0, V1@6, 25@22, 3@35, V1@42]."""
    t2, tv1a, t25, t3, tv1b = (q(2, 0, 5), v("V1", 6, 14), q(25, 22, 24),
                               q(3, 35, 41), v("V1", 42, 57))
    left = Node(Op.MUL, Order.LR, Leaf(t2), Leaf(tv1a))
    inner = Node(Op.MUL, Order.LR, Leaf(t3), Leaf(tv1b))
    right = Node(Op.SUB, Order.RL, Leaf(t25), inner)
    return Node(Op.EQ, Order.LR, left, right)


class TestSpan:
    def test_text_slice(self):
        assert Span(6, 14).text("Twice a number equals") == "a number"

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Span(5, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Span(-1, 3)


class TestTriggers:
    def test_location_is_span_start(self):
        # leaf for "25" at chars 22..24
        assert location(q(25, 22, 24)) == 22

    def test_location_identity(self):
        assert location(q(7, 0, 5)) == 0

    def test_locations_preserve_text_order(self):
        a, b = q(1, 3, 8), q(2, 10, 14)
        assert location(a) < location(b)

    def test_sort_is_stable_for_shared_span(self):
        # a self-pair grounds V1 and V2 in one NP; V1 stays first
        v1, v2 = v("V1", 11, 22), v("V2", 11, 22)
        assert sort_triggers([v1, v2]) == [v1, v2]
        assert sort_triggers([q(80, 26), v2, v1]) != []  # smoke: no crash

    def test_sort_quantity_before_variable_at_same_location(self):
        quant, var = q(3, 5, 6), v("V1", 5, 9)
        assert sort_triggers([var, quant]) == [quant, var]

    def test_validate_rejects_short_list(self):
        with pytest.raises(ValueError):
            validate_trigger_list([q(1, 0)])

    def test_validate_rejects_unsorted(self):
        with pytest.raises(ValueError):
            validate_trigger_list([q(1, 10), q(2, 0)])

    def test_validate_rejects_v2_without_v1(self):
        with pytest.raises(ValueError):
            validate_trigger_list([q(1, 0), v("V2", 5)])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            VariableTrigger("V3", Span(0, 2))


class TestTreeStructure:
    def test_order_flag_only_on_sub_div(self):
        with pytest.raises(ValueError):
            Node(Op.ADD, Order.RL, Leaf(q(1, 0)), Leaf(q(2, 5)))
        Node(Op.SUB, Order.RL, Leaf(q(1, 0)), Leaf(q(2, 5)))  # fine

    def test_validate_requires_eq_root(self):
        t = Node(Op.ADD, Order.LR, Leaf(q(1, 0)), Leaf(q(2, 5)))
        with pytest.raises(ValueError):
            validate_tree(t)

    def test_validate_rejects_nested_eq(self):
        inner = Node(Op.EQ, Order.LR, Leaf(q(1, 0)), Leaf(q(2, 5)))
        t = Node(Op.EQ, Order.LR, inner, Leaf(q(3, 9)))
        with pytest.raises(ValueError):
            validate_tree(t)

    def test_span_min_max(self):
        t = Node(Op.EQ, Order.LR, Leaf(q(1, 0, 5)), Leaf(q(2, 22, 24)))
        assert span_start(t) == 0 and span_end(t) == 22

    def test_leaf_span_is_its_location(self):
        leaf = Leaf(q(3, 35, 41))
        assert span_start(leaf) == span_end(leaf) == 35

    def test_full_tree_span(self):
        t = twice_triple_tree()
        assert span_start(t) == 0  # location of "Twice"
        assert span_end(t) == 42   # location of "the same number"

    def test_leaves_and_internal_nodes(self):
        t = twice_triple_tree()
        assert len(tree_leaves(t)) == 5
        assert len(internal_nodes(t)) == 4


class TestProjectivity:
    def test_two_mention_tree_is_projective(self):
        assert is_projective(twice_triple_tree())

    def test_collapsed_grounding_breaks_projectivity(self):
        # ground both variable mentions to the first NP: the second variable
        # leaf now sits at location 6 inside a subtree spanning 22..41
        t2, tv1a, t25, t3 = q(2, 0, 5), v("V1", 6, 14), q(25, 22, 24), q(3, 35, 41)
        tv1b = v("V1", 6, 14)
        left = Node(Op.MUL, Order.LR, Leaf(t2), Leaf(tv1a))
        inner = Node(Op.MUL, Order.LR, Leaf(t3), Leaf(tv1b))
        right = Node(Op.SUB, Order.RL, Leaf(t25), inner)
        assert not is_projective(Node(Op.EQ, Order.LR, left, right))

    def test_two_leaf_tree_always_projective(self):
        assert is_projective(Node(Op.EQ, Order.LR, Leaf(q(1, 9)), Leaf(q(2, 3))))


class TestExpr:
    def test_rl_order_reverses_operands(self):
        # node over leaf 25 (left) and subtree 3*V1 (right), order rl
        inner = Node(Op.MUL, Order.LR, Leaf(q(3, 35)), Leaf(v("V1", 42)))
        node = Node(Op.SUB, Order.RL, Leaf(q(25, 22)), inner)
        assert format_expr(expr(node)) == "(- (* 3 V1) 25)"

    def test_root_denotes_full_equation(self):
        assert (format_expr(expr(twice_triple_tree()))
                == "(= (* 2 V1) (- (* 3 V1) 25))")

    def test_two_leaf_base_case(self):
        t = Node(Op.EQ, Order.LR, Leaf(v("V1", 0, 4)), Leaf(q(80, 10)))
        assert format_expr(expr(t)) == "(= V1 80)"

    def test_format_tree_matches_expr_formatting(self):
        t = twice_triple_tree()
        assert format_tree(t) == format_expr(expr(t))

    def test_evaluate_exact_fractions(self):
        e = make_apply(Op.DIV, Const(Fraction(1)), Const(Fraction(3)))
        assert evaluate_expr(e) == Fraction(1, 3)

    def test_evaluate_substitutes_variables(self):
        e = make_apply(Op.ADD, Var("V1"), Const(Fraction(2)))
        assert evaluate_expr(e, {"V1": Fraction(5)}) == Fraction(7)

    def test_evaluate_rejects_equality(self):
        e = Apply(Op.EQ, (Const(Fraction(1)), Const(Fraction(1))))
        with pytest.raises(ValueError):
            evaluate_expr(e)

    def test_make_apply_sorts_commutative_args(self):
        e = make_apply(Op.ADD, Var("V1"), Const(Fraction(3)))
        assert e.args == (Const(Fraction(3)), Var("V1"))

    def test_make_apply_keeps_sub_order(self):
        e = make_apply(Op.SUB, Var("V1"), Const(Fraction(3)))
        assert e.args == (Var("V1"), Const(Fraction(3)))

    def test_sort_key_orders_const_var_compound(self):
        c, var = Const(Fraction(2)), Var("V1")
        comp = make_apply(Op.ADD, c, var)
        keys = [expr_sort_key(x) for x in (c, var, comp)]
        assert keys == sorted(keys)


class TestParseEquation:
    def test_parses_running_example(self):
        e = parse_equation("(= (* 2 V1) (- (* 3 V1) 25))")
        assert format_expr(e) == "(= (* 2 V1) (- (* 3 V1) 25))"

    def test_parses_fraction_values(self):
        e = parse_equation("(= (* 1/2 V1) 15)")
        assert format_expr(e) == "(= (* 1/2 V1) 15)"

    def test_rejects_missing_eq_root(self):
        with pytest.raises(ValueError):
            parse_equation("(+ V1 V2)")

    def test_rejects_nested_eq(self):
        with pytest.raises(ValueError):
            parse_equation("(= (= V1 2) 3)")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_equation("(= V1")

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            parse_equation("(= V1 V2 V3)")

    @pytest.mark.parametrize("text", [
        "(= (= V1 2) 3)", "(= 3 (= V1 2))",
        "(= (+ 1 (* 2 (- 3 (/ 4 (= V1 2))))) 3)"],
        ids=["left-operand", "right-operand", "five-deep"])
    def test_eq_below_the_root_named(self, text):
        with pytest.raises(ValueError, match="^EQ below the root in "):
            parse_equation(text)

    def test_nesting_bound(self):
        assert nested_equation(3) == "(= V1 (+ 1 (+ 1 1)))"
        e = parse_equation(nested_equation(MAX_EQUATION_DEPTH))
        assert format_expr(e) == nested_equation(MAX_EQUATION_DEPTH)
        with pytest.raises(ValueError, match=(
                f"^equation nested deeper than {MAX_EQUATION_DEPTH} "
                "operators: ")):
            parse_equation(nested_equation(MAX_EQUATION_DEPTH + 1))

    def test_passes_at_the_nesting_bound_fit_the_stack(self):
        # each recursive pass over the deepest equation the parser
        # accepts, and over its tree, runs within 500 frames of its
        # caller's, half of the interpreter's default limit
        text = nested_equation(MAX_EQUATION_DEPTH)
        e = parse_equation(text)
        triggers = [VariableTrigger("V1", Span(0, 2))] + [
            QuantityTrigger(Fraction(1), Span(i, i + 1))
            for i in range(3, 3 + 2 * MAX_EQUATION_DEPTH, 2)]
        tree = align_gold_tree(e, triggers)
        assert len(internal_nodes(tree)) == MAX_EQUATION_DEPTH
        frame, used = sys._getframe(), 0
        while frame is not None:
            frame, used = frame.f_back, used + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(used + 500)
        try:
            assert canonicalize(parse_equation(text)) == canonicalize(e)
            assert expr_sort_key(e) == expr_sort_key(expr(tree))
            assert align_gold_tree(e, triggers) == tree
            assert format_tree(tree) == text
            validate_tree(tree)
        finally:
            sys.setrecursionlimit(limit)


# --- property tests ----------------------------------------------------------


def _rank_contiguity(tree) -> bool:
    """Independent projectivity oracle: every subtree's leaves occupy a
    contiguous run of the location-sorted leaf order."""
    locs = sorted(location(leaf.trigger) for leaf in tree_leaves(tree))
    rank = {loc: i for i, loc in enumerate(locs)}
    ok = True

    def walk(node):
        nonlocal ok
        if isinstance(node, Leaf):
            return {rank[location(node.trigger)]}
        ranks = walk(node.left) | walk(node.right)
        if max(ranks) - min(ranks) + 1 != len(ranks):
            ok = False
        return ranks

    walk(tree)
    return ok


@st.composite
def trees_with_distinct_locations(draw):
    n = draw(st.integers(2, 6))
    locs = draw(st.lists(st.integers(0, 300), min_size=n, max_size=n,
                         unique=True))
    leaves = [Leaf(QuantityTrigger(Fraction(i + 1), Span(loc, loc + 1)))
              for i, loc in enumerate(locs)]

    def build(lo, hi, is_root):
        if hi - lo == 1:
            return leaves[lo]
        k = draw(st.integers(lo + 1, hi - 1))
        if is_root:
            op, order = Op.EQ, Order.LR
        else:
            op = draw(st.sampled_from((Op.ADD, Op.SUB, Op.MUL, Op.DIV)))
            order = (draw(st.sampled_from((Order.LR, Order.RL)))
                     if op in (Op.SUB, Op.DIV) else Order.LR)
        return Node(op, order, build(lo, k, False), build(k, hi, False))

    return build(0, n, True)


@given(trees_with_distinct_locations())
def test_projectivity_matches_contiguity_oracle(tree):
    assert is_projective(tree) == _rank_contiguity(tree)


@given(st.integers(0, 10_000))
def test_parse_format_roundtrip(seed):
    e = random_equation(random.Random(seed))
    assert parse_equation(format_expr(e)) == e


@given(st.integers(0, 10_000))
def test_sort_triggers_idempotent(seed):
    rng = random.Random(seed)
    triggers = []
    for _ in range(rng.randrange(2, 8)):
        start = rng.randrange(0, 50)
        triggers.append(q(rng.randrange(1, 9), start, start + rng.randrange(1, 5)))
    once = sort_triggers(triggers)
    assert sort_triggers(once) == once
