"""Equation equivalence, gold tree alignment, and corpus metrics."""

import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from eqparse.core import (
    Apply,
    Const,
    Leaf,
    Op,
    Order,
    QuantityTrigger,
    Span,
    Var,
    VariableTrigger,
    expr,
    format_expr,
    parse_equation,
    sort_triggers,
)
from eqparse.corpus import TokenTable
from eqparse.evaluation import (
    Metrics,
    Mode,
    align_gold_tree,
    canonicalize,
    equations_equal,
    evaluate,
    expr_constants,
    fold_indices,
    gold_tree_instance,
    grounding_matches,
    mean_metrics,
    swap_labels,
)
from eqparse.pipeline import PipelineConfig, train_bundle
from eqparse.quantities import sentence_quantities
from eqparse.relevance import RelevanceDecoder, derive_gold_relevance
from eqparse.treeparse import CkyDecoder
from eqparse.variables import VariableDecoder

from helpers import (
    commute,
    expr_leaves,
    leaf_triggers,
    random_equation,
    random_sized_arith,
    search_gold_tree,
)


def eq(text):
    return parse_equation(text)


class TestCanonicalize:
    def test_commutative_operands_sorted(self):
        assert canonicalize(eq("(= (+ V1 80) (+ 80 V1))")).args[0] \
            == canonicalize(eq("(= (+ V1 80) (+ 80 V1))")).args[1]

    def test_eq_orientation(self):
        assert canonicalize(eq("(= 80 V1)")) == canonicalize(eq("(= V1 80)"))

    def test_subtraction_not_commutative(self):
        a = canonicalize(eq("(= V1 (- (* 3 V1) 25))"))
        b = canonicalize(eq("(= V1 (- 25 (* 3 V1)))"))
        assert a != b

    def test_constant_folding(self):
        folded = canonicalize(eq("(= V1 (+ 2 3))"))
        assert folded == Apply(Op.EQ, (Const(Fraction(5)), Var("V1")))

    def test_mixed_operands_not_folded(self):
        e = canonicalize(eq("(= V1 (+ 3 (+ V2 2)))"))
        assert Fraction(5) not in expr_constants(e)

    def test_division_by_zero_left_unfolded(self):
        e = eq("(= V1 (/ 3 (- 2 2)))")
        out = canonicalize(e)
        # the inner subtraction folds to 0 but the division stays put
        assert sorted(expr_constants(out)) == [Fraction(0), Fraction(3)]

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(50):
            e = random_equation(rng)
            once = canonicalize(e)
            assert canonicalize(once) == once

    def test_eq_never_folded(self):
        out = canonicalize(eq("(= 2 2)"))
        assert isinstance(out, Apply) and out.op is Op.EQ


class TestSwapLabels:
    def test_involution(self):
        rng = random.Random(3)
        for _ in range(25):
            e = random_equation(rng)
            assert swap_labels(swap_labels(e)) == e

    def test_swaps_throughout(self):
        assert format_expr(swap_labels(eq("(= (* 2 V1) V2)"))) \
            == "(= (* 2 V2) V1)"


class TestEquationsEqual:
    def test_commutation_is_equal(self):
        assert equations_equal(eq("(= (+ 80 V1) V2)"), eq("(= V2 (+ V1 80))"),
                               Mode.EQUATION_ONLY)

    def test_operand_order_in_sub_matters(self):
        assert not equations_equal(eq("(= V1 (- (* 3 V1) 25))"),
                                   eq("(= V1 (- 25 (* 3 V1)))"),
                                   Mode.EQUATION_ONLY)

    def test_global_swap_allowed(self):
        assert equations_equal(eq("(= V1 (* 3 V2))"), eq("(= V2 (* 3 V1))"),
                               Mode.EQUATION_ONLY)

    def test_swap_must_be_global(self):
        assert not equations_equal(eq("(= V1 (* 3 V2))"),
                                   eq("(= V1 (* 3 V1))"),
                                   Mode.EQUATION_ONLY)

    def test_grounding_mode_separates(self):
        a, b = Span(0, 5), Span(10, 15)
        predicted = (VariableTrigger("V1", a),)
        gold = ((VariableTrigger("V1", b),),)
        assert equations_equal(eq("(= V1 7)"), eq("(= V1 7)"),
                               Mode.EQUATION_ONLY, predicted, gold)
        assert not equations_equal(eq("(= V1 7)"), eq("(= V1 7)"),
                                   Mode.WITH_GROUNDING, predicted, gold)

    def test_swap_consistent_grounding(self):
        a, b = Span(0, 5), Span(10, 15)
        predicted_eq = eq("(= V1 (* 3 V2))")
        gold_eq = eq("(= V2 (* 3 V1))")
        predicted_grounding = (VariableTrigger("V1", a),
                               VariableTrigger("V2", b))
        gold_grounding = ((VariableTrigger("V2", a), VariableTrigger("V1", b)),)
        assert equations_equal(predicted_eq, gold_eq, Mode.WITH_GROUNDING,
                               predicted_grounding, gold_grounding)
        # the same grounding without the swap must not match
        assert not equations_equal(predicted_eq, gold_eq, Mode.WITH_GROUNDING,
                                   predicted_grounding,
                                   ((VariableTrigger("V1", a),
                                     VariableTrigger("V2", b)),))

    def test_grounding_match_ignores_trigger_ordering(self):
        a, b = Span(0, 5), Span(10, 15)
        assert grounding_matches(
            (VariableTrigger("V2", b), VariableTrigger("V1", a)),
            ((VariableTrigger("V1", a), VariableTrigger("V2", b)),))


class TestAlignGoldTree:
    def test_running_example(self, twice_triple_example):
        instance = gold_tree_instance(twice_triple_example)
        assert instance is not None
        sentence, triggers, tree = instance
        assert [str(t.value) if isinstance(t, QuantityTrigger) else t.label
                for t in triggers] == ["2", "V1", "25", "3", "V1"]
        assert equations_equal(expr(tree),
                               eq("(= (* 2 V1) (- (* 3 V1) 25))"),
                               Mode.EQUATION_ONLY)
        assert tree.right.order is Order.RL

    def test_commutative_operands_either_text_order(self):
        triggers = (QuantityTrigger(Fraction(5), Span(0, 1)),
                    VariableTrigger("V1", Span(4, 9)))
        tree = align_gold_tree(eq("(= V1 5)"), triggers)
        assert tree is not None
        assert isinstance(tree.left, Leaf)
        assert tree.left.trigger is triggers[0]

    def test_subtraction_uses_rl_when_reversed(self):
        triggers = (QuantityTrigger(Fraction(5), Span(0, 1)),
                    QuantityTrigger(Fraction(9), Span(4, 5)),
                    QuantityTrigger(Fraction(4), Span(8, 9)))
        tree = align_gold_tree(eq("(= (- 9 5) 4)"), triggers)
        assert tree is not None
        sub = tree.left
        assert sub.op is Op.SUB
        assert sub.order is Order.RL
        assert expr(tree) == eq("(= (- 9 5) 4)")

    def test_unalignable_returns_none(self):
        # V1 appears twice in the equation but only once as a trigger
        triggers = (VariableTrigger("V1", Span(0, 5)),
                    QuantityTrigger(Fraction(3), Span(8, 9)))
        assert align_gold_tree(eq("(= (+ V1 V1) 3)"), triggers) is None

    def test_value_mismatch_returns_none(self):
        triggers = (QuantityTrigger(Fraction(7), Span(0, 1)),
                    VariableTrigger("V1", Span(4, 9)))
        assert align_gold_tree(eq("(= V1 5)"), triggers) is None

    def test_matches_exhaustive_search_on_shipped_corpus(
            self, synthetic_corpus, multiplier_corpus):
        # every grounding's trigger list, as `gold_tree_instance` builds it
        checked = 0
        for example in synthetic_corpus + multiplier_corpus:
            gold = example.gold_expr()
            quantities = sentence_quantities(example.sentence)
            bits = derive_gold_relevance(quantities, expr_constants(gold))
            relevant = [q for q, bit in zip(quantities, bits) if bit]
            for grounding in example.groundings or ((),):
                triggers = sort_triggers(relevant + list(grounding))
                assert align_gold_tree(gold, triggers) == search_gold_tree(
                    gold, triggers)
                checked += 1
        assert checked >= len(synthetic_corpus) + len(multiplier_corpus)

    def test_matches_exhaustive_search_on_random_instances(self):
        # trigger lists in the leaf order of a commuted gold (alignable),
        # shuffled (mostly not), or one trigger short; values repeat and
        # operands can be equal, so the first arrangement found matters
        rng = random.Random(43)
        outcomes = set()
        for trial in range(600):
            n = rng.randint(2, 10)
            left = rng.randint(1, n - 1)
            gold = Apply(Op.EQ, (random_sized_arith(rng, left),
                                 random_sized_arith(rng, n - left)))
            leaves = expr_leaves(commute(gold, rng))
            if trial % 3 == 1:
                rng.shuffle(leaves)
            elif trial % 3 == 2:
                del leaves[rng.randrange(n)]
            triggers = leaf_triggers(leaves)
            got = align_gold_tree(gold, triggers)
            assert got == search_gold_tree(gold, triggers)
            if got is not None:
                assert canonicalize(expr(got)) == canonicalize(gold)
            outcomes.add((trial % 3, got is None))
        assert outcomes >= {(0, False), (1, False), (1, True), (2, True)}

    @pytest.mark.parametrize("v1_at", [0, 15], ids=["alignable", "unalignable"])
    def test_thirty_triggers_align_in_polynomial_time(self, v1_at):
        # (= (+ (+ ... (+ 1 2) ... 28) 29) V1) over 30 triggers, V1 first
        # (aligned with the sum's operands swapped at the root) or amid the
        # constants (no projective tree). `search_gold_tree` takes over
        # 10 s on this shape from n = 24 (Python 3.11)
        total = Const(Fraction(1))
        for value in range(2, 30):
            total = Apply(Op.ADD, (total, Const(Fraction(value))))
        gold = Apply(Op.EQ, (total, Var("V1")))
        leaves = expr_leaves(total)
        leaves.insert(v1_at, Var("V1"))
        triggers = leaf_triggers(leaves)
        start = time.perf_counter()
        tree = align_gold_tree(gold, triggers)
        assert time.perf_counter() - start < 2.0
        if v1_at == 0:
            assert tree is not None
            assert canonicalize(expr(tree)) == canonicalize(gold)
            assert tree.left.trigger is triggers[0]
        else:
            assert tree is None


class OracleBundle:
    """Answers every stage from the gold annotation; used to pin metrics."""

    def __init__(self, examples):
        self.by_text = {ex.sentence.text: ex for ex in examples}

    def predict_relevance(self, sentence, quantities):
        ex = self.by_text[sentence.text]
        return derive_gold_relevance(
            quantities, expr_constants(parse_equation(ex.equation)))

    def predict_variables(self, sentence):
        ex = self.by_text[sentence.text]
        return tuple(ex.groundings[0])

    def decode_tree(self, sentence, triggers):
        ex = self.by_text[sentence.text]
        tree = align_gold_tree(parse_equation(ex.equation), triggers)
        if tree is None:
            raise ValueError("no alignment")
        return tree

    def parse(self, sentence):
        # the stages' answers, as a bundle's parse composes them
        ex = self.by_text[sentence.text]
        return SimpleNamespace(
            expr=parse_equation(ex.equation),
            relevance=self.predict_relevance(sentence,
                                             sentence_quantities(sentence)),
            variable_triggers=self.predict_variables(sentence))


class FirstNpBundle(OracleBundle):
    """Oracle except variables: always grounds a lone V1 to the first NP."""

    def predict_variables(self, sentence):
        return (VariableTrigger("V1", sentence.np_chunks[0]),)


class TestEvaluate:
    def test_oracle_bundle_is_perfect(self, twice_triple_example, sum_example):
        examples = [twice_triple_example, sum_example]
        metrics = evaluate(OracleBundle(examples), examples)
        assert metrics == Metrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2)

    def test_wrong_variables_only_hit_variable_accuracy(
            self, twice_triple_example, sum_example):
        examples = [twice_triple_example, sum_example]
        metrics = evaluate(FirstNpBundle(examples), examples)
        assert metrics.variable_accuracy == 0.0
        assert metrics.relevance_accuracy == 1.0
        assert metrics.tree_accuracy_gold_pipeline == 1.0
        assert metrics.equation_accuracy == 1.0

    def test_stages_are_decoded_once_per_example(
            self, monkeypatch, synthetic_corpus, multiplier_corpus):
        # relevance and grounding come from the example's parse; the tree
        # is decoded for the parse and on the gold trigger list, and the
        # sentence's token columns are built for each of the two. Where the
        # parse raises (here: no NP chunk to ground a variable in), the
        # relevance and variable decoders run again on their own
        examples = synthetic_corpus + multiplier_corpus
        bundle = train_bundle(examples, PipelineConfig())
        calls = Counter()

        def counting(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(RelevanceDecoder, "decode", "relevance")
        counting(VariableDecoder, "decode", "variables")
        counting(CkyDecoder, "decode", "tree")
        counting(TokenTable, "columns", "columns")
        assert evaluate(bundle, examples).count == len(examples)
        assert calls["columns"] == 2 * len(examples)
        no_np = replace(examples[0], groundings=(),
                        sentence=replace(examples[0].sentence, np_chunks=()))
        for example in examples + [no_np]:
            gold = gold_tree_instance(example) is not None
            parsed = bool(example.sentence.np_chunks)
            calls.clear()
            evaluate(bundle, [example])
            assert calls == Counter(relevance=1 + (not parsed),
                                    variables=1 + (not parsed),
                                    tree=parsed + gold,
                                    columns=1 + 2 * (not parsed) + gold)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(OracleBundle([]), [])

    def test_to_json_field_names(self):
        metrics = Metrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1)
        assert set(metrics.to_json()) == {
            "equation_accuracy", "equation_grounding_accuracy",
            "relevance_accuracy", "variable_accuracy",
            "tree_accuracy_gold_pipeline", "tree_accuracy_predicted_pipeline",
            "count"}


class TestFolds:
    def test_disjoint_cover(self):
        folds = fold_indices(10, 3, seed=4)
        assert sorted(i for fold in folds for i in fold) == list(range(10))
        assert [len(f) for f in folds] == [4, 3, 3]

    def test_leave_one_out(self):
        folds = fold_indices(4, 4, seed=0)
        assert all(len(f) == 1 for f in folds)

    def test_seed_determinism(self):
        assert fold_indices(20, 5, seed=9) == fold_indices(20, 5, seed=9)
        assert fold_indices(20, 5, seed=9) != fold_indices(20, 5, seed=10)

    def test_mean_metrics(self):
        a = Metrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2)
        b = Metrics(0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 2)
        mean = mean_metrics([a, b])
        assert mean.equation_accuracy == 0.5
        assert mean.relevance_accuracy == 0.75
        assert mean.count == 4


class TestGoldTreeInstance:
    def test_skips_sub_two_trigger_groundings(self, sum_example):
        instance = gold_tree_instance(sum_example)
        assert instance is not None
        _, triggers, tree = instance
        assert len(triggers) == 3
        assert equations_equal(expr(tree), eq("(= (+ V1 V2) 80)"),
                               Mode.EQUATION_ONLY)

    def test_irrelevant_quantity_excluded(self, sum_example):
        _, triggers, _ = gold_tree_instance(sum_example)
        values = [t.value for t in triggers if isinstance(t, QuantityTrigger)]
        assert values == [Fraction(80)]


def test_commute_preserves_equivalence():
    rng = random.Random(21)
    for _ in range(50):
        e = random_equation(rng)
        assert equations_equal(commute(e, rng), e, Mode.EQUATION_ONLY)
