"""Acceptance suite. One criterion per test_cNN group; keep names stable,
the terminal summary in conftest is keyed on them."""

import json
import random
import time
from fractions import Fraction

import pytest

from eqparse import cli
from eqparse.core import (
    Apply,
    Const,
    Op,
    Order,
    is_projective,
    tree_leaves,
    validate_tree,
)
from eqparse.corpus import example_to_json
from eqparse.evaluation import (
    Mode,
    canonicalize,
    cross_validate,
    equations_equal,
    evaluate,
    swap_labels,
)
from eqparse.learning import (
    ExhaustiveDecoder,
    LinearModel,
    SupersetExample,
    TrainConfig,
    dot,
    train_structured,
    train_superset,
)
from eqparse.pipeline import PipelineConfig, train_bundle
from eqparse.quantities import sentence_quantities
from eqparse.relevance import (
    enumerate_assignments,
    predict_relevance,
    relevance_features,
)
from eqparse.treeparse import (
    CkyDecoder,
    NodeContext,
    enumerate_projective_trees,
    lexicon_match,
    tree_features,
)

from helpers import (
    HashWeights,
    commute,
    random_equation,
    random_relevance_instance,
    random_tree_instance,
)


# --- criterion 1: annotated running example, end to end ----------------------


def test_c01_running_example_end_to_end(bundle_path, twice_triple_input_path,
                                        capsys):
    start = time.perf_counter()
    code = cli.main(["parse", "--model", str(bundle_path),
                     "--input", str(twice_triple_input_path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["equation"] == "(= (* 2 V1) (- (* 3 V1) 25))"
    assert set(payload["groundings"]) == {"V1"}
    assert payload["groundings"]["V1"]["text"] in (
        "a number", "the same number")
    assert elapsed < 1.0


# --- criterion 2: lexicon rules and precedence --------------------------------


def ctx(mid="", left="", right="", token=None):
    return NodeContext(mid=mid, left=left, right=right, left_token=token)


def test_c02_rule1_sum_of():
    assert lexicon_match(ctx(left="The sum of ", mid="")) == (Op.ADD, Order.LR)
    assert lexicon_match(ctx(left="the sum of ", mid=" and ")) \
        == (Op.ADD, Order.LR)


def test_c02_rule2_comparative_addition():
    assert lexicon_match(ctx(mid=" more than ")) == (Op.ADD, Order.LR)
    assert lexicon_match(ctx(mid=" taller than ")) == (Op.ADD, Order.LR)
    assert lexicon_match(ctx(mid=" increased by ")) == (Op.ADD, Order.LR)


def test_c02_rule3_comparative_with_by():
    assert lexicon_match(ctx(mid=" larger than ", right=" by ")) \
        == (Op.SUB, Order.LR)


def test_c02_rule4_difference_of():
    assert lexicon_match(ctx(left="The difference of ", mid=" and ")) \
        == (Op.SUB, Order.LR)
    assert lexicon_match(ctx(left="the difference of ", mid="")) \
        == (Op.SUB, Order.LR)


def test_c02_rule5_exceeds():
    assert lexicon_match(ctx(left=" exceeds ")) == (Op.SUB, Order.LR)
    assert lexicon_match(ctx(left=" minus ")) == (Op.SUB, Order.LR)
    assert lexicon_match(ctx(left=" decreased by ")) == (Op.SUB, Order.LR)


def test_c02_rule6_reversed_subtraction():
    assert lexicon_match(ctx(mid=" less than ")) == (Op.SUB, Order.RL)
    assert lexicon_match(ctx(mid=" subtracted from ")) == (Op.SUB, Order.RL)
    assert lexicon_match(ctx(mid=" shorter than ")) == (Op.SUB, Order.RL)


def test_c02_rule7_multiplied_by():
    assert lexicon_match(ctx(mid=" multiplied by ")) == (Op.MUL, Order.LR)


def test_c02_rule8_product_of():
    assert lexicon_match(ctx(left="The product of ", mid=" and ")) \
        == (Op.MUL, Order.LR)
    assert lexicon_match(ctx(left="The product of ", mid=" or ")) is None


def test_c02_rule9_ratio_of():
    assert lexicon_match(ctx(left="The ratio of ", mid=" to ")) \
        == (Op.DIV, Order.LR)


def test_c02_rule10_multiplier_words():
    assert lexicon_match(ctx(token="Twice")) == (Op.MUL, Order.LR)
    assert lexicon_match(ctx(token="triple")) == (Op.MUL, Order.LR)
    assert lexicon_match(ctx(mid=" times ")) == (Op.MUL, Order.LR)


def test_c02_rule11_fraction_as_as():
    assert lexicon_match(ctx(token="half", mid=" as many ", right=" as ")) \
        == (Op.DIV, Order.RL)


def test_c02_precedence_rule3_over_rule2():
    # "more than ... by" matches both; subtraction must win
    assert lexicon_match(ctx(mid=" more than ", right=" by ")) \
        == (Op.SUB, Order.LR)


def test_c02_precedence_rule11_over_rule10():
    # a multiplier word inside an "as ... as" frame must read as division
    assert lexicon_match(ctx(token="twice", mid=" as much ", right=" as ")) \
        == (Op.DIV, Order.RL)
    assert lexicon_match(ctx(token="twice", mid=" as much ")) \
        == (Op.MUL, Order.LR)


# --- criterion 3: CKY equals exhaustive enumeration ---------------------------


def test_c03_cky_matches_enumeration():
    rng = random.Random(1234)
    start = time.perf_counter()
    for trial in range(200):
        n = 2 + trial % 3
        sentence, triggers = random_tree_instance(rng, n)
        weights = HashWeights(salt=trial)
        for use_lexicon in (True, False):
            decoder = CkyDecoder(use_lexicon=use_lexicon)
            x = (sentence, triggers)
            decoded = decoder.decode(x, weights)
            best = max(
                dot(weights, tree_features(sentence, triggers, t))
                for t in enumerate_projective_trees(
                    sentence, triggers, use_lexicon=use_lexicon))
            got = dot(weights, tree_features(sentence, triggers, decoded))
            assert got == pytest.approx(best, abs=1e-9)
    assert time.perf_counter() - start < 10.0


# --- criterion 4: structural invariants of decoded trees ----------------------


def test_c04_decoded_tree_invariants():
    rng = random.Random(4321)
    for trial in range(1000):
        n = rng.randint(2, 6)
        sentence, triggers = random_tree_instance(rng, n)
        decoder = CkyDecoder(use_lexicon=bool(trial % 2))
        tree = decoder.decode((sentence, triggers), HashWeights(salt=trial))
        validate_tree(tree)
        assert tree.op is Op.EQ
        assert is_projective(tree)
        assert [leaf.trigger for leaf in tree_leaves(tree)] == list(triggers)


# --- criterion 5: superset supervision ----------------------------------------


def indicator_features(x, y):
    return {f"xy={x}:{y}": 1.0, f"y={y}": 1.0}


def test_c05_superset_training_toy_task():
    space = list(range(8))
    decoder = ExhaustiveDecoder(lambda x: list(space), indicator_features)
    examples = [SupersetExample(0, (1, 5)), SupersetExample(1, (1, 6)),
                SupersetExample(2, (1, 7))]
    config = TrainConfig()  # max_outer_iters=10
    model = train_superset(examples, decoder, config)
    # converged within the 10-iteration cap: more headroom changes nothing
    roomier = train_superset(examples, decoder,
                             TrainConfig(max_outer_iters=25))
    assert model.weights == roomier.weights
    for ex in examples:
        best_gold = max(model.score(indicator_features(ex.x, y))
                        for y in ex.gold_set)
        for y in space:
            if y not in ex.gold_set:
                assert best_gold > model.score(indicator_features(ex.x, y))


def test_c05_singleton_gold_degenerates_to_structured():
    space = list(range(8))
    decoder = ExhaustiveDecoder(lambda x: list(space), indicator_features)
    pairs = [(0, 3), (1, 5), (2, 3)]
    for seed in (0, 7):
        config = TrainConfig(seed=seed)
        superset = train_superset(
            [SupersetExample(x, (y,)) for x, y in pairs], decoder, config)
        structured = train_structured(pairs, decoder, config)
        assert superset.weights == structured.weights


# --- criterion 6: joint relevance equals brute force ---------------------------


def test_c06_relevance_argmax_brute_force():
    rng = random.Random(99)
    for trial in range(100):
        sentence = random_relevance_instance(rng, rng.randint(0, 6))
        quantities = tuple(sentence_quantities(sentence))
        assert len(quantities) <= 6
        weights = HashWeights(salt=1000 + trial)
        got = predict_relevance(LinearModel(weights), sentence, quantities)
        best = None
        best_score = None
        for assignment in enumerate_assignments(len(quantities)):
            score = dot(weights,
                        relevance_features(sentence, quantities, assignment))
            if best_score is None or score > best_score:
                best, best_score = assignment, score
        assert got == best


# --- criterion 7: synthetic-corpus cross-validation ----------------------------


def test_c07_synthetic_corpus_cross_validation(synthetic_corpus):
    assert len(synthetic_corpus) == 40
    start = time.perf_counter()
    metrics = cross_validate(synthetic_corpus, k=5, seed=0,
                             config=PipelineConfig())
    elapsed = time.perf_counter() - start
    assert metrics.equation_accuracy >= 0.90
    assert metrics.equation_grounding_accuracy >= 0.85
    assert elapsed < 60.0


# --- criterion 8: canonicalization is an equivalence ---------------------------


def test_c08_canonicalization_properties():
    rng = random.Random(2718)
    for trial in range(500):
        e = random_equation(rng)
        once = canonicalize(e)
        assert canonicalize(once) == once  # idempotent
        assert equations_equal(e, e, Mode.EQUATION_ONLY)  # reflexive

        b = commute(e, rng)
        c = swap_labels(commute(b, rng))
        # perturbation chains stay inside the equivalence class
        assert equations_equal(e, b, Mode.EQUATION_ONLY)
        assert equations_equal(b, c, Mode.EQUATION_ONLY)
        assert equations_equal(e, c, Mode.EQUATION_ONLY)  # transitive

        other = random_equation(rng)
        # symmetric on arbitrary pairs, equal or not
        assert equations_equal(e, other, Mode.EQUATION_ONLY) \
            == equations_equal(other, e, Mode.EQUATION_ONLY)

        # a strictly larger right side can never be equivalent
        left, right = e.args
        bigger = Apply(Op.EQ, (left, Apply(Op.ADD,
                                           (Const(Fraction(1)), right))))
        assert not equations_equal(e, bigger, Mode.EQUATION_ONLY)


# --- criterion 9: determinism --------------------------------------------------


def test_c09_training_and_metrics_deterministic(synthetic_corpus):
    subset = synthetic_corpus[:10]
    config = PipelineConfig(seed=13)
    first = train_bundle(subset, config)
    second = train_bundle(subset, config)
    assert first.to_text().encode() == second.to_text().encode()
    a = json.dumps(evaluate(first, subset).to_json(), sort_keys=True)
    b = json.dumps(evaluate(second, subset).to_json(), sort_keys=True)
    assert a == b


# --- criterion 10: external corpus through cmd_cv ------------------------------


def test_c10_external_corpus_cv_reports_metrics(
        synthetic_corpus, multiplier_corpus, tmp_path, capsys):
    corpus = tmp_path / "external.jsonl"
    examples = list(multiplier_corpus) + list(synthetic_corpus[:5])
    corpus.write_text("".join(
        json.dumps(example_to_json(ex)) + "\n" for ex in examples))
    code = cli.main(["cv", "--corpus", str(corpus), "--folds", "5"])
    out = capsys.readouterr().out
    assert code == 0
    metrics = json.loads(out)
    assert set(metrics) == {
        "equation_accuracy", "equation_grounding_accuracy",
        "relevance_accuracy", "variable_accuracy",
        "tree_accuracy_gold_pipeline", "tree_accuracy_predicted_pipeline",
        "count"}
    assert metrics["count"] == 10
