"""Joint quantity relevance: features, enumeration, gold derivation."""

import random
from fractions import Fraction

import pytest

from eqparse.corpus import AnnotatedSentence
from eqparse.learning import dot
from eqparse.quantities import sentence_quantities
from eqparse.relevance import (
    MAX_JOINT_QUANTITIES,
    derive_gold_relevance,
    enumerate_assignments,
    hamming_cost,
    predict_relevance,
    quantity_features,
    relevance_decoder,
    relevance_features,
)

from helpers import HashWeights, random_relevance_instance


def test_trained_bundle_keeps_only_note_count(bundle, notes_sentence):
    # "There are 54 5-dollar and 10-dollar notes.": the denominations are
    # distractors of the same shape as the priced-items training family
    quantities = sentence_quantities(notes_sentence)
    assert [q.value for q in quantities] == [54, 5, 10]
    assert bundle.predict_relevance(notes_sentence, quantities) == (
        True, False, False)


def test_zero_quantities_assignment_and_features(sum_sentence):
    assert list(enumerate_assignments(0)) == [()]
    feats = relevance_features(sum_sentence, (), ())
    assert feats == {"qg_count=0/0": 1.0}


def test_phrase_unigram_feature_carries_bit(sum_sentence):
    quantities = sentence_quantities(sum_sentence)
    assert quantities[0].span.text(sum_sentence.text) == "two"
    feats = quantity_features(sum_sentence, quantities, 0, relevant=False)
    assert feats["qq_u=two|r=0"] == 1.0
    assert "qq_u=two|r=1" not in feats


def test_window_bigram_feature(twice_triple_sentence):
    quantities = sentence_quantities(twice_triple_sentence)
    index = [i for i, q in enumerate(quantities) if q.value == 25][0]
    feats = quantity_features(twice_triple_sentence, quantities, index,
                              relevant=True)
    assert feats["qn_b=equals 25|r=1"] == 1.0


def test_small_value_indicator(twice_triple_sentence):
    quantities = sentence_quantities(twice_triple_sentence)
    by_value = {q.value: i for i, q in enumerate(quantities)}
    feats2 = quantity_features(twice_triple_sentence, quantities,
                               by_value[Fraction(2)], relevant=True)
    feats25 = quantity_features(twice_triple_sentence, quantities,
                                by_value[Fraction(25)], relevant=True)
    assert "qq_small|r=1" in feats2
    assert "qq_small|r=1" not in feats25


def test_only_quantity_indicator():
    sentence = AnnotatedSentence(
        "It is 7 .", ("It", "is", "7", "."), ("PRP", "VBZ", "CD", "."), ())
    quantities = sentence_quantities(sentence)
    assert len(quantities) == 1
    feats = quantity_features(sentence, quantities, 0, relevant=True)
    assert "qq_only|r=1" in feats


def test_enumeration_order_all_true_first():
    assignments = list(enumerate_assignments(2))
    assert assignments[0] == (True, True)
    assert len(assignments) == 4
    assert len(set(assignments)) == 4


def test_joint_limit_enforced(sum_sentence):
    decoder = relevance_decoder()
    quantities = tuple(sentence_quantities(sum_sentence))
    too_many = quantities * (MAX_JOINT_QUANTITIES // 2 + 1)
    with pytest.raises(ValueError, match="joint limit"):
        decoder.candidates_fn((sum_sentence, too_many))


def test_cost_augmented_decode_matches_brute_force():
    # the training decode maximizes score + Hamming cost to the gold bits
    rng = random.Random(17)
    decoder = relevance_decoder()
    for trial in range(100):
        sentence = random_relevance_instance(rng, rng.randint(0, 6))
        quantities = tuple(sentence_quantities(sentence))
        gold = tuple(rng.random() < 0.5 for _ in quantities)
        weights = HashWeights(salt=2000 + trial)
        got = decoder.decode((sentence, quantities), weights, gold=gold)
        best = None
        best_score = None
        for assignment in enumerate_assignments(len(quantities)):
            score = (dot(weights, relevance_features(sentence, quantities,
                                                     assignment))
                     + hamming_cost(gold, assignment))
            if best_score is None or score > best_score:
                best, best_score = assignment, score
        assert got == best


def test_hamming_cost():
    assert hamming_cost((True, False), (True, False)) == 0.0
    assert hamming_cost((True, False), (False, False)) == 1.0
    assert hamming_cost((True, True), (False, False)) == 2.0


class TestGoldDerivation:
    class Q:
        def __init__(self, value):
            self.value = Fraction(value)

    def test_greedy_consumes_leftmost_duplicate(self):
        quantities = [self.Q(3), self.Q(3), self.Q(5)]
        assert derive_gold_relevance(quantities, [Fraction(3), Fraction(5)]) \
            == (True, False, True)

    def test_duplicate_constant_consumes_two_mentions(self):
        quantities = [self.Q(3), self.Q(3)]
        gold = [Fraction(3), Fraction(3)]
        assert derive_gold_relevance(quantities, gold) == (True, True)

    def test_no_match_all_false(self):
        assert derive_gold_relevance([self.Q(9)], [Fraction(4)]) == (False,)

    def test_running_example(self, twice_triple_sentence):
        quantities = sentence_quantities(twice_triple_sentence)
        gold = [Fraction(2), Fraction(3), Fraction(25)]
        assert derive_gold_relevance(quantities, gold) == (True, True, True)


def test_predict_matches_brute_force_with_random_weights(sum_sentence):
    import random

    from eqparse.learning import LinearModel, dot
    from helpers import HashWeights, random_relevance_instance

    rng = random.Random(11)
    for trial in range(20):
        sentence = random_relevance_instance(rng, rng.randint(0, 6))
        quantities = tuple(sentence_quantities(sentence))
        weights = HashWeights(salt=trial)
        model = LinearModel(weights)
        got = predict_relevance(model, sentence, quantities)
        best = max(
            enumerate_assignments(len(quantities)),
            key=lambda a: dot(weights,
                              relevance_features(sentence, quantities, a)))
        assert dot(weights, relevance_features(sentence, quantities, got)) \
            == pytest.approx(
                dot(weights, relevance_features(sentence, quantities, best)),
                abs=1e-12)
