"""Joint quantity relevance: features, enumeration, gold derivation."""

import random
import time
from fractions import Fraction

import pytest

from eqparse.core import QuantityTrigger, Span
from eqparse.corpus import AnnotatedSentence
from eqparse.learning import dot, tagged
from eqparse.quantities import sentence_quantities
from eqparse.relevance import (
    RelevanceDecoder,
    derive_gold_relevance,
    enumerate_assignments,
    hamming_cost,
    predict_relevance,
    quantity_names,
    relevance_features,
)

from helpers import FILLER, HashWeights, random_relevance_instance


def quantity_features(sentence, quantities, index, relevant):
    """One quantity's names conjoined with its bit."""
    return tagged([(quantity_names(sentence, quantities, index),
                    f"r={int(relevant)}")])


def brute_force(sentence, quantities, weights, gold=None, cost_unit=1):
    """Score every assignment; the earliest in enumeration order wins ties."""
    best = None
    best_score = None
    for assignment in enumerate_assignments(len(quantities)):
        score = dot(weights, relevance_features(sentence, quantities,
                                                assignment))
        if gold is not None:
            score += cost_unit * hamming_cost(gold, assignment)
        if best_score is None or score > best_score:
            best, best_score = assignment, score
    return best


def repeated_quantity_instance(rng: random.Random, k: int) -> AnnotatedSentence:
    """k copies of one number between up to two fillers each side: copies
    whose windows cover the same tokens have equal features and margins."""
    value = str(rng.randrange(1, 100))
    lead = [rng.choice(FILLER) for _ in range(rng.randint(0, 2))]
    tail = [rng.choice(FILLER) for _ in range(rng.randint(0, 2))]
    tokens = lead + [value] * k + tail
    pos = ["DT"] * len(lead) + ["CD"] * k + ["IN"] * len(tail)
    return AnnotatedSentence(" ".join(tokens), tuple(tokens), tuple(pos), ())


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


def reference_phrase_names(sentence, quantity):
    """The `qq_` names of a quantity phrase by their definition: its
    lowercased words, then its lowercased word pairs."""
    phrase = [w.lower() for w in quantity.span.text(sentence.text).split()]
    return ([f"qq_u={w}" for w in phrase]
            + [f"qq_b={a} {b}" for a, b in zip(phrase, phrase[1:])])


def test_phrase_names_match_definition():
    # annotated phrases of one to four words, in mixed case and with a
    # capital sigma at the end of a word: the window names, then the
    # phrase's, then the indicators
    rng = random.Random(16)
    words = ["Two", "HUNDRED", "ΟΔΟΣ", "and", "Fifty", "1", "İx"]
    for _ in range(200):
        tokens = [rng.choice(words) for _ in range(rng.randint(1, 8))]
        sentence = AnnotatedSentence(" ".join(tokens), tuple(tokens),
                                     ("CD",) * len(tokens), ())
        quantities = []
        for _ in range(rng.randint(1, 3)):
            lo = rng.randrange(len(tokens))
            hi = min(len(tokens), lo + rng.randint(1, 4))
            span = Span(sentence.token_starts[lo], sentence.token_ends[hi - 1])
            quantities.append(QuantityTrigger(Fraction(rng.randint(0, 3)),
                                              span))
        for i, q in enumerate(quantities):
            lo, hi = sentence.window(*sentence.token_range(q.span), 3)
            want = (sentence.token_names("qn", lo, hi)
                    + reference_phrase_names(sentence, q)
                    + ["qq_small"] * (q.value in (1, 2))
                    + ["qq_only"] * (len(quantities) == 1))
            assert quantity_names(sentence, quantities, i) == want


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


def test_many_quantities_decode_quickly():
    # no cap on k: 40 quantities is far beyond enumerating 2^k assignments,
    # so check that the result is fast and that no single flip beats it
    rng = random.Random(40)
    decoder = RelevanceDecoder()
    weights = HashWeights(salt=40)
    for sentence in (random_relevance_instance(rng, 40),
                     repeated_quantity_instance(rng, 40)):
        quantities = tuple(sentence_quantities(sentence))
        assert len(quantities) == 40
        for gold in (None, tuple(rng.random() < 0.5 for _ in quantities)):
            start = time.perf_counter()
            got = decoder.decode((sentence, quantities), weights, gold=gold)
            assert time.perf_counter() - start < 0.5

            def score(y):
                cost = 0.0 if gold is None else hamming_cost(gold, y)
                return dot(weights, relevance_features(
                    sentence, quantities, y)) + cost

            best = score(got)
            for i in range(40):
                flipped = got[:i] + (not got[i],) + got[i + 1:]
                assert score(flipped) <= best + 1e-9


@pytest.mark.parametrize("kind", ["hash", "zero", "repeated"])
def test_decode_matches_brute_force(kind):
    # the closed form against scoring all 2^k assignments, k <= 10, with
    # and without the Hamming cost; zero weights tie every assignment and
    # repeated quantities tie their margins
    rng = random.Random(f"relevance-{kind}")
    decoder = RelevanceDecoder()
    for trial in range(60):
        k = rng.randint(0, 10) if trial % 3 else rng.randint(0, 4)
        if kind == "repeated":
            sentence = repeated_quantity_instance(rng, max(k, 1))
        else:
            sentence = random_relevance_instance(rng, k)
        quantities = tuple(sentence_quantities(sentence))
        weights = {} if kind == "zero" else HashWeights(salt=3000 + trial)
        gold = tuple(rng.random() < 0.5 for _ in quantities)
        x = (sentence, quantities)
        assert decoder.decode(x, weights) == brute_force(
            sentence, quantities, weights)
        assert decoder.decode(x, weights, gold=gold) == brute_force(
            sentence, quantities, weights, gold)


@pytest.mark.parametrize("tokens, pos, salt", [
    ("is 10 10 10 and", "DT CD CD CD IN", 0),
    ("47 47 47 47 total", "CD CD CD CD IN", 1),
])
def test_tied_margins_follow_brute_force(tokens, pos, salt):
    # with integer weights, tied margins are exactly equal, and the earliest
    # assignment in enumeration order wins: the lowest tied indices on. A
    # large count weight puts the cut inside the tie.
    tokens, pos = tuple(tokens.split()), tuple(pos.split())
    sentence = AnnotatedSentence(" ".join(tokens), tokens, pos, ())
    quantities = tuple(sentence_quantities(sentence))
    k = len(quantities)
    c = 1 + salt
    decoder = RelevanceDecoder()
    x = (sentence, quantities)

    # count weight only: every margin is 0, features equal or not
    weights = {f"qg_count={c}/{k}": 10**6}
    for gold in (None, (False,) * k, (True,) * k):
        got = decoder.decode(x, weights, gold=gold)
        assert got == (True,) * c + (False,) * (k - c)
        assert got == brute_force(sentence, quantities, weights, gold)

    # hashed weights on the features too: quantities whose windows cover
    # the same tokens tie, and of two tied ones the later is never on
    # while the earlier is off
    hashed = HashWeights(salt=salt)
    weights = {name: hashed.get(name)
               for bits in ((True,) * k, (False,) * k)
               for name in relevance_features(sentence, quantities, bits)}
    weights[f"qg_count={c}/{k}"] = 10**6
    feats = [quantity_features(sentence, quantities, i, True)
             for i in range(k)]
    got = decoder.decode(x, weights)
    assert sum(got) == c
    assert got == brute_force(sentence, quantities, weights)
    for i in range(k):
        for j in range(i + 1, k):
            if feats[i] == feats[j]:
                assert got[i] or not got[j]
    assert decoder.decode(x, hashed) == brute_force(sentence, quantities,
                                                    hashed)


def test_exact_ties_follow_earliest_wins_brute_force():
    # 1000 sentences x {plain, cost-augmented} x cost units {1, 10}: coarse
    # integer weights, a third of them zero, and repeated numbers tie
    # scores often; the decode must pick brute force's earliest argmax
    rng = random.Random(4000)
    decoder = RelevanceDecoder()
    decodes = 0
    for trial in range(1000):
        k = rng.randint(0, 7)
        if trial % 2:
            sentence = repeated_quantity_instance(rng, max(k, 1))
        else:
            sentence = random_relevance_instance(rng, k)
        quantities = tuple(sentence_quantities(sentence))
        x = (sentence, quantities)
        weights = HashWeights(salt=5000 + trial)
        gold = tuple(rng.random() < 0.5 for _ in quantities)
        space = list(enumerate_assignments(len(quantities)))
        scores = [dot(weights, relevance_features(sentence, quantities, y))
                  for y in space]
        for cost_unit in (1, 10):
            for g in (None, gold):
                # max() keeps the first of equal scores: earliest wins
                best = max(range(len(space)), key=lambda i: scores[i] + (
                    0 if g is None else cost_unit * hamming_cost(g, space[i])))
                got = decoder.decode(x, weights, gold=g, cost_unit=cost_unit)
                assert got == space[best]
                decodes += 1
    assert decodes == 4000


def test_contains_checks_length_and_bits(sum_sentence):
    quantities = tuple(sentence_quantities(sum_sentence))
    x = (sum_sentence, quantities)
    decoder = RelevanceDecoder()
    assert decoder.contains(x, (True,) * len(quantities))
    assert not decoder.contains(x, (True,) * (len(quantities) + 1))
    assert not decoder.contains(x, (1,) * len(quantities))
    assert not decoder.contains(x, [True] * len(quantities))


def test_cost_augmented_decode_matches_brute_force():
    # the training decode maximizes score + Hamming cost to the gold bits
    rng = random.Random(17)
    decoder = RelevanceDecoder()
    for trial in range(100):
        sentence = random_relevance_instance(rng, rng.randint(0, 6))
        quantities = tuple(sentence_quantities(sentence))
        gold = tuple(rng.random() < 0.5 for _ in quantities)
        weights = HashWeights(salt=2000 + trial)
        got = decoder.decode((sentence, quantities), weights, gold=gold)
        assert got == brute_force(sentence, quantities, weights, gold)


def test_hamming_cost():
    assert hamming_cost((True, False), (True, False)) == 0
    assert hamming_cost((True, False), (False, False)) == 1
    assert hamming_cost((True, True), (False, False)) == 2


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
    from eqparse.learning import LinearModel

    rng = random.Random(11)
    for trial in range(20):
        sentence = random_relevance_instance(rng, rng.randint(0, 6))
        quantities = tuple(sentence_quantities(sentence))
        weights = HashWeights(salt=trial)
        got = predict_relevance(LinearModel(weights), sentence, quantities)
        assert got == brute_force(sentence, quantities, weights)
