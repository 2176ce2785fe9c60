"""Prepared decoder inputs: `prepare(x)` changes no call's result, keeps no
weight-dependent state, and training builds each input's names, lexicon
tables and candidate lists once."""

import random
from collections import Counter

import pytest

from eqparse import relevance, treeparse, variables
from eqparse.core import Leaf
from eqparse.learning import ExhaustiveDecoder, Weights
from eqparse.pipeline import PipelineConfig, train_bundle
from eqparse.quantities import sentence_quantities
from eqparse.relevance import RelevanceDecoder, enumerate_assignments
from eqparse.treeparse import CkyDecoder, enumerate_projective_trees
from eqparse.variables import VariableDecoder, enumerate_variable_candidates

from helpers import (
    HashWeights,
    draw_weights,
    random_np_instance,
    random_relevance_instance,
    random_tree_instance,
    shared_location_instance,
    with_extra_chunks,
)

CKY_MODES = ({}, {"use_lexicon": False}, {"lexicon_as_features": True},
             {"conform_syntactic": True})


def instances(rng: random.Random, trials: int):
    """(decoder, raw x, outputs) for every stage decoder and CKY mode; a
    tree stage's outputs are every projective tree, so some lie outside
    a lexicon-constrained space."""
    for trial in range(trials):
        sentence = random_relevance_instance(rng, rng.randint(0, 6))
        quantities = tuple(sentence_quantities(sentence))
        yield (RelevanceDecoder(), (sentence, quantities),
               list(enumerate_assignments(len(quantities))))
        sentence = random_np_instance(rng, rng.randint(1, 5))
        yield VariableDecoder(), sentence, enumerate_variable_candidates(
            sentence)
        make = random_tree_instance if trial % 3 else shared_location_instance
        sentence, triggers = make(rng, 2 + trial % 3)
        sentence = with_extra_chunks(rng, sentence)
        trees = enumerate_projective_trees(sentence, triggers,
                                           use_lexicon=False)
        for kwargs in CKY_MODES:
            yield CkyDecoder(**kwargs), (sentence, triggers), trees


def test_prepared_inputs_change_no_result():
    # decode under dense hashed and sparse drawn weights, with and without
    # a gold output; features and contains of every output
    rng = random.Random(91)
    for trial, (decoder, x, outputs) in enumerate(instances(rng, 30)):
        prepared = decoder.prepare(x)
        assert prepared is not x
        assert decoder.prepare(prepared) is prepared
        sparse = Weights(draw_weights(rng, {
            name for y in outputs for name in decoder.features(x, y)}))
        for y in outputs:
            assert decoder.features(prepared, y) == decoder.features(x, y)
            assert decoder.contains(prepared, y) == decoder.contains(x, y)
        for weights in (HashWeights(salt=trial), sparse):
            for gold, cost_unit in ((None, 1), (rng.choice(outputs), 1),
                                    (rng.choice(outputs), 10)):
                assert decoder.decode(prepared, weights, gold, cost_unit) \
                    == decoder.decode(x, weights, gold, cost_unit)


def test_no_weight_dependent_state_kept():
    # a prepared input decoded under one weight vector, then another,
    # decodes as a fresh raw input does under the second
    rng = random.Random(92)
    for trial, (decoder, x, outputs) in enumerate(instances(rng, 30)):
        prepared = decoder.prepare(x)
        gold = rng.choice(outputs)
        first, second = HashWeights(salt=trial), HashWeights(salt=trial + 500)
        for g in (None, gold):
            decoder.decode(prepared, first, g)
            assert decoder.decode(prepared, second, g) == decoder.decode(
                x, second, g)
            decoder.decode(prepared, Weights(), g)
            assert decoder.decode(prepared, first, g) == decoder.decode(
                x, first, g)


def test_an_input_prepared_for_another_window_is_prepared_again():
    rng = random.Random(93)
    for decoder, x, outputs in instances(rng, 5):
        other = type(decoder)(window=1)
        prepared = decoder.prepare(x)
        again = other.prepare(prepared)
        assert again is not prepared
        assert other.prepare(again) is again
        for y in outputs:
            assert other.features(prepared, y) == other.features(x, y)


def test_exhaustive_decoder_prepares_nothing():
    decoder = ExhaustiveDecoder(lambda x: ["a", "b"], lambda x, y: {y: 1})
    x = object()
    assert decoder.prepare(x) is x


def test_prepared_tree_input_rejects_what_a_raw_one_does(
        twice_triple_sentence):
    # validation and the lexicon table are built on use, so `contains`
    # still answers False for a leaf over an out-of-order list, and every
    # decode of it raises, the first and the next alike
    triggers = tuple(sentence_quantities(twice_triple_sentence))[::-1]
    decoder = CkyDecoder()
    prepared = decoder.prepare((twice_triple_sentence, triggers))
    assert not decoder.contains(prepared, Leaf(triggers[0]))
    for _ in range(2):
        with pytest.raises(ValueError, match="out of order"):
            decoder.decode(prepared, {})
    single = decoder.prepare((twice_triple_sentence, triggers[:1]))
    for _ in range(2):
        with pytest.raises(ValueError, match="at least 2"):
            decoder.decode(single, {})


@pytest.mark.parametrize("kwargs", CKY_MODES,
                         ids=["default", "no-lexicon", "lexicon-as-features",
                              "conform-syntactic"])
def test_training_builds_each_input_once(kwargs, synthetic_corpus,
                                         multiplier_corpus, monkeypatch):
    # names, lexicon tables and candidate lists are built at most once per
    # example (and quantity, NP or node part) during `train_bundle`, and
    # the bundle is the one trained without the counters
    examples = synthetic_corpus + multiplier_corpus
    config = PipelineConfig(**kwargs)
    expected = train_bundle(examples, config).to_text()
    built = Counter()

    def counting(module, name, key):
        original = getattr(module, name)

        def counted(*args):
            built[name, key(*args)] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    counting(relevance, "quantity_names",
             lambda sentence, quantities, i, window: (id(sentence), i))
    counting(variables, "np_feature_names",
             lambda sentence, np, window: (id(sentence), np))
    counting(variables, "enumerate_variable_candidates", id)
    counting(treeparse, "_part_names",
             lambda sentence, part, window: (id(sentence), part))
    counting(treeparse, "FieldTable",
             lambda sentence, triggers: id(sentence))
    assert train_bundle(examples, config).to_text() == expected
    assert {name for name, _ in built} == {
        "quantity_names", "np_feature_names",
        "enumerate_variable_candidates", "_part_names", "FieldTable"}
    assert max(built.values()) == 1
