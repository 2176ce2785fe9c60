"""Prepared decoder inputs: `prepare(x)` changes no call's result, keeps no
weight-dependent state, and training builds each input's names, lexicon
tables and NP flags once."""

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
    CKY_MODE_IDS,
    CKY_MODES,
    HashWeights,
    draw_weights,
    malformed_trigger_lists,
    random_np_instance,
    random_relevance_instance,
    random_tree_instance,
    shared_location_instance,
    with_extra_chunks,
)


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
    # the trigger list is checked at prepare, so an out-of-order list, a
    # one-trigger list and V2 without V1 are refused there, with the
    # messages a raw decode, features or contains call gives
    decoder = CkyDecoder()
    for triggers, message in malformed_trigger_lists(twice_triple_sentence):
        x = twice_triple_sentence, triggers
        for call in (lambda: decoder.prepare(x),
                     lambda: decoder.decode(x, {}),
                     lambda: decoder.features(x, Leaf(triggers[0])),
                     lambda: decoder.contains(x, Leaf(triggers[0]))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


def test_one_prepare_checks_the_trigger_list_once(monkeypatch):
    # one prepare followed by three decodes, features and contains calls
    # runs `validate_trigger_list` exactly once
    calls = []
    check = treeparse.validate_trigger_list

    def counted(triggers):
        calls.append(triggers)
        return check(triggers)

    monkeypatch.setattr(treeparse, "validate_trigger_list", counted)
    rng = random.Random(95)
    sentence, triggers = random_tree_instance(rng, 5)
    decoder = CkyDecoder()
    x = decoder.prepare((sentence, triggers))
    for trial in range(3):
        tree = decoder.decode(x, HashWeights(salt=trial))
        decoder.features(x, tree)
        assert decoder.contains(x, tree)
    assert calls == [triggers]


@pytest.mark.parametrize("kwargs", CKY_MODES, ids=CKY_MODE_IDS)
def test_training_builds_each_input_once(kwargs, synthetic_corpus,
                                         multiplier_corpus, monkeypatch):
    # names, lexicon fields and NP flags are built, and the trigger list
    # checked, at most once per example (and quantity, NP or node part)
    # during `train_bundle`, the lexicon fields never without the lexicon,
    # and the bundle is the one trained without the counters
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
    counting(variables, "_mentions_two",
             lambda sentence, np: (id(sentence), np))
    counting(treeparse, "_part_names",
             lambda sentence, part, window: (id(sentence), part))
    counting(treeparse.TreeInput, "_field_bits",
             lambda x: id(x.sentence))
    counting(treeparse, "_crosses_np",
             lambda sentence, triggers, i, j: (id(sentence), i, j))
    counting(treeparse, "validate_trigger_list",
             lambda triggers: id(triggers))
    assert train_bundle(examples, config).to_text() == expected
    assert {name for name, _ in built} == {
        "quantity_names", "np_feature_names", "_mentions_two",
        "_part_names", "validate_trigger_list",
        *["_field_bits"] * config.use_lexicon,
        *["_crosses_np"] * config.conform_syntactic}
    assert max(built.values()) == 1


def test_raw_tree_features_name_only_the_trees_parts(monkeypatch):
    # a raw input's features build the parts and names of the tree's
    # n - 1 nodes, not of every node of the trigger list
    rng = random.Random(94)
    node_parts, part_names = treeparse._node_parts, treeparse._part_names
    built = []

    def counted_nodes(locs, values, i, k, j):
        built.append((i, k, j))
        return node_parts(locs, values, i, k, j)

    def counted_parts(sentence, part, window):
        built.append(part)
        return part_names(sentence, part, window)

    for trial in range(20):
        sentence, triggers = random_tree_instance(rng, 6)
        decoder = CkyDecoder()
        tree = decoder.decode((sentence, triggers), HashWeights(salt=trial))
        locs = [treeparse.location(t) for t in triggers]
        values = treeparse._values(triggers)
        nodes = [(i, k, j) for i, k, j, _ in treeparse.tree_nodes(tree)[1]]
        own = {part for node in nodes
               for part in node_parts(locs, values, *node)}
        with monkeypatch.context() as patch:
            patch.setattr(treeparse, "_node_parts", counted_nodes)
            patch.setattr(treeparse, "_part_names", counted_parts)
            built.clear()
            features = decoder.features((sentence, triggers), tree)
        assert sorted(map(repr, built)) == sorted(map(repr, [*nodes, *own]))
        assert features == decoder.features(
            decoder.prepare((sentence, triggers)), tree)
