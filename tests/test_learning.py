"""Linear models, decoders, and the two training loops."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eqparse import learning, pipeline
from eqparse.learning import (
    ExhaustiveDecoder,
    LinearModel,
    MODEL_HEADER,
    SupersetExample,
    TrainConfig,
    add_scaled,
    dot,
    model_from_text,
    model_to_text,
    subtract,
    train_structured,
    train_superset,
)
from eqparse.evaluation import gold_relevance
from eqparse.pipeline import PipelineConfig, _tree_instances, train_bundle

from helpers import (
    CKY_MODE_IDS,
    CKY_MODES,
    CountingDecoder,
    full_epoch_learner,
    run_epochs,
)


def indicator_features(x, y):
    return {f"xy={x}:{y}": 1, f"y={y}": 1}


def toy_decoder(space):
    return ExhaustiveDecoder(lambda x: list(space),
                             indicator_features)


class TestVectorOps:
    def test_dot(self):
        assert dot({"a": 2.0, "b": 1.0}, {"a": 3.0, "c": 9.0}) == 6.0

    def test_add_scaled(self):
        acc = {"a": 1.0}
        add_scaled(acc, {"a": 2.0, "b": 1.0}, 0.5)
        assert acc == {"a": 2.0, "b": 0.5}

    def test_subtract_prunes_exact_zeros(self):
        out = subtract({"a": 1.0, "b": 2.0}, {"a": 1.0})
        assert out == {"b": 2.0}


class TestModelSerialization:
    def test_header_and_sorted_features(self):
        text = model_to_text(LinearModel({"b": 2, "a": -5}))
        lines = text.splitlines()
        assert lines[0] == MODEL_HEADER
        assert lines[2] == "a\t-5"
        assert lines[3] == "b\t2"

    def test_rejects_tab_in_name(self):
        with pytest.raises(ValueError):
            model_to_text(LinearModel({"a\tb": 1}))

    @pytest.mark.parametrize("value", [0.5, 2.0, True])
    def test_rejects_non_integer_weight(self, value):
        with pytest.raises(ValueError, match="not an integer"):
            model_to_text(LinearModel({"a": value}))

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            model_from_text("not a model\n{}\n")

    @pytest.mark.parametrize("config, message", [
        ('{"epochs": 5, "decay": 0.5}', "unknown config key 'decay'"),
        ('{"epochs": "5"}', "'epochs' must be int"),
        ('{"epochs": true}', "'epochs' must be int"),
        ('{"learning_rate": null}', "'learning_rate' must be float"),
        ('[5]', "not a JSON object"),
        ('{"epochs": 5', "not JSON"),
    ])
    def test_rejects_bad_config(self, config, message):
        with pytest.raises(ValueError, match=f"line 12: .*{message}"):
            model_from_text(f"{MODEL_HEADER}\n{config}\n", first_line=11)

    def test_integer_learning_rate_accepted(self):
        text = f'{MODEL_HEADER}\n{{"learning_rate": 1}}\n'
        assert model_from_text(text).config.learning_rate == 1

    @pytest.mark.parametrize("line", [
        "a\tnan", "a\t-inf", "a", "a\t1\t2", "a\tx", "a\t1.0", "a\t1e3",
        "a\t"])
    def test_rejects_bad_weight_line_with_its_number(self, line):
        text = model_to_text(LinearModel({"b": 1, "c": 2})) + line + "\n"
        with pytest.raises(ValueError, match="line 5: malformed weight line "
                           ".*expected feature<TAB>integer weight"):
            model_from_text(text)

    @given(st.dictionaries(
        st.text(st.characters(blacklist_characters="\t"), min_size=1,
                max_size=12).filter(lambda s: s.splitlines() == [s]),
        st.integers(min_value=-10**30, max_value=10**30),
        max_size=8))
    def test_roundtrip_bit_exact(self, weights):
        model = LinearModel(dict(weights))
        back = model_from_text(model_to_text(model))
        assert back.weights == model.weights
        assert back.config == model.config


class TestExhaustiveDecoder:
    def test_zero_model_picks_first(self):
        decoder = toy_decoder(["a", "b", "c"])
        assert decoder.decode(0, {}) == "a"

    def test_unique_positive_indicator_dominates(self):
        decoder = toy_decoder(["a", "b", "c"])
        model = LinearModel({"y=c": 1.0})
        assert decoder.decode(0, model.weights) == "c"

    def test_scores_match_exhaustive_dot_products(self):
        space = [(i, j) for i in range(8) for j in range(8)]  # 64 candidates
        decoder = ExhaustiveDecoder(
            lambda x: list(space),
            lambda x, y: {f"i={y[0]}": 1.0, f"j={y[1]}": float(y[1])})
        rng = random.Random(5)
        weights = {f"i={i}": rng.uniform(-1, 1) for i in range(8)}
        weights.update({f"j={j}": rng.uniform(-1, 1) for j in range(8)})
        best = max(space, key=lambda y: dot(weights, decoder.features(0, y)))
        got = decoder.decode(0, weights)
        assert dot(weights, decoder.features(0, got)) == pytest.approx(
            dot(weights, decoder.features(0, best)), abs=0)

    def test_cost_augmentation_shifts_argmax(self):
        decoder = toy_decoder(["a", "b"])
        # zero weights: plain decode gives "a"; with gold "a", the 0/1 cost
        # pushes the search toward the most-violating candidate "b"
        assert decoder.decode(0, {}) == "a"
        assert decoder.decode(0, {}, gold="a") == "b"

    def test_empty_space_raises(self):
        decoder = ExhaustiveDecoder(lambda x: [], indicator_features)
        with pytest.raises(ValueError):
            decoder.decode(0, {})

    def test_contains(self):
        decoder = toy_decoder(["a", "b"])
        assert decoder.contains(0, "b")
        assert not decoder.contains(0, "z")


class TestTrainStructured:
    def test_separable_toy_set(self):
        examples = [(0, "a"), (1, "b")]
        decoder = toy_decoder(["a", "b"])
        model = train_structured(examples, decoder, TrainConfig())
        for x, gold in examples:
            other = "b" if gold == "a" else "a"
            assert (model.score(indicator_features(x, gold))
                    > model.score(indicator_features(x, other)))

    def test_zero_epochs_zero_model(self):
        model = train_structured([(0, "a")], toy_decoder(["a", "b"]),
                                 TrainConfig(epochs=0))
        assert model.weights == {}

    def test_same_seed_bitwise_identical(self):
        examples = [(0, "a"), (1, "b"), (2, "a")]
        decoder = toy_decoder(["a", "b"])
        m1 = train_structured(examples, decoder, TrainConfig(seed=3))
        m2 = train_structured(examples, decoder, TrainConfig(seed=3))
        assert m1.weights == m2.weights
        assert model_to_text(m1) == model_to_text(m2)

    def test_integer_weights_scale_the_rational_learner(self):
        # the same learner in exact fractions, weights in natural units and
        # a cost of 1: the integer learner's averaged weights are its
        # weights times den * steps, and its decodes pick the same outputs
        space = list(range(5))
        decoder = ExhaustiveDecoder(
            lambda x: space,
            lambda x, y: {f"y={y}": 1, f"x={x % 3}:y={y % 2}": 1,
                          f"big={y > x % 5}": 2})
        rng = random.Random(8)
        examples = [(x, rng.choice(space)) for x in range(12)]
        for lr in (0.1, 0.25, 1, 0.003):
            config = TrainConfig(learning_rate=lr, epochs=4, seed=2)
            rate = Fraction(str(lr))
            weights, lagged, total, _ = run_epochs(examples, decoder, config,
                                                   rate, 1)
            exact = {name: value - lagged.get(name, 0) / total
                     for name, value in weights.items()}
            model = train_structured(examples, decoder, config)
            assert all(type(v) is int for v in model.weights.values())
            assert model.weights == {
                name: int(value * rate.denominator * total)
                for name, value in exact.items() if value}

    def test_gold_outside_space_rejected(self):
        with pytest.raises(ValueError, match="candidate space"):
            train_structured([(0, "z")], toy_decoder(["a", "b"]),
                             TrainConfig())


def random_toy(rng: random.Random):
    """A random `ExhaustiveDecoder` toy and its examples: a space of 1 to
    6 outputs, shared and per-input indicator features, and a random gold
    per input. A one-output space converges in the first epoch, and a toy
    whose features cannot separate its golds never does."""
    space = list(range(rng.choice((1, 2, 3, 4, 6))))
    m = rng.randint(1, 4)
    decoder = ExhaustiveDecoder(
        lambda x: space,
        lambda x, y: {f"y={y}": 1, f"x={x % m}:y={y}": 1,
                      f"x={x}:y={y % 2}": 2})
    return decoder, [(x, rng.choice(space))
                     for x in range(rng.randint(1, 8))]


def first_clean_epoch(examples, decoder, config):
    """The 1-based epoch of the full-epoch learner that makes no mistake
    first, or None when every epoch makes one."""
    rate = Fraction(str(config.learning_rate))
    mistakes = run_epochs(examples, decoder, config, rate.numerator,
                          rate.denominator)[3]
    return mistakes.index(0) + 1 if 0 in mistakes else None


class TestEarlyStop:
    """`train_structured` stops after the first epoch without a mistake
    and returns the full-epoch learner's model."""

    def test_toys_converging_in_every_epoch(self):
        rng = random.Random(17)
        epochs = 6
        seen = set()
        for trial in range(300):
            decoder, examples = random_toy(rng)
            config = TrainConfig(epochs=epochs, seed=trial,
                                 learning_rate=rng.choice((0.1, 0.25, 1)))
            clean = first_clean_epoch(examples, decoder, config)
            seen.add(clean)
            counting = CountingDecoder(decoder)
            model = train_structured(examples, counting, config)
            assert counting.decodes == len(examples) * (clean or epochs)
            reference = full_epoch_learner(examples, decoder, config)
            assert model.weights == reference.weights
            assert model_to_text(model) == model_to_text(reference)
        assert seen == {*range(1, epochs + 1), None}

    def test_non_separable_toy_runs_every_epoch(self):
        # one input with two golds: each epoch errs on one of them
        examples = [(0, "a"), (0, "b")]
        for epochs in (1, 5, 50):
            config = TrainConfig(epochs=epochs)
            decoder = CountingDecoder(toy_decoder(["a", "b"]))
            model = train_structured(examples, decoder, config)
            assert decoder.decodes == epochs * len(examples)
            reference = full_epoch_learner(examples, decoder, config)
            assert model.weights == reference.weights
            assert model_to_text(model) == model_to_text(reference)

    def test_one_epoch_and_no_examples(self):
        rng = random.Random(18)
        for trial in range(40):
            decoder, examples = random_toy(rng)
            for config in (TrainConfig(epochs=1, seed=trial),
                           TrainConfig(seed=trial)):
                for pairs in (examples, []):
                    model = train_structured(pairs, decoder, config)
                    reference = full_epoch_learner(pairs, decoder, config)
                    assert model.weights == reference.weights
                    assert model_to_text(model) == model_to_text(reference)

    @pytest.mark.parametrize("kwargs", CKY_MODES, ids=CKY_MODE_IDS)
    def test_shipped_corpora_bundles_match_the_full_epoch_learner(
            self, kwargs, synthetic_corpus, multiplier_corpus, monkeypatch):
        # every stage, and every outer iteration of the variable stage,
        # trained by the full-epoch learner gives the same bundle bytes
        examples = synthetic_corpus + multiplier_corpus
        config = PipelineConfig(**kwargs)
        stopped = train_bundle(examples, config)
        for module in (learning, pipeline):
            monkeypatch.setattr(module, "train_structured",
                                full_epoch_learner)
        full = train_bundle(examples, config)
        for stage in ("relevance_model", "variable_model", "tree_model"):
            model, reference = getattr(stopped, stage), getattr(full, stage)
            assert model.weights == reference.weights
            assert model_to_text(model) == model_to_text(reference)
        assert stopped.to_text() == full.to_text()

    @pytest.mark.parametrize("kwargs", CKY_MODES, ids=CKY_MODE_IDS)
    def test_shipped_tree_stage_stops_early(self, kwargs, synthetic_corpus,
                                            multiplier_corpus):
        examples = synthetic_corpus + multiplier_corpus
        config = PipelineConfig(**kwargs)
        golds = [gold_relevance(ex) for ex in examples]
        instances = _tree_instances(examples, golds, config.tree_decoder())
        decodes = {}
        for epochs in (5, 50):
            tcfg = dataclasses.replace(config.train_config(), epochs=epochs)
            decoder = CountingDecoder(config.tree_decoder())
            train_structured(instances, decoder, tcfg)
            decodes[epochs] = decoder.decodes
        clean = first_clean_epoch(instances, config.tree_decoder(),
                                  config.train_config())
        assert clean is not None
        assert decodes == {5: clean * len(instances),
                           50: clean * len(instances)}
        if not kwargs:
            assert decodes[5] <= 2 * len(instances)


class TestTrainSuperset:
    def test_empty_gold_set_rejected(self):
        with pytest.raises(ValueError):
            train_superset([SupersetExample(0, ())], toy_decoder(["a"]),
                           TrainConfig())

    def test_singleton_golds_match_structured_training(self):
        pairs = [(0, "a"), (1, "b"), (2, "a")]
        decoder = toy_decoder(["a", "b"])
        structured = train_structured(pairs, decoder, TrainConfig())
        superset = train_superset(
            [SupersetExample(x, (y,)) for x, y in pairs], decoder,
            TrainConfig())
        assert superset.weights == structured.weights

    def test_toy_task_converges_and_separates(self):
        # output space of 4; gold sets share y=1, so selection can settle
        space = [0, 1, 2, 3]
        decoder = toy_decoder(space)
        examples = [SupersetExample(0, (1, 3)), SupersetExample(1, (1, 2)),
                    SupersetExample(2, (1, 0))]
        model = train_superset(examples, decoder, TrainConfig())
        more = train_superset(examples, decoder,
                              TrainConfig(max_outer_iters=20))
        assert model.weights == more.weights  # converged before the cap
        for ex in examples:
            best_gold = max(model.score(indicator_features(ex.x, y))
                            for y in ex.gold_set)
            for y in space:
                if y in ex.gold_set:
                    continue
                assert best_gold > model.score(indicator_features(ex.x, y))

    def test_outer_iteration_cap_is_exact(self):
        # with one outer iteration the model is exactly structured training
        # on the first member of each gold set (zero-model selection)
        decoder = toy_decoder([0, 1, 2, 3])
        examples = [SupersetExample(0, (2, 1)), SupersetExample(1, (3, 0))]
        capped = train_superset(examples, decoder,
                                TrainConfig(max_outer_iters=1))
        first_picks = train_structured([(0, 2), (1, 3)], decoder,
                                       TrainConfig())
        assert capped.weights == first_picks.weights
