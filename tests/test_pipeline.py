"""End-to-end bundle: training, serialization, and full-sentence parsing."""

import hashlib

import pytest

from eqparse.core import Span
from eqparse.learning import TrainConfig
from eqparse.pipeline import (
    BUNDLE_HEADER,
    ModelBundle,
    PipelineConfig,
    train_bundle,
)


class TestConfig:
    def test_train_config_projection(self):
        config = PipelineConfig(epochs=3, learning_rate=0.5, seed=2,
                                outer_iters=4)
        assert config.train_config() == TrainConfig(
            epochs=3, learning_rate=0.5, seed=2, max_outer_iters=4)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PipelineConfig().epochs = 9

    @pytest.mark.parametrize("key, value", [
        ("window", -1), ("epochs", 0), ("epochs", -1), ("outer_iters", 0),
        ("learning_rate", 0.0), ("learning_rate", -0.1), ("learning_rate", 0),
        ("learning_rate", float("inf")), ("learning_rate", float("nan"))])
    def test_invalid_setting_named(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            PipelineConfig(**{key: value})

    def test_lexicon_as_features_needs_the_lexicon(self):
        # without the lexicon no rule is read, so the pair would train the
        # no-lexicon model under another config line and sha
        with pytest.raises(ValueError, match="^config key "
                           "'lexicon_as_features' needs 'use_lexicon'"):
            PipelineConfig(use_lexicon=False, lexicon_as_features=True)

    def test_smallest_valid_settings(self):
        config = PipelineConfig(window=0, epochs=1, outer_iters=1,
                                learning_rate=1e-300)
        assert config.train_config().learning_rate == 1e-300


class TestSerialization:
    def test_default_bundle_is_golden(self, bundle_path):
        # byte-level oracle: the default-config bundle trained on the
        # synthetic and multiplier corpora; a refactor must keep it. Its
        # weights are the float learner's averaged weights times 2250
        # (den 10 of the learning rate, times 225 training steps). Format
        # v3 adds the [config] footer line to the v2 text
        digest = hashlib.sha256(bundle_path.read_bytes()).hexdigest()
        assert digest.startswith("ce8cd057b4704413")

    @pytest.mark.parametrize("ablation, prefix", [
        ({"use_lexicon": False}, "aa199951a496dffe"),
        ({"lexicon_as_features": True}, "840cfe0409b9e934"),
        ({"conform_syntactic": True}, "a1cab5465dcce83f"),
    ])
    def test_ablation_bundles_are_golden(self, synthetic_corpus,
                                         multiplier_corpus, ablation, prefix):
        # the same oracle for each other tree decoder mode: the bundles of
        # `eqparse train --no-lexicon`, `--lexicon-as-features` and
        # `--conform-syntactic` on the default corpus
        trained = train_bundle(synthetic_corpus + multiplier_corpus,
                               PipelineConfig(**ablation))
        digest = hashlib.sha256(trained.to_text().encode("utf-8")).hexdigest()
        assert digest.startswith(prefix)

    def test_text_sections(self, bundle):
        text = bundle.to_text()
        lines = text.splitlines()
        assert lines[0] == BUNDLE_HEADER
        for marker in ("[relevance]", "[variables]", "[tree]"):
            assert marker in lines

    def test_roundtrip_identity(self, bundle):
        text = bundle.to_text()
        back = ModelBundle.from_text(text)
        assert back.to_text() == text
        assert back.config == bundle.config
        assert back.tree_model.weights == bundle.tree_model.weights

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            ModelBundle.from_text("something else\n")

    def test_missing_section_rejected(self, bundle):
        text = bundle.to_text().replace("[variables]\n", "")
        with pytest.raises(ValueError, match="section"):
            ModelBundle.from_text(text)

    def test_save_load(self, bundle, tmp_path):
        path = tmp_path / "bundle.txt"
        bundle.save(path)
        assert ModelBundle.load(path).to_text() == bundle.to_text()


class TestTraining:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_bundle([], PipelineConfig())

    def test_retraining_is_byte_identical(self, twice_triple_example,
                                          sum_example):
        examples = [twice_triple_example, sum_example]
        config = PipelineConfig()
        first = train_bundle(examples, config)
        second = train_bundle(examples, config)
        assert first.to_text() == second.to_text()

    def test_two_example_corpus_memorized(self, twice_triple_example,
                                          sum_example):
        examples = [twice_triple_example, sum_example]
        trained = train_bundle(examples, PipelineConfig())
        result = trained.parse(twice_triple_example.sentence)
        assert result.equation == "(= (* 2 V1) (- (* 3 V1) 25))"


class TestParse:
    def test_running_example(self, bundle, twice_triple_sentence):
        result = bundle.parse(twice_triple_sentence)
        assert result.equation == "(= (* 2 V1) (- (* 3 V1) 25))"
        assert result.groundings() == {"V1": Span(6, 14)}
        assert result.relevance == (True, True, True)

    def test_self_pair_groundings(self, bundle, sum_sentence):
        result = bundle.parse(sum_sentence)
        assert result.equation == "(= (+ V1 V2) 80)"
        np = sum_sentence.np_chunks[1]
        assert result.groundings() == {"V1": np, "V2": np}

    def test_to_json_shape(self, bundle, twice_triple_sentence):
        result = bundle.parse(twice_triple_sentence)
        payload = result.to_json(twice_triple_sentence)
        assert payload["equation"] == "(= (* 2 V1) (- (* 3 V1) 25))"
        assert payload["groundings"]["V1"]["text"] == "a number"
        assert payload["groundings"]["V1"]["span"] == [6, 14]
        debug = payload["debug"]
        assert [q["value"] for q in debug["quantities"]] == ["2", "25", "3"]
        assert all(q["relevant"] for q in debug["quantities"])
        assert [v["text"] for v in debug["variables"]] == [
            "a number", "the same number"]

    def test_irrelevant_quantity_dropped_from_tree(self, bundle, sum_sentence):
        result = bundle.parse(sum_sentence)
        # "two" in "two numbers" is detected but must not reach the tree
        assert [str(q.value) for q in result.quantities] == ["2", "80"]
        assert result.relevance == (False, True)
