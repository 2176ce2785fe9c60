"""The token table a bundle parses through: every window total it reads
equals the packed total of the window's names, a bundle's parse equals its
stage decoders on raw inputs, a bundle is read-only and compiles its table
once, from its own weights, and a parse after the first builds no window
name."""

import dataclasses
import importlib.util
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from eqparse import pipeline, relevance, treeparse, variables
from eqparse.core import QuantityTrigger, Span, sort_triggers
from eqparse.corpus import AnnotatedSentence, TokenTable, parse_value
from eqparse.learning import LinearModel, Weights
from eqparse.pipeline import (
    _MODEL_TEMPLATES,
    ModelBundle,
    PipelineConfig,
    train_bundle,
)
from eqparse.quantities import sentence_quantities
from eqparse.relevance import QuantityNames, RelevanceDecoder
from eqparse.variables import NpNames, VariableDecoder, assign_labels

# the six templates of window and phrase names, in model order
TEMPLATES = [template for group in _MODEL_TEMPLATES for template in group]
# tokens that test the keys: case, a space inside a token (so a pair key
# "a b c" has two splits, and "x y z" is a pair's key as the token pair
# ("x y", "z"), ("x", "y z") or half of a longer one), a bar (the label
# separator), and "İ", whose lowercase "i̇" is two characters long, as is
# the token "i̇" itself
TOKENS = ("The", "the", "THE", "sum", "a", "b", "a b", "b c", "c", "x|y",
          "x y z", "x", "y z", "x y", "z", "İ", "i̇", "80", "5-dollar")
TAGS = ("DT", "NN", "CD", "X|Y", "a b")
LABELS = ("r=0", "r=1", "t=0s=0", "t=1s=0", "o=+", "o=-lr")
# every config `PipelineConfig` accepts: the lexicon as a constraint, as
# features or off, each with and without syntactic conformance
CONFIGS = [{"use_lexicon": lexicon, "lexicon_as_features": features,
            "conform_syntactic": conform}
           for (lexicon, features), conform
           in product(((True, False), (True, True), (False, False)),
                      (False, True))]
CONFIG_IDS = ["-".join(key for key, on in config.items() if on) or "none"
              for config in CONFIGS]


def random_sentence(rng: random.Random, length: int) -> AnnotatedSentence:
    tokens = tuple(rng.choice(TOKENS) for _ in range(length))
    pos = tuple(rng.choice(TAGS) for _ in range(length))
    return AnnotatedSentence(" ".join(tokens), tokens, pos, ())


def random_weights(rng: random.Random) -> Weights:
    """Sparse weights over every template's word, tag and pair names and
    over names the table must skip: other templates', unlabeled ones, and
    names without a template. A few weights are wide."""
    words = sorted({word for token in TOKENS
                    for word in (token.lower(), *token.lower().split(),
                                 "5", "dollar")})
    keys = {"u": words + ["absent"], "p": list(TAGS),
            "b": [f"{a} {b}" for a in words for b in words]}
    names = [f"{template}_{kind}={key}"
             for template in (*TEMPLATES, "xtn")
             for kind, values in keys.items() for key in values]
    names += ["tn_u", "tn=the", "_u=the", "tnum_left_smaller=1", "qq_small",
              "qq_only"]
    weights = {}
    for name in rng.sample(names, len(names) // 3):
        value = rng.randint(-3, 3) or rng.choice((1, -1)) << rng.randrange(80)
        if rng.random() < 0.9:
            name = f"{name}|{rng.choice(LABELS)}"
        weights[name] = value
    return Weights(weights)


def test_column_totals_equal_packed_name_totals():
    # every template's total of every window, empty and one-token ones
    # included, with and without word pairs, is the packed total of the
    # window's `token_names` under the template's model
    rng = random.Random(22)
    for trial in range(150):
        packed = [random_weights(rng).packed for _ in _MODEL_TEMPLATES]
        table = TokenTable(zip(packed, _MODEL_TEMPLATES))
        by_template = {template: table_of
                       for table_of, group in zip(packed, _MODEL_TEMPLATES)
                       for template in group}
        sentence = random_sentence(rng, trial % 9)
        columns = table.columns(sentence)
        n = len(sentence.tokens)
        for template, lo, hi, bigrams in product(
                TEMPLATES, range(n + 1), range(n + 1), (True, False)):
            want = by_template[template].total(
                sentence.token_names(template, lo, hi, bigrams))
            assert columns.total(template, lo, hi, bigrams) == want, (
                sentence.tokens, template, lo, hi, bigrams)


def random_quantities(rng: random.Random, sentence: AnnotatedSentence,
                      k: int) -> tuple:
    """k quantities over one token, a run of tokens, part of a token ("5"
    of "5-dollar") or any span of the text, with values in and out of
    `relevance._SMALL`."""
    n = len(sentence.tokens)
    starts, ends = sentence.token_starts, sentence.token_ends
    quantities = []
    for _ in range(k):
        i = rng.randrange(n)
        j = rng.randrange(i, n) + 1
        a = rng.randrange(len(sentence.text))
        start, end = rng.choice([
            (starts[i], ends[i]), (starts[i], ends[j - 1]),
            (starts[i], starts[i] + 1),
            (a, rng.randrange(a, len(sentence.text)) + 1)])
        value = rng.choice((1, 2, Fraction(1, 2), Fraction(5, 2), 3))
        quantities.append(QuantityTrigger(value, Span(start, end)))
    return tuple(quantities)


def test_phrase_totals_equal_packed_name_totals():
    # a quantity's phrase total, from the table's word and pair rows, is the
    # packed total of its `_phrase_names`, and its whole total that of its
    # `quantity_names`: for one-word, multi-word, prefixed and non-token
    # spans, every value, and a lone quantity (`qq_only`)
    rng = random.Random(23)
    for trial in range(300):
        weights = random_weights(rng)
        packed = weights.packed
        table = TokenTable([(packed, ("qn", "qq"))])
        sentence = random_sentence(rng, 1 + trial % 8)
        quantities = random_quantities(rng, sentence, 1 + trial % 4)
        columns = table.columns(sentence)
        x = QuantityNames(sentence, quantities, trial % 4)
        _, small, only, _ = relevance._compile(weights)
        totals = x.column_totals(columns, small, only)
        assert totals == list(map(packed.total, x.names)), sentence.tokens
        for i, q in enumerate(quantities):
            window = columns.total(
                "qn", *relevance._quantity_window(sentence, q, x.window))
            assert totals[i] - window == packed.total(
                relevance._phrase_names(sentence, quantities, i))


def test_small_value_check_equals_membership():
    # a quantity's column total adds `qq_small` exactly when
    # `value in (1, 2)`: for Fractions and for values as annotations give
    # them ("2.0", "4/2", 2.0), a lone quantity or one of several
    weights = Weights({"qq_small|r=1": 5})
    packed = weights.packed
    table = TokenTable([(packed, ("qn", "qq"))])
    sentence = AnnotatedSentence("a 7 b c", ("a", "7", "b", "c"),
                                 ("DT", "CD", "NN", "NN"), ())
    columns = table.columns(sentence)
    _, small, only, _ = relevance._compile(weights)
    values = (Fraction(1), Fraction(2), Fraction(4, 2), Fraction(1, 2),
              Fraction(-1), Fraction(-2), Fraction(3), Fraction(0),
              *map(parse_value, ("2.0", "1.0", "4/2", "0.5", "-2", 2.0, 3)))
    for value in values:
        for k in (1, 2):
            quantities = tuple(QuantityTrigger(value, Span(2, 3))
                               for _ in range(k))
            x = QuantityNames(sentence, quantities, 1)
            totals = x.column_totals(columns, small, only)
            assert [packed.score(total, "r=1") for total in totals] \
                == [5 if value in (1, 2) else 0] * k, value
            assert totals == list(map(packed.total, x.names))


def test_relevance_decode_reads_count_weights_by_name():
    # the compiled count weights are those of the `qg_count=c/k` names: a
    # name `_count_feature` does not write (a leading zero, another digit
    # script, a label, c above k) is not read
    rng = random.Random(24)
    decoder = RelevanceDecoder()
    for trial in range(200):
        flat = dict(random_weights(rng))
        for c, k in product(range(5), range(1, 5)):
            if rng.random() < 0.5:
                flat[f"qg_count={c}/{k}"] = rng.randint(-60, 60)
        for name in ("qg_count=01/2", "qg_count=\u0661/2",
                     "qg_count=1/2|r=1", "qg_count=3/2", "qg_count=1/02"):
            flat[name] = rng.choice((-1000, 1000))
        weights = Weights(flat)
        table = TokenTable([(weights.packed, ("qn", "qq"))])
        sentence = random_sentence(rng, 1 + trial % 8)
        x = decoder.prepare(
            (sentence, random_quantities(rng, sentence, 1 + trial % 4)))
        assert decoder.decode(x, weights, columns=table.columns(sentence)) \
            == decoder.decode(x, weights)


def test_np_window_reads_equal_packed_name_totals():
    # an NP's two field reads equal the packed total of its
    # `np_feature_names`, for chunks over whole and part tokens and for
    # every window size; and the decode reads them as the names path does
    rng = random.Random(25)
    for trial in range(300):
        weights = random_weights(rng)
        packed = weights.packed
        table = TokenTable([(packed, ("vp", "vn"))])
        plain = random_sentence(rng, 1 + trial % 8)
        starts, ends = plain.token_starts, plain.token_ends
        chunks = []
        for _ in range(1 + trial % 4):
            i = rng.randrange(len(starts))
            j = rng.randrange(i, len(starts)) + 1
            start = rng.randrange(starts[i], ends[i])
            end = rng.randrange(max(start, starts[j - 1]), ends[j - 1]) + 1
            chunks.append(Span(start, end))
        sentence = AnnotatedSentence(plain.text, plain.tokens, plain.pos,
                                     tuple(chunks))
        columns = table.columns(sentence)
        x = NpNames(sentence, trial % 4)
        assert x.column_totals(columns) == list(map(packed.total, x.names))
        decoder = VariableDecoder(x.window)
        assert decoder.decode(x, weights, columns=columns) \
            == decoder.decode(x, weights)


def _held_out(name: str, seed: int):
    """The benchmark's (train, held-out sentences) of a workload, quantities
    left to detection as `eqparse parse --text` leaves them."""
    path = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    train, held_out = workloads.generate(name, seed)
    return train, [workloads.without_quantities(ex).sentence
                   for ex in held_out]


def _oracle_parse(bundle: ModelBundle, sentence):
    """The parse composed from the stage decoders on raw inputs, which
    total name lists: (relevance, variable triggers, equation), or None
    where the parse raises."""
    window = bundle.config.window
    quantities = sentence_quantities(sentence)
    relevance = RelevanceDecoder(window).decode(
        (sentence, tuple(quantities)), bundle.relevance_model.weights)
    try:
        candidate = VariableDecoder(window).decode(
            sentence, bundle.variable_model.weights)
    except ValueError:
        return relevance, None, None
    variables = assign_labels(sentence, candidate)
    kept = [q for q, bit in zip(quantities, relevance) if bit]
    triggers = tuple(sort_triggers(kept + list(variables)))
    try:
        tree = bundle.config.tree_decoder().decode(
            (sentence, triggers), bundle.tree_model.weights)
    except ValueError:
        return relevance, variables, None
    return relevance, variables, (triggers, tree)


def _bundle_parse(bundle: ModelBundle, sentence):
    """The same triple from the bundle's own methods."""
    relevance = bundle.predict_relevance(sentence,
                                         sentence_quantities(sentence))
    try:
        variables = bundle.predict_variables(sentence)
    except ValueError:
        return relevance, None, None
    try:
        result = bundle.parse(sentence)
    except ValueError:
        return relevance, variables, None
    assert result.relevance == relevance
    assert result.variable_triggers == variables
    kept = [q for q, bit in zip(result.quantities, relevance) if bit]
    triggers = tuple(sort_triggers(kept + list(variables)))
    assert bundle.decode_tree(sentence, triggers) == result.tree
    return relevance, variables, (triggers, result.tree)


def assert_parses_as_oracle(bundle: ModelBundle, sentences) -> int:
    """Each sentence's bundle parse equals the oracle's; returns how many
    parsed to a tree."""
    trees = 0
    for sentence in sentences:
        got = _bundle_parse(bundle, sentence)
        assert got == _oracle_parse(bundle, sentence), sentence.text
        trees += got[2] is not None
    return trees


def counting_tables(monkeypatch) -> list:
    """Record each `TokenTable` a bundle compiles; returns the record."""
    built = []

    def counted(sources):
        built.append(TokenTable(sources))
        return built[-1]

    monkeypatch.setattr(pipeline, "TokenTable", counted)
    return built


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_bundle_parses_as_its_stage_decoders(config, synthetic_corpus,
                                             multiplier_corpus, monkeypatch):
    # on the shipped corpora and on both workloads' held-out seeds 1-3;
    # each bundle compiles one token table, on its first parse
    built = counting_tables(monkeypatch)
    config = PipelineConfig(**config)
    shipped = synthetic_corpus + multiplier_corpus
    bundle = train_bundle(shipped, config)
    assert built == []
    assert assert_parses_as_oracle(
        bundle, [ex.sentence for ex in shipped]) == len(shipped)
    assert built == [bundle._table]
    for i, (name, seed) in enumerate(product(("families", "distractors"),
                                             (1, 2, 3))):
        train, sentences = _held_out(name, seed)
        bundle = train_bundle(train, config)
        assert assert_parses_as_oracle(bundle, sentences) >= 0.9 * len(
            sentences)
        assert len(built) == i + 2 and built[-1] is bundle._table


@pytest.fixture(scope="module")
def shipped_bundle_text(request):
    synthetic = request.getfixturevalue("synthetic_corpus")
    multiplier = request.getfixturevalue("multiplier_corpus")
    return train_bundle(synthetic + multiplier,
                        PipelineConfig(use_lexicon=False)).to_text()


def _flipped(bundle: ModelBundle, sentences) -> ModelBundle:
    """The bundle with weights that change most parses: each word of the
    sentences pulls every quantity into the equation, every NP to the
    pair label, and every tree node to `-` (no lexicon pins it). Its
    models' weights are plain dicts, which the bundle copies."""
    words = sorted({token.lower() for s in sentences for token in s.tokens})
    models = []
    for model, name in ((bundle.relevance_model, "qn_u={}|r=1"),
                        (bundle.variable_model, "vp_u={}|t=1s=0"),
                        (bundle.tree_model, "tn_u={}|o=-lr")):
        weights = dict(model.weights)
        weights.update((name.format(word), 10 ** 6) for word in words)
        models.append(LinearModel(weights, model.config))
    return ModelBundle(*models, bundle.config)


def test_a_bundle_is_read_only(shipped_bundle_text, synthetic_corpus):
    # after a parse, its models' weights refuse assignment, and its fields
    # and its models' fields refuse rebinding; it then parses as before
    bundle = ModelBundle.from_text(shipped_bundle_text)
    sentences = [ex.sentence for ex in synthetic_corpus]
    before = [_bundle_parse(bundle, s) for s in sentences]
    for model in (bundle.relevance_model, bundle.variable_model,
                  bundle.tree_model):
        with pytest.raises(TypeError):
            model.weights["tn_u=the|o=-lr"] = 10 ** 6
        for owner in (model, bundle):
            for field in dataclasses.fields(owner):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(owner, field.name, getattr(owner, field.name))
    assert [_bundle_parse(bundle, s) for s in sentences] == before
    assert bundle.to_text() == shipped_bundle_text


def test_plain_dict_models_parse_as_weights(shipped_bundle_text,
                                            synthetic_corpus,
                                            multiplier_corpus):
    # a bundle built from plain dict weights copies them into `Weights`
    # and parses as one built from the same weights as `Weights`, here
    # with a weight too wide for the trained slots and a label no model
    # had seen
    sentences = [ex.sentence for ex in synthetic_corpus + multiplier_corpus]
    loaded = ModelBundle.from_text(shipped_bundle_text)
    models = (loaded.relevance_model, loaded.variable_model,
              loaded.tree_model)
    flat = [dict(model.weights) for model in models]
    flat[2].update({"tn_u=the|o=+": 1 << 300, "tn_u=the|o=*": 10 ** 7})
    plain = ModelBundle(*(LinearModel(weights, model.config)
                          for weights, model in zip(flat, models)),
                        loaded.config)
    packed = ModelBundle(*(LinearModel(Weights(weights), model.config)
                           for weights, model in zip(flat, models)),
                         loaded.config)
    for model, weights in zip((plain.relevance_model, plain.variable_model,
                               plain.tree_model), flat):
        assert type(model.weights) is Weights and model.weights == weights
    assert plain == packed and plain.to_text() == packed.to_text()
    assert [_bundle_parse(plain, s) for s in sentences] \
        == [_bundle_parse(packed, s) for s in sentences] \
        != [_bundle_parse(loaded, s) for s in sentences]
    assert_parses_as_oracle(plain, sentences)


def test_weights_of_compiled_constants_are_read(synthetic_corpus,
                                                multiplier_corpus):
    # each weight a decode compiles once per packed table, set in a
    # bundle built after another's parse, is read by the new bundle: the
    # count, `qq_small` and `qq_only` weights, the number and
    # lexicon-agreement features, and a label the tree model had not
    # seen, which takes the spare slot that `o=/rl` (no weight in this
    # bundle) reads. The first bundle's parses stay its own
    examples = synthetic_corpus + multiplier_corpus
    sentences = [ex.sentence for ex in examples]
    first = train_bundle(examples, PipelineConfig(lexicon_as_features=True))
    assert_parses_as_oracle(first, sentences)
    before = [_bundle_parse(first, s) for s in sentences]
    bundle = first
    for field, name, value in (
            ("relevance_model", "qg_count=2/3", 10 ** 9),
            ("relevance_model", "qq_small|r=1", -10 ** 9),
            ("relevance_model", "qq_only|r=0", 10 ** 9),
            ("tree_model", "tnum_left_smaller=1|o=+", 10 ** 9),
            ("tree_model", "lex_agree=1|o=-rl", 10 ** 10),
            ("tree_model", "tn_u=the|o=new", 10 ** 6)):
        assert "o=/rl" not in bundle.tree_model.weights.packed.shifts
        model = getattr(bundle, field)
        bundle = dataclasses.replace(bundle, **{field: LinearModel(
            {**model.weights, name: value}, model.config)})
        assert_parses_as_oracle(bundle, sentences)
    assert [_bundle_parse(bundle, s) for s in sentences] != before
    assert [_bundle_parse(first, s) for s in sentences] == before


def test_bundles_in_one_process_share_no_table(shipped_bundle_text,
                                               synthetic_corpus,
                                               multiplier_corpus):
    # a trained and a loaded bundle parse alike; a bundle built from the
    # loaded one's weights, changed, parses by them alone
    examples = synthetic_corpus + multiplier_corpus
    sentences = [ex.sentence for ex in examples]
    trained = train_bundle(examples, PipelineConfig(use_lexicon=False))
    loaded = ModelBundle.from_text(shipped_bundle_text)
    assert trained.to_text() == shipped_bundle_text
    first = [_bundle_parse(trained, s) for s in sentences]
    assert [_bundle_parse(loaded, s) for s in sentences] == first
    flipped = _flipped(loaded, sentences)
    assert_parses_as_oracle(flipped, sentences)
    assert [_bundle_parse(trained, s) for s in sentences] == first
    assert [_bundle_parse(loaded, s) for s in sentences] == first
    assert [_bundle_parse(flipped, s) for s in sentences] != first
    # bundles loaded and dropped one after another, with weights that
    # parse differently, reuse memory and so the ids of their objects:
    # each parses by its own weights
    texts = [shipped_bundle_text, flipped.to_text()]
    assert [_bundle_parse(ModelBundle.from_text(text), s)
            for text in texts for s in sentences[:6]] \
        == first[:6] + [_bundle_parse(flipped, s) for s in sentences[:6]]
    for trial in range(20):
        bundle = ModelBundle.from_text(texts[trial % 2])
        assert_parses_as_oracle(bundle, sentences[:6])
        del bundle


def test_no_table_is_found_by_id(shipped_bundle_text, synthetic_corpus):
    # an id is reused once its object is freed, so a table looked up by
    # the id of a bundle or of its weights could be another's: loading,
    # parsing and rebuilding a bundle never call `id`
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and arg is id:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        bundle = ModelBundle.from_text(shipped_bundle_text)
        for ex in synthetic_corpus:
            _bundle_parse(bundle, ex.sentence)
        bundle = _flipped(bundle, [synthetic_corpus[0].sentence])
        _bundle_parse(bundle, synthetic_corpus[0].sentence)
    finally:
        sys.setprofile(None)
    assert calls == []


def test_a_parse_builds_no_window_name(monkeypatch, synthetic_corpus,
                                       multiplier_corpus):
    # training names the windows; a bundle's parses after its first (which
    # compiles the table from the packed weights) build no window, part,
    # phrase or count name, no name list of a quantity or an NP, through
    # any of its prediction methods
    calls = dict.fromkeys(("token_names", "_part_names", "_phrase_names",
                           "quantity_names", "_count_feature",
                           "np_feature_names"), 0)

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(AnnotatedSentence, "token_names")
    counting(treeparse, "_part_names")
    for name in ("_phrase_names", "quantity_names", "_count_feature"):
        counting(relevance, name)
    counting(variables, "np_feature_names")
    examples = synthetic_corpus + multiplier_corpus
    for config in CONFIGS:
        bundle = train_bundle(examples, PipelineConfig(**config))
        assert all(calls.values())
        bundle.parse(examples[0].sentence)
        calls.update(dict.fromkeys(calls, 0))
        for ex in examples:
            _bundle_parse(bundle, ex.sentence)
        assert not any(calls.values()), calls
