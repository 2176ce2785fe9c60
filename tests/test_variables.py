"""Variable grounding: coreference rules, candidate space, labeling."""

import random
import re
import sys
import time

import pytest

from eqparse.core import Span
from eqparse.corpus import AnnotatedSentence
from eqparse.learning import ExhaustiveDecoder, LinearModel, Weights, dot
from eqparse.variables import (
    Coref,
    NpNames,
    VariableCandidate,
    VariableDecoder,
    assign_labels,
    candidate_cost,
    coreference_label,
    enumerate_variable_candidates,
    predict_variable_triggers,
    variable_features,
)
from eqparse.variables import _label, _label_costs, _mentions_two, _same

from helpers import HashWeights, draw_weights, random_np_instance


def np_texts(sentence, triggers):
    return [t.span.text(sentence.text) for t in triggers]


def np_instance(rng: random.Random, m: int) -> AnnotatedSentence:
    """`random_np_instance` with m chunks, often most of them mentioning
    "two", and half the time with some chunks listed again, in any
    order."""
    sentence = random_np_instance(rng, m, two=rng.choice((0.3, 0.8)))
    chunks = list(sentence.np_chunks)
    if rng.random() < 0.5:
        chunks += rng.choices(chunks, k=rng.randint(1, 3))
        rng.shuffle(chunks)
    return AnnotatedSentence(sentence.text, sentence.tokens, sentence.pos,
                             tuple(chunks))


class TestCoreference:
    def test_same_number_phrase_corefers(self, twice_triple_sentence):
        np1, np2 = twice_triple_sentence.np_chunks
        assert np1.text(twice_triple_sentence.text) == "a number"
        assert np2.text(twice_triple_sentence.text) == "the same number"
        assert coreference_label(twice_triple_sentence, np1, np2) \
            is Coref.SAME_LABEL

    def test_identical_text_corefers(self):
        sentence = AnnotatedSentence(
            "The number doubles the number .",
            ("The", "number", "doubles", "the", "number", "."),
            ("DT", "NN", "VBZ", "DT", "NN", "."),
            (Span(0, 10), Span(19, 29)))
        np1, np2 = sentence.np_chunks
        assert coreference_label(sentence, np1, np2) is Coref.SAME_LABEL

    def test_identical_text_with_two_does_not(self, sum_sentence):
        np = sum_sentence.np_chunks[1]
        assert np.text(sum_sentence.text) == "two numbers"
        assert coreference_label(sum_sentence, np, np) \
            is Coref.DIFFERENT_LABELS

    def test_unrelated_nps_differ(self, wind_bird_sentence):
        np1, np2 = wind_bird_sentence.np_chunks
        assert coreference_label(wind_bird_sentence, np1, np2) \
            is Coref.DIFFERENT_LABELS

    def test_itself_corefers(self):
        sentence = AnnotatedSentence(
            "A number multiplied by itself is 49 .",
            ("A", "number", "multiplied", "by", "itself", "is", "49", "."),
            ("DT", "NN", "VBN", "IN", "PRP", "VBZ", "CD", "."),
            (Span(0, 8), Span(23, 29)))
        np1, np2 = sentence.np_chunks
        assert coreference_label(sentence, np1, np2) is Coref.SAME_LABEL

    def test_reversed_mention_order_rejected(self, twice_triple_sentence):
        np1, np2 = twice_triple_sentence.np_chunks
        with pytest.raises(ValueError):
            coreference_label(twice_triple_sentence, np2, np1)


def _np_tokens(text: str) -> list[str]:
    """The reference tokens an NP's text is matched on: its pieces at
    whitespace, lowercased, with `.,!?;:` stripped from both ends."""
    return [t.lower().strip(".,!?;:") for t in text.split()]


def _contains_phrase(text: str, phrase: str) -> bool:
    """Whether the phrase's words are consecutive `_np_tokens`."""
    return f" {phrase} " in " " + " ".join(_np_tokens(text)) + " "


class TestPhraseSearch:
    # "two" and the coreference phrases are found by compiled regexes on
    # the NP's text; the reference splits it into `_np_tokens`
    PIECES = ("two", "Two", "TWO", "tWo", "2", "22", "two2", "itself",
              "ITSELF", "itſelf", "the", "The", "same", "number", "numbers",
              "İtself", "\u212a", "twó", "two\u0301", "tw o", ".", ",", "!?",
              ";", ":", "-", "'", "(", " ", "  ", "\t", "\n", "\xa0",
              "\u2003", "\x1c", "\u200b", "x")

    def test_matches_np_tokens(self):
        rng = random.Random(61)
        found = [0, 0]
        for trial in range(6000):
            text = "".join(rng.choice(self.PIECES)
                           for _ in range(rng.randrange(10)))
            sentence = AnnotatedSentence(f"{text}|", (f"{text}|",), ("NN",),
                                         ())
            two = _mentions_two(sentence, Span(0, len(text)))
            assert two == bool({"two", "2"} & set(_np_tokens(text))), text
            same = _same(text) is not None
            assert same == (_contains_phrase(text, "itself")
                            or _contains_phrase(text, "the same number")), text
            found[0] += two
            found[1] += same
        assert min(found) > 150

    def test_case_and_space_classes(self):
        # the regexes match each letter of their phrases in its two ASCII
        # cases and split at `\s`: no other character lowercases to such
        # a letter, and `\s` is exactly what `str.split` splits at
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        letters = set("twoitselfhesamenumber")
        assert {c for c in every if c.lower() in letters} \
            == letters | {c.upper() for c in letters}
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


class TestNpNames:
    # words that hold "two" or "2" as a token of a chunk starting inside
    # them or not ("xtwo", "İtwo", "x2"), in other cases or with an edge
    # mark ("TWO", "two,"), and words that hold neither
    WORDS = ("xtwo", "TWO", "two,", "2", "İtwo", "Two", "x2", "twelve",
             "tw", "o", "w", "the", "apples", "T")

    def test_chunks_match_definition(self):
        # the chunks are `sorted(set(np_chunks))`, the index built on
        # first use the dict of their positions, and `twos` the
        # `_mentions_two` of each: the sentence's "2"/"two" test never
        # hides a chunk that the search finds. Chunks start and end
        # inside words, repeat, and come in any order
        rng = random.Random(71)
        without = with_two = 0
        for trial in range(600):
            words = self.WORDS if trial % 3 else self.WORDS[7:]
            tokens = tuple(rng.choice(words)
                           for _ in range(rng.randint(1, 6)))
            bare = AnnotatedSentence(" ".join(tokens), tokens,
                                     ("NN",) * len(tokens), ())
            starts, ends = bare.token_starts, bare.token_ends
            chunks = []
            for _ in range(rng.randint(1, 5)):
                i = rng.randrange(len(tokens))
                j = rng.randrange(i, len(tokens))
                start = rng.choice((starts[i], rng.randrange(starts[i],
                                                             ends[i])))
                end = rng.choice((ends[j], rng.randrange(max(start, starts[j]),
                                                         ends[j]) + 1))
                chunks.append(Span(start, end))
            chunks += rng.choices(chunks, k=rng.randint(0, 2))
            rng.shuffle(chunks)
            sentence = AnnotatedSentence(bare.text, tokens, bare.pos,
                                         tuple(chunks))
            x = NpNames(sentence, 3)
            want = sorted(set(chunks))
            assert x.chunks == want
            assert x.twos == [_mentions_two(sentence, np) for np in want], (
                sentence.text, want)
            assert x._index is None
            assert x.index == {np: c for c, np in enumerate(want)}
            found = any(x.twos)
            with_two += found
            without += not ("2" in bare.text or "two" in bare.text.lower())
        assert with_two > 100 and without > 100


class TestCandidate:
    def test_pair_normalizes_position_order(self):
        a, b = Span(0, 3), Span(5, 9)
        assert VariableCandidate((b, a)).nps == (a, b)

    def test_flags(self):
        a, b = Span(0, 3), Span(5, 9)
        single = VariableCandidate((a,))
        assert (single.two_variables, single.same_np) == (False, False)
        pair = VariableCandidate((a, b))
        assert (pair.two_variables, pair.same_np) == (True, False)
        self_pair = VariableCandidate((a, a))
        assert (self_pair.two_variables, self_pair.same_np) == (True, True)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            VariableCandidate((Span(0, 1), Span(2, 3), Span(4, 5)))
        with pytest.raises(ValueError):
            VariableCandidate(())

    def test_equality_ignores_input_order(self):
        a, b = Span(0, 3), Span(5, 9)
        assert VariableCandidate((b, a)) == VariableCandidate((a, b))
        assert hash(VariableCandidate((b, a))) == hash(VariableCandidate((a, b)))


class TestEnumeration:
    def test_two_two_bearing_nps_full_space(self):
        sentence = AnnotatedSentence(
            "Two numbers exceed two digits .",
            ("Two", "numbers", "exceed", "two", "digits", "."),
            ("CD", "NNS", "VBP", "CD", "NNS", "."),
            (Span(0, 11), Span(19, 29)))
        a, b = sentence.np_chunks
        got = enumerate_variable_candidates(sentence)
        assert got == [
            VariableCandidate((a,)), VariableCandidate((b,)),
            VariableCandidate((a, a)), VariableCandidate((a, b)),
            VariableCandidate((b, b))]

    def test_self_pair_needs_two_token(self, sum_sentence):
        a, b = sum_sentence.np_chunks  # "The sum", "two numbers"
        got = enumerate_variable_candidates(sum_sentence)
        assert VariableCandidate((b, b)) in got
        assert VariableCandidate((a, a)) not in got
        assert VariableCandidate((a, b)) in got

    def test_single_np_without_two(self, notes_sentence):
        (np,) = notes_sentence.np_chunks
        got = enumerate_variable_candidates(notes_sentence)
        assert got == [VariableCandidate((np,))]

    def test_single_np_with_two(self):
        sentence = AnnotatedSentence(
            "Two numbers sum to 10 .",
            ("Two", "numbers", "sum", "to", "10", "."),
            ("CD", "NNS", "VBP", "TO", "CD", "."),
            (Span(0, 11),))
        (np,) = sentence.np_chunks
        assert enumerate_variable_candidates(sentence) == [
            VariableCandidate((np,)), VariableCandidate((np, np))]


class TestLabeling:
    def test_coreferring_pair_is_v1_v1(self, twice_triple_sentence):
        candidate = VariableCandidate(tuple(twice_triple_sentence.np_chunks))
        triggers = assign_labels(twice_triple_sentence, candidate)
        assert [t.label for t in triggers] == ["V1", "V1"]
        assert np_texts(twice_triple_sentence, triggers) == [
            "a number", "the same number"]

    def test_self_pair_is_v1_v2(self, sum_sentence):
        np = sum_sentence.np_chunks[1]
        triggers = assign_labels(sum_sentence, VariableCandidate((np, np)))
        assert [t.label for t in triggers] == ["V1", "V2"]
        assert [t.span for t in triggers] == [np, np]

    def test_distinct_pair_is_v1_then_v2(self, contributions_sentence):
        candidate = VariableCandidate(tuple(contributions_sentence.np_chunks))
        triggers = assign_labels(contributions_sentence, candidate)
        assert [t.label for t in triggers] == ["V1", "V2"]
        assert np_texts(contributions_sentence, triggers) == [
            "Emanuel's campaign contributions",
            "those of his opponents put together"]

    def test_single_np_is_v1(self, notes_sentence):
        (np,) = notes_sentence.np_chunks
        triggers = assign_labels(notes_sentence, VariableCandidate((np,)))
        assert [t.label for t in triggers] == ["V1"]


class TestTrainedPrediction:
    def test_coreferring_mentions(self, bundle, twice_triple_sentence):
        triggers = bundle.predict_variables(twice_triple_sentence)
        assert [(t.label, t.span) for t in triggers] == [
            ("V1", Span(6, 14)), ("V1", Span(42, 57))]

    def test_self_pair(self, bundle, sum_sentence):
        triggers = bundle.predict_variables(sum_sentence)
        np = sum_sentence.np_chunks[1]
        assert [(t.label, t.span) for t in triggers] == [
            ("V1", np), ("V2", np)]

    def test_no_np_chunks_rejected(self):
        sentence = AnnotatedSentence(
            "It is 7 .", ("It", "is", "7", "."),
            ("PRP", "VBZ", "CD", "."), ())
        with pytest.raises(ValueError, match="NP chunks"):
            predict_variable_triggers(LinearModel({}), sentence)


class TestFeatures:
    def test_np_unigram_with_flag_tag(self, twice_triple_sentence):
        np = twice_triple_sentence.np_chunks[0]
        feats = variable_features(twice_triple_sentence,
                                  VariableCandidate((np,)))
        assert feats["vp_u=number|t=0s=0"] == 1.0
        assert feats["vp_p=NN|t=0s=0"] == 1.0

    def test_self_pair_features_all_tagged(self, sum_sentence):
        np = sum_sentence.np_chunks[1]
        feats = variable_features(sum_sentence, VariableCandidate((np, np)))
        assert feats
        assert all(name.endswith("|t=1s=1") for name in feats)

    def test_pair_doubles_shared_context(self, sum_sentence):
        np = sum_sentence.np_chunks[1]
        single = variable_features(sum_sentence, VariableCandidate((np,)))
        double = variable_features(sum_sentence, VariableCandidate((np, np)))
        assert double["vp_u=numbers|t=1s=1"] == 2 * single["vp_u=numbers|t=0s=0"]


class TestCost:
    def test_values(self):
        a, b = Span(0, 3), Span(5, 9)
        pair = VariableCandidate((a, b))
        assert candidate_cost(pair, VariableCandidate((a, b))) == 0.0
        assert candidate_cost(pair, VariableCandidate((a,))) == 2.0
        assert candidate_cost(VariableCandidate((a,)),
                              VariableCandidate((b,))) == 2.0
        assert candidate_cost(VariableCandidate((b, b)), pair) == 2.0

    def test_cost_augmented_decode_matches_brute_force(self):
        # the training decode maximizes score + candidate_cost to the gold
        rng = random.Random(23)
        decoder = VariableDecoder()
        for trial in range(100):
            sentence = random_np_instance(rng, rng.randint(1, 4))
            candidates = enumerate_variable_candidates(sentence)
            gold = rng.choice(candidates)
            weights = HashWeights(salt=3000 + trial)
            got = decoder.decode(sentence, weights, gold=gold)
            best = None
            best_score = None
            for candidate in candidates:
                score = (dot(weights, variable_features(sentence, candidate))
                         + candidate_cost(gold, candidate))
                if best_score is None or score > best_score:
                    best, best_score = candidate, score
            assert got == best


class TestVariableDecoder:
    def test_by_parts_matches_exhaustive_decoder(self):
        # the closed-form decode against scoring every candidate's whole
        # feature dict, with and without gold, at cost units 1 and 10;
        # self-pairs count their NP twice in both. Dense hashed, sparse
        # drawn, 0/1 and zero weights, the last two forcing ties; duplicate
        # chunks and several chunks that mention "two"; a few sentences
        # with many chunks
        rng = random.Random(29)
        decoder = VariableDecoder()
        oracle = ExhaustiveDecoder(enumerate_variable_candidates,
                                   variable_features, candidate_cost)
        for trial in range(200):
            sentence = np_instance(rng, 12 if trial % 50 == 0
                                   else rng.randint(1, 6))
            space = enumerate_variable_candidates(sentence)
            names = {name for y in space
                     for name in decoder.features(sentence, y)}
            ties = {name: rng.randint(0, 1) for name in names}
            for weights in (HashWeights(salt=6000 + trial),
                            Weights(draw_weights(rng, names)), ties, {}):
                for gold in (None, rng.choice(space)):
                    for cost_unit in (1, 10):
                        assert decoder.decode(sentence, weights, gold,
                                              cost_unit) \
                            == oracle.decode(sentence, weights, gold,
                                             cost_unit)

    def test_ties_keep_the_earliest_candidate(self, sum_sentence):
        assert VariableDecoder().decode(sum_sentence, {}) == \
            enumerate_variable_candidates(sum_sentence)[0]

    def test_protocol(self, sum_sentence):
        decoder = VariableDecoder()
        np = sum_sentence.np_chunks[1]
        pair = VariableCandidate((np, np))
        assert decoder.contains(sum_sentence, pair)
        assert not decoder.contains(sum_sentence, VariableCandidate((Span(0, 3),)))
        assert decoder.features(sum_sentence, pair) == variable_features(
            sum_sentence, pair)

    def test_cost_splits_per_np(self):
        # candidate_cost is a constant per label less 2 for each distinct
        # NP shared with the gold output
        rng = random.Random(32)
        for _ in range(100):
            space = enumerate_variable_candidates(
                np_instance(rng, rng.randint(1, 4)))
            for gold in space:
                for other in space:
                    shared = len(set(gold.nps) & set(other.nps))
                    assert _label_costs(gold)[_label(other)] - 2 * shared \
                        == candidate_cost(gold, other)

    def test_contains_is_membership(self):
        # candidates of 1-2 spans drawn from the chunks and from every
        # token's span, most of which are no chunk
        rng = random.Random(33)
        decoder = VariableDecoder()
        for _ in range(200):
            sentence = np_instance(rng, rng.randint(1, 5))
            space = enumerate_variable_candidates(sentence)
            spans = [*sentence.np_chunks, *sentence.token_spans]
            prepared = decoder.prepare(sentence)
            for _ in range(20):
                candidate = VariableCandidate(tuple(
                    rng.choice(spans) for _ in range(rng.randint(1, 2))))
                assert decoder.contains(sentence, candidate) \
                    == decoder.contains(prepared, candidate) \
                    == (candidate in space)
            assert not decoder.contains(sentence, space[0].nps)

    def test_two_thousand_chunks_decode_in_under_a_second(self):
        # enumeration would build about two million candidates
        rng = random.Random(34)
        sentence = random_np_instance(rng, 2000)
        weights = HashWeights(salt=34)
        gold = VariableCandidate(sentence.np_chunks[5:7])
        decoder = VariableDecoder()
        start = time.perf_counter()
        x = decoder.prepare(sentence)
        for g in (None, gold):
            assert decoder.decode(x, weights, g).nps[0] in x.index
        assert time.perf_counter() - start < 1.0
