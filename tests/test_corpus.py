"""Corpus format: JSON round-trips, token alignment, malformed input."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eqparse import core
from eqparse.core import QuantityTrigger, Span
from eqparse.corpus import (
    AnnotatedSentence,
    align_tokens,
    dump_corpus,
    example_from_json,
    example_to_json,
    load_corpus,
    parse_value,
    sentence_from_json,
    sentence_to_json,
    unparse_value,
)
from eqparse.quantities import detect_quantities

from helpers import (
    random_token_sentence,
    reference_align_tokens,
    scan_token_index_at,
    scan_token_range,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def test_align_tokens_skips_whitespace():
    spans = align_tokens("The sum is 80.", ("The", "sum", "is", "80", "."))
    assert spans == (Span(0, 3), Span(4, 7), Span(8, 10), Span(11, 13),
                     Span(13, 14))


def test_align_tokens_rejects_gap_text():
    with pytest.raises(ValueError):
        align_tokens("The big sum", ("The", "sum"))


def test_align_tokens_rejects_trailing_text():
    with pytest.raises(ValueError):
        align_tokens("The sum is 80.", ("The", "sum"))


def alignment(align, text, tokens):
    """What `align` makes of text and tokens: its spans, or its error."""
    try:
        return align(text, tokens)
    except ValueError as e:
        return f"ValueError: {e}"


def sentence_spans(text, tokens):
    return AnnotatedSentence(text, tokens, ("X",) * len(tokens), ()).token_spans


def test_alignment_matches_reference():
    # the int offsets against the per-token Span loop, on random sentences
    # with empty tokens and uneven spacing, and on copies whose text has one
    # character inserted, dropped or appended, which mostly fail to align
    rng = random.Random(67)
    for _ in range(400):
        s = random_token_sentence(rng)
        spans = reference_align_tokens(s.text, s.tokens)
        assert s.token_spans == spans
        assert align_tokens(s.text, s.tokens) == spans
        assert s.token_starts == tuple(span.start for span in spans)
        assert s.token_ends == tuple(span.end for span in spans)
        at = rng.randint(0, len(s.text))
        for text in (s.text[:at] + rng.choice("xa8 ") + s.text[at:],
                     s.text[:at] + s.text[at + 1:], s.text + "z"):
            expected = alignment(reference_align_tokens, text, s.tokens)
            assert alignment(align_tokens, text, s.tokens) == expected
            assert alignment(sentence_spans, text, s.tokens) == expected


@pytest.mark.parametrize("text,tokens,message", [
    ("The big sum", ("The", "sum"), "token 'sum' does not align with text at 3"),
    ("The sum", ("The", "total"), "token 'total' does not align with text at 3"),
    ("The sum is 80.", ("The", "sum"), "unaligned trailing text ' is 80.'"),
], ids=["gap-text", "unfound-token", "trailing-text"])
def test_alignment_failures_keep_reference_messages(text, tokens, message):
    with pytest.raises(ValueError) as ref:
        reference_align_tokens(text, tokens)
    assert str(ref.value) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        align_tokens(text, tokens)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sentence_spans(text, tokens)


def test_load_builds_no_span_per_token(monkeypatch):
    # one Span per NP chunk, quantity and grounding span of the file, and
    # none per token: a count, so a per-token Span fails here every time
    path = DATA / "synthetic_corpus.jsonl"
    objs = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    annotated = sum(len(obj["np_chunks"]) + len(obj["quantities"])
                    + sum(map(len, obj["groundings"])) for obj in objs)
    tokens = sum(len(obj["tokens"]) for obj in objs)
    assert tokens > annotated
    built = 0
    check = core.Span.__post_init__

    def counting(span):
        nonlocal built
        built += 1
        check(span)

    monkeypatch.setattr(core.Span, "__post_init__", counting)
    corpus = load_corpus(path)
    assert 0 < built <= annotated
    built = 0
    for example in corpus:
        sentence = example.sentence
        AnnotatedSentence(sentence.text, sentence.tokens, sentence.pos, ())
        assert built == 0
        detect_quantities(sentence)
        assert built == len(sentence.quantities)
        built = 0


@pytest.mark.parametrize("name", ["synthetic_corpus.jsonl",
                                  "multiplier_pairs.jsonl"])
def test_shipped_corpus_rewrites_byte_for_byte(tmp_path, name):
    copy = tmp_path / name
    dump_corpus(load_corpus(DATA / name), copy)
    assert copy.read_bytes() == (DATA / name).read_bytes()


def test_sentence_requires_pos_per_token():
    with pytest.raises(ValueError):
        AnnotatedSentence("a b", ("a", "b"), ("DT",), ())


# every character that ends a line for `str.splitlines`, and the tab: the
# characters a bundle's one-feature-per-line format cannot hold
LINE_BREAKS = ["\t", *(c for c in map(chr, range(0x3000))
                       if len(f"a{c}b".splitlines()) > 1)]


@pytest.mark.parametrize("field", ["tokens", "pos"])
def test_tab_or_line_break_in_entry_rejected(field):
    assert len(LINE_BREAKS) == 11
    obj = {"text": "the sum", "tokens": ["the", "sum"], "pos": ["DT", "NN"]}
    sentence_from_json(obj)
    for c in ["\u00a0", " ", "\x1f", "\u2027"]:  # not line breaks
        sentence_from_json({**obj, "pos": ["DT", f"N{c}N"]})
    for c in LINE_BREAKS:
        entry = f"s{c}m"
        bad = {**obj, field: [obj[field][0], entry]}
        if field == "tokens":
            bad["text"] = f"the {entry}"
        with pytest.raises(ValueError, match=re.escape(
                f"{field} entry {entry!r} holds a tab or a line break")):
            sentence_from_json(bad)


def test_chunk_beyond_text_rejected():
    with pytest.raises(ValueError):
        AnnotatedSentence("a b", ("a", "b"), ("DT", "NN"), (Span(0, 99),))


def test_quantity_beyond_text_rejected(tmp_path):
    obj = {"text": "a 5", "tokens": ["a", "5"], "pos": ["DT", "CD"],
           "np_chunks": [], "quantities": [{"value": 5, "span": [0, 500]}],
           "equation": "(= 5 5)", "groundings": []}
    with pytest.raises(ValueError, match="beyond text"):
        sentence_from_json(obj)
    path = tmp_path / "far.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1: malformed corpus line"):
        load_corpus(path)


@pytest.mark.parametrize("span", [[0.0, 3], [0, 3.0], [True, 3], [0, 1, 2],
                                  [0], "03", {"start": 0, "end": 3}])
@pytest.mark.parametrize("field", ["np_chunks", "quantities", "groundings"])
def test_span_must_be_two_integers(tmp_path, synthetic_corpus, field, span):
    # a float offset used to load and then fail as a slice index
    obj = example_to_json(synthetic_corpus[0])
    if field == "np_chunks":
        obj["np_chunks"][0] = span
    elif field == "quantities":
        obj["quantities"][0]["span"] = span
    else:
        obj["groundings"][0][0]["np_span"] = span
    path = tmp_path / "span.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:1: malformed corpus line: span must be [start, end] "
            f"integers, got {span!r}")):
        load_corpus(path)


def test_empty_quantity_span_rejected(synthetic_corpus, tmp_path):
    # inside the first quantity's token: the quantity twin of an empty chunk
    obj = example_to_json(synthetic_corpus[0])
    start = obj["quantities"][0]["span"][0]
    obj["quantities"][0] = {"value": 2, "span": [start, start]}
    message = f"quantity span Span(start={start}, end={start}) is empty"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sentence_from_json(obj)
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:1: malformed corpus line: {message}")):
        load_corpus(path)


def test_token_range_overlap():
    s = AnnotatedSentence("The sum is 80.", ("The", "sum", "is", "80", "."),
                          ("DT", "NN", "VBZ", "CD", "."), ())
    assert s.token_range(Span(4, 10)) == (1, 3)
    assert s.token_range(Span(12, 13)) == (3, 4)


def test_token_lookups_match_linear_scan():
    # the bisect lookups against a scan over every token, on every offset
    # and span of random sentences with empty tokens and uneven spacing
    rng = random.Random(61)
    for _ in range(300):
        s = random_token_sentence(rng)
        for start in range(len(s.text) + 2):
            assert s.token_index_at(start) == scan_token_index_at(s, start)
            for end in range(start, len(s.text) + 2):
                span = Span(start, end)
                assert s.token_range(span) == scan_token_range(s, span)


def test_token_starts_not_compared():
    a = AnnotatedSentence("a b", ("a", "b"), ("DT", "NN"), ())
    assert a.token_starts == (0, 2)
    assert a.token_ends == (1, 3)
    assert a.token_spans == (Span(0, 1), Span(2, 3))
    b = AnnotatedSentence("a b", ("a", "b"), ("DT", "NN"), ())
    assert a == b and hash(a) == hash(b)
    assert "token_starts" not in repr(a) and "token_ends" not in repr(a)


def test_window_clamps():
    s = AnnotatedSentence("a b c", ("a", "b", "c"), ("DT", "NN", "NN"), ())
    assert s.window(0, 1, 3) == (0, 3)
    assert s.window(2, 3, 1) == (1, 3)


def reference_token_names(sentence, prefix, lo, hi, bigrams=True):
    """`AnnotatedSentence.token_names` by its definition: the lowercased
    words, then the tags, then the lowercased word pairs."""
    words = [t.lower() for t in sentence.tokens[lo:hi]]
    names = [f"{prefix}_u={w}" for w in words]
    names += [f"{prefix}_p={p}" for p in sentence.pos[lo:hi]]
    if bigrams:
        names += [f"{prefix}_b={a} {b}" for a, b in zip(words, words[1:])]
    return names


# characters whose lowercase differs in length or form (dotted capital I,
# capital sharp s, Kelvin sign, final sigma), the feature syntax's own
# "=", "|" and space, and a few plain ones
name_chars = st.sampled_from(["İ", "ẞ", "\u212a", "Σ", "=", "|", " ", "a",
                              "B", "1", "é"]) | st.characters()


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.text(name_chars, max_size=4), max_size=8),
       data=st.data())
def test_token_names_match_definition(tokens, data):
    tags = data.draw(st.lists(st.text(name_chars, max_size=3),
                              min_size=len(tokens), max_size=len(tokens)))
    # concatenated, the tokens always align with the text
    sentence = AnnotatedSentence("".join(tokens), tuple(tokens), tuple(tags),
                                 ())
    prefix = data.draw(st.sampled_from(["qn", "vp", "vn", "tc", "tn"]))
    n = len(tokens)
    lo, hi = data.draw(st.integers(-n - 1, n + 1)), data.draw(
        st.integers(-n - 1, n + 1))
    bigrams = data.draw(st.booleans())
    assert (sentence.token_names(prefix, lo, hi, bigrams)
            == reference_token_names(sentence, prefix, lo, hi, bigrams))


def test_parse_value_forms():
    assert parse_value(2) == Fraction(2)
    assert parse_value("1/2") == Fraction(1, 2)
    assert parse_value(2.5) == Fraction(5, 2)
    assert parse_value("3") == Fraction(3)
    with pytest.raises(ValueError):
        parse_value(True)
    with pytest.raises(ValueError):
        parse_value(None)


def test_unparse_value_integers_stay_numbers():
    assert unparse_value(Fraction(2)) == 2
    assert unparse_value(Fraction(1, 2)) == "1/2"


def test_sentence_json_roundtrip():
    s = AnnotatedSentence(
        "The sum of two numbers is 80.",
        ("The", "sum", "of", "two", "numbers", "is", "80", "."),
        ("DT", "NN", "IN", "CD", "NNS", "VBZ", "CD", "."),
        (Span(0, 7), Span(11, 22)),
        (QuantityTrigger(Fraction(2), Span(11, 14)),
         QuantityTrigger(Fraction(80), Span(26, 28))),
    )
    assert sentence_from_json(sentence_to_json(s)) == s


def test_example_json_roundtrip(synthetic_corpus):
    for ex in synthetic_corpus:
        assert example_from_json(example_to_json(ex)) == ex


def test_corpus_file_roundtrip(tmp_path, synthetic_corpus):
    path = tmp_path / "copy.jsonl"
    dump_corpus(synthetic_corpus, path)
    assert load_corpus(path) == synthetic_corpus


def test_load_corpus_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"text": "a b", "tokens": ["a", "b"],
                       "pos": ["DT", "NN"], "np_chunks": [],
                       "equation": "(= 1 2)", "groundings": []})
    path.write_text(good + "\n{broken\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"2"):
        load_corpus(path)


def test_example_knows_its_corpus_line(tmp_path, synthetic_corpus):
    path = tmp_path / "copy.jsonl"
    obj = example_to_json(synthetic_corpus[0])
    obj["equation"] = "(= (+ V1"
    path.write_text("\n" + json.dumps(obj) + "\n", encoding="utf-8")
    (example,) = load_corpus(path)
    assert example.source == f"{path}:2"
    with pytest.raises(ValueError, match=f"^{path}:2: malformed equation: "
                       "truncated equation"):
        example.gold_expr()
    # built in memory, an example has no line to name
    bare = example_from_json(obj)
    assert bare.source is None and bare == example
    with pytest.raises(ValueError, match="^truncated equation"):
        bare.gold_expr()


def test_load_corpus_skips_blank_lines(tmp_path, synthetic_corpus):
    path = tmp_path / "gaps.jsonl"
    dump_corpus(synthetic_corpus[:2], path)
    path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
    assert len(load_corpus(path)) == 2


def test_load_corpus_splits_lines_as_a_text_reader(tmp_path, synthetic_corpus):
    # lines are read as bytes and decoded one by one; "\r\n" and a lone
    # "\r" still end a line, so the line numbers stay those of a text reader
    lines = [json.dumps(example_to_json(ex)) for ex in synthetic_corpus[:3]]
    path = tmp_path / "endings.jsonl"
    path.write_bytes("\r\n".join(lines[:2]).encode() + b"\r\r"
                     + lines[2].encode())
    loaded = load_corpus(path)
    assert loaded == synthetic_corpus[:3]
    assert [ex.source for ex in loaded] == [f"{path}:{n}" for n in (1, 2, 4)]
