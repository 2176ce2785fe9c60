"""Corpus format: JSON round-trips, token alignment, malformed input."""

import json
import random
import re
from fractions import Fraction

import pytest

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

from helpers import random_token_sentence, scan_token_index_at, scan_token_range


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


def test_sentence_requires_pos_per_token():
    with pytest.raises(ValueError):
        AnnotatedSentence("a b", ("a", "b"), ("DT",), ())


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
    assert a == AnnotatedSentence("a b", ("a", "b"), ("DT", "NN"), ())
    assert "token_starts" not in repr(a)


def test_window_clamps():
    s = AnnotatedSentence("a b c", ("a", "b", "c"), ("DT", "NN", "NN"), ())
    assert s.window(0, 1, 3) == (0, 3)
    assert s.window(2, 3, 1) == (1, 3)


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
