"""Quantity trigger detection: digits, number words, hyphenated prefixes."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqparse.core import QuantityTrigger, Span
from eqparse.corpus import AnnotatedSentence
from eqparse.quantities import (
    DEFAULT_NUMBER_WORDS,
    detect_quantities,
    sentence_quantities,
)


def plain(text: str, pos_tag: str = "NN") -> AnnotatedSentence:
    tokens = tuple(text.split())
    return AnnotatedSentence(text, tokens, (pos_tag,) * len(tokens), ())


def test_multiplier_sentence_values_and_spans(twice_triple_sentence):
    qs = detect_quantities(twice_triple_sentence)
    assert [q.value for q in qs] == [2, 25, 3]
    assert [q.span for q in qs] == [Span(0, 5), Span(22, 24), Span(35, 41)]


def test_sum_sentence_number_word(sum_sentence):
    qs = detect_quantities(sum_sentence)
    assert [(q.value, q.span) for q in qs] == [
        (2, Span(11, 14)), (80, Span(26, 28))]


def test_empty_sentence():
    assert detect_quantities(AnnotatedSentence("", (), (), ())) == ()


def test_hyphenated_prefix_spans_digits_only(notes_sentence):
    qs = detect_quantities(notes_sentence)
    assert [(q.value, q.span) for q in qs] == [
        (54, Span(10, 12)), (5, Span(13, 14)), (10, Span(26, 28))]


def test_comma_grouped_digits():
    qs = detect_quantities(plain("profits total 12,500 dollars"))
    assert [q.value for q in qs] == [12500]


def test_decimal_digits():
    qs = detect_quantities(plain("the rate is 2.5 knots"))
    assert [q.value for q in qs] == [Fraction(5, 2)]


def test_number_words_case_insensitive():
    qs = detect_quantities(plain("Twice THRICE double Half"))
    assert [q.value for q in qs] == [2, 3, 2, Fraction(1, 2)]


def test_teens_and_tens_words():
    qs = detect_quantities(plain("seventeen plus ninety"))
    assert [q.value for q in qs] == [17, 90]


def test_no_overlapping_triggers():
    qs = detect_quantities(plain("three 3 33 third"))
    spans = [q.span for q in qs]
    for a, b in zip(spans, spans[1:]):
        assert a.end <= b.start
    assert [q.value for q in qs] == [3, 3, 33]


def test_sentence_quantities_prefers_annotations(sum_sentence):
    annotated = AnnotatedSentence(
        sum_sentence.text, sum_sentence.tokens, sum_sentence.pos,
        sum_sentence.np_chunks,
        (next(iter(detect_quantities(sum_sentence))),))
    assert len(sentence_quantities(annotated)) == 1
    assert len(sentence_quantities(sum_sentence)) == 2


def test_default_table_has_core_multipliers():
    for word in ("twice", "double", "thrice", "triple", "half"):
        assert word in DEFAULT_NUMBER_WORDS


def reference_detect_quantities(sentence):
    """`detect_quantities` as a plain loop: both patterns tried on every
    token, and every digit token parsed as a string by `Fraction`."""
    digits_re = re.compile(r"\d+(?:,\d{3})*(?:\.\d+)?")
    prefixed_re = re.compile(r"(\d+(?:\.\d+)?)-\S+")
    found = []
    for tok, span in zip(sentence.tokens, sentence.token_spans):
        if digits_re.fullmatch(tok):
            found.append(QuantityTrigger(Fraction(tok.replace(",", "")), span))
            continue
        m = prefixed_re.fullmatch(tok)
        if m:
            found.append(QuantityTrigger(
                Fraction(m.group(1)),
                Span(span.start, span.start + len(m.group(1)))))
            continue
        value = DEFAULT_NUMBER_WORDS.get(tok.lower())
        if value is not None:
            found.append(QuantityTrigger(value, span))
    return tuple(found)


@pytest.mark.parametrize("token, values", [
    ("\u00b2", []),             # superscript two: a digit, but not decimal
    ("\u0663", [3]),            # Arabic-Indic three: decimal
    ("\u0663\u0663.\u0665", [Fraction(67, 2)]),
    ("1,000", [1000]),
    ("1,00", []),
    ("2.5", [Fraction(5, 2)]),
    ("5-dollar", [5]),
    ("5-", []),
    ("05", [5]),
    ("Twice", [2]),
])
def test_detection_of_one_token(token, values):
    sentence = plain(f"a {token} b")
    assert [q.value for q in detect_quantities(sentence)] == values
    assert detect_quantities(sentence) == reference_detect_quantities(sentence)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-conversion digit limit")
@pytest.mark.parametrize("token", [
    "1" * 5000,
    "1" * 5000 + ".5",
    "5." + "1" * 5000,
    "1" * 5000 + "-dollar",
], ids=["integer", "decimal", "decimal-part", "prefixed"])
def test_over_long_digit_token_named(token):
    # more digits than the interpreter converts to an int: the error names
    # the stage and the token's span, and keeps Python's reason
    sentence = plain(f"a {token} b")
    with pytest.raises(ValueError) as info:
        detect_quantities(sentence)
    assert str(info.value).startswith(
        f"quantity detection: the token at [2, {2 + len(token)}]: ")
    assert "digits" in str(info.value)


# digits of several scripts, the superscript two, the characters around
# numbers and some number words, then anything
quantity_tokens = st.lists(
    st.sampled_from(["0", "1", "5", "9", "\u0663", "\u0b6b", "\u00b2",
                     "\u00bd", ",", ".", "-", "x", "half", "Two", "ninety"])
    | st.characters(), max_size=6).map("".join)


@settings(max_examples=400, deadline=None)
@given(tokens=st.lists(quantity_tokens, max_size=6))
def test_detection_matches_reference_loop(tokens):
    # concatenated, the tokens always align with the text
    sentence = AnnotatedSentence("".join(tokens), tuple(tokens),
                                 ("NN",) * len(tokens), ())
    assert detect_quantities(sentence) == reference_detect_quantities(sentence)
