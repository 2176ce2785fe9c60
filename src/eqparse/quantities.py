"""Quantity detection: digit tokens, number words, and numeric prefixes.

Detection is token-based, so matches never overlap. Corpus-provided quantity
annotations take precedence over detection.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import QuantityTrigger, Span
from .corpus import AnnotatedSentence

_UNITS = ["one", "two", "three", "four", "five", "six", "seven", "eight", "nine"]
_TEENS = ["ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
          "sixteen", "seventeen", "eighteen", "nineteen"]
_TENS = ["twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty",
         "ninety"]

DEFAULT_NUMBER_WORDS: dict[str, Fraction] = {
    **{w: Fraction(i + 1) for i, w in enumerate(_UNITS)},
    **{w: Fraction(i + 10) for i, w in enumerate(_TEENS)},
    **{w: Fraction((i + 2) * 10) for i, w in enumerate(_TENS)},
    "twice": Fraction(2),
    "double": Fraction(2),
    "thrice": Fraction(3),
    "triple": Fraction(3),
    "half": Fraction(1, 2),
}

# digit token, with optional thousands commas and decimal part. Both
# patterns start with `\d`, which in a str pattern matches exactly the
# characters whose `isdecimal()` is true: only tokens starting with one are
# matched against them
_DIGITS_RE = re.compile(r"\d+(?:,\d{3})*(?:\.\d+)?")
_PREFIXED_RE = re.compile(r"(\d+(?:\.\d+)?)-\S+")


def detect_quantities(sentence: AnnotatedSentence) -> tuple[QuantityTrigger, ...]:
    """Quantity triggers for digit tokens, number words, and numeric prefixes.

    A hyphenated token like "5-dollar" yields a trigger over just the digit
    prefix. Returned triggers are sorted by span start and never overlap.
    """
    found = []
    for tok, start, end in zip(sentence.tokens, sentence.token_starts,
                               sentence.token_ends):
        if tok[:1].isdecimal():
            try:
                if _DIGITS_RE.fullmatch(tok):
                    digits = tok.replace(",", "")
                    # an integer skips the string parse of `Fraction`
                    value = (Fraction(digits) if "." in digits
                             else Fraction(int(digits)))
                    found.append(QuantityTrigger(value, Span(start, end)))
                    continue
                m = _PREFIXED_RE.fullmatch(tok)
                if m:
                    found.append(QuantityTrigger(
                        Fraction(m.group(1)),
                        Span(start, start + len(m.group(1)))))
                    continue
            except ValueError as e:
                # more digits than the interpreter converts to an int
                raise ValueError(f"quantity detection: the token at "
                                 f"[{start}, {end}]: {e}") from e
        value = DEFAULT_NUMBER_WORDS.get(tok.lower())
        if value is not None:
            found.append(QuantityTrigger(value, Span(start, end)))
    return tuple(found)


def sentence_quantities(sentence: AnnotatedSentence) -> tuple[QuantityTrigger, ...]:
    """Corpus annotations verbatim when present, else detection."""
    if sentence.quantities:
        return sentence.quantities
    return detect_quantities(sentence)
