"""Joint prediction of which quantity mentions belong in the equation.

One bit per detected quantity, predicted jointly by exhaustive scoring of all
2^k assignments. Features are local per quantity (conjoined with that
quantity's bit) plus one global feature on the relevant count.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .core import QuantityTrigger
from .corpus import AnnotatedSentence
from .learning import ExhaustiveDecoder, FeatureVector, LinearModel

RelevanceAssignment = tuple[bool, ...]

MAX_JOINT_QUANTITIES = 16


def quantity_features(sentence: AnnotatedSentence, quantities, index: int,
                      relevant: bool, window: int = 3) -> FeatureVector:
    """Per-quantity features, conjoined with this quantity's bit only."""
    q = quantities[index]
    tag = f"|r={int(relevant)}"
    feats: FeatureVector = {}

    def bump(name):
        feats[name + tag] = feats.get(name + tag, 0.0) + 1.0

    ti, tj = sentence.token_range(q.span)
    lo, hi = sentence.window(ti, tj, window)
    for i in range(lo, hi):
        bump(f"qn_u={sentence.tokens[i].lower()}")
        bump(f"qn_p={sentence.pos[i]}")
        if i + 1 < hi:
            bump(f"qn_b={sentence.tokens[i].lower()} {sentence.tokens[i + 1].lower()}")
    phrase = q.span.text(sentence.text).split()
    for w in phrase:
        bump(f"qq_u={w.lower()}")
    for a, b in zip(phrase, phrase[1:]):
        bump(f"qq_b={a.lower()} {b.lower()}")
    if q.value in (Fraction(1), Fraction(2)):
        bump("qq_small")
    if len(quantities) == 1:
        bump("qq_only")
    return feats


def relevance_features(sentence: AnnotatedSentence, quantities,
                       assignment: RelevanceAssignment,
                       window: int = 3) -> FeatureVector:
    """Sum of per-quantity features plus the global relevant-count feature."""
    feats: FeatureVector = {}
    for i, relevant in enumerate(assignment):
        for name, value in quantity_features(
                sentence, quantities, i, relevant, window).items():
            feats[name] = feats.get(name, 0.0) + value
    feats[f"qg_count={sum(assignment)}/{len(assignment)}"] = 1.0
    return feats


def enumerate_assignments(k: int):
    """All 2^k relevance assignments, the all-true assignment first."""
    return itertools.product((True, False), repeat=k)


def relevance_decoder(window: int = 3) -> ExhaustiveDecoder:
    """Decoder over joint assignments; x is (sentence, quantities)."""

    def candidates(x):
        sentence, quantities = x
        if len(quantities) > MAX_JOINT_QUANTITIES:
            raise ValueError(
                f"{len(quantities)} quantities exceeds the joint limit "
                f"of {MAX_JOINT_QUANTITIES}")
        return enumerate_assignments(len(quantities))

    def features(x, assignment):
        sentence, quantities = x
        return relevance_features(sentence, quantities, assignment, window)

    return ExhaustiveDecoder(candidates, features, hamming_cost)


def predict_relevance(model: LinearModel, sentence: AnnotatedSentence,
                      quantities, window: int = 3) -> RelevanceAssignment:
    """Best joint assignment; ties resolve toward earlier enumeration."""
    return relevance_decoder(window).decode((sentence, tuple(quantities)),
                                            model.weights)


def hamming_cost(gold: RelevanceAssignment, other: RelevanceAssignment) -> float:
    return float(sum(a != b for a, b in zip(gold, other)))


def derive_gold_relevance(quantities, gold_constants) -> RelevanceAssignment:
    """Mark quantities relevant by greedy left-to-right value matching.

    gold_constants is the multiset of constants appearing in the gold
    equation; each is consumed by the first unconsumed quantity with that
    value.
    """
    needed = Counter(gold_constants)
    bits = []
    for q in quantities:
        if needed[q.value] > 0:
            needed[q.value] -= 1
            bits.append(True)
        else:
            bits.append(False)
    return tuple(bits)
