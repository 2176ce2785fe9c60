"""Joint prediction of which quantity mentions belong in the equation.

One bit per detected quantity, predicted jointly. Features are local per
quantity (conjoined with that quantity's bit) plus one global feature on the
relevant count, and the training cost (Hamming) is per bit too. So the exact
argmax needs no enumeration of the 2^k assignments: for each count c, the
best assignment with c bits on turns on the c quantities with the largest
margin score(on) - score(off); scoring those k + 1 finalists, count feature
and cost included, gives the joint optimum. There is no limit on k.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .core import QuantityTrigger
from .corpus import AnnotatedSentence
from .learning import FeatureVector, LinearModel, dot

RelevanceAssignment = tuple[bool, ...]


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


def _summed_features(chosen, assignment) -> FeatureVector:
    """Sum the quantities' features for their bits in `assignment` (one
    dict per quantity, in order), then add the count feature.
    `relevance_features` and `RelevanceDecoder` both score this dict, so
    their float scores agree bit for bit."""
    feats: FeatureVector = {}
    for quantity_feats in chosen:
        for name, value in quantity_feats.items():
            feats[name] = feats.get(name, 0.0) + value
    feats[f"qg_count={sum(assignment)}/{len(assignment)}"] = 1.0
    return feats


def relevance_features(sentence: AnnotatedSentence, quantities,
                       assignment: RelevanceAssignment,
                       window: int = 3) -> FeatureVector:
    """Sum of per-quantity features plus the global relevant-count feature."""
    return _summed_features(
        [quantity_features(sentence, quantities, i, relevant, window)
         for i, relevant in enumerate(assignment)], assignment)


def enumerate_assignments(k: int):
    """All 2^k relevance assignments, the all-true assignment first."""
    return itertools.product((True, False), repeat=k)


def _tie_patterns(n: int, p: int):
    """Bits for n equal-margin quantities with p of them on (0 < p < n),
    one pattern per possible (first on, first off) pair of them.

    When the tied quantities have the same features, an assignment's summed
    dict holds the same values whichever of them are on; only the key order
    differs, and it is fixed by the first tied quantity on and the first
    off. Each pattern is the earliest in enumeration order for its pair.
    """
    for j in range(1, p + 1):
        yield (True,) * j + (False,) + (True,) * (p - j) + (False,) * (n - p - 1)
    for j in range(1, n - p + 1):
        yield (False,) * j + (True,) * p + (False,) * (n - p - j)


class RelevanceDecoder:
    """Exact joint argmax over relevance assignments; x is (sentence,
    quantities).

    Implements the learner's decoder protocol (see ExhaustiveDecoder) with
    Hamming cost. Quantity features are computed once per quantity and bit;
    a quantity's margin is score(on) - score(off), plus its cost difference
    given a gold output. For each count c the finalist turns on the c
    largest margins (ties by index), and each finalist is scored with
    exactly the dict `relevance_features` builds, so the score is the float
    brute force computes. Ties keep the assignment earliest in
    `enumerate_assignments` order.

    Assignments that only swap equal-margin quantities tie in exact
    arithmetic, and brute force keeps whichever happens to round highest;
    so when equal margins straddle the winning cut, the winner is re-chosen
    among the `_tie_patterns` of those quantities.
    """

    def __init__(self, window: int = 3):
        self.window = window

    def features(self, x, assignment: RelevanceAssignment) -> FeatureVector:
        sentence, quantities = x
        return relevance_features(sentence, quantities, assignment, self.window)

    def contains(self, x, assignment) -> bool:
        return (isinstance(assignment, tuple)
                and len(assignment) == len(x[1])
                and all(isinstance(bit, bool) for bit in assignment))

    def decode(self, x, weights, gold: RelevanceAssignment | None = None
               ) -> RelevanceAssignment:
        sentence, quantities = x
        k = len(quantities)
        per_quantity = [
            {relevant: quantity_features(sentence, quantities, i, relevant,
                                         self.window)
             for relevant in (True, False)}
            for i in range(k)]
        margins = [dot(weights, feats[True]) - dot(weights, feats[False])
                   for feats in per_quantity]
        if gold is not None:
            margins = [m + (-1.0 if bit else 1.0)
                       for m, bit in zip(margins, gold)]

        def rank(y):
            score = dot(weights, _summed_features(
                [per_quantity[i][bit] for i, bit in enumerate(y)], y))
            if gold is not None:
                score += hamming_cost(gold, y)
            # enumeration order puts True first, so `not bit` ranks it first
            return (-score, [not bit for bit in y])

        order = sorted(range(k), key=lambda i: (-margins[i], i))
        position = {i: r for r, i in enumerate(order)}
        best = min((tuple(position[i] < c for i in range(k))
                    for c in range(k + 1)), key=rank)
        c = sum(best)
        if 0 < c < k and margins[order[c - 1]] == margins[order[c]]:
            tied = [i for i in range(k) if margins[i] == margins[order[c]]]
            on = sum(best[i] for i in tied)
            alternatives = []
            for pattern in _tie_patterns(len(tied), on):
                y = list(best)
                for i, bit in zip(tied, pattern):
                    y[i] = bit
                alternatives.append(tuple(y))
            best = min(alternatives, key=rank)
        return best


def predict_relevance(model: LinearModel, sentence: AnnotatedSentence,
                      quantities, window: int = 3) -> RelevanceAssignment:
    """Best joint assignment; ties resolve toward earlier enumeration."""
    return RelevanceDecoder(window).decode((sentence, tuple(quantities)),
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
