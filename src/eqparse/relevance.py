"""Joint prediction of which quantity mentions belong in the equation.

One bit per detected quantity, predicted jointly. Features are local per
quantity (conjoined with that quantity's bit) plus one global feature on the
relevant count, and the training cost (Hamming) is per bit too. So the exact
argmax needs no enumeration of the 2^k assignments: for each count c, the
best assignment with c bits on turns on the c quantities with the largest
margin score(on) - score(off); the best of those k + 1 finalists, count
feature and cost included, is the joint optimum. There is no limit on k.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .corpus import AnnotatedSentence
from .learning import FeatureVector, LinearModel, label_scores, rows_of, tagged

RelevanceAssignment = tuple[bool, ...]


def quantity_names(sentence: AnnotatedSentence, quantities, index: int,
                   window: int = 3) -> list[str]:
    """Per-quantity feature names, one per occurrence, before they are
    conjoined with the quantity's bit."""
    q = quantities[index]
    lo, hi = sentence.window(*sentence.token_range(q.span), window)
    names = sentence.token_names("qn", lo, hi)
    phrase = [w.lower() for w in q.span.text(sentence.text).split()]
    names += [f"qq_u={w}" for w in phrase]
    names += [f"qq_b={a} {b}" for a, b in zip(phrase, phrase[1:])]
    if q.value in (Fraction(1), Fraction(2)):
        names.append("qq_small")
    if len(quantities) == 1:
        names.append("qq_only")
    return names


# the label of a quantity's names, by its bit
_BITS = ("r=0", "r=1")


def _count_feature(c: int, k: int) -> str:
    return f"qg_count={c}/{k}"


def relevance_features(sentence: AnnotatedSentence, quantities,
                       assignment: RelevanceAssignment,
                       window: int = 3) -> FeatureVector:
    """Each quantity's names conjoined with its bit, plus the global
    relevant-count feature."""
    return RelevanceDecoder(window).features((sentence, quantities),
                                             assignment)


def enumerate_assignments(k: int):
    """All 2^k relevance assignments, the all-true assignment first."""
    return itertools.product((True, False), repeat=k)


class QuantityNames:
    """A `RelevanceDecoder` input prepared for one window: the sentence, its
    quantities, each quantity's `quantity_names` and the count feature of
    each number of relevant quantities."""

    __slots__ = ("sentence", "quantities", "window", "names", "counts")

    def __init__(self, sentence: AnnotatedSentence, quantities, window: int):
        self.sentence, self.quantities, self.window = (sentence, quantities,
                                                       window)
        k = len(quantities)
        self.names = [quantity_names(sentence, quantities, i, window)
                      for i in range(k)]
        self.counts = [_count_feature(c, k) for c in range(k + 1)]


class RelevanceDecoder:
    """Exact joint argmax over relevance assignments; x is (sentence,
    quantities).

    Implements the learner's decoder protocol (see ExhaustiveDecoder) with
    Hamming cost; `prepare` gives a `QuantityNames`. Each quantity's names
    are scored under both bits by one label row lookup each; its margin is
    score(on) - score(off), plus its cost difference given a gold output.
    Finalist c turns on the c largest margins, ties to the lower index, and
    scores the all-off score plus those margins plus its count weight. Ties
    keep the assignment earliest in `enumerate_assignments` order: among
    equal-scoring assignments with c bits on that is finalist c, and
    between finalists the one with more bits on, since it adds bits to the
    other's.
    """

    def __init__(self, window: int = 3):
        self.window = window

    def prepare(self, x) -> QuantityNames:
        if isinstance(x, QuantityNames):
            if x.window == self.window:
                return x
            x = x.sentence, x.quantities
        sentence, quantities = x
        return QuantityNames(sentence, quantities, self.window)

    def features(self, x, assignment: RelevanceAssignment) -> FeatureVector:
        """Each quantity's names conjoined with its bit, plus the global
        relevant-count feature."""
        x = self.prepare(x)
        feats = tagged((x.names[i], _BITS[relevant])
                       for i, relevant in enumerate(assignment))
        feats[_count_feature(sum(assignment), len(assignment))] = 1
        return feats

    def contains(self, x, assignment) -> bool:
        x = self.prepare(x)
        return (isinstance(assignment, tuple)
                and len(assignment) == len(x.quantities)
                and all(isinstance(bit, bool) for bit in assignment))

    def decode(self, x, weights, gold: RelevanceAssignment | None = None,
               cost_unit: int = 1) -> RelevanceAssignment:
        x = self.prepare(x)
        k = len(x.quantities)
        rows = rows_of(weights)
        off, on = _BITS
        all_off = 0
        margins = []
        for i in range(k):
            scores = label_scores(rows, x.names[i])
            score_on, score_off = scores.get(on, 0), scores.get(off, 0)
            if gold is not None:  # Hamming cost: one unit per wrong bit
                if gold[i]:
                    score_off += cost_unit
                else:
                    score_on += cost_unit
            all_off += score_off
            margins.append(score_on - score_off)

        order = sorted(range(k), key=lambda i: (-margins[i], i))
        counts = x.counts
        best_c, best = 0, all_off + weights.get(counts[0], 0)
        score = all_off
        for c in range(1, k + 1):
            score += margins[order[c - 1]]
            total = score + weights.get(counts[c], 0)
            if total >= best:  # equal: more bits on is earlier
                best_c, best = c, total
        chosen = set(order[:best_c])
        return tuple(i in chosen for i in range(k))


def predict_relevance(model: LinearModel, sentence: AnnotatedSentence,
                      quantities, window: int = 3) -> RelevanceAssignment:
    """Best joint assignment; ties resolve toward earlier enumeration."""
    return RelevanceDecoder(window).decode((sentence, tuple(quantities)),
                                           model.weights)


def hamming_cost(gold: RelevanceAssignment, other: RelevanceAssignment) -> int:
    return sum(a != b for a, b in zip(gold, other))


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
