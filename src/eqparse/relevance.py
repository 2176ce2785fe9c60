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

from .corpus import AnnotatedSentence
from .learning import FeatureVector, LinearModel, packed_of, tagged

RelevanceAssignment = tuple[bool, ...]

# the values whose quantities get the `qq_small` name; ints, as a Fraction
# compares equal to an int without its `numbers.Rational` check
_SMALL = (1, 2)


def _quantity_window(sentence: AnnotatedSentence, q, window: int
                     ) -> tuple[int, int]:
    """The token range of a quantity's `qn` window."""
    return sentence.window(*sentence.offset_range(q.span.start, q.span.end),
                           window)


def _phrase_words(sentence: AnnotatedSentence, q) -> list[str]:
    """The lowercased words of a quantity's own phrase."""
    return [word.lower() for word in q.span.text(sentence.text).split()]


def _phrase_names(sentence: AnnotatedSentence, quantities,
                  index: int) -> list[str]:
    """The names of a quantity's own phrase and value: its lowercased
    words, then its word pairs, in one loop as in `token_names`."""
    names, pairs = [], []
    last = None
    for word in _phrase_words(sentence, quantities[index]):
        names.append(f"qq_u={word}")
        if last is not None:
            pairs.append(f"qq_b={last} {word}")
        last = word
    names += pairs
    if quantities[index].value in _SMALL:
        names.append("qq_small")
    if len(quantities) == 1:
        names.append("qq_only")
    return names


def quantity_names(sentence: AnnotatedSentence, quantities, index: int,
                   window: int = 3) -> list[str]:
    """Per-quantity feature names, one per occurrence, before they are
    conjoined with the quantity's bit: its `qn` window's, then its
    phrase's."""
    names = sentence.token_names(
        "qn", *_quantity_window(sentence, quantities[index], window))
    names += _phrase_names(sentence, quantities, index)
    return names


# the label of a quantity's names, by its bit
_BITS = ("r=0", "r=1")


def _count_feature(c: int, k: int) -> str:
    return f"qg_count={c}/{k}"


def _count_weights(weights) -> dict[int, list[int]]:
    """{k: the weight of `_count_feature(c, k)` for each c in 0..k}, for
    every k that has one; a name that `_count_feature` does not write is
    never read."""
    out: dict[int, list[int]] = {}
    for name, value in weights.items():
        if name.startswith("qg_count="):
            c, _, k = name[len("qg_count="):].partition("/")
            if (c.isdecimal() and k.isdecimal()
                    and name == _count_feature(int(c), int(k))
                    and int(c) <= int(k)):
                out.setdefault(int(k), [0] * (int(k) + 1))[int(c)] = value
    return out


def _compile(weights) -> tuple:
    """What a decode reads of the weights alone: both bits' `slots`, the
    packed totals of `qq_small` and `qq_only`, and the
    `_count_weights`."""
    packed = packed_of(weights)
    return (packed.slots(_BITS), packed.total(["qq_small"]),
            packed.total(["qq_only"]), _count_weights(weights))


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
    quantities and, built on first use, each quantity's
    `quantity_names`."""

    __slots__ = ("sentence", "quantities", "window", "_names")

    def __init__(self, sentence: AnnotatedSentence, quantities, window: int):
        self.sentence, self.quantities, self.window = (sentence, quantities,
                                                       window)
        self._names = None

    @property
    def names(self) -> list[list[str]]:
        if self._names is None:
            self._names = [quantity_names(self.sentence, self.quantities, i,
                                          self.window)
                           for i in range(len(self.quantities))]
        return self._names

    def column_totals(self, columns, small: int, only: int) -> list[int]:
        """Each quantity's packed total of its names, from the sentence's
        token columns: the `qn` field of its `_quantity_window`'s rows,
        plus the `qq` field of its phrase words' and pairs' rows in the
        columns' table, plus `small` (the packed total of `qq_small`) for a
        value in `_SMALL` and `only` (that of `qq_only`) for a lone
        quantity. One loop step per quantity reads both, with no call but
        its `offset_range` and, for a phrase of more than one word, the
        table's `rows`."""
        sentence, window = self.sentence, self.window
        text, offset_range = sentence.text, sentence.offset_range
        n = len(sentence.tokens)
        units, pairs, table = columns.units, columns.pairs, columns.table
        word_row, bias = table.words.get, table.bias
        qn, qn_mask, qn_half = table.fields["qn"]
        qq, qq_mask, qq_half = table.fields["qq"]
        if len(self.quantities) != 1:
            only = 0
        totals = []
        for q in self.quantities:
            start, end = q.span.start, q.span.end
            lo, hi = offset_range(start, end)
            lo = lo - window if lo > window else 0
            hi = hi + window if hi + window < n else n
            # the window's `qn` field; a window of no token names nothing
            near = ((((units[hi] - units[lo] + pairs[hi] - pairs[lo + 1]
                       + bias) >> qn) & qn_mask) - qn_half if hi > lo else 0)
            words = text[start:end].split()
            if len(words) == 1:  # `_phrase_words` in one lookup
                rows = word_row(words[0].lower(), 0)
            else:
                rows = table.rows(_phrase_words(sentence, q))
            # a Fraction's terms are in lowest form: it is an int in
            # `_SMALL` exactly when its numerator is and its denominator
            # is 1, read without a `Fraction.__eq__` call
            value = q.value
            totals.append(near + (((rows + bias) >> qq) & qq_mask) - qq_half
                          + only + (small if value.numerator in _SMALL
                                    and value.denominator == 1 else 0))
        return totals


class RelevanceDecoder:
    """Exact joint argmax over relevance assignments; x is (sentence,
    quantities).

    Implements the learner's decoder protocol (see ExhaustiveDecoder) with
    Hamming cost; `prepare` gives a `QuantityNames`. Each quantity's names
    are totalled once in the packed table (or its windows read from token
    columns, see `decode`), and both bits' scores read from the total; its
    margin is score(on) - score(off), plus its cost difference given a
    gold output.
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
               cost_unit: int = 1, columns=None) -> RelevanceAssignment:
        """With `columns`, the sentence's `TokenTable.columns` compiled
        from the weights, the windows and phrases are read from them, what
        depends on the weights alone is compiled once per table, and no
        name is built."""
        x = self.prepare(x)
        k = len(x.quantities)
        if columns is None:
            packed = packed_of(weights)
            slots = packed.slots(_BITS)
            totals = list(map(packed.total, x.names))
            counts = [weights.get(_count_feature(c, k), 0)
                      for c in range(k + 1)]
        else:
            slots, small, only, by_k = columns.table.constant(
                RelevanceDecoder, _compile, weights)
            totals = x.column_totals(columns, small, only)
            counts = by_k.get(k) or [0] * (k + 1)
        bias, mask, half, off_at, on_at = slots
        all_off = 0
        margins = []
        for i, total in enumerate(totals):
            # both bits' fields of the total (`PackedTable.slots`)
            total += bias
            score_off = ((total >> off_at) & mask) - half
            score_on = ((total >> on_at) & mask) - half
            if gold is not None:  # Hamming cost: one unit per wrong bit
                if gold[i]:
                    score_off += cost_unit
                else:
                    score_on += cost_unit
            all_off += score_off
            margins.append(score_on - score_off)

        # by margin, largest first; a stable sort keeps ties in index order
        order = sorted(range(k), key=margins.__getitem__, reverse=True)
        best_c, best = 0, all_off + counts[0]
        score = all_off
        for c in range(1, k + 1):
            score += margins[order[c - 1]]
            total = score + counts[c]
            if total >= best:  # equal: more bits on is earlier
                best_c, best = c, total
        chosen = set(order[:best_c])
        return tuple(i in chosen for i in range(k))


def predict_relevance(model: LinearModel, sentence: AnnotatedSentence,
                      quantities, window: int = 3,
                      columns=None) -> RelevanceAssignment:
    """Best joint assignment; ties resolve toward earlier enumeration.
    `columns` as in `RelevanceDecoder.decode`."""
    return RelevanceDecoder(window).decode((sentence, tuple(quantities)),
                                           model.weights, columns=columns)


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
