"""Variable trigger prediction: which noun phrases stand for the unknowns.

A candidate is one NP or an (unordered) pair of NPs; a pair may use one NP
twice only when that NP mentions the token "two"/"2" (a lone self-pair of any
other NP would collapse to the single-NP candidate, so it is not enumerated).
Labels are then assigned by rule-based coreference.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter

from .core import Span, VariableTrigger
from .corpus import AnnotatedSentence
from .learning import FeatureVector, LinearModel, packed_of, tagged


class Coref(Enum):
    SAME_LABEL = "same"
    DIFFERENT_LABELS = "different"


def _phrase_search(*phrases: str):
    """The `search` of a regex that finds any of the phrases, lowercase
    ASCII words and digits joined by single spaces, in an NP's text as
    consecutive whole tokens. A token is a run of non-space characters
    (a piece of `str.split`), read lowercased and stripped of `.,!?;:` at
    both ends. No character but a letter's two ASCII cases lowercases to
    one of these phrases' letters (`İ` lowercases to `i` and a combining
    dot), so each letter matches its two cases."""
    edge = "[.,!?;:]*"
    words = (r"\s+".join(edge + "".join(f"[{c}{c.upper()}]" if c.isalpha()
                                         else c for c in word) + edge
                         for word in phrase.split())
             for phrase in phrases)
    return re.compile(r"(?<!\S)(?:" + "|".join(words) + r")(?!\S)").search


_two = _phrase_search("two", "2")
_same = _phrase_search("itself", "the same number")


def coreference_label(sentence: AnnotatedSentence, np1: Span, np2: Span) -> Coref:
    """Coreference of two NP mentions, np1 at or before np2.

    Identical text without a "two"/"2" token corefers; otherwise a later
    mention saying "itself" or "the same number" corefers; anything else is
    two distinct unknowns.
    """
    if np2 < np1:
        raise ValueError("np1 must not follow np2")
    text1 = np1.text(sentence.text)
    text2 = np2.text(sentence.text)
    if text1.lower() == text2.lower():
        if not _mentions_two(sentence, np1):
            return Coref.SAME_LABEL
    elif _same(text2):
        return Coref.SAME_LABEL
    return Coref.DIFFERENT_LABELS


def _mentions_two(sentence: AnnotatedSentence, np: Span) -> bool:
    """Whether a token of the NP's text says "two" or "2"."""
    return _two(np.text(sentence.text)) is not None


class VariableCandidate:
    """One NP or a position-ordered pair of NPs, with derived flags."""

    __slots__ = ("nps", "two_variables", "same_np")

    def __init__(self, nps: tuple[Span, ...]):
        if len(nps) not in (1, 2):
            raise ValueError("candidate must hold 1 or 2 NPs")
        if len(nps) == 2 and nps[1] < nps[0]:
            nps = (nps[1], nps[0])
        self.nps = nps
        self.two_variables = len(nps) == 2
        self.same_np = len(nps) == 2 and nps[0] == nps[1]

    def __eq__(self, other):
        return isinstance(other, VariableCandidate) and self.nps == other.nps

    def __hash__(self):
        return hash(self.nps)

    def __repr__(self):
        return f"VariableCandidate({self.nps!r})"


def enumerate_variable_candidates(sentence: AnnotatedSentence) -> list[VariableCandidate]:
    """Singles by position, then pairs in lexicographic position order."""
    chunks = sorted(sentence.np_chunks)
    out = [VariableCandidate((np,)) for np in chunks]
    for i, np1 in enumerate(chunks):
        for np2 in chunks[i:]:
            if np1 == np2 and not _mentions_two(sentence, np1):
                continue
            out.append(VariableCandidate((np1, np2)))
    return out


def _np_windows(sentence: AnnotatedSentence, np: Span,
                window: int) -> tuple[int, int, int, int]:
    """(wlo, lo, hi, whi): an NP's names come from its own tokens [lo, hi)
    (`vp`), and from the `window` tokens before and after them, [wlo, lo)
    and [hi, whi) (`vn`, words and tags only). An NP chunk covers a token,
    so lo < hi."""
    lo, hi = sentence.offset_range(np.start, np.end)
    wlo, whi = sentence.window(lo, hi, window)
    return wlo, lo, hi, whi


def np_feature_names(sentence: AnnotatedSentence, np: Span,
                     window: int = 3) -> list[str]:
    """One NP's content and neighborhood feature names, one per occurrence,
    before they are conjoined with the candidate's pair label."""
    wlo, lo, hi, whi = _np_windows(sentence, np, window)
    return (sentence.token_names("vp", lo, hi)
            + sentence.token_names("vn", wlo, lo, False)
            + sentence.token_names("vn", hi, whi, False))


# the label of a single NP, a pair of distinct NPs and a self-pair
_LABELS = _SINGLE, _PAIR, _SELF = "t=0s=0", "t=1s=0", "t=1s=1"


def _label(candidate: VariableCandidate) -> str:
    return (_SELF if candidate.same_np else _PAIR if candidate.two_variables
            else _SINGLE)


def variable_features(sentence: AnnotatedSentence, candidate: VariableCandidate,
                      window: int = 3) -> FeatureVector:
    """The names of the candidate's NPs conjoined with its pair label; a
    self-pair lists its NP twice, so counts it twice."""
    return VariableDecoder(window).features(sentence, candidate)


_start_end = attrgetter("start", "end")


class NpNames:
    """A `VariableDecoder` input prepared for one window: the sentence, its
    distinct NP chunks in position order, whether each mentions "two" and,
    each built on first use, every chunk's index and `np_feature_names`.

    The chunks are deduplicated by their (start, end) pairs, so no `Span`
    is hashed. The "two" search runs per chunk only when the sentence
    holds "2" or, lowercased, "two": every chunk's text is a piece of the
    sentence's, and a letter `_two` matches lowercases to the same
    letter."""

    __slots__ = ("sentence", "window", "chunks", "twos", "_index", "_names")

    def __init__(self, sentence: AnnotatedSentence, window: int):
        self.sentence, self.window = sentence, window
        chunks = sentence.np_chunks
        by_key = dict(zip(map(_start_end, chunks), chunks))
        self.chunks = list(map(by_key.__getitem__, sorted(by_key)))
        text = sentence.text
        if "2" in text or "two" in text.lower():
            self.twos = [_mentions_two(sentence, np) for np in self.chunks]
        else:
            self.twos = [False] * len(self.chunks)
        self._index = self._names = None

    @property
    def index(self) -> dict[Span, int]:
        """{chunk: its position in `chunks`}, built on first use."""
        if self._index is None:
            self._index = {np: c for c, np in enumerate(self.chunks)}
        return self._index

    @property
    def names(self) -> list[list[str]]:
        if self._names is None:
            self._names = [np_feature_names(self.sentence, np, self.window)
                           for np in self.chunks]
        return self._names

    def column_totals(self, columns) -> list[int]:
        """Each chunk's packed total of its names, from the sentence's
        token columns: the `vp` field of its own tokens' rows and the `vn`
        field of its neighbors', its `_np_windows` read in one loop step
        with no call but its `offset_range`."""
        sentence, window = self.sentence, self.window
        offset_range, n = sentence.offset_range, len(sentence.tokens)
        units, pairs, table = columns.units, columns.pairs, columns.table
        bias = table.bias
        (vp, vp_mask, vp_half), (vn, vn_mask, vn_half) = (table.fields["vp"],
                                                          table.fields["vn"])
        halves = vp_half + vn_half
        totals = []
        for np in self.chunks:
            lo, hi = offset_range(np.start, np.end)
            wlo = lo - window if lo > window else 0
            whi = hi + window if hi + window < n else n
            own = units[hi] - units[lo] + pairs[hi] - pairs[lo + 1] + bias
            near = units[lo] - units[wlo] + units[whi] - units[hi] + bias
            totals.append(((own >> vp) & vp_mask) + ((near >> vn) & vn_mask)
                          - halves)
        return totals


def _label_costs(gold: VariableCandidate) -> dict[str, int]:
    """{label: cost}: `candidate_cost(gold, candidate)` is the cost of the
    candidate's label less 2 for each distinct NP it shares with gold."""
    size = len(set(gold.nps))
    two, same = gold.two_variables, gold.same_np
    return {_SINGLE: size + 1 + two + same,
            _PAIR: size + 2 + (not two) + same,
            _SELF: size + 1 + (not two) + (not same)}


class VariableDecoder:
    """Best NP candidate; x is the sentence.

    Implements the learner's decoder protocol (see ExhaustiveDecoder) with
    `candidate_cost`; `prepare` gives an `NpNames`. Ties keep the earliest
    candidate in `enumerate_variable_candidates` order, which the decode
    reaches in closed form: each distinct chunk's names are totalled once,
    and the winner is the earliest best of three kinds of finalist. The
    best single is the earliest maximum under the single label; the best
    pair of distinct chunks the two largest under the pair label, ties to
    the earlier chunk, since pairs come in position order; and each chunk
    that mentions "two" has its self-pair, twice its score under the
    self-pair label. The cost splits the same way: -2 per chunk in the
    gold output, once for a self-pair, plus a constant per label.
    """

    def __init__(self, window: int = 3):
        self.window = window

    def prepare(self, sentence) -> NpNames:
        if isinstance(sentence, NpNames):
            if sentence.window == self.window:
                return sentence
            sentence = sentence.sentence
        return NpNames(sentence, self.window)

    def features(self, sentence, candidate: VariableCandidate) -> FeatureVector:
        """The names of the candidate's NPs conjoined with its pair label;
        a self-pair lists its NP twice, so counts it twice."""
        x = self.prepare(sentence)
        label = _label(candidate)
        return tagged((x.names[x.index[np]] if np in x.index
                       else np_feature_names(x.sentence, np, self.window),
                       label) for np in candidate.nps)

    def contains(self, sentence, candidate) -> bool:
        x = self.prepare(sentence)
        return (isinstance(candidate, VariableCandidate)
                and all(np in x.index for np in candidate.nps)
                and (not candidate.same_np
                     or x.twos[x.index[candidate.nps[0]]]))

    def decode(self, sentence, weights, gold: VariableCandidate | None = None,
               cost_unit: int = 1, columns=None) -> VariableCandidate:
        """With `columns`, the sentence's `TokenTable.columns` compiled
        from the weights, the windows are read from them, the labels'
        slots are looked up once per table, and no window name is
        built."""
        x = self.prepare(sentence)
        m = len(x.chunks)
        if not m:
            raise ValueError("sentence has no NP chunks")
        # -2 cost units for each chunk in the gold output
        hits = [0] * m
        costs = dict.fromkeys((_SINGLE, _PAIR, _SELF), 0)
        if gold is not None:
            for np in set(gold.nps):
                if np in x.index:
                    hits[x.index[np]] = -2 * cost_unit
            costs = {label: cost_unit * cost
                     for label, cost in _label_costs(gold).items()}
        if columns is None:
            packed = packed_of(weights)
            slots = packed.slots(_LABELS)
            totals = list(map(packed.total, x.names))
        else:
            slots = columns.table.constant(
                VariableDecoder, packed_of(weights).slots, _LABELS)
            totals = x.column_totals(columns)
        bias, mask, half, single_at, pair_at, self_at = slots
        twos, singles, pairs = x.twos, [], []
        # (score, key) of each finalist; its key, (0, chunk) for a single
        # and (1, chunk, chunk) for a pair, sorts in enumeration order
        finalists = []
        for c, total in enumerate(totals):
            # each label's field of the total (`PackedTable.slots`)
            total += bias
            hit = hits[c]
            singles.append(((total >> single_at) & mask) - half + hit)
            pairs.append(((total >> pair_at) & mask) - half + hit)
            if twos[c]:
                finalists.append((2 * (((total >> self_at) & mask) - half)
                                  + hit + costs[_SELF], (1, c, c)))
        best = max(range(m), key=singles.__getitem__)  # the first maximum
        finalists.append((singles[best] + costs[_SINGLE], (0, best)))
        if m > 1:
            # largest first; a stable sort, reversed or not, keeps equal
            # scores in position order
            first, second = sorted(sorted(range(m), key=pairs.__getitem__,
                                          reverse=True)[:2])
            finalists.append((pairs[first] + pairs[second] + costs[_PAIR],
                              (1, first, second)))
        # the highest score, the earliest key on ties
        _, (_, *chosen) = min(finalists, key=lambda f: (-f[0], f[1]))
        return VariableCandidate(tuple(x.chunks[c] for c in chosen))


def assign_labels(sentence: AnnotatedSentence,
                  candidate: VariableCandidate) -> tuple[VariableTrigger, ...]:
    """Variable triggers for a candidate via the coreference rules.

    A single NP is V1. A pair gets V1/V1 when the mentions corefer, else
    V1 for the earlier NP and V2 for the later; a self-pair is always V1, V2.
    """
    if not candidate.two_variables:
        return (VariableTrigger("V1", candidate.nps[0]),)
    np1, np2 = candidate.nps
    if coreference_label(sentence, np1, np2) is Coref.SAME_LABEL:
        return (VariableTrigger("V1", np1), VariableTrigger("V1", np2))
    return (VariableTrigger("V1", np1), VariableTrigger("V2", np2))


def predict_variable_triggers(model: LinearModel, sentence: AnnotatedSentence,
                              window: int = 3, columns=None
                              ) -> tuple[VariableTrigger, ...]:
    """The labeled triggers of the best candidate; `columns` as in
    `VariableDecoder.decode`."""
    candidate = VariableDecoder(window).decode(sentence, model.weights,
                                               columns=columns)
    return assign_labels(sentence, candidate)


def candidate_from_grounding(grounding) -> VariableCandidate:
    """The NP candidate underlying an annotated variable trigger list."""
    return VariableCandidate(tuple(t.span for t in grounding))


def candidate_cost(gold: VariableCandidate, other: VariableCandidate) -> int:
    """NP-set symmetric difference plus flag mismatches."""
    return (len(set(gold.nps) ^ set(other.nps))
            + (gold.two_variables != other.two_variables)
            + (gold.same_np != other.same_np))
