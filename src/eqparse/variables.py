"""Variable trigger prediction: which noun phrases stand for the unknowns.

A candidate is one NP or an (unordered) pair of NPs; a pair may use one NP
twice only when that NP mentions the token "two"/"2" (a lone self-pair of any
other NP would collapse to the single-NP candidate, so it is not enumerated).
Labels are then assigned by rule-based coreference.
"""

from __future__ import annotations

from enum import Enum

from .core import Span, VariableTrigger
from .corpus import AnnotatedSentence
from .learning import FeatureVector, LinearModel, label_scores, rows_of, tagged


class Coref(Enum):
    SAME_LABEL = "same"
    DIFFERENT_LABELS = "different"


def _np_tokens(text: str) -> list[str]:
    return [t.lower().strip(".,!?;:") for t in text.split()]


def _contains_phrase(text: str, phrase: str) -> bool:
    padded = " " + " ".join(_np_tokens(text)) + " "
    return f" {phrase} " in padded


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
        if not ({"two", "2"} & set(_np_tokens(text1))):
            return Coref.SAME_LABEL
    elif (_contains_phrase(text2, "itself")
          or _contains_phrase(text2, "the same number")):
        return Coref.SAME_LABEL
    return Coref.DIFFERENT_LABELS


def _mentions_two(sentence: AnnotatedSentence, np: Span) -> bool:
    return bool({"two", "2"} & set(_np_tokens(np.text(sentence.text))))


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


def np_feature_names(sentence: AnnotatedSentence, np: Span,
                     window: int = 3) -> list[str]:
    """One NP's content and neighborhood feature names, one per occurrence,
    before they are conjoined with the candidate's pair label."""
    lo, hi = sentence.token_range(np)
    wlo, whi = sentence.window(lo, hi, window)
    return (sentence.token_names("vp", lo, hi)
            + sentence.token_names("vn", wlo, lo, bigrams=False)
            + sentence.token_names("vn", hi, whi, bigrams=False))


# the label of a single NP, a pair of distinct NPs and a self-pair
_SINGLE, _PAIR, _SELF = "t=0s=0", "t=1s=0", "t=1s=1"


def _label(candidate: VariableCandidate) -> str:
    return (_SELF if candidate.same_np else _PAIR if candidate.two_variables
            else _SINGLE)


def variable_features(sentence: AnnotatedSentence, candidate: VariableCandidate,
                      window: int = 3) -> FeatureVector:
    """The names of the candidate's NPs conjoined with its pair label; a
    self-pair lists its NP twice, so counts it twice."""
    return VariableDecoder(window).features(sentence, candidate)


class NpNames:
    """A `VariableDecoder` input prepared for one window: the sentence, the
    `np_feature_names` of each NP chunk, and the candidates in
    `enumerate_variable_candidates` order with their pair labels, listed
    on first use."""

    __slots__ = ("sentence", "window", "names", "_candidates")

    def __init__(self, sentence: AnnotatedSentence, window: int):
        self.sentence, self.window = sentence, window
        names = self.names = {}
        for np in sentence.np_chunks:
            if np not in names:
                names[np] = np_feature_names(sentence, np, window)
        self._candidates = None

    @property
    def candidates(self) -> list[tuple[VariableCandidate, str]]:
        if self._candidates is None:
            self._candidates = [
                (candidate, _label(candidate))
                for candidate in enumerate_variable_candidates(self.sentence)]
        return self._candidates


class VariableDecoder:
    """Best NP candidate; x is the sentence.

    Implements the learner's decoder protocol (see ExhaustiveDecoder) with
    `candidate_cost`; `prepare` gives an `NpNames`. Each NP's names are
    scored under every pair label in one pass over their label rows; a
    candidate's score is the sum of its NPs' scores under its label. Ties
    keep the earliest candidate in `enumerate_variable_candidates` order.
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
        return tagged((x.names[np] if np in x.names
                       else np_feature_names(x.sentence, np, self.window),
                       label) for np in candidate.nps)

    def contains(self, sentence, candidate) -> bool:
        x = self.prepare(sentence)
        return any(c == candidate for c, _ in x.candidates)

    def decode(self, sentence, weights, gold: VariableCandidate | None = None,
               cost_unit: int = 1) -> VariableCandidate:
        x = self.prepare(sentence)
        rows = rows_of(weights)
        # NP -> {pair label: the NP's score under it}
        scores = {np: label_scores(rows, names)
                  for np, names in x.names.items()}
        best = best_score = None
        for candidate, label in x.candidates:
            score = 0
            for np in candidate.nps:
                score += scores[np].get(label, 0)
            if gold is not None:
                score += cost_unit * candidate_cost(gold, candidate)
            if best_score is None or score > best_score:
                best, best_score = candidate, score
        if best is None:
            raise ValueError("sentence has no NP chunks")
        return best


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
                              window: int = 3) -> tuple[VariableTrigger, ...]:
    candidate = VariableDecoder(window).decode(sentence, model.weights)
    return assign_labels(sentence, candidate)


def candidate_from_grounding(grounding) -> VariableCandidate:
    """The NP candidate underlying an annotated variable trigger list."""
    return VariableCandidate(tuple(t.span for t in grounding))


def candidate_cost(gold: VariableCandidate, other: VariableCandidate) -> int:
    """NP-set symmetric difference plus flag mismatches."""
    return (len(set(gold.nps) ^ set(other.nps))
            + (gold.two_variables != other.two_variables)
            + (gold.same_np != other.same_np))
