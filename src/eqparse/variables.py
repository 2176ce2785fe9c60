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
from .learning import ExhaustiveDecoder, FeatureVector, LinearModel


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


def variable_features(sentence: AnnotatedSentence, candidate: VariableCandidate,
                      window: int = 3) -> FeatureVector:
    """NP content and neighborhood features, conjoined with the pair flags."""
    tag = f"|t={int(candidate.two_variables)}s={int(candidate.same_np)}"
    feats: FeatureVector = {}

    def bump(name):
        feats[name + tag] = feats.get(name + tag, 0.0) + 1.0

    for np in candidate.nps:
        lo, hi = sentence.token_range(np)
        for i in range(lo, hi):
            bump(f"vp_u={sentence.tokens[i].lower()}")
            bump(f"vp_p={sentence.pos[i]}")
            if i + 1 < hi:
                bump(f"vp_b={sentence.tokens[i].lower()} {sentence.tokens[i + 1].lower()}")
        wlo, whi = sentence.window(lo, hi, window)
        for i in list(range(wlo, lo)) + list(range(hi, whi)):
            bump(f"vn_u={sentence.tokens[i].lower()}")
            bump(f"vn_p={sentence.pos[i]}")
    return feats


def variable_decoder(window: int = 3) -> ExhaustiveDecoder:
    return ExhaustiveDecoder(
        lambda sentence: enumerate_variable_candidates(sentence),
        lambda sentence, cand: variable_features(sentence, cand, window),
        candidate_cost)


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
    if not sentence.np_chunks:
        raise ValueError("sentence has no NP chunks")
    candidate = variable_decoder(window).decode(sentence, model.weights)
    return assign_labels(sentence, candidate)


def candidate_from_grounding(grounding) -> VariableCandidate:
    """The NP candidate underlying an annotated variable trigger list."""
    return VariableCandidate(tuple(t.span for t in grounding))


def candidate_cost(gold: VariableCandidate, other: VariableCandidate) -> float:
    """NP-set symmetric difference plus flag mismatches."""
    cost = len(set(gold.nps) ^ set(other.nps))
    cost += int(gold.two_variables != other.two_variables)
    cost += int(gold.same_np != other.same_np)
    return float(cost)
