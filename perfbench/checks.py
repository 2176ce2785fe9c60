"""Output checks, run outside every timed region.

Each check returns a list of failure messages; an empty list is a pass.
They are the oracles a faster relevance or tree decoder has to agree with:
(a) CKY against exhaustive tree enumeration, (b) the relevance argmax
against brute force, (c) the bundle text round trip, (d) tree leaves
against the trigger list.
"""

from __future__ import annotations

import random

from eqparse.core import sort_triggers, tree_leaves
from eqparse.learning import dot
from eqparse.pipeline import ModelBundle
from eqparse.relevance import enumerate_assignments, relevance_features
from eqparse.treeparse import CkyDecoder, enumerate_projective_trees

CKY_MAX_N = 5
CKY_SAMPLE = 6
RELEVANCE_MAX_K = 7
SAMPLE = 60  # sentences checked by (b) and (c)


def _sample(n: int, size: int, salt: str, seed: int) -> list[int]:
    """A seeded, sorted sample of sentence indices."""
    return sorted(random.Random(f"{salt}:{seed}").sample(range(n),
                                                         min(size, n)))


def trigger_list(result) -> list:
    kept = [q for q, bit in zip(result.quantities, result.relevance) if bit]
    return sort_triggers(kept + list(result.variable_triggers))


def cky_matches_enumeration(bundle: ModelBundle, sentences, results,
                            seed: int) -> list[str]:
    """(a) On a seeded sample of parses with n <= 5 triggers, the decoded
    tree scores the maximum over every projective tree the lexicon allows."""
    cfg = bundle.config
    decoder = CkyDecoder(window=cfg.window, use_lexicon=cfg.use_lexicon,
                         lexicon_as_features=cfg.lexicon_as_features,
                         conform_syntactic=cfg.conform_syntactic)
    weights = bundle.tree_model.weights
    small = [i for i, r in enumerate(results)
             if r is not None and len(trigger_list(r)) <= CKY_MAX_N]
    failures = []
    for i in (small[j] for j in _sample(len(small), CKY_SAMPLE, "cky", seed)):
        x = (sentences[i], tuple(trigger_list(results[i])))
        got = dot(weights, decoder.features(x, results[i].tree))
        best = max(dot(weights, decoder.features(x, tree))
                   for tree in enumerate_projective_trees(
                       *x, use_lexicon=cfg.use_lexicon))
        if abs(got - best) > 1e-9:
            failures.append(f"(a) sentence {i}: CKY score {got!r} below "
                            f"enumerated maximum {best!r}")
    return failures


def relevance_matches_brute_force(bundle: ModelBundle, sentences, results,
                                  seed: int) -> list[str]:
    """(b) On a seeded sample of parses with k <= 7 quantities, the
    predicted relevance bits are the brute-force argmax, the earliest
    assignment in enumeration order winning ties."""
    weights = bundle.relevance_model.weights
    window = bundle.config.window
    failures = []
    for i in _sample(len(sentences), SAMPLE, "relevance", seed):
        sentence, r = sentences[i], results[i]
        if r is None or len(r.quantities) > RELEVANCE_MAX_K:
            continue
        best, best_score = None, None
        for assignment in enumerate_assignments(len(r.quantities)):
            score = dot(weights, relevance_features(
                sentence, r.quantities, assignment, window))
            if best_score is None or score > best_score:
                best, best_score = assignment, score
        if tuple(r.relevance) != best:
            failures.append(f"(b) sentence {i}: relevance {r.relevance} is "
                            f"not the brute-force argmax {best}")
    return failures


def parse_key(result) -> tuple | None:
    if result is None:
        return None
    return (result.equation, tuple((t.label, t.span.start, t.span.end)
                                   for t in result.variable_triggers))


def round_trip(bundle: ModelBundle, path, sentences, results,
               seed: int) -> list[str]:
    """(c) save then load reproduces the bundle text byte for byte, and on a
    seeded sample the trained bundle parses each sentence as the reloaded
    one did (`results` come from a bundle loaded from disk)."""
    text = bundle.to_text()
    bundle.save(path)
    failures = []
    if path.read_bytes() != text.encode("utf-8"):
        failures.append("(c) saved bundle differs from its text form")
    if ModelBundle.load(path).to_text() != text:
        failures.append("(c) reloaded bundle text differs")
    for i in _sample(len(sentences), SAMPLE, "round-trip", seed):
        try:
            result = bundle.parse(sentences[i])
        except ValueError:
            result = None
        if parse_key(result) != parse_key(results[i]):
            failures.append(f"(c) sentence {i}: reloaded bundle parses "
                            "differently")
    return failures


def leaves_match_triggers(results) -> list[str]:
    """(d) Every tree's leaves are its trigger list, in order."""
    return [f"(d) sentence {i}: tree leaves differ from the trigger list"
            for i, r in enumerate(results)
            if r is not None and [leaf.trigger for leaf in tree_leaves(r.tree)]
            != trigger_list(r)]
