"""The brute-force oracles stay apart from the live paths: training in every
mode, parsing, evaluation and cross-validation never run them, so a test
that checks a fast path against its oracle compares two independent
computations."""

import sys
from contextlib import contextmanager

from eqparse import learning, relevance, treeparse, variables
from eqparse.evaluation import cross_validate, evaluate
from eqparse.pipeline import PipelineConfig, train_bundle
from eqparse.quantities import sentence_quantities

from helpers import CKY_MODES

# each oracle's code object -> its name; every method of ExhaustiveDecoder
ORACLES = {
    function.__code__: name
    for name, function in [
        ("enumerate_projective_trees", treeparse.enumerate_projective_trees),
        ("lexicon_match", treeparse.lexicon_match),
        ("node_context_spans", treeparse.node_context_spans),
        ("LexiconRule.matches", treeparse.LexiconRule.matches),
        ("tree_features", treeparse.tree_features),
        ("tree_node_features", treeparse.tree_node_features),
        *((f"ExhaustiveDecoder.{attr}", value)
          for attr, value in vars(learning.ExhaustiveDecoder).items()
          if callable(value)),
        ("zero_one_cost", learning.zero_one_cost),
        ("enumerate_assignments", relevance.enumerate_assignments),
        ("hamming_cost", relevance.hamming_cost),
        ("relevance_features", relevance.relevance_features),
        ("enumerate_variable_candidates",
         variables.enumerate_variable_candidates),
        ("candidate_cost", variables.candidate_cost),
        ("variable_features", variables.variable_features),
    ]
}


@contextmanager
def oracle_calls():
    """The names of the oracles called inside the block, in call order."""
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in ORACLES:
            called.append(ORACLES[frame.f_code])

    sys.setprofile(profile)
    try:
        yield called
    finally:
        sys.setprofile(None)


def test_profile_sees_an_oracle_call(twice_triple_sentence):
    # the check itself: a direct oracle call is reported
    assert "ExhaustiveDecoder.decode" in ORACLES.values()
    quantities = sentence_quantities(twice_triple_sentence)
    with oracle_calls() as called:
        list(relevance.enumerate_assignments(2))
        treeparse.lexicon_match(treeparse.node_context_spans(
            twice_triple_sentence, quantities, 0, 1, 2))
    assert called[0] == "enumerate_assignments"
    assert "lexicon_match" in called and "node_context_spans" in called
    assert "LexiconRule.matches" in called


def test_live_paths_call_no_oracle(synthetic_corpus, multiplier_corpus):
    # train in every tree mode, parse and evaluate each example, and
    # cross-validate the default config
    examples = synthetic_corpus + multiplier_corpus
    with oracle_calls() as called:
        for kwargs in CKY_MODES:
            bundle = train_bundle(examples, PipelineConfig(**kwargs))
            for example in examples:
                bundle.parse(example.sentence)
            evaluate(bundle, examples)
        cross_validate(examples, 2, 0, PipelineConfig())
    assert called == []
