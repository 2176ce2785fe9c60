"""Sentence-to-equation parsing with noun-phrase variable grounding."""

from .core import (
    Apply,
    Const,
    EquationTree,
    Leaf,
    Node,
    Op,
    Order,
    QuantityTrigger,
    Span,
    SymExpr,
    Var,
    VariableTrigger,
    evaluate_expr,
    expr,
    format_expr,
    format_tree,
    is_projective,
    parse_equation,
    sort_triggers,
)
from .corpus import (
    AnnotatedExample,
    AnnotatedSentence,
    dump_corpus,
    load_corpus,
)
from .pipeline import (
    ModelBundle,
    ParseResult,
    PipelineConfig,
    train_bundle,
)
from .quantities import detect_quantities
from .treeparse import CkyDecoder, DEFAULT_LEXICON
from .variables import coreference_label, enumerate_variable_candidates

__version__ = "0.1.0"

# evaluation's names, imported on first use: a parse never needs them
_EVALUATION = ("Metrics", "Mode", "canonicalize", "cross_validate",
               "equations_equal", "evaluate")


def __getattr__(name: str):
    if name in _EVALUATION:
        from . import evaluation
        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnnotatedExample",
    "AnnotatedSentence",
    "Apply",
    "CkyDecoder",
    "Const",
    "DEFAULT_LEXICON",
    "EquationTree",
    "Leaf",
    "Metrics",
    "Mode",
    "ModelBundle",
    "Node",
    "Op",
    "Order",
    "ParseResult",
    "PipelineConfig",
    "QuantityTrigger",
    "Span",
    "SymExpr",
    "Var",
    "VariableTrigger",
    "canonicalize",
    "coreference_label",
    "cross_validate",
    "detect_quantities",
    "dump_corpus",
    "enumerate_variable_candidates",
    "equations_equal",
    "evaluate",
    "evaluate_expr",
    "expr",
    "format_expr",
    "format_tree",
    "is_projective",
    "load_corpus",
    "parse_equation",
    "sort_triggers",
    "train_bundle",
]
