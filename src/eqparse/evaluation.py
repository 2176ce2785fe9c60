"""Equation equivalence and corpus evaluation.

Predicted equations are compared to gold ones after canonicalization
(commutative operand order, equality orientation, folding of all-constant
operations) and optionally a global V1/V2 relabeling. This is deliberately
weaker than algebraic equivalence: no distribution, no cross-multiplication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, asdict, fields
from enum import Enum
from fractions import Fraction

from .core import (
    Apply,
    Const,
    EquationTree,
    Leaf,
    Node,
    Op,
    Order,
    QuantityTrigger,
    SymExpr,
    Var,
    VariableTrigger,
    evaluate_expr,
    expr,
    expr_sort_key,
    make_apply,
    sort_triggers,
)
from .quantities import sentence_quantities
from .relevance import derive_gold_relevance

_ARITH_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV)


def canonicalize(e: SymExpr) -> SymExpr:
    """Normal form: sorted commutative operands, oriented EQ, folded constants.

    Constants fold only when both operands are constant, so 3 + V1 + 2 keeps
    its shape. Idempotent.
    """
    if not isinstance(e, Apply):
        return e
    left, right = (canonicalize(a) for a in e.args)
    if e.op in _ARITH_OPS and isinstance(left, Const) and isinstance(right, Const):
        try:
            return Const(evaluate_expr(Apply(e.op, (left, right))))
        except ZeroDivisionError:
            pass
    if e.op is Op.EQ:
        if expr_sort_key(right) < expr_sort_key(left):
            left, right = right, left
        return Apply(Op.EQ, (left, right))
    return make_apply(e.op, left, right)


def swap_labels(e: SymExpr) -> SymExpr:
    """Exchange V1 and V2 throughout."""
    if isinstance(e, Var):
        return Var("V2" if e.label == "V1" else "V1")
    if isinstance(e, Apply):
        a, b = (swap_labels(x) for x in e.args)
        if e.op is Op.EQ:
            return Apply(Op.EQ, (a, b))
        return make_apply(e.op, a, b)
    return e


def expr_constants(e: SymExpr) -> list[Fraction]:
    """Constants of the expression, with multiplicity."""
    if isinstance(e, Const):
        return [e.value]
    if isinstance(e, Apply):
        return [v for a in e.args for v in expr_constants(a)]
    return []


class Mode(Enum):
    EQUATION_ONLY = "equation"
    WITH_GROUNDING = "grounding"


def _grounding_key(triggers) -> tuple:
    return tuple(sorted((t.label, t.span.start, t.span.end) for t in triggers))


def _swap_triggers(triggers):
    return tuple(VariableTrigger("V2" if t.label == "V1" else "V1", t.span)
                 for t in triggers)


def grounding_matches(predicted, gold_groundings) -> bool:
    key = _grounding_key(predicted)
    return any(key == _grounding_key(g) for g in gold_groundings)


def equations_equal(predicted: SymExpr, gold: SymExpr, mode: Mode,
                    predicted_grounding=None, gold_groundings=None) -> bool:
    """Equivalence after canonicalization, allowing one global V1/V2 swap.

    In WITH_GROUNDING mode the predicted variable triggers, relabeled by the
    same swap that matched the equation, must equal some gold grounding.
    """
    gold_canonical = canonicalize(gold)
    for swapped in (False, True):
        candidate = swap_labels(predicted) if swapped else predicted
        if canonicalize(candidate) != gold_canonical:
            continue
        if mode is Mode.EQUATION_ONLY:
            return True
        grounding = (_swap_triggers(predicted_grounding) if swapped
                     else tuple(predicted_grounding))
        if grounding_matches(grounding, gold_groundings or ()):
            return True
    return False


# --- gold tree alignment ----------------------------------------------------


def align_gold_tree(gold: SymExpr, triggers) -> EquationTree | None:
    """A projective tree over the trigger list denoting the gold equation.

    Each leaf takes one trigger, so a subexpression with L leaves spans
    exactly L triggers, and each arrangement of a node's operands fixes
    its split. Commutative nodes may take their operands in either text
    order, SUB/DIV in reversed order via the rl flag. The arrangements are
    tried by ascending split, then in that order, and each (subexpression,
    first trigger) is matched once, so the search is polynomial. Returns
    None when no projective arrangement exists (for instance when both
    mentions of a twice-used variable ground to one side of the sentence).
    """

    # keyed by id: gold keeps every subexpression alive for the call, and
    # an id hashes in constant time where a deep expression does not
    sizes: dict[int, int] = {}  # subexpression -> its leaf count
    memo: dict = {}  # (subexpression, i) -> its tree from triggers[i], or None

    def count(e: SymExpr) -> int:
        n = sizes[id(e)] = (count(e.args[0]) + count(e.args[1])
                            if isinstance(e, Apply) else 1)
        return n

    def match(e: SymExpr, i: int) -> EquationTree | None:
        """The tree of e over triggers[i:i + its size), or None."""
        t = triggers[i]
        if isinstance(e, Const):
            if isinstance(t, QuantityTrigger) and t.value == e.value:
                return Leaf(t)
            return None
        if isinstance(e, Var):
            if isinstance(t, VariableTrigger) and t.label == e.label:
                return Leaf(t)
            return None
        key = (id(e), i)
        if key not in memo:
            memo[key] = arrange(e, i)
        return memo[key]

    def arrange(e: Apply, i: int) -> Node | None:
        a, b = e.args
        if e.op in (Op.SUB, Op.DIV):
            arrangements = [(a, b, Order.LR), (b, a, Order.RL)]
        elif a == b:
            arrangements = [(a, b, Order.LR)]
        else:
            arrangements = [(a, b, Order.LR), (b, a, Order.LR)]
        if sizes[id(b)] < sizes[id(a)]:  # by ascending split, ties in order
            arrangements.reverse()
        for first, second, order in arrangements:
            left = match(first, i)
            if left is None:
                continue
            right = match(second, i + sizes[id(first)])
            if right is not None:
                return Node(e.op, order, left, right)
        return None

    if count(gold) != len(triggers):
        return None
    return match(gold, 0)


def gold_tree_instance(example):
    """(sentence, gold trigger list, gold tree) for the first grounding that
    admits a projective tree, or None."""
    sentence = example.sentence
    quantities = sentence_quantities(sentence)
    gold_expr = example.gold_expr()
    gold_rel = derive_gold_relevance(quantities, expr_constants(gold_expr))
    relevant = [q for q, bit in zip(quantities, gold_rel) if bit]
    for grounding in example.groundings or ((),):
        triggers = sort_triggers(list(relevant) + list(grounding))
        if len(triggers) < 2:
            continue
        tree = align_gold_tree(gold_expr, triggers)
        if tree is not None:
            return sentence, tuple(triggers), tree
    return None


# --- metrics ----------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    """Corpus accuracies. Stage accuracies marked gold_pipeline feed each
    stage its gold upstream inputs; tree_accuracy_predicted_pipeline is the
    tree stage on predicted trigger lists, i.e. full-pipeline equation
    accuracy."""

    equation_accuracy: float
    equation_grounding_accuracy: float
    relevance_accuracy: float
    variable_accuracy: float
    tree_accuracy_gold_pipeline: float
    tree_accuracy_predicted_pipeline: float
    count: int

    def to_json(self) -> dict:
        return asdict(self)


def evaluate(bundle, examples) -> Metrics:
    """Score a model bundle (or any object with its prediction methods)."""
    if not examples:
        raise ValueError("empty evaluation corpus")
    rel_ok = var_ok = tree_ok = eq_ok = eqg_ok = 0
    for example in examples:
        sentence = example.sentence
        quantities = sentence_quantities(sentence)
        gold_expr = example.gold_expr()
        gold_rel = derive_gold_relevance(quantities, expr_constants(gold_expr))

        if bundle.predict_relevance(sentence, quantities) == gold_rel:
            rel_ok += 1

        try:
            predicted_vars = bundle.predict_variables(sentence)
        except ValueError:
            predicted_vars = None
        if predicted_vars is not None and (
                grounding_matches(predicted_vars, example.groundings)
                or grounding_matches(_swap_triggers(predicted_vars),
                                     example.groundings)):
            var_ok += 1

        gold_instance = gold_tree_instance(example)
        if gold_instance is not None:
            _, gold_triggers, _ = gold_instance
            try:
                decoded = bundle.decode_tree(sentence, gold_triggers)
                if equations_equal(expr(decoded), gold_expr, Mode.EQUATION_ONLY):
                    tree_ok += 1
            except ValueError:
                pass

        try:
            result = bundle.parse(sentence)
        except ValueError:
            result = None
        if result is not None:
            if equations_equal(result.expr, gold_expr, Mode.EQUATION_ONLY):
                eq_ok += 1
            if equations_equal(result.expr, gold_expr, Mode.WITH_GROUNDING,
                               result.variable_triggers, example.groundings):
                eqg_ok += 1

    n = len(examples)
    return Metrics(
        equation_accuracy=eq_ok / n,
        equation_grounding_accuracy=eqg_ok / n,
        relevance_accuracy=rel_ok / n,
        variable_accuracy=var_ok / n,
        tree_accuracy_gold_pipeline=tree_ok / n,
        tree_accuracy_predicted_pipeline=eq_ok / n,
        count=n,
    )


def fold_indices(n: int, k: int, seed: int) -> list[list[int]]:
    """Shuffle range(n) with the seed and cut it into k nearly even folds."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    folds = []
    base, extra = divmod(n, k)
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        folds.append(order[start:start + size])
        start += size
    return folds


def mean_metrics(per_fold: list[Metrics]) -> Metrics:
    """The fold accuracies averaged, and the counts summed."""
    totals = {f.name: sum(getattr(m, f.name) for m in per_fold)
              for f in fields(Metrics)}
    return Metrics(**{name: total if name == "count" else total / len(per_fold)
                      for name, total in totals.items()})


def cross_validate(examples, k: int, seed: int, config) -> Metrics:
    """k-fold cross-validation: train on k-1 folds, test on the held-out one,
    and average the fold metrics arithmetically."""
    from .pipeline import train_bundle  # deferred: pipeline uses this module

    if k < 2:
        raise ValueError("need at least 2 folds")
    if len(examples) < k:
        raise ValueError(f"corpus of {len(examples)} is smaller than k={k}")
    per_fold = []
    for fold in fold_indices(len(examples), k, seed):
        held_out = set(fold)
        train = [ex for i, ex in enumerate(examples) if i not in held_out]
        test = [examples[i] for i in fold]
        bundle = train_bundle(train, config)
        per_fold.append(evaluate(bundle, test))
    return mean_metrics(per_fold)
