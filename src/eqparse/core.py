"""Core types for equation trees over sentence triggers.

An equation tree is a binary tree whose leaves are triggers (a quantity
mention or a variable mention grounded in a noun phrase) and whose internal
nodes carry arithmetic operations, with the root always the equality. SUB and
DIV nodes carry an order flag: rl means the right child is the first operand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

VALID_LABELS = ("V1", "V2")


class Op(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    EQ = "="


class Order(Enum):
    LR = "lr"
    RL = "rl"


# ops explored at non-root internal nodes, in tie-break order (LR before RL)
INTERNAL_OPS = (
    (Op.ADD, Order.LR),
    (Op.SUB, Order.LR),
    (Op.SUB, Order.RL),
    (Op.MUL, Order.LR),
    (Op.DIV, Order.LR),
    (Op.DIV, Order.RL),
)


@dataclass(frozen=True, order=True)
class Span:
    """Character interval [start, end) into the sentence text."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise ValueError(f"bad span [{self.start}, {self.end})")

    def text(self, sentence_text: str) -> str:
        return sentence_text[self.start:self.end]


@dataclass(frozen=True)
class QuantityTrigger:
    value: Fraction
    span: Span

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class VariableTrigger:
    label: str
    span: Span

    def __post_init__(self):
        if self.label not in VALID_LABELS:
            raise ValueError(f"bad variable label {self.label!r}")


Trigger = QuantityTrigger | VariableTrigger


def location(trigger: Trigger) -> int:
    """Position of a trigger: the start offset of its mention span."""
    return trigger.span.start


def trigger_sort_key(trigger: Trigger) -> tuple:
    # quantities before variables at the same location, then by span end
    return (location(trigger), 0 if isinstance(trigger, QuantityTrigger) else 1,
            trigger.span.end)


def sort_triggers(triggers: list[Trigger]) -> list[Trigger]:
    """Stable-sort triggers into trigger-list order.

    Ties beyond the sort key (e.g. two variables grounded in one NP) keep
    their given order, so V1 stays before V2 for a self-pair.
    """
    return sorted(triggers, key=trigger_sort_key)


def validate_trigger_list(triggers: list[Trigger]) -> None:
    """Raise ValueError unless the list is a well-formed trigger list."""
    if len(triggers) < 2:
        raise ValueError("trigger list needs at least 2 triggers")
    keys = [trigger_sort_key(t) for t in triggers]
    if keys != sorted(keys):
        raise ValueError("trigger list out of order")
    labels = {t.label for t in triggers if isinstance(t, VariableTrigger)}
    if len(labels) > 2:
        raise ValueError("more than 2 variable labels")
    if "V2" in labels and "V1" not in labels:
        raise ValueError("V2 used without V1")


@dataclass(frozen=True)
class Leaf:
    trigger: Trigger


@dataclass(frozen=True)
class Node:
    op: Op
    order: Order
    left: EquationTree
    right: EquationTree

    def __post_init__(self):
        if self.op in (Op.ADD, Op.MUL, Op.EQ) and self.order is not Order.LR:
            raise ValueError(f"{self.op} carries no rl order")


EquationTree = Leaf | Node


def tree_leaves(tree: EquationTree) -> list[Leaf]:
    """Leaves in left-to-right tree order."""
    if isinstance(tree, Leaf):
        return [tree]
    return tree_leaves(tree.left) + tree_leaves(tree.right)


def internal_nodes(tree: EquationTree) -> list[Node]:
    if isinstance(tree, Leaf):
        return []
    return [tree] + internal_nodes(tree.left) + internal_nodes(tree.right)


def validate_tree(tree: EquationTree) -> None:
    """Raise ValueError unless the tree is a well-formed equation tree."""
    if isinstance(tree, Leaf):
        raise ValueError("equation tree must have an EQ root, got a leaf")
    if tree.op is not Op.EQ:
        raise ValueError("root op must be EQ")
    for node in internal_nodes(tree.left) + internal_nodes(tree.right):
        if node.op is Op.EQ:
            raise ValueError("EQ below the root")
    leaves = [leaf.trigger for leaf in tree_leaves(tree)]
    if len(leaves) < 2:
        raise ValueError("tree needs at least 2 leaves")
    labels = {t.label for t in leaves if isinstance(t, VariableTrigger)}
    if len(labels) > 2:
        raise ValueError("more than 2 variable labels")
    if "V2" in labels and "V1" not in labels:
        raise ValueError("V2 used without V1")


def span_start(tree: EquationTree) -> int:
    """Smallest trigger location under the node (the node's left extent)."""
    if isinstance(tree, Leaf):
        return location(tree.trigger)
    return min(span_start(tree.left), span_start(tree.right))


def span_end(tree: EquationTree) -> int:
    """Largest trigger location under the node (the node's right extent)."""
    if isinstance(tree, Leaf):
        return location(tree.trigger)
    return max(span_end(tree.left), span_end(tree.right))


def is_projective(tree: EquationTree) -> bool:
    """True iff no internal node has children with intersecting extents.

    Children may sit in either order; triggers sharing one location (two
    variables grounded in the same NP) still satisfy the boundary condition.
    """
    if isinstance(tree, Leaf):
        return True
    ok = (span_end(tree.left) <= span_start(tree.right)
          or span_end(tree.right) <= span_start(tree.left))
    return ok and is_projective(tree.left) and is_projective(tree.right)


# --- symbolic expressions -------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Var:
    label: str

    def __post_init__(self):
        if self.label not in VALID_LABELS:
            raise ValueError(f"bad variable label {self.label!r}")


@dataclass(frozen=True)
class Apply:
    op: Op
    args: tuple[SymExpr, ...]


SymExpr = Const | Var | Apply


def expr_sort_key(e: SymExpr) -> tuple:
    """Total order on expressions: constants, then variables, then compounds."""
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Var):
        return (1, e.label)
    return (2, e.op.value, tuple(expr_sort_key(a) for a in e.args))


def make_apply(op: Op, left: SymExpr, right: SymExpr) -> Apply:
    """Build a compound; commutative ops store operands in sorted order."""
    args = (left, right)
    if op in (Op.ADD, Op.MUL) and expr_sort_key(right) < expr_sort_key(left):
        args = (right, left)
    return Apply(op, args)


def expr(tree: EquationTree) -> SymExpr:
    """Expression denoted by a tree; rl order swaps the operands."""
    if isinstance(tree, Leaf):
        t = tree.trigger
        if isinstance(t, QuantityTrigger):
            return Const(t.value)
        return Var(t.label)
    a, b = expr(tree.left), expr(tree.right)
    if tree.order is Order.RL:
        a, b = b, a
    if tree.op is Op.EQ:
        return Apply(Op.EQ, (a, b))
    return make_apply(tree.op, a, b)


def evaluate_expr(e: SymExpr, values: dict[str, Fraction] | None = None) -> Fraction:
    """Exact value of an equation-free expression; EQ nodes are not values."""
    values = values or {}
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return values[e.label]
    a, b = (evaluate_expr(x, values) for x in e.args)
    if e.op is Op.ADD:
        return a + b
    if e.op is Op.SUB:
        return a - b
    if e.op is Op.MUL:
        return a * b
    if e.op is Op.DIV:
        return a / b
    raise ValueError(f"{e.op} has no numeric value")


# --- prefix-string serialization ------------------------------------------


def format_value(value: Fraction) -> str:
    return str(value)  # "25", "1/2"


def format_tree(tree: EquationTree) -> str:
    """Parenthesized prefix form; the order flag is consumed by swapping."""
    if isinstance(tree, Leaf):
        t = tree.trigger
        if not isinstance(t, QuantityTrigger):
            return t.label
        try:
            return format_value(t.value)
        except ValueError as e:
            # a reduced fraction with more digits than the interpreter
            # converts to a string
            raise ValueError(f"equation formatting: the quantity at "
                             f"[{t.span.start}, {t.span.end}]: {e}") from e
    a, b = tree.left, tree.right
    if tree.order is Order.RL:
        a, b = b, a
    return f"({tree.op.value} {format_tree(a)} {format_tree(b)})"


def format_expr(e: SymExpr) -> str:
    if isinstance(e, Const):
        return format_value(e.value)
    if isinstance(e, Var):
        return e.label
    inner = " ".join(format_expr(a) for a in e.args)
    return f"({e.op.value} {inner})"


_TOKEN_RE = re.compile(r"\(|\)|[^()\s]+")
_NUMBER_RE = re.compile(r"-?\d+(?:/\d+|\.\d+)?$")
_OPS_BY_SYMBOL = {op.value: op for op in Op}


# the most operators on a path from an equation's root to a leaf. Every later
# pass over an equation or its tree recurses once per level: `expr_sort_key`,
# `canonicalize`, `align_gold_tree` and `expr` take about 2 frames a level,
# `format_tree` 1, and an equality test of two expressions (dataclass and
# tuple comparisons) about 4. At this bound the deepest of them needs about
# 400 frames (Python 3.11) of the default limit of 1000, which leaves room
# for the callers' own
MAX_EQUATION_DEPTH = 100


def parse_equation(text: str) -> SymExpr:
    """Parse a prefix equation string like ``(= (* 2 V1) (- (* 3 V1) 25))``.

    The result is a symbolic expression with an EQ root; operand order of
    SUB/DIV is taken as written (already order-resolved). `=` below the
    root and nesting beyond MAX_EQUATION_DEPTH are refused as they are read.
    """
    tokens = _TOKEN_RE.findall(text)
    pos = 0

    def parse_one(depth: int) -> SymExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"truncated equation: {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] not in _OPS_BY_SYMBOL:
                raise ValueError(f"expected operator in {text!r}")
            op = _OPS_BY_SYMBOL[tokens[pos]]
            if op is Op.EQ and depth:
                raise ValueError(f"EQ below the root in {text!r}")
            if depth == MAX_EQUATION_DEPTH:
                raise ValueError(f"equation nested deeper than "
                                 f"{MAX_EQUATION_DEPTH} operators: {text!r}")
            pos += 1
            left = parse_one(depth + 1)
            right = parse_one(depth + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError(f"missing ')' in {text!r}")
            pos += 1
            if op is Op.EQ:
                return Apply(Op.EQ, (left, right))
            return make_apply(op, left, right)
        if tok == ")":
            raise ValueError(f"unexpected ')' in {text!r}")
        if tok in VALID_LABELS:
            return Var(tok)
        if _NUMBER_RE.match(tok):
            try:
                return Const(Fraction(tok))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator {tok!r} in {text!r}") from None
        raise ValueError(f"bad token {tok!r} in {text!r}")

    result = parse_one(0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    if not (isinstance(result, Apply) and result.op is Op.EQ):
        raise ValueError(f"equation must have an EQ root: {text!r}")
    return result
