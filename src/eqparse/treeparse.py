"""Equation tree construction over a sorted trigger list.

CKY over trigger intervals: every internal node combines two adjacent
intervals, so every decoded tree is projective. A high-precision lexicon can
pin the operation (and operand order) of a node whose surrounding text
matches a rule; the root is always EQ.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from .core import (
    INTERNAL_OPS,
    EquationTree,
    Leaf,
    Node,
    Op,
    Order,
    QuantityTrigger,
    Span,
    location,
    validate_trigger_list,
)
from .corpus import AnnotatedSentence
from .learning import FeatureVector, label_scores, rows_of, tagged


@dataclass(frozen=True)
class NodeContext:
    """Text around a candidate node joining intervals [i,k) and [k,j)."""

    mid: str
    left: str
    right: str
    left_token: str | None  # trigger surface when the left child is a leaf


def node_context_spans(sentence: AnnotatedSentence, triggers, i: int, k: int,
                       j: int) -> NodeContext:
    """Context strings for a node over triggers[i:j) split at k.

    Extents use trigger locations, so the mid span runs from the left
    child's last trigger to the right child's first. The left/right spans
    extend to the nearest trigger outside the node, or to the sentence
    boundary when there is none.
    """
    text = sentence.text
    locs = [location(t) for t in triggers]
    left_end = min(locs[k - 1], locs[j - 1])
    right_begin = max(locs[i], locs[k])
    node_start = min(locs[i], locs[k])
    node_end = max(locs[k - 1], locs[j - 1])

    before = [p for p in locs if p < node_start]
    after = [p for p in locs if p > node_end]
    left_from = max(before) if before else 0
    right_to = min(after) if after else len(text)

    return NodeContext(
        mid=text[left_end:right_begin],
        left=text[left_from:node_start],
        right=text[node_end:right_to],
        left_token=triggers[i].span.text(text) if k == i + 1 else None,
    )


_NORM_RE = re.compile(r"[^0-9a-z]+")


def _padded(text: str | None) -> str:
    # lowercase words joined by single spaces, padded with a space each side,
    # so f" {term} " matches on token boundaries only: " less than " never
    # matches "bless thank"; a missing field matches no term
    if text is None:
        return ""
    return " " + _NORM_RE.sub(" ", text.lower()).strip() + " "


@dataclass(frozen=True)
class LexiconRule:
    """One lexicon rule: a conjunction of clauses, each a disjunction of atoms.

    An atom (field, term) tests whether the context field contains the term;
    the field "mid_empty" tests for an empty mid span instead.
    """

    rule_id: int
    precedence: int
    op: Op
    order: Order | None
    clauses: tuple[tuple[tuple[str, str], ...], ...]

    def matches(self, fields: dict[str, str], mid_empty: bool) -> bool:
        """Whether every clause holds, given the `_padded` context fields."""
        return all(any(mid_empty if field == "mid_empty"
                       else f" {term} " in fields[field]
                       for field, term in clause)
                   for clause in self.clauses)


# Ordered from low to high precedence; the last matching rule wins.
_LEXICON_TABLE = """\
1	+	left:sum of	mid:and|mid_empty:
2	+	mid:added to|mid:plus|mid:more than|mid:taller than|mid:greater than|mid:larger than|mid:faster than|mid:longer than|mid:increased
3	-,lr	mid:more than|mid:taller than|mid:greater than|mid:larger than|mid:faster than|mid:longer than	right:by
4	-,lr	left:difference of	mid:and|mid_empty:
5	-,lr	left:exceeds|left:minus|left:decreased
6	-,rl	mid:subtracted|mid:shorter than|mid:less than|mid:slower than|mid:smaller than
7	*	mid:multiplied by
8	*	left:product of	mid:and
9	/,lr	left:ratio of
10	*	token:thrice|token:triple|token:twice|token:double|token:half|mid:times
11	/,rl	token:thrice|token:triple|token:twice|token:double|token:half|mid:times	mid:as	right:as
"""

_FIELDS = {"left", "mid", "right", "token", "mid_empty"}
_OP_SYMBOLS = {"+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV}


def parse_lexicon(text: str) -> tuple[LexiconRule, ...]:
    """Parse a rules table: id<TAB>op[,order]<TAB>clause..., atoms field:term."""
    rules = []
    seen_ids = set()
    for lineno, line in enumerate(text.splitlines()):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise ValueError(f"lexicon line {lineno + 1}: need id, op, clauses")
        rule_id = int(parts[0])
        if rule_id in seen_ids:
            raise ValueError(f"lexicon line {lineno + 1}: duplicate rule id {rule_id}")
        seen_ids.add(rule_id)
        op_part = parts[1].split(",")
        op = _OP_SYMBOLS[op_part[0]]
        order = Order(op_part[1]) if len(op_part) > 1 else None
        clauses = []
        for part in parts[2:]:
            atoms = []
            for atom in part.split("|"):
                field, _, term = atom.partition(":")
                if field not in _FIELDS:
                    raise ValueError(f"lexicon line {lineno + 1}: bad field {field!r}")
                atoms.append((field, term))
            clauses.append(tuple(atoms))
        rules.append(LexiconRule(rule_id, len(rules), op, order, tuple(clauses)))
    return tuple(rules)


DEFAULT_LEXICON = parse_lexicon(_LEXICON_TABLE)
# bundles record it: a tree model trained under other rules must not load
LEXICON_SHA256 = hashlib.sha256(_LEXICON_TABLE.encode("utf-8")).hexdigest()


def lexicon_match(context: NodeContext) -> tuple[Op, Order] | None:
    """(op, order) from the highest-precedence matching rule, if any."""
    fields = {"left": _padded(context.left), "mid": _padded(context.mid),
              "right": _padded(context.right),
              "token": _padded(context.left_token)}
    mid_empty = not context.mid.strip()
    for rule in reversed(DEFAULT_LEXICON):  # stored low to high precedence
        if rule.matches(fields, mid_empty):
            return rule.op, rule.order or Order.LR
    return None


def _compile_lexicon(rules):
    """The rules as bit masks: each distinct (field, term) atom gets one bit.
    Returns {field: ((" term ", bit), ...)}, the bit of an empty mid span,
    and the rules highest precedence first as ((op, order), clause masks)."""
    bits: dict = {}
    compiled = []
    for rule in reversed(rules):
        masks = []
        for clause in rule.clauses:
            mask = 0
            for atom in clause:
                mask |= 1 << bits.setdefault(atom, len(bits))
            masks.append(mask)
        compiled.append(((rule.op, rule.order or Order.LR), tuple(masks)))
    atoms = {field: tuple((f" {term} ", 1 << bit)
                          for (f, term), bit in bits.items() if f == field)
             for field in ("left", "mid", "right", "token")}
    return atoms, 1 << bits[("mid_empty", "")], tuple(compiled)


_ATOMS, _MID_EMPTY, _COMPILED = _compile_lexicon(DEFAULT_LEXICON)


def _field_mask(field: str, text: str | None) -> int:
    """The bits of the `field` atoms whose term the text contains."""
    padded = _padded(text)
    mask = 0
    for term, bit in _ATOMS[field]:
        if term in padded:
            mask |= bit
    return mask


class FieldTable:
    """The lexicon atoms of each node-context field over one sorted trigger
    list, each computed on first use, and the lexicon match of a node.

    On sorted locations the fields of `node_context_spans` factor: `left`
    and `token` depend only on a node's first trigger i, `mid` only on its
    split k, and `right` only on its end j. So a trigger list has O(n)
    distinct fields, and a node's match is a few mask tests. A table
    serves one prepared input (`TreeInput`), so every call made on it.
    """

    def __init__(self, sentence: AnnotatedSentence, triggers):
        self.text = sentence.text
        self.triggers = triggers
        self.locs = [location(t) for t in triggers]
        if any(a > b for a, b in zip(self.locs, self.locs[1:])):
            raise ValueError("trigger list out of order")
        n = len(triggers)
        self._left = [None] * n    # by i: last location before locs[i]
        self._token = [None] * n   # by i: the surface of triggers[i]
        self._mid = [None] * n     # by k: text[locs[k-1]:locs[k]]
        self._right = [None] * (n + 1)  # by j: first location after locs[j-1]
        self._matches: dict = {}

    def match(self, i: int, k: int, j: int) -> tuple[Op, Order] | None:
        """`lexicon_match(node_context_spans(sentence, triggers, i, k, j))`:
        the first rule whose every clause meets the node's atoms."""
        mask = self.mask(i, k, j)
        if mask not in self._matches:
            self._matches[mask] = next(
                (match for match, clauses in _COMPILED
                 if all(clause & mask for clause in clauses)), None)
        return self._matches[mask]

    def mask(self, i: int, k: int, j: int) -> int:
        """The bits of the atoms that the node's context fields contain."""
        locs, text = self.locs, self.text
        left = self._left[i]
        if left is None:
            start = locs[i]
            before = [p for p in locs[:i] if p < start]
            left = self._left[i] = _field_mask(
                "left", text[before[-1] if before else 0:start])
        mid = self._mid[k]
        if mid is None:
            span = text[locs[k - 1]:locs[k]]
            mid = self._mid[k] = _field_mask("mid", span) | (
                0 if span.strip() else _MID_EMPTY)
        right = self._right[j]
        if right is None:
            end = locs[j - 1]
            after = [p for p in locs[j:] if p > end]
            right = self._right[j] = _field_mask(
                "right", text[end:after[0] if after else len(text)])
        mask = left | mid | right
        if k == i + 1:
            token = self._token[i]
            if token is None:
                token = self._token[i] = _field_mask(
                    "token", self.triggers[i].span.text(text))
            mask |= token
        return mask


# the label of each node's names: the op, and the order for - and /
_OP_LABELS = {(op, order): f"o={op.value}{order.value}"
              if op in (Op.SUB, Op.DIV) else f"o={op.value}"
              for op in Op for order in Order}
# the (op, order, label) triples `CkyDecoder.node_ops` explores: all
# internal ops, the root's EQ, or one pinned op
_INTERNAL = tuple((op, order, _OP_LABELS[op, order])
                  for op, order in INTERNAL_OPS)
_ROOT = ((Op.EQ, Order.LR, _OP_LABELS[Op.EQ, Order.LR]),)


# the number feature of a node joining two quantity leaves, by whether the
# left value is the smaller
_NUMBER_FEATURES = ("tnum_left_smaller=0", "tnum_left_smaller=1")
# in lexicon-as-features mode, the feature of a node the lexicon matches,
# by whether the node's (op, order) agrees with the match
_AGREE = ("lex_agree=0", "lex_agree=1")


def _values(triggers) -> list:
    """Each trigger's quantity value, or None for a variable."""
    return [t.value if isinstance(t, QuantityTrigger) else None
            for t in triggers]


def _node_parts(locs, values, i: int, k: int, j: int) -> set:
    """The parts whose names make up the node over triggers[i:j) split at
    k, from the sorted trigger locations and `_values`: the distinct
    boundary offsets (each a token window), the mid span as a (lo, hi)
    character range, and the number feature name of two quantity leaves."""
    b, c = locs[k - 1], locs[k]
    parts = {locs[i], b, c, locs[j - 1], (b, c)}
    if j - i == 2 and values[i] is not None and values[k] is not None:
        parts.add(_NUMBER_FEATURES[values[i] < values[k]])
    return parts


def _part_names(sentence: AnnotatedSentence, part, window: int) -> list[str]:
    """The feature names of one node part, one per occurrence: a boundary
    offset names the neighborhood of its token, a (lo, hi) mid span the
    tokens overlapping those characters, and a feature name itself."""
    if isinstance(part, str):
        return [part]
    if isinstance(part, tuple):
        return sentence.token_names("tc", *sentence.token_range(Span(*part)))
    ti = sentence.token_index_at(part)
    return sentence.token_names("tn", *sentence.window(ti, ti + 1, window))


def tree_node_features(sentence: AnnotatedSentence, triggers, i: int, k: int,
                       j: int, op: Op, order: Order,
                       window: int = 3) -> FeatureVector:
    """The names of the node's `_node_parts` conjoined with its op label."""
    label = _OP_LABELS[op, order]
    return tagged((_part_names(sentence, part, window), label)
                  for part in _node_parts([location(t) for t in triggers],
                                          _values(triggers), i, k, j))


def tree_nodes(tree: EquationTree):
    """(leaf triggers in order, internal nodes children first), each node as
    (i, k, j, node): it joins the leaf intervals [i, k) and [k, j)."""
    leaves = []
    nodes = []

    def walk(node: EquationTree) -> None:
        if isinstance(node, Leaf):
            leaves.append(node.trigger)
            return
        i = len(leaves)
        walk(node.left)
        k = len(leaves)
        walk(node.right)
        nodes.append((i, k, len(leaves), node))

    walk(tree)
    return leaves, nodes


def tree_features(sentence: AnnotatedSentence, triggers, tree: EquationTree,
                  window: int = 3) -> FeatureVector:
    """Whole-tree feature vector: the sum over all internal nodes."""
    return CkyDecoder(window).features((sentence, triggers), tree)


def gold_node_set(tree: EquationTree) -> frozenset:
    """(i, j, op, order) for each internal node, by in-order leaf position."""
    return frozenset((i, j, node.op, node.order)
                     for i, _, j, node in tree_nodes(tree)[1])


class TreeInput:
    """A `CkyDecoder` input prepared for one window: the sentence and its
    trigger list, with the trigger locations and `_values`, and, each
    built on first use, the list's validation, its `FieldTable`, every
    node's `parts` and every part's `names`."""

    __slots__ = ("sentence", "triggers", "window", "locs", "values",
                 "_valid", "_table", "_parts", "_names")

    def __init__(self, sentence: AnnotatedSentence, triggers, window: int):
        self.sentence, self.triggers, self.window = sentence, triggers, window
        self.locs = [location(t) for t in triggers]
        self.values = _values(triggers)
        self._valid = False
        self._table = self._parts = self._names = None

    def validate(self) -> None:
        """`validate_trigger_list`, until it has passed once."""
        if not self._valid:
            validate_trigger_list(self.triggers)
            self._valid = True

    @property
    def table(self) -> FieldTable:
        if self._table is None:
            self._table = FieldTable(self.sentence, self.triggers)
        return self._table

    @property
    def parts(self) -> dict:
        """(i, k, j) -> the `_node_parts` of the node over triggers[i:j)
        split at k, for every node."""
        if self._parts is None:
            locs, values, n = self.locs, self.values, len(self.triggers)
            self._parts = {(i, k, j): tuple(_node_parts(locs, values, i, k, j))
                           for i in range(n) for j in range(i + 2, n + 1)
                           for k in range(i + 1, j)}
        return self._parts

    @property
    def names(self) -> dict:
        """part -> its `_part_names`, for every part of every node."""
        if self._names is None:
            names = self._names = {}
            for parts in self.parts.values():
                for part in parts:
                    if part not in names:
                        names[part] = _part_names(self.sentence, part,
                                                  self.window)
        return self._names


class CkyDecoder:
    """Bottom-up search for the best projective equation tree.

    x is (sentence, triggers) with triggers in trigger-list order, and
    `prepare` gives a `TreeInput`. Ties prefer the smaller split point,
    then ops in declaration order, with lr before rl. When a lexicon rule
    matches a node, only its (op, order) is explored, unless the lexicon
    is disabled or demoted to features.
    """

    def __init__(self, window: int = 3, use_lexicon: bool = True,
                 lexicon_as_features: bool = False,
                 conform_syntactic: bool = False):
        self.window = window
        self.use_lexicon = use_lexicon
        self.lexicon_as_features = lexicon_as_features
        self.conform_syntactic = conform_syntactic

    def prepare(self, x) -> TreeInput:
        if isinstance(x, TreeInput):
            if x.window == self.window:
                return x
            x = x.sentence, x.triggers
        sentence, triggers = x
        return TreeInput(sentence, triggers, self.window)

    def node_ops(self, table: FieldTable, i, k, j):
        """(lexicon match or None, (op, order, label) triples explored) for
        the node over triggers[i:j) split at k. The root cell (0, n) is EQ
        only."""
        if (i, j) == (0, len(table.locs)):
            return None, _ROOT
        if not self.use_lexicon:
            return None, _INTERNAL
        match = table.match(i, k, j)
        if match is None or self.lexicon_as_features:
            return match, _INTERNAL
        return match, ((*match, _OP_LABELS[match]),)

    def _allowed_interval(self, sentence, triggers, i, j):
        if j - i == 1 or (i, j) == (0, len(triggers)):
            return True
        lo = min(t.span.start for t in triggers[i:j])
        hi = max(t.span.end for t in triggers[i:j])
        for chunk in sentence.np_chunks:
            overlap = max(lo, chunk.start) < min(hi, chunk.end)
            nested = (chunk.start <= lo and hi <= chunk.end) or \
                     (lo <= chunk.start and chunk.end <= hi)
            if overlap and not nested:
                return False
        return True

    def decode(self, x, weights, gold=None, cost_unit: int = 1):
        """Best tree; with a gold tree, each node absent from it scores
        +cost_unit."""
        x = self.prepare(x)
        x.validate()
        rows = rows_of(weights)
        # part -> {op label: the weight of its names under it}
        scores = {part: label_scores(rows, names)
                  for part, names in x.names.items()}
        # lexicon agreement scores, (disagree, agree), in feature mode only
        agree = tuple(label_scores(rows, [name]) for name in _AGREE) \
            if self.lexicon_as_features else None
        tree = self._decode(x, scores, agree, gold, cost_unit,
                            strict=self.conform_syntactic)
        if tree is None:
            # syntactic conformance can exhaust the space; fall back
            tree = self._decode(x, scores, agree, gold, cost_unit,
                                strict=False)
        return tree

    def _decode(self, x: TreeInput, scores, agree, gold, cost_unit, strict):
        triggers, table, node_parts = x.triggers, x.table, x.parts
        n = len(triggers)
        # the gold tree's nodes as (i, j, op label): a label names its
        # (op, order), and a string key hashes faster than enum members
        gold_nodes = None if gold is None else {
            (i, j, _OP_LABELS[op, order])
            for i, j, op, order in gold_node_set(gold)}

        # cell (i, j) -> (best score, its split k, op, order); a leaf's
        # cell scores 0, and the tree is built from the root's cell at the end
        chart: dict = {(i, i + 1): (0,) for i in range(n)}
        for length in range(2, n + 1):
            for i in range(n - length + 1):
                j = i + length
                if strict and not self._allowed_interval(x.sentence, triggers,
                                                         i, j):
                    continue
                best = None
                for k in range(i + 1, j):
                    left, right = chart.get((i, k)), chart.get((k, j))
                    if left is None or right is None:
                        continue
                    match, ops = self.node_ops(table, i, k, j)
                    parts = [scores[part] for part in node_parts[i, k, j]]
                    below = left[0] + right[0]
                    for op, order, label in ops:
                        score = below
                        for acc in parts:
                            score += acc.get(label, 0)
                        if agree is not None and match is not None:
                            score += agree[(op, order) == match].get(label, 0)
                        if (gold_nodes is not None
                                and (i, j, label) not in gold_nodes):
                            score += cost_unit  # margin cost per wrong node
                        if best is None or score > best[0]:
                            best = (score, k, op, order)
                if best is not None:
                    chart[(i, j)] = best

        if (0, n) not in chart:
            if strict:
                return None
            raise ValueError("no full-span tree")

        def build(i, j):
            if j - i == 1:
                return Leaf(triggers[i])
            _, k, op, order = chart[i, j]
            return Node(op, order, build(i, k), build(k, j))

        return build(0, n)

    def features(self, x, tree) -> FeatureVector:
        """Whole-tree features: each node's parts under its op label, and
        the lexicon-agreement features when the lexicon runs in feature
        mode rather than as a constraint."""
        x = self.prepare(x)
        leaves, nodes = tree_nodes(tree)
        if len(leaves) != len(x.triggers):
            raise ValueError("tree leaves do not match the trigger list")
        parts = [(x.names[part], _OP_LABELS[node.op, node.order])
                 for i, k, j, node in nodes for part in x.parts[i, k, j]]
        if self.lexicon_as_features:
            for i, k, j, node in nodes:
                match = self.node_ops(x.table, i, k, j)[0]
                if match is not None:
                    pair = node.op, node.order
                    parts.append(([_AGREE[pair == match]], _OP_LABELS[pair]))
        return tagged(parts)

    def contains(self, x, tree) -> bool:
        """Whether the decoder's search space includes this exact tree."""
        x = self.prepare(x)
        if not isinstance(tree, Node):
            return False
        leaves, nodes = tree_nodes(tree)
        if leaves != list(x.triggers):
            return False
        return all((node.op, node.order, _OP_LABELS[node.op, node.order])
                   in self.node_ops(x.table, i, k, j)[1]
                   for i, k, j, node in nodes)


def enumerate_projective_trees(sentence: AnnotatedSentence, triggers,
                               use_lexicon: bool = True) -> list[EquationTree]:
    """Every projective tree over the trigger list, honoring the lexicon.

    Exhaustive alternative to CKY for small trigger lists.
    """
    n = len(triggers)
    if n < 2:
        raise ValueError("trigger list needs at least 2 triggers")
    cache: dict = {}

    def node_ops(i, k, j):
        # the reference decision, kept apart from `CkyDecoder.node_ops`
        if (i, j) == (0, n):
            return ((Op.EQ, Order.LR),)
        match = (lexicon_match(node_context_spans(sentence, triggers, i, k, j))
                 if use_lexicon else None)
        return INTERNAL_OPS if match is None else (match,)

    def subtrees(i, j):
        if (i, j) in cache:
            return cache[(i, j)]
        if j - i == 1:
            result = [Leaf(triggers[i])]
        else:
            result = []
            for k in range(i + 1, j):
                ops = node_ops(i, k, j)
                for lt in subtrees(i, k):
                    for rt in subtrees(k, j):
                        for op, order in ops:
                            result.append(Node(op, order, lt, rt))
        cache[(i, j)] = result
        return result

    return subtrees(0, n)
