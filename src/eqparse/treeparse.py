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
from functools import lru_cache

from .core import (
    INTERNAL_OPS,
    EquationTree,
    Leaf,
    Node,
    Op,
    Order,
    QuantityTrigger,
    location,
    validate_trigger_list,
)
from .corpus import AnnotatedSentence
from .learning import FeatureVector, packed_of, tagged


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


_NORM_RE = re.compile(r"[\W_]+")


def _padded(text: str | None) -> str:
    # lowercase words joined by single spaces, padded with a space each side,
    # so f" {term} " matches whole words only: " less than " never matches
    # "bless thank", nor " plus " "plusé". A word is a run of letters and
    # digits of any script; a combining mark (U+0301) still breaks one. A
    # missing field matches no term
    if text is None:
        return ""
    return _padded_lower(text.lower())


def _padded_lower(lowered: str) -> str:
    """`_padded` of a text already lowercased."""
    return " " + _NORM_RE.sub(" ", lowered).strip() + " "


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
    """The rules as clause bits: each clause of each rule gets one bit,
    highest precedence first, and each (field, term) atom the bits of the
    clauses it satisfies. Returns the number w of clauses; the terms as
    {field: {" term ": bits}}; the bits an empty mid span meets; and the
    rules highest precedence first as (needed bits, r), the rule's (op,
    order) being INTERNAL_OPS[r]. A node's match is the first rule whose
    needed bits it meets."""
    width = sum(len(rule.clauses) for rule in rules)
    atoms: dict = {}
    compiled = []
    bit = 1
    for rule in reversed(rules):
        needed = 0
        for clause in rule.clauses:
            for atom in clause:
                atoms[atom] = atoms.get(atom, 0) | bit
            needed |= bit
            bit <<= 1
        compiled.append(
            (needed, INTERNAL_OPS.index((rule.op, rule.order or Order.LR))))
    terms: dict = {}
    for (field, term), bits in atoms.items():
        if field != "mid_empty":
            terms.setdefault(field, {})[f" {term} "] = bits
    return (width, terms, atoms.get(("mid_empty", ""), 0), tuple(compiled))


_WIDTH, _TERMS, _EMPTY_MID, _RULES = _compile_lexicon(DEFAULT_LEXICON)


def _scan(fields) -> tuple:
    """The scan of a text for the terms of some context fields, for
    `_met`: the search for a term's first word as a word of a
    lowercased text (a run of the characters `_NORM_RE` keeps, so that
    `_padded` splits it out whole), and {first word: ((" term ", bits),
    ...)}, a term's clause bits in the i-th of the fields at offset
    i * w for the w of `_compile_lexicon`."""
    by_word: dict = {}
    for offset, field in enumerate(fields):
        for term, bits in _TERMS[field].items():
            row = by_word.setdefault(term.split()[0], {})
            row[term] = row.get(term, 0) | bits << offset * _WIDTH
    search = re.compile(
        r"(?<![^\W_])(?:" + "|".join(map(re.escape, sorted(by_word,
                                                            reverse=True)))
        + r")(?![^\W_])").search
    return search, {word: tuple(row.items()) for word, row in by_word.items()}


# the scans `TreeInput._field_bits` makes: a gap between two trigger
# locations is read as `left`, `mid` and `right`, the text before the
# first location as `left` alone, that after the last as `right` alone,
# and a trigger's surface as `token`
_GAP_SCAN = _scan(("left", "mid", "right"))
_HEAD_SCAN, _TAIL_SCAN, _TOKEN_SCAN = (_scan((field,))
                                       for field in ("left", "right", "token"))


def _met(text: str | None, scan: tuple) -> int:
    """The clause bits of the terms of the scan's fields (see `_scan`)
    that the `_padded` text contains, each field's at its offset. A text
    holding none of those terms' first words meets none, and is not
    normalized, so a scan for fewer fields skips more texts."""
    if text is None:
        return 0
    search, terms = scan
    lowered = text.lower()
    if search(lowered) is None:
        return 0
    padded = _padded_lower(lowered)
    met = 0
    for word in padded.split():
        for term, bits in terms.get(word, ()):
            if term in padded:
                met |= bits
    return met


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


def _part_window(sentence: AnnotatedSentence, part,
                 window: int) -> tuple[str, int, int]:
    """(template, lo, hi): the token window a boundary offset or a (lo, hi)
    mid span names. An offset names the neighborhood of its token (`tn`),
    a mid span the tokens overlapping its characters (`tc`)."""
    if isinstance(part, tuple):
        return ("tc", *sentence.offset_range(*part))
    ti = sentence.token_index_at(part)
    return ("tn", *sentence.window(ti, ti + 1, window))


def _part_names(sentence: AnnotatedSentence, part, window: int) -> list[str]:
    """The feature names of one node part, one per occurrence: a boundary
    offset's or a mid span's `_part_window`, or a feature name itself."""
    if isinstance(part, str):
        return [part]
    return sentence.token_names(*_part_window(sentence, part, window))


def _part_totals(x, packed, columns=None) -> tuple[list, list]:
    """(by trigger i, the packed total of locs[i]'s names; by split k, that
    of the mid span (locs[k - 1], locs[k]), plus locs[k]'s where the two
    differ). A node's `_node_parts` total is its boundary offsets
    a <= b <= c <= d summed once each, plus the mid span and the number
    feature: on sorted locations an offset repeats only next to itself.
    Given the sentence's token columns under the table's weights, each
    part's total is its `_part_window`'s template field of the columns'
    slice sum instead, read here without a call per part, and no name is
    built."""
    locs = x.locs
    mids = list(zip(locs, locs[1:]))
    if columns is None:
        at = [packed.total(x.part_names(p)) for p in locs]
        inner = [packed.total(x.part_names(mid)) for mid in mids]
    else:
        sentence, window = x.sentence, x.window
        units, pairs, table = columns.units, columns.pairs, columns.table
        bias, n = table.bias, len(units) - 1
        (tn, tn_mask, tn_half), (tc, tc_mask, tc_half) = (table.fields["tn"],
                                                          table.fields["tc"])
        at = []
        for p in locs:  # a `tn` window: around a token, so not empty
            ti = sentence.token_index_at(p)
            lo, hi = max(0, ti - window), min(n, ti + 1 + window)
            at.append((((units[hi] - units[lo] + pairs[hi] - pairs[lo + 1]
                         + bias) >> tn) & tn_mask) - tn_half)
        inner = []
        for b, c in mids:  # a `tc` window, the tokens the span overlaps
            lo, hi = sentence.offset_range(b, c)
            inner.append((((units[hi] - units[lo] + pairs[hi] - pairs[lo + 1]
                            + bias) >> tc) & tc_mask) - tc_half
                          if hi > lo else 0)
    split = [0, *(total + (at[k] if b != c else 0)
                  for k, ((b, c), total) in enumerate(zip(mids, inner), 1))]
    return at, split


def _explored(packed, triples, agree=(0, 0), match=None) -> tuple:
    """(op, order, label, shift, agreement) for each (op, order, label)
    triple a node explores: where the label's field starts in a packed
    total, and the packed total a node adds under it, in lexicon-as-features
    mode `agree[(op, order) == match]` for a node the lexicon matches."""
    return tuple((op, order, label, packed.shift(label),
                  agree[(op, order) == match]) for op, order, label in triples)


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


def _crosses_np(sentence: AnnotatedSentence, triggers, i: int, j: int) -> bool:
    """Whether the character extent of triggers[i:j) overlaps an NP chunk
    without nesting in it or around it."""
    lo = min(t.span.start for t in triggers[i:j])
    hi = max(t.span.end for t in triggers[i:j])
    for chunk in sentence.np_chunks:
        overlap = max(lo, chunk.start) < min(hi, chunk.end)
        nested = (chunk.start <= lo and hi <= chunk.end) or \
                 (lo <= chunk.start and chunk.end <= hi)
        if overlap and not nested:
            return True
    return False


@lru_cache(maxsize=16)
def _schedule(n: int) -> tuple:
    """The CKY chart of n triggers as one walk: each cell (i, j) with
    j - i >= 2, shorter cells first and then from the left, as (i, j, its
    index, its splits), and each split k as (k, the index of cell (i, k),
    that of cell (k, j)). Cell (i, j)'s index is i * (n + 1) + j, an
    entry of the decode's flat score and back lists."""
    width = n + 1
    return tuple((i, i + length, i * width + i + length,
                  tuple((k, i * width + k, k * width + i + length)
                        for k in range(i + 1, i + length)))
                 for length in range(2, n + 1)
                 for i in range(n - length + 1))


class TreeInput:
    """A `CkyDecoder` input prepared for one window: the sentence and its
    trigger list, checked once with `validate_trigger_list`, with the
    trigger locations and `_values`, and, each built on first use, the
    lexicon clause bits of every node-context field, each node part's
    names, the `crossing` cells and the `gold_labels` of the last gold
    tree decoded against. It holds O(n) state for n triggers: a node's
    parts are computed where they are read, by `_node_parts`.

    On sorted locations the fields of `node_context_spans` factor: `left`
    and `token` depend only on a node's first trigger i, `mid` only on its
    split k, and `right` only on its end j. And `left`, `mid` and `right`
    are each the text between two consecutive distinct locations (or a
    sentence end), a gap, read once. So a node's met clause bits are the
    union of a few field bits, and its lexicon match a few mask tests."""

    __slots__ = ("sentence", "triggers", "window", "locs", "values",
                 "_fields", "_names", "_crossing", "_gold")

    def __init__(self, sentence: AnnotatedSentence, triggers, window: int):
        validate_trigger_list(triggers)
        self.sentence, self.triggers, self.window = sentence, triggers, window
        self.locs = [location(t) for t in triggers]
        self.values = _values(triggers)
        self._fields = self._crossing = self._gold = None
        self._names = {}

    def _field_bits(self) -> tuple:
        """(left by i, token by i, mid by k, right by j): the clause bits
        that the node-context fields meet, for every trigger i, split
        1 <= k <= n - 1 and end j >= 1. `left` is the gap before locs[i],
        `right` the gap after locs[j - 1], and `mid` the gap between
        locs[k - 1] and locs[k], empty where they are equal. Each gap is
        scanned once, and only for the terms of the fields it is read
        as: a gap between consecutive distinct locations for those of
        all three, the text before the first location (the head gap) for
        the `left` terms alone, the text after the last (the tail gap)
        for the `right` terms, and each trigger's surface for the `token`
        terms."""
        locs, text = self.locs, self.sentence.text
        cuts = [0, *dict.fromkeys(locs), len(text)]
        clauses = (1 << _WIDTH) - 1
        head, *inner, tail = (text[a:b] for a, b in zip(cuts, cuts[1:]))
        # by gap: the head gap is only ever read as a `left` and the tail
        # gap as a `right`, so each is scanned for that field's terms alone
        lefts, mids, rights = [_met(head, _HEAD_SCAN)], [0], [0]
        for gap in inner:
            bits = _met(gap, _GAP_SCAN)
            lefts.append(bits & clauses)
            mids.append((bits >> _WIDTH) & clauses
                        | (0 if gap.strip() else _EMPTY_MID))
            rights.append((bits >> 2 * _WIDTH) & clauses)
        rights.append(_met(tail, _TAIL_SCAN))
        left, mid, right = [], [0], [0]
        g = 0  # the gap before locs[i]
        for i, p in enumerate(locs):
            if i:
                if p == locs[i - 1]:
                    mid.append(_EMPTY_MID)
                else:
                    g += 1
                    mid.append(mids[g])
            left.append(lefts[g])
            right.append(rights[g + 1])
        token = [_met(text[t.span.start:t.span.end], _TOKEN_SCAN)
                 for t in self.triggers[:-1]]
        return left, token, mid, right

    @property
    def fields(self) -> tuple:
        """The `_field_bits`, built on first use."""
        if self._fields is None:
            self._fields = self._field_bits()
        return self._fields

    def met(self, i: int, k: int, j: int) -> int:
        """The clause bits that the context fields of the node over
        triggers[i:j) split at k meet."""
        left, token, mid, right = self.fields
        met = left[i] | mid[k] | right[j]
        return met | token[i] if k == i + 1 else met

    def match(self, i: int, k: int, j: int) -> tuple[Op, Order] | None:
        """`lexicon_match(node_context_spans(sentence, triggers, i, k, j))`:
        the first rule whose needed clause bits the node's context meets."""
        met = self.met(i, k, j)
        for needed, r in _RULES:
            if needed & met == needed:
                return INTERNAL_OPS[r]
        return None

    def gold_labels(self, gold) -> dict:
        """The gold tree's op label by its (i, j) cell (a tree has one node
        per cell), built once per gold tree: kept for the last tree asked
        about, by identity."""
        if self._gold is None or self._gold[0] is not gold:
            self._gold = gold, {(i, j): _OP_LABELS[op, order]
                                for i, j, op, order in gold_node_set(gold)}
        return self._gold[1]

    def part_names(self, part) -> list[str]:
        """The part's `_part_names`, built on first use."""
        names = self._names.get(part)
        if names is None:
            names = self._names[part] = _part_names(self.sentence, part,
                                                    self.window)
        return names

    @property
    def crossing(self) -> frozenset:
        """The (i, j) cells whose triggers `_crosses_np`, apart from the
        leaves and the root, which are always allowed."""
        if self._crossing is None:
            n = len(self.triggers)
            self._crossing = frozenset(
                (i, j) for i in range(n) for j in range(i + 2, n + 1)
                if (i, j) != (0, n)
                and _crosses_np(self.sentence, self.triggers, i, j))
        return self._crossing


class CkyDecoder:
    """Bottom-up search for the best projective equation tree.

    x is (sentence, triggers) with triggers in trigger-list order, and
    `prepare` gives a `TreeInput`, which checks the list once with
    `validate_trigger_list`. Ties prefer the smaller split point, then ops
    in declaration order, with lr before rl. When a lexicon rule matches a
    node (`TreeInput.match`), only its (op, order) is explored, unless the
    lexicon is disabled or demoted to features.

    `decode` runs its chart on integers, with no call, set or memo per
    split, walking the `_schedule` of n triggers. Once per decode it
    totals each part a node can have (`_part_totals`) and builds the
    explored tuples (`_explored`) of the root, of a node no rule matches
    and of each rule. A split then joins its fields' clause bits, takes
    the first rule whose needed bits they hold, adds its distinct
    boundary offsets' totals after two comparisons, and reads each
    explored op's field of the sum.
    `node_ops` makes the same choice one node at a time, for `features`
    and `contains`.
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

    def node_ops(self, x: TreeInput, i, k, j):
        """(lexicon match or None, (op, order, label) triples explored) for
        the node over triggers[i:j) split at k. The root cell (0, n) is EQ
        only."""
        if (i, j) == (0, len(x.locs)):
            return None, _ROOT
        if not self.use_lexicon:
            return None, _INTERNAL
        match = x.match(i, k, j)
        if match is None or self.lexicon_as_features:
            return match, _INTERNAL
        return match, ((*match, _OP_LABELS[match]),)

    def _compile(self, packed) -> tuple:
        """What a decode reads of the weights alone: the packed table's
        bias, mask and half offset, the packed totals of the two number
        features, the explored tuples (`_explored`) of the root and of a
        node no rule matches, and by r those of a node that a rule with
        the match INTERNAL_OPS[r] pins: its op alone or, in feature mode,
        every op with its agreement total."""
        number = [packed.total([name]) for name in _NUMBER_FEATURES]
        root, internal = _explored(packed, _ROOT), _explored(packed, _INTERNAL)
        pinned = ()
        if self.lexicon_as_features:
            agree = tuple(packed.total([name]) for name in _AGREE)
            pinned = [_explored(packed, _INTERNAL, agree, match)
                      for match in INTERNAL_OPS]
        elif self.use_lexicon:
            pinned = [(op,) for op in internal]
        return (packed.bias, packed.mask, packed.half, number, root,
                internal, pinned)

    def decode(self, x, weights, gold=None, cost_unit: int = 1,
               columns=None):
        """Best tree; with a gold tree, each node absent from it scores
        +cost_unit. Syntactic conformance can exhaust the space; the chart
        then runs again without it. With `columns`, the sentence's
        `TokenTable.columns` compiled from the weights, the part windows
        are read from them and no part name is built. What depends on the
        weights alone is compiled once per packed table
        (`PackedTable.constant`)."""
        x = self.prepare(x)
        packed = packed_of(weights)
        triggers, locs, values = x.triggers, x.locs, x.values
        n = len(triggers)
        at, split = _part_totals(x, packed, columns)
        bias, mask, half, number, root, internal, pinned = packed.constant(
            (CkyDecoder, self.use_lexicon, self.lexicon_as_features),
            self._compile, packed)
        # without the lexicon no rule is read and every field has no bits
        rules = ()
        left = token = mid = right = [0] * (n + 1)
        if self.use_lexicon:
            rules = _RULES
            left, token, mid, right = x.fields
        gold_at = {} if gold is None else x.gold_labels(gold)
        cost = 0 if gold is None else cost_unit

        schedule, width = _schedule(n), n + 1
        for crossing in ((x.crossing, frozenset()) if self.conform_syntactic
                         else (frozenset(),)):
            # score[c] is the best score of the cell with index c (see
            # `_schedule`), back[c] its (split k, op, order). A leaf scores
            # 0, a cell with no tree has none
            score = [None] * (width * width)
            back = [None] * (width * width)
            for i in range(n):
                score[i * width + i + 1] = 0
            for i, j, cell, splits in schedule:
                if crossing and (i, j) in crossing:
                    continue
                a, d, at_d = locs[i], locs[j - 1], at[j - 1]
                # the node's boundary total: locs[i]'s, plus the number
                # feature of two quantity leaves
                base = bias + at[i]
                if (j - i == 2 and values[i] is not None
                        and values[j - 1] is not None):
                    base += number[values[i] < values[j - 1]]
                cell_rules, ops_else = ((rules, internal) if j - i < n
                                        else ((), root))
                outer = left[i] | right[j]
                lead = token[i]  # read by the first split alone
                glabel = gold_at.get((i, j))
                best = None
                for k, below_left, below_right in splits:
                    met = outer | lead | mid[k]
                    lead = 0
                    below = score[below_left]
                    if below is None:
                        continue
                    right_score = score[below_right]
                    if right_score is None:
                        continue
                    below += right_score - half + cost
                    for needed, r in cell_rules:
                        if needed & met == needed:
                            ops = pinned[r]
                            break
                    else:
                        ops = ops_else
                    # locs[i] <= locs[k - 1] <= locs[k] <= locs[j - 1]:
                    # split[k] holds the mid span and locs[k] unless it
                    # equals locs[k - 1]; each outer offset counts unless
                    # it equals its inner neighbor
                    total = base + split[k]
                    if locs[k - 1] != a:
                        total += at[k - 1]
                    if locs[k] != d:
                        total += at_d
                    for op, order, label, shift, bonus in ops:
                        node = below + (((total + bonus) >> shift) & mask)
                        # labels are the `_OP_LABELS` strings
                        if label is glabel:
                            node -= cost  # no margin cost on a gold node
                        if best is None or node > best:
                            best, choice = node, (k, op, order)
                if best is not None:
                    score[cell], back[cell] = best, choice
            if back[n] is not None:  # the root cell (0, n)
                break
        else:
            raise ValueError("no full-span tree")

        def build(i, j):
            if j - i == 1:
                return Leaf(triggers[i])
            k, op, order = back[i * width + j]
            return Node(op, order, build(i, k), build(k, j))

        return build(0, n)

    def parts(self, x, tree) -> tuple:
        """(each node's parts' names under its op label, and the
        lexicon-agreement features under it when the lexicon runs in
        feature mode rather than as a constraint; no untagged feature)."""
        x = self.prepare(x)
        leaves, nodes = tree_nodes(tree)
        if len(leaves) != len(x.triggers):
            raise ValueError("tree leaves do not match the trigger list")
        parts = [(x.part_names(part), _OP_LABELS[node.op, node.order])
                 for i, k, j, node in nodes
                 for part in _node_parts(x.locs, x.values, i, k, j)]
        if self.lexicon_as_features:
            for i, k, j, node in nodes:
                match = self.node_ops(x, i, k, j)[0]
                if match is not None:
                    pair = node.op, node.order
                    parts.append(([_AGREE[pair == match]], _OP_LABELS[pair]))
        return parts, {}

    def features(self, x, tree) -> FeatureVector:
        """Whole-tree features: the sum over all internal nodes."""
        return tagged(*self.parts(x, tree))

    def contains(self, x, tree) -> bool:
        """Whether the decoder's search space includes this exact tree."""
        x = self.prepare(x)
        if not isinstance(tree, Node):
            return False
        leaves, nodes = tree_nodes(tree)
        if leaves != list(x.triggers):
            return False
        return all((node.op, node.order, _OP_LABELS[node.op, node.order])
                   in self.node_ops(x, i, k, j)[1]
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
