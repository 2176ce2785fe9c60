"""Deterministic random instance generators shared across test modules."""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from eqparse.core import (
    Apply,
    Const,
    Leaf,
    Node,
    Op,
    Order,
    QuantityTrigger,
    Span,
    Var,
    VariableTrigger,
    make_apply,
    sort_triggers,
)
from eqparse.corpus import AnnotatedSentence
from eqparse.learning import LinearModel, PackedTable, add_scaled, subtract
from eqparse.quantities import sentence_quantities
from eqparse.relevance import _BITS
from eqparse.treeparse import _OP_LABELS, DEFAULT_LEXICON, gold_node_set, tree_nodes
from eqparse.variables import _PAIR, _SELF, _SINGLE

# every label a decoder reads: the relevance bits, the variable pair labels
# and the tree op labels
LABELS = tuple(sorted({*_BITS, _SINGLE, _PAIR, _SELF, *_OP_LABELS.values()}))

# the `CkyDecoder` keyword arguments of each decoder mode, and their test ids
CKY_MODES = ({}, {"use_lexicon": False}, {"lexicon_as_features": True},
             {"conform_syntactic": True})
CKY_MODE_IDS = ["default", "no-lexicon", "lexicon-as-features",
                "conform-syntactic"]


class HashWeights(dict):
    """Dense pseudo-random weights keyed by feature name.

    Every feature gets a reproducible small integer weight in [-3, 3],
    derived from its name, a third of them zero; coarse integers make ties
    common, so argmax comparisons against brute-force oracles test the
    tie-breaking too. No feature collection pass is needed. Its `packed`
    table is as dense: every feature packs a weight under each of `LABELS`
    that agrees with `get`.
    """

    def __init__(self, salt: int = 0):
        super().__init__()
        self.salt = salt
        self.packed = _DensePacked(self)

    def get(self, key, default=0):
        r = zlib.crc32(f"{self.salt}:{key}".encode("utf-8")) % 9
        return 0 if r < 3 else (-3, -2, -1, 1, 2, 3)[r - 3]


class _DensePacked(PackedTable):
    """The packed table of a `HashWeights`, each feature packed on its
    first `get`."""

    def __init__(self, weights: HashWeights):
        # a slot for every label, as wide as the widest hashed weight
        super().__init__({f"|{label}": 3 for label in LABELS})
        self.clear()
        self.weights = weights

    def get(self, feature, default=None):
        packed = dict.get(self, feature)
        if packed is None:
            packed = self[feature] = sum(
                self.weights.get(f"{feature}|{label}") << self.shift(label)
                for label in LABELS)
        return packed


def label_rows(weights: dict) -> dict[str, dict[str, int]]:
    """The weights as label rows, `{feature: {label: weight}}`: a name's
    label is its last `|`-separated segment, and its feature all before
    it. A name without `|` has no label and is in no row. The reference
    for a `PackedTable`."""
    rows: dict[str, dict[str, int]] = {}
    for name, value in weights.items():
        feature, bar, label = name.rpartition("|")
        if bar:
            rows.setdefault(feature, {})[label] = value
    return rows


def label_scores(rows: dict[str, dict[str, int]], names) -> dict[str, int]:
    """`{label: the summed weight of names under it}`, read from their
    label rows, one lookup per name; a name counts once per occurrence."""
    scores: dict[str, int] = {}
    for row in map(rows.get, names):
        if row is not None:
            for label, weight in row.items():
                scores[label] = scores.get(label, 0) + weight
    return scores


def sparse_weights(rng: random.Random, names, rows: float = 0.7,
                   labels: float = 0.6) -> dict:
    """Integer weights in [-3, 3] over `names`, grouped by feature (the name
    before its last bar): a feature gets a row with probability `rows`, and
    each of its names a weight with probability `labels`, so most rows are
    partial; names without a bar are kept with probability `labels` too.
    Coarse values keep ties common."""
    by_feature: dict = {}
    for name in sorted(names):
        by_feature.setdefault(name.rpartition("|")[0], []).append(name)
    weights = {}
    for feature, group in by_feature.items():
        if feature and rng.random() >= rows:
            continue
        for name in group:
            if rng.random() < labels:
                weights[name] = rng.randint(-3, 3)
    return weights


def draw_weights(rng: random.Random, names) -> dict:
    """`sparse_weights` as in a trained bundle, where about 70% of the
    features have a row, or far sparser, so that a candidate's parts may
    have no weight under its label at all."""
    if rng.random() < 0.25:
        return sparse_weights(rng, names, rows=0.1, labels=0.3)
    return sparse_weights(rng, names)


def with_extra_chunks(rng: random.Random,
                      sentence: AnnotatedSentence) -> AnnotatedSentence:
    """The sentence with one or two more NP chunks of 1 to 3 tokens each,
    at random: chunks that a syntactically conforming decode must not cross."""
    n_tokens = len(sentence.tokens)
    chunks = []
    for _ in range(rng.randint(1, 2)):
        a = rng.randrange(n_tokens)
        b = rng.randrange(a, min(n_tokens, a + 3))
        chunks.append(Span(sentence.token_spans[a].start,
                           sentence.token_spans[b].end))
    return AnnotatedSentence(sentence.text, sentence.tokens, sentence.pos,
                             sentence.np_chunks + tuple(chunks))


def crosses_np_chunk(sentence, tree) -> bool:
    """Whether a node below the root spans part of an NP chunk and text
    outside it, on both sides of neither."""
    leaves, nodes = tree_nodes(tree)
    for i, _, j, _ in nodes:
        if (i, j) == (0, len(leaves)):
            continue
        lo = min(t.span.start for t in leaves[i:j])
        hi = max(t.span.end for t in leaves[i:j])
        for chunk in sentence.np_chunks:
            if (max(lo, chunk.start) < min(hi, chunk.end)
                    and not chunk.start <= lo <= hi <= chunk.end
                    and not lo <= chunk.start <= chunk.end <= hi):
                return True
    return False


def tree_cost(gold, other) -> int:
    """Number of the other tree's internal nodes absent from the gold tree:
    the whole-tree form of the CKY decoder's per-node training cost."""
    return len(gold_node_set(other) - gold_node_set(gold))


# word pool skews toward lexicon trigger terms so rule constraints fire often
FILLER = ("sum", "of", "less", "than", "more", "times", "the", "a", "is",
          "equals", "and", "total", "by", "ratio", "to", "product",
          "difference", "exceeds", "plus", "minus", "added", "as")
FILLER_POS = ("IN", "DT", "VBZ", "RB", "JJ", "CC", "TO")
NOUNS = ("number", "apples", "books", "coins", "length", "width", "price")
# every word of a lexicon term, and the quantity words that the lexicon's
# token atoms name: fillers and triggers under which most splits meet a rule
LEXICON_WORDS = tuple(sorted({word for rule in DEFAULT_LEXICON
                              for clause in rule.clauses
                              for _, term in clause for word in term.split()}))
# the same words, each also with a non-ASCII letter or digit joined to it,
# and words of other scripts
NON_ASCII_WORDS = (LEXICON_WORDS + tuple(f"{w}é" for w in LEXICON_WORDS)
                   + tuple(f"ñ{w}" for w in LEXICON_WORDS)
                   + ("ß", "日本", "иand", "plus٣"))
MULTIPLIERS = (("twice", 2), ("double", 2), ("thrice", 3), ("triple", 3),
               ("half", Fraction(1, 2)))


def reference_align_tokens(text: str, tokens) -> tuple[Span, ...]:
    """`corpus.align_tokens` as a per-token `find`/`strip`/`Span` loop: the
    reference for the int-offset alignment that `AnnotatedSentence` keeps,
    its spans and its error messages alike."""
    spans = []
    pos = 0
    for tok in tokens:
        idx = text.find(tok, pos)
        if idx < 0 or text[pos:idx].strip():
            raise ValueError(f"token {tok!r} does not align with text at {pos}")
        spans.append(Span(idx, idx + len(tok)))
        pos = idx + len(tok)
    if text[pos:].strip():
        raise ValueError(f"unaligned trailing text {text[pos:]!r}")
    return tuple(spans)


def scan_token_index_at(sentence: AnnotatedSentence, offset: int) -> int:
    """`AnnotatedSentence.token_index_at` by a linear scan: the token that
    contains offset, or else the first one after it (the last token when
    none is)."""
    for i, ts in enumerate(sentence.token_spans):
        if ts.start <= offset < ts.end or offset < ts.start:
            return i
    return len(sentence.tokens) - 1


def scan_token_range(sentence: AnnotatedSentence, span: Span) -> tuple[int, int]:
    """`AnnotatedSentence.token_range` by a linear scan over every token."""
    lo = len(sentence.tokens)
    hi = 0
    for i, ts in enumerate(sentence.token_spans):
        if ts.start < span.end and span.start < ts.end:
            lo = min(lo, i)
            hi = max(hi, i + 1)
    if lo >= hi:
        i = scan_token_index_at(sentence, span.start)
        return (i, i)
    return (lo, hi)


def random_token_sentence(rng: random.Random) -> AnnotatedSentence:
    """Up to 8 tokens, some empty, joined by zero to two spaces."""
    tokens = [rng.choice(("", "a", "to", "sum", "80", ".", "less"))
              for _ in range(rng.randint(0, 8))]
    text = ""
    for tok in tokens:
        text += " " * rng.randint(0, 2) + tok
    text += " " * rng.randint(0, 2)
    return AnnotatedSentence(text, tuple(tokens), ("X",) * len(tokens), ())


def random_tree_instance(rng: random.Random, n: int, filler=FILLER,
                         multipliers: bool = False):
    """(sentence, triggers) with n triggers at distinct token positions;
    with `multipliers`, half the quantities are words such as "twice"."""
    n_tokens = rng.randrange(n + 2, n + 8)
    slots = set(rng.sample(range(n_tokens), n))
    tokens, pos, plan = [], [], []
    have_v1 = False
    for idx in range(n_tokens):
        if idx in slots:
            if rng.random() < 0.55:
                if multipliers and rng.random() < 0.5:
                    word, value = rng.choice(MULTIPLIERS)
                else:
                    value = rng.randrange(1, 31)
                    word = str(value)
                tokens.append(word)
                pos.append("CD")
                plan.append(("q", Fraction(value)))
            else:
                tokens.append(rng.choice(NOUNS))
                pos.append("NN")
                label = rng.choice(("V1", "V2")) if have_v1 else "V1"
                have_v1 = True
                plan.append(("v", label))
        else:
            tokens.append(rng.choice(filler))
            pos.append(rng.choice(FILLER_POS))
            plan.append(None)
    text = " ".join(tokens)
    bare = AnnotatedSentence(text, tuple(tokens), tuple(pos), ())
    triggers = []
    chunks = []
    for idx, step in enumerate(plan):
        if step is None:
            continue
        span = bare.token_spans[idx]
        if step[0] == "q":
            triggers.append(QuantityTrigger(step[1], span))
        else:
            triggers.append(VariableTrigger(step[1], span))
            chunks.append(span)
    sentence = AnnotatedSentence(text, tuple(tokens), tuple(pos), tuple(chunks))
    return sentence, tuple(triggers)


def shared_location_instance(rng: random.Random, n: int, **kwargs):
    """(sentence, triggers) with n triggers, one of them a V1 whose NP chunk
    opens with a quantity's token ("12 apples"), so the quantity and the
    variable share a location; kwargs go to `random_tree_instance`."""
    while True:
        sentence, triggers = random_tree_instance(rng, n - 1, **kwargs)
        quantities = [t for t in triggers if isinstance(t, QuantityTrigger)]
        if quantities:
            break
    q = rng.choice(quantities)
    first = sentence.token_index_at(q.span.start)
    last = min(first + rng.randint(0, 2), len(sentence.tokens) - 1)
    chunk = Span(q.span.start, sentence.token_spans[last].end)
    triggers = sort_triggers(list(triggers) + [VariableTrigger("V1", chunk)])
    sentence = AnnotatedSentence(sentence.text, sentence.tokens, sentence.pos,
                                 sentence.np_chunks + (chunk,))
    return sentence, tuple(triggers)


def malformed_trigger_lists(sentence: AnnotatedSentence):
    """(trigger list, refusal message) pairs that `validate_trigger_list`
    refuses, from the sentence's quantities and a variable in each of its
    NP chunks: the sorted list reversed, its first trigger alone, and its
    variables all labelled V2, with no V1."""
    triggers = sort_triggers([*sentence_quantities(sentence),
                              *(VariableTrigger("V1", np)
                                for np in sentence.np_chunks)])
    no_v1 = [VariableTrigger("V2", t.span)
             if isinstance(t, VariableTrigger) else t for t in triggers]
    return [(tuple(triggers[::-1]), "trigger list out of order"),
            (tuple(triggers[:1]), "trigger list needs at least 2 triggers"),
            (tuple(no_v1), "V2 used without V1")]


def random_relevance_instance(rng: random.Random, k: int) -> AnnotatedSentence:
    """A sentence whose detected quantities are exactly its k digit tokens."""
    n_tokens = rng.randrange(k + 2, k + 9)
    slots = set(rng.sample(range(n_tokens), k))
    tokens, pos = [], []
    for idx in range(n_tokens):
        if idx in slots:
            tokens.append(str(rng.randrange(1, 100)))
            pos.append("CD")
        else:
            tokens.append(rng.choice(FILLER + NOUNS))
            pos.append(rng.choice(FILLER_POS + ("NN",)))
    return AnnotatedSentence(" ".join(tokens), tuple(tokens), tuple(pos), ())


def random_np_instance(rng: random.Random, m: int,
                       two: float = 0.3) -> AnnotatedSentence:
    """A sentence with m NP chunks, each a noun after a "two" with
    probability `two`."""
    tokens, pos, extents = [], [], []
    for _ in range(m):
        tokens.append(rng.choice(FILLER))
        pos.append(rng.choice(FILLER_POS))
        first = len(tokens)
        if rng.random() < two:
            tokens.append("two")
            pos.append("CD")
        tokens.append(rng.choice(NOUNS))
        pos.append("NN")
        extents.append((first, len(tokens) - 1))
    bare = AnnotatedSentence(" ".join(tokens), tuple(tokens), tuple(pos), ())
    spans = bare.token_spans
    chunks = tuple(Span(spans[a].start, spans[b].end) for a, b in extents)
    return AnnotatedSentence(bare.text, bare.tokens, bare.pos, chunks)


def random_arith(rng: random.Random, depth: int = 0):
    if depth >= 3 or rng.random() < 0.4:
        if rng.random() < 0.55:
            return Const(Fraction(rng.randrange(1, 13)))
        return Var(rng.choice(("V1", "V2")))
    op = rng.choice((Op.ADD, Op.SUB, Op.MUL, Op.DIV))
    return make_apply(op, random_arith(rng, depth + 1),
                      random_arith(rng, depth + 1))


def random_equation(rng: random.Random) -> Apply:
    return Apply(Op.EQ, (random_arith(rng, 1), random_arith(rng, 1)))


def nested_equation(depth: int) -> str:
    """`(= V1 (+ 1 (+ 1 ... 1)))` with `depth` operators, the root's `=`
    included, on its deepest path; its leaves are V1 and `depth` ones."""
    return "(= V1 " + "(+ 1 " * (depth - 2) + "(+ 1 1" + ")" * depth


def commute(e, rng: random.Random):
    """An expression denoting the same equation: random operand flips on
    commutative nodes (and the equality), written without re-sorting."""
    if not isinstance(e, Apply):
        return e
    a, b = (commute(arg, rng) for arg in e.args)
    if e.op in (Op.ADD, Op.MUL, Op.EQ) and rng.random() < 0.5:
        a, b = b, a
    return Apply(e.op, (a, b))


def search_gold_tree(gold, triggers):
    """`evaluation.align_gold_tree` by exhaustive search: every split k of
    every subexpression's interval, each operand arrangement in turn, with
    no memo and no size test. Exponential in the trigger count; an oracle
    for small lists."""

    def match(e, i, j):
        if isinstance(e, Const):
            t = triggers[i]
            if (j == i + 1 and isinstance(t, QuantityTrigger)
                    and t.value == e.value):
                return Leaf(t)
            return None
        if isinstance(e, Var):
            t = triggers[i]
            if (j == i + 1 and isinstance(t, VariableTrigger)
                    and t.label == e.label):
                return Leaf(t)
            return None
        a, b = e.args
        if e.op in (Op.SUB, Op.DIV):
            arrangements = [(a, b, Order.LR), (b, a, Order.RL)]
        elif a == b:
            arrangements = [(a, b, Order.LR)]
        else:
            arrangements = [(a, b, Order.LR), (b, a, Order.LR)]
        for k in range(i + 1, j):
            for first, second, order in arrangements:
                left = match(first, i, k)
                if left is None:
                    continue
                right = match(second, k, j)
                if right is not None:
                    return Node(e.op, order, left, right)
        return None

    return match(gold, 0, len(triggers))


def random_sized_arith(rng: random.Random, leaves: int, values=range(1, 5)):
    """An arithmetic expression with exactly `leaves` leaves: constants
    from `values` and V1/V2, so equal operands and repeated values occur."""
    if leaves == 1:
        if rng.random() < 0.6:
            return Const(Fraction(rng.choice(values)))
        return Var(rng.choice(("V1", "V2")))
    left = rng.randint(1, leaves - 1)
    op = rng.choice((Op.ADD, Op.SUB, Op.MUL, Op.DIV))
    return Apply(op, (random_sized_arith(rng, left, values),
                      random_sized_arith(rng, leaves - left, values)))


def leaf_triggers(leaves):
    """One trigger per `Const`/`Var` leaf, in the given order, at offsets
    0, 3, 6, ..."""
    return tuple(QuantityTrigger(leaf.value, Span(3 * i, 3 * i + 1))
                 if isinstance(leaf, Const)
                 else VariableTrigger(leaf.label, Span(3 * i, 3 * i + 1))
                 for i, leaf in enumerate(leaves))


def expr_leaves(e) -> list:
    """The `Const`/`Var` leaves of an expression, left to right."""
    if isinstance(e, Apply):
        return [leaf for arg in e.args for leaf in expr_leaves(arg)]
    return [e]


def run_epochs(examples, decoder, config, scale, cost_unit):
    """The averaged online learner over every one of `config.epochs`
    epochs, in `train_structured`'s seed-shuffled order: a decode adds
    `cost_unit` per unit of cost, and an update adds `scale` times the
    feature difference to the weights and `scale * (step - 1)` times it to
    the lagged sum. Returns (weights, lagged, steps, mistakes per epoch)."""
    weights, lagged, step, mistakes = {}, {}, 1, []
    order = list(range(len(examples)))
    shuffler = random.Random(config.seed)
    for _ in range(config.epochs):
        shuffler.shuffle(order)
        mistakes.append(0)
        for i in order:
            x, gold = examples[i]
            guess = decoder.decode(x, weights, gold=gold, cost_unit=cost_unit)
            if guess != gold:
                mistakes[-1] += 1
                delta = subtract(decoder.features(x, gold),
                                 decoder.features(x, guess))
                add_scaled(weights, delta, scale)
                add_scaled(lagged, delta, scale * (step - 1))
            step += 1
    return weights, lagged, step - 1, mistakes


def full_epoch_learner(examples, decoder, config) -> LinearModel:
    """`train_structured` without its stop, in integers: every epoch runs,
    with the learning rate num/den read as an update scale num and a cost
    unit den, and the averaged weights are `steps * weights - lagged`."""
    rate = Fraction(str(config.learning_rate))
    examples = [(decoder.prepare(x), gold) for x, gold in examples]
    weights, lagged, total, _ = run_epochs(
        examples, decoder, config, rate.numerator, rate.denominator)
    averaged = {name: value * total - lagged.get(name, 0)
                for name, value in weights.items()}
    return LinearModel({name: value for name, value in averaged.items()
                        if value}, config)


class CountingDecoder:
    """A decoder that counts its `decode` calls and passes every call on."""

    def __init__(self, decoder):
        self.decoder = decoder
        self.decodes = 0

    def __getattr__(self, name):
        return getattr(self.decoder, name)

    def decode(self, *args, **kwargs):
        self.decodes += 1
        return self.decoder.decode(*args, **kwargs)
