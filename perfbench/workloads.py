"""Seeded workload generators for the benchmark.

Each workload is a pair of splits (train, held-out) drawn from one seed.
Sizes are stratified: every split holds the same number of sentences per
family or quantity count k on every seed, so run-to-run differences come
from nouns, numbers and cue words, not from how much work a split asks for.
Every example passes `check` before it is returned. The size probes add
nested sentences with a fixed trigger count n.

Needs `eqparse` importable and the repository's `scripts/` directory, whose
sentence builder and family templates the `families` workload reuses.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import replace
from pathlib import Path

from eqparse.corpus import AnnotatedExample
from eqparse.evaluation import gold_tree_instance
from eqparse.quantities import detect_quantities
from eqparse.treeparse import CkyDecoder

_ROOT = Path(__file__).resolve().parent.parent


def _load_templates():
    path = _ROOT / "scripts" / "make_synthetic_corpus.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_corpus",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


T = _load_templates()

PLURALS = ("numbers", "integers", "apples", "books", "coins", "weights",
           "scores", "lengths", "marbles", "stamps", "cards", "pens",
           "tickets", "shells", "beads", "plates", "mugs", "hats")
SINGULARS = ("length", "width", "father", "son", "price", "cost", "tank",
             "bucket", "salary", "bonus", "chair", "stool", "oak", "pine",
             "truck", "car", "jar", "cup", "rope", "wire", "base", "height",
             "rate", "speed", "factor", "gain", "spread", "weight", "volume",
             "income", "expense", "distance", "delay", "area", "margin")
NAMES = ("Ann", "Bob", "Cy", "Dee", "Eve", "Finn", "Gus", "Hal", "Ivy",
         "Jo", "Kim", "Lou")
MULTIPLIERS = ("twice", "thrice", "double", "triple", "half")
_MULT_VALUE = {"twice": "2", "double": "2", "thrice": "3", "triple": "3",
               "half": "1/2"}


class InvalidExample(ValueError):
    """A generated example fails the self-check."""


def check(examples, decoder: CkyDecoder | None = None) -> None:
    """Raise InvalidExample unless every example is trainable as generated.

    Detection must reproduce the quantity annotation (held-out copies drop
    it), the gold equation must align to a projective tree over the gold
    triggers, the default lexicon-constrained decoder must reach that tree
    (so training skips nothing), and every grounding must be an NP chunk.
    """
    decoder = decoder or CkyDecoder()
    for ex in examples:
        s = ex.sentence
        if detect_quantities(s) != s.quantities:
            raise InvalidExample(f"detection disagrees: {s.text!r}")
        instance = gold_tree_instance(ex)
        if instance is None:
            raise InvalidExample(f"unalignable gold: {s.text!r}")
        sentence, triggers, tree = instance
        if not decoder.contains((sentence, triggers), tree):
            raise InvalidExample(f"gold pruned by lexicon: {s.text!r}")
        for grounding in ex.groundings:
            for t in grounding:
                if t.span not in s.np_chunks:
                    raise InvalidExample(f"grounding not an NP: {s.text!r}")


def _checked(make, rng: random.Random, decoder: CkyDecoder, *args):
    """Draw until the example passes `check`; the draw sequence is seeded."""
    for _ in range(200):
        ex = make(rng, *args)
        try:
            check([ex], decoder)
        except InvalidExample:
            continue
        return ex
    raise InvalidExample(f"{make.__name__}{args}: no valid draw in 200 tries")


class _Builder:
    """Tokens, NP chunks and groundings of one sentence, in text order."""

    def __init__(self):
        self.tagged: list[tuple[str, str]] = []
        self.nps: list[tuple[int, int]] = []
        self.grounding: list[tuple[str, int]] = []

    def add(self, *pairs: str) -> None:
        """Words given as alternating token, POS strings."""
        for tok, pos in zip(pairs[::2], pairs[1::2]):
            self.tagged.append((tok, pos))

    def np(self, *pairs: str, label: str | None = None) -> None:
        start = len(self.tagged)
        self.add(*pairs)
        if label is not None:
            self.grounding.append((label, len(self.nps)))
        self.nps.append((start, len(self.tagged)))

    def example(self, equation: str) -> AnnotatedExample:
        tok, pos = self.tagged[0]
        self.tagged[0] = (tok[:1].upper() + tok[1:], pos)
        sentence = T.build_sentence(self.tagged, self.nps)
        return T.example(sentence, equation, self.grounding)


# --- families: the shipped templates with random nouns and numbers -----------


def _multiplier_pair(r: random.Random) -> AnnotatedExample:
    first, second = r.sample(MULTIPLIERS, 2)
    return T.multiplier_pair(first.capitalize(), second, r.randint(5, 40))


FAMILIES = (
    lambda r: T.sum_of_two(r.choice(PLURALS), r.randint(10, 99)),
    lambda r: T.difference_of_two(r.choice(PLURALS), r.randint(10, 99)),
    lambda r: T.times(*r.sample(SINGULARS, 2), r.randint(3, 12)),
    lambda r: T.more_than(*r.sample(SINGULARS, 2), r.randint(4, 40)),
    _multiplier_pair,
    lambda r: T.product_of(*r.sample(SINGULARS, 2), r.randint(10, 99)),
    lambda r: T.ratio_of(*r.sample(SINGULARS, 2), r.randint(4, 12)),
    lambda r: T.priced_items(r.randint(8, 30), *r.sample(range(2, 10), 2),
                             *r.sample(PLURALS, 2)),
)


# --- nested: several operators over one or two unknowns ----------------------

# Nested sentences feed the tree-size probes (`probes`). They are not a
# workload: their 4-10 s trainings leave too few repeats per run to be
# steady on a noisy machine; see README.md.

# Prefix phrases ("the sum of A and B") bracket their second operand; an
# infix phrase ("A more than B") only heads a side of the equation, with a
# single trigger on its left, so the text determines the tree. Cue templates
# match a lexicon rule; paraphrases do not, so CKY explores all six
# (op, order) pairs at those nodes.
_PREFIX = {"sum": "(+ {a} {b})", "difference": "(- {a} {b})",
           "product": "(* {a} {b})", "total": "(+ {a} {b})"}
_INFIX = {"more": (("more", "JJR", "than", "IN"), "(+ {a} {b})"),
          "less": (("less", "JJR", "than", "IN"), "(- {b} {a})"),
          "plus": (("plus", "CC"), "(+ {a} {b})"),
          "times": (("times", "NNS"), "(* {a} {b})"),
          "combined": (("combined", "VBN", "with", "IN"), "(+ {a} {b})"),
          "mult": ((), "(* {a} {b})")}
_PARAPHRASES = ("total", "combined")


def _pick(rng: random.Random, table) -> str:
    """A cue template, or with probability 0.3 the table's paraphrase."""
    if rng.random() < 0.3:
        return next(name for name in _PARAPHRASES if name in table)
    return rng.choice([name for name in table
                       if name not in _PARAPHRASES and name != "mult"])


def _shape(rng: random.Random, leaves: int, kinds=("prefix", "infix", "mult")):
    """Random expression over `leaves` triggers: ("leaf",), ("m",) for a
    multiplier word, or (template, left trigger, right operand). Only the
    top of each side may be infix."""
    if leaves == 1:
        return ("leaf",)
    kind = rng.choice(kinds)
    if kind == "mult":
        return ("mult", ("m",), _shape(rng, leaves - 1, ("prefix",)))
    rest = _shape(rng, leaves - 1, ("prefix", "mult"))
    table = _INFIX if kind == "infix" else _PREFIX
    return (_pick(rng, table), ("leaf",), rest)


def _operands(shape) -> int:
    """Leaves that are numbers or unknowns, multiplier words excluded."""
    if len(shape) == 1:
        return int(shape[0] == "leaf")
    return _operands(shape[1]) + _operands(shape[2])


class _Leaves:
    """Operand leaves in text order: which are unknowns, and their values."""

    def __init__(self, rng: random.Random, total: int, lone_last: bool):
        # a side that is one bare unknown would let the gold alignment swap
        # it with a coreferent mention on the other side
        slots = range(total - 1) if lone_last else range(total)
        nvar = 1 if total < 3 else rng.choice((1, 2))
        self.var_at = set(rng.sample(slots, nvar))
        self.second = rng.choice(("same", "itself", "another"))
        self.values = iter(rng.sample(range(4, 60), total))
        self.index = 0
        self.mentions = 0

    def emit(self, b: _Builder) -> str:
        i, self.index = self.index, self.index + 1
        value = next(self.values)
        if i not in self.var_at:
            b.add(str(value), "CD")
            return str(value)
        self.mentions += 1
        if self.mentions == 1:
            b.np("a", "DT", "number", "NN", label="V1")
            return "V1"
        if self.second == "same":
            b.np("the", "DT", "same", "JJ", "number", "NN", label="V1")
        elif self.second == "itself":
            b.np("itself", "PRP", label="V1")
        else:
            b.np("another", "DT", "number", "NN", label="V2")
            return "V2"
        return "V1"


def _render(shape, b: _Builder, leaves: _Leaves, rng: random.Random) -> str:
    kind = shape[0]
    if kind == "leaf":
        return leaves.emit(b)
    if kind == "m":
        word = rng.choice(MULTIPLIERS)
        b.add(word, "PDT" if word == "half" else "RB")
        return _MULT_VALUE[word]
    if kind in _PREFIX:
        b.np("the", "DT", kind, "NN")
        b.add("of", "IN")
        a = _render(shape[1], b, leaves, rng)
        b.add("and", "CC")
        c = _render(shape[2], b, leaves, rng)
        return _PREFIX[kind].format(a=a, b=c)
    words, equation = _INFIX[kind]
    a = _render(shape[1], b, leaves, rng)
    b.add(*words)
    return equation.format(a=a, b=_render(shape[2], b, leaves, rng))


def nested_example(rng: random.Random, n: int) -> AnnotatedExample:
    """'<expression> is <expression>.' with exactly n triggers."""
    rhs_total = rng.choice((1, 1, 2, 3)) if n >= 5 else 1
    lhs = _shape(rng, n - rhs_total)
    rhs = _shape(rng, rhs_total, ("prefix", "mult"))
    leaves = _Leaves(rng, _operands(lhs) + _operands(rhs), rhs_total == 1)
    b = _Builder()
    left = _render(lhs, b, leaves, rng)
    b.add(rng.choice(("is", "equals")), "VBZ")
    right = _render(rhs, b, leaves, rng)
    b.add(".", ".")
    return b.example(f"(= {left} {right})")


# --- distractors: a short equation among irrelevant quantities ---------------


def _core(rng: random.Random, b: _Builder, kind: str, values) -> str:
    """The equation clause; returns the gold equation."""
    x, y = rng.sample(SINGULARS, 2)
    a, c = values
    if kind == "sum":
        b.np("the", "DT", "sum", "NN")
        b.add("of", "IN")
        b.np("two", "CD", rng.choice(PLURALS), "NNS", label="V1")
        b.grounding.append(("V2", b.grounding[-1][1]))
        b.add("is", "VBZ", str(a), "CD")
        return f"(= (+ V1 V2) {a})"
    if kind == "product":
        b.np("the", "DT", "product", "NN")
        b.add("of", "IN")
        b.np("the", "DT", x, "NN", label="V1")
        b.add("and", "CC")
        b.np("the", "DT", y, "NN", label="V2")
        b.add("is", "VBZ", str(a), "CD")
        return f"(= (* V1 V2) {a})"
    b.np("the", "DT", x, "NN", label="V1")
    b.add("is", "VBZ", str(a), "CD")
    if kind == "times":
        b.add("times", "NNS")
        shape = "(* {a} V2)"
    elif kind == "more":
        b.add("more", "JJR", "than", "IN")
        shape = "(+ {a} V2)"
    else:  # two operators: a more/less than c times the y
        b.add(*(("more", "JJR") if kind == "more_times" else ("less", "JJR")),
              "than", "IN", str(c), "CD", "times", "NNS")
        shape = ("(+ {a} (* {c} V2))" if kind == "more_times"
                 else "(- (* {c} V2) {a})")
    b.np("the", "DT", y, "NN", label="V2")
    return "(= V1 " + shape.format(a=a, c=c) + ")"


# core clause -> quantities it mentions ("the sum of two ..." mentions 2)
_CORES = {"times": 1, "more": 1, "product": 1, "sum": 2, "more_times": 2,
          "less_times": 2}


def distractor_example(rng: random.Random, k: int) -> AnnotatedExample:
    """An equation clause with 1-2 operators among k detected quantities;
    each distractor is '<name> has <d> <things>' with its own NP."""
    kind = rng.choice([c for c, q in _CORES.items() if q <= k])
    values = rng.sample(range(4, 100), k + 2)
    distractors = k - _CORES[kind]
    names = rng.sample(NAMES, distractors)
    b = _Builder()

    def clauses():
        for i, name in enumerate(names):
            if i:
                b.add(*(("and", "CC") if i == len(names) - 1 else (",", ",")))
            b.add(name, "NNP", "has", "VBZ")
            b.np(str(values[2 + i]), "CD", rng.choice(PLURALS), "NNS")

    if distractors and rng.random() < 0.5:
        clauses()
        b.add(",", ",", "so", "RB")
        equation = _core(rng, b, kind, values[:2])
    else:
        equation = _core(rng, b, kind, values[:2])
        if distractors:
            b.add(",", ",", "while", "IN")
            clauses()
    b.add(".", ".")
    return b.example(equation)


# --- workloads ---------------------------------------------------------------

DISTRACTOR_K = (4, 5, 6, 7)

# workload -> (train, held-out) draws per stratum; 200+ held-out sentences
# keep 10 per-sentence latencies beyond p95
SIZES = {"families": (8, 25), "distractors": (12, 50)}
WORKLOADS = tuple(SIZES)


def _split(name: str, rng: random.Random, per_stratum: int,
           decoder: CkyDecoder) -> list[AnnotatedExample]:
    if name == "families":
        return [_checked(make, rng, decoder)
                for _ in range(per_stratum) for make in FAMILIES]
    return [_checked(distractor_example, rng, decoder, k)
            for _ in range(per_stratum) for k in DISTRACTOR_K]


def generate(name: str, seed: int):
    """(train, held-out) example lists for one workload and seed."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    decoder = CkyDecoder()
    train, held_out = SIZES[name]
    return (_split(name, rng, train, decoder),
            _split(name, rng, held_out, decoder))


def without_quantities(ex: AnnotatedExample) -> AnnotatedExample:
    """The example as `--text` input sees it: quantities left to detection."""
    return replace(ex, sentence=replace(ex.sentence, quantities=()))


PROBE_K = (2, 3, 4, 5, 6, 7)
PROBE_N = (3, 4, 5, 6, 7)


def probes(seed: int, per_size: int = 3):
    """Scaling probes: {k: distractor examples with k quantities} and
    {n: nested examples with n triggers}, the same for every workload."""
    rng = random.Random(f"probes:{seed}")
    decoder = CkyDecoder()
    by_k = {k: [_checked(distractor_example, rng, decoder, k)
                for _ in range(per_size)] for k in PROBE_K}
    by_n = {n: [_checked(nested_example, rng, decoder, n)
                for _ in range(per_size)] for n in PROBE_N}
    return by_k, by_n
