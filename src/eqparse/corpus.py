"""Annotated sentences and the JSON-lines corpus format.

Each corpus line is one JSON object with: text, tokens and pos (arrays of
strings, one tag per token), np_chunks (character spans), quantities
(value + span), equation (prefix string), and groundings (list of valid
variable trigger lists, each a list of {label, np_span} entries).
"""

from __future__ import annotations

import bisect
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add

from .core import QuantityTrigger, Span, SymExpr, VariableTrigger, parse_equation


@dataclass(frozen=True)
class AnnotatedSentence:
    """Sentence text with token, POS, NP-chunk, and quantity annotations.

    Token offsets are aligned once, at construction, into two int tuples,
    `token_starts` and `token_ends`; `token_spans` builds a `Span` per
    token only when it is read."""

    text: str
    tokens: tuple[str, ...]
    pos: tuple[str, ...]
    np_chunks: tuple[Span, ...]
    quantities: tuple[QuantityTrigger, ...] = ()
    # token start and end offsets, both ascending (tokens are ordered and
    # disjoint): the bisect keys of the lookups below; tuples of ints,
    # which the garbage collector stops tracking. Derived from text and
    # tokens, so equality and hashing leave them out
    token_starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    token_ends: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.tokens) != len(self.pos):
            raise ValueError("tokens and pos must align")
        starts, ends = _token_offsets(self.text, self.tokens)
        object.__setattr__(self, "token_starts", starts)
        object.__setattr__(self, "token_ends", ends)
        for span in self.np_chunks:
            if span.end > len(self.text):
                raise ValueError(f"np chunk {span} beyond text")
            if span.start == span.end:
                raise ValueError(f"np chunk {span} is empty")
            # tokens are ordered and disjoint: only the last one starting
            # before the chunk ends can overlap it
            last = bisect.bisect_left(starts, span.end) - 1
            if last < 0 or ends[last] <= span.start:
                raise ValueError(f"np chunk {span} covers no token")
        for q in self.quantities:
            if q.span.end > len(self.text):
                raise ValueError(f"quantity span {q.span} beyond text")
            if q.span.start == q.span.end:
                raise ValueError(f"quantity span {q.span} is empty")

    @property
    def token_spans(self) -> tuple[Span, ...]:
        """The character span of each token, built on each read."""
        return tuple(map(Span, self.token_starts, self.token_ends))

    def token_index_at(self, offset: int) -> int:
        """Index of the token containing offset, or the next token after it."""
        i = bisect.bisect_right(self.token_starts, offset) - 1
        if i >= 0 and offset < self.token_ends[i]:
            return i
        return min(i + 1, len(self.tokens) - 1)

    def token_range(self, span: Span) -> tuple[int, int]:
        """Half-open token index range overlapping a character span."""
        return self.offset_range(span.start, span.end)

    def offset_range(self, start: int, end: int) -> tuple[int, int]:
        """`token_range` of the span [start, end)."""
        # tokens are ordered and disjoint, so starts and ends both ascend:
        # those starting before end are a prefix, those ending after
        # start a suffix, and of the tokens starting at or before start
        # only the last can end after it
        starts = self.token_starts
        lo = bisect.bisect_right(starts, start)
        if lo and self.token_ends[lo - 1] > start:
            lo -= 1
        hi = bisect.bisect_left(starts, end)
        if lo >= hi:
            i = self.token_index_at(start)
            return (i, i)
        return (lo, hi)

    def window(self, lo: int, hi: int, size: int) -> tuple[int, int]:
        """Token range [lo, hi) widened by `size` tokens each side, clamped."""
        return (max(0, lo - size), min(len(self.tokens), hi + size))

    def token_names(self, prefix: str, lo: int, hi: int,
                    bigrams: bool = True) -> list[str]:
        """The lowercased word (`{prefix}_u=`), POS tag (`{prefix}_p=`) and,
        with `bigrams`, word pair (`{prefix}_b=`) feature names of tokens
        [lo, hi), one per occurrence, in that order. One loop lowers each
        token once and names its word and the pair it ends: a window is a
        few tokens, and each comprehension would cost a call frame (before
        Python 3.12)."""
        names, pairs = [], []
        last = None
        for token in self.tokens[lo:hi]:
            word = token.lower()
            names.append(f"{prefix}_u={word}")
            if bigrams and last is not None:
                pairs.append(f"{prefix}_b={last} {word}")
            last = word
        for tag in self.pos[lo:hi]:
            names.append(f"{prefix}_p={tag}")
        names += pairs
        return names


_KINDS = ("u", "p", "b")  # the word, tag and word pair names' kinds
# the bits a field has beyond its table's widest weight: a window of fewer
# than 2**40 names stays inside it, as a `PackedTable` slot does
_HEADROOM = 42


class TokenColumns:
    """A sentence's `TokenTable` rows as two prefix-sum columns: `units[i]`
    totals the rows of the words and tags of tokens [0, i), and `pairs[i]`
    those of the word pairs ending before token i. A window's total is
    then a slice sum, the difference of two column entries, and its
    template's field of that sum is the packed total of its names."""

    __slots__ = ("units", "pairs", "table")

    def __init__(self, units, pairs, table):
        self.units, self.pairs, self.table = units, pairs, table

    def total(self, template: str, lo: int, hi: int,
              bigrams: bool = True) -> int:
        """`packed.total(sentence.token_names(template, lo, hi, bigrams))`,
        for the packed table the template's weights were compiled from."""
        if hi <= lo:
            return 0
        units = self.units
        total = units[hi] - units[lo]
        if bigrams:
            pairs = self.pairs
            total += pairs[hi] - pairs[lo + 1]
        table = self.table
        shift, mask, half = table.fields[template]
        return (((total + table.bias) >> shift) & mask) - half


class TokenTable:
    """Every token-window name's packed weight, compiled by token. The
    stages name token windows with `token_names` under a template each:
    relevance under `qn`, variables `vp` and `vn`, the tree `tn` and `tc`;
    relevance names a quantity's own phrase under `qq` too. `words`,
    `tags` and `pairs` map a lowercased word, a POS tag and a word pair
    `(last, word)` to its row: one integer holding, in each template's
    field, the packed weight of the name `token_names` gives it under the
    template (`{template}_u=`, `_p=` or `_b=` followed by the key, a pair
    as `"{last} {word}"`), 0 where that name has none. A pair name is
    keyed under each split of its key at a space, so that a word holding
    a space finds it too. Rows add up field by field, as a `PackedTable`'s
    slots do: `fields[template]` is the field's (shift, mask, half
    offset) and `bias` adds every field's half offset, so a sum's field
    is `(((rows + bias) >> shift) & mask) - half`. A field holds a sum of
    fewer than 2**40 names.

    `columns` looks each of a sentence's tokens up once, and every stage's
    window totals are slice sums of the two columns it builds; no window
    name is built. The weights are copied in: a table compiled from
    weights that change afterwards is stale, and must be compiled again,
    and with it what the decoders compiled from the same weights into
    `constants` (see `constant`)."""

    __slots__ = ("words", "tags", "pairs", "fields", "bias", "constants")

    def __init__(self, sources):
        """`sources`: pairs of a packed table (`feature -> packed weight`,
        as a `PackedTable` holds them) and the templates whose names it
        scores. A table read for two templates is iterated once."""
        sources = list(sources)
        self.fields = {}
        self.constants = {}
        shift = self.bias = 0
        for table, templates in sources:
            width = _HEADROOM + max((abs(value).bit_length()
                                     for value in table.values()), default=0)
            for template in templates:
                half = 1 << (width - 1)
                self.fields[template] = (shift, (1 << width) - 1, half)
                self.bias += half << shift
                shift += width
        rows = {kind: {} for kind in _KINDS}
        for table, templates in sources:
            slots = {template: self.fields[template][0]
                     for template in templates}
            for feature, value in table.items():
                head, named, key = feature.partition("=")
                template, _, kind = head.rpartition("_")
                shift = slots.get(template)
                if shift is None or not named or kind not in rows:
                    continue
                by_key = rows[kind]
                value <<= shift
                if kind != "b":
                    by_key[key] = by_key.get(key, 0) + value
                    continue
                space = key.find(" ")
                while space >= 0:  # under each (last, word) split
                    pair = key[:space], key[space + 1:]
                    by_key[pair] = by_key.get(pair, 0) + value
                    space = key.find(" ", space + 1)
        self.words, self.tags, self.pairs = (rows[kind] for kind in _KINDS)

    def rows(self, words: list[str]) -> int:
        """The summed rows of lowercased words and of each pair of
        neighbors among them, for a run of words that are not a
        sentence's tokens: a template's field of it is the packed total
        of their word and pair names under the template."""
        pairs = self.pairs
        return (sum(map(self.words.get, words, repeat(0)))
                + sum(map(pairs.get, zip(words, words[1:]), repeat(0))))

    def constant(self, key, compile, *args):
        """`compile(*args)`, called on the first read of the key: what a
        decoder compiles from the weights this table was compiled from,
        kept for as long as the table is."""
        value = self.constants.get(key)
        if value is None:
            value = self.constants[key] = compile(*args)
        return value

    def columns(self, sentence: AnnotatedSentence) -> TokenColumns:
        """The sentence's `TokenColumns`: each token is lowercased once,
        and its word, its tag and the pair it ends are looked up once,
        the pair by its `(last, word)` tuple: no key string is built."""
        words = list(map(str.lower, sentence.tokens))
        units = [0, *accumulate(map(add,
                                    map(self.words.get, words, repeat(0)),
                                    map(self.tags.get, sentence.pos,
                                        repeat(0))))]
        pairs = [0, 0, *accumulate(map(self.pairs.get, zip(words, words[1:]),
                                       repeat(0)))]
        return TokenColumns(units, pairs, self)


def _token_offsets(text: str, tokens: tuple[str, ...]
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The start and the end offset of each token in text, as two int
    tuples; tokens must partition text modulo spaces."""
    starts = []
    ends = []
    pos = 0
    for tok in tokens:
        idx = text.find(tok, pos)
        if idx < 0 or text[pos:idx].strip():
            raise ValueError(f"token {tok!r} does not align with text at {pos}")
        starts.append(idx)
        pos = idx + len(tok)
        ends.append(pos)
    if text[pos:].strip():
        raise ValueError(f"unaligned trailing text {text[pos:]!r}")
    return tuple(starts), tuple(ends)


def align_tokens(text: str, tokens: tuple[str, ...]) -> tuple[Span, ...]:
    """Map tokens to character spans; tokens must partition text modulo
    spaces. `AnnotatedSentence` keeps the offsets as int tuples instead
    (`_token_offsets`) and builds these spans only on access."""
    return tuple(map(Span, *_token_offsets(text, tokens)))


@dataclass(frozen=True)
class AnnotatedExample:
    """A training/eval example: annotated sentence, gold equation, groundings."""

    sentence: AnnotatedSentence
    equation: str
    groundings: tuple[tuple[VariableTrigger, ...], ...]
    # "path:line" of the corpus line it was read from, for error messages
    source: str | None = field(default=None, compare=False)

    def gold_expr(self) -> SymExpr:
        """The parsed gold equation; a syntax error names the corpus line.
        Parsed on use, not at load, which stays a pass over the JSON."""
        try:
            return parse_equation(self.equation)
        except ValueError as e:
            if self.source is None:
                raise
            raise ValueError(f"{self.source}: malformed equation: {e}") from e


def parse_value(raw) -> Fraction:
    """Exact rational from a JSON number or string like '1/2' or '2.5'."""
    if isinstance(raw, bool):
        raise ValueError(f"bad quantity value {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float) or isinstance(raw, str):
        try:
            return Fraction(str(raw))
        except ZeroDivisionError:
            raise ValueError(f"bad quantity value {raw!r}: zero "
                             "denominator") from None
    raise ValueError(f"bad quantity value {raw!r}")


def unparse_value(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


def span_from_json(raw) -> Span:
    """A span from its JSON form, `[start, end]` in integer offsets: a
    float offset would load and then fail as a slice index."""
    try:
        start, end = raw
    except (TypeError, ValueError):
        start = end = None
    if type(start) is not int or type(end) is not int:
        raise ValueError(f"span must be [start, end] integers, got {raw!r}")
    return Span(start, end)


# a tab, or a character `str.splitlines` ends a line at: tokens and tags
# become feature names, which a bundle writes one per line
_BREAKS = re.compile(r"[\t\n\x0b\x0c\r\x1c-\x1e\x85\u2028\u2029]")


def _strings(obj: dict, key: str) -> tuple[str, ...]:
    """`obj[key]`, which must be a JSON array of strings without a tab or
    a line break, as a tuple: a string would read as its characters, a
    null tag would name a feature, and a line break in one would make a
    feature name that no bundle can hold."""
    value = obj[key]
    if type(value) is list:
        try:
            # in C, on every corpus line: raises at the first non-string
            joined = "".join(value)
        except TypeError:
            pass
        else:
            if _BREAKS.search(joined):
                bad = next(s for s in value if _BREAKS.search(s))
                raise ValueError(
                    f"{key} entry {bad!r} holds a tab or a line break")
            return tuple(value)
    raise ValueError(f"{key} must be an array of strings, got {value!r}")


def sentence_from_json(obj: dict) -> AnnotatedSentence:
    text = obj["text"]
    if not isinstance(text, str):
        raise ValueError(f"text must be a string, got {text!r}")
    tokens, pos = _strings(obj, "tokens"), _strings(obj, "pos")
    quantities = tuple(
        QuantityTrigger(parse_value(q["value"]), span_from_json(q["span"]))
        for q in obj.get("quantities", ())
    )
    return AnnotatedSentence(
        text=text,
        tokens=tokens,
        pos=pos,
        np_chunks=tuple(map(span_from_json, obj.get("np_chunks", ()))),
        quantities=quantities,
    )


def sentence_to_json(sentence: AnnotatedSentence) -> dict:
    return {
        "text": sentence.text,
        "tokens": list(sentence.tokens),
        "pos": list(sentence.pos),
        "np_chunks": [[s.start, s.end] for s in sentence.np_chunks],
        "quantities": [
            {"value": unparse_value(q.value), "span": [q.span.start, q.span.end]}
            for q in sentence.quantities
        ],
    }


def example_from_json(obj: dict, source: str | None = None) -> AnnotatedExample:
    groundings = tuple(
        tuple(VariableTrigger(g["label"], span_from_json(g["np_span"]))
              for g in grounding)
        for grounding in obj.get("groundings", ())
    )
    equation = obj["equation"]
    # type only: parsing every equation here would slow every corpus load
    if not isinstance(equation, str):
        raise ValueError(f"equation must be a string, got {equation!r}")
    return AnnotatedExample(
        sentence=sentence_from_json(obj),
        equation=equation,
        groundings=groundings,
        source=source,
    )


def example_to_json(example: AnnotatedExample) -> dict:
    obj = sentence_to_json(example.sentence)
    obj["equation"] = example.equation
    obj["groundings"] = [
        [{"label": t.label, "np_span": [t.span.start, t.span.end]} for t in grounding]
        for grounding in example.groundings
    ]
    return obj


def load_corpus(path) -> list[AnnotatedExample]:
    """Read a JSON-lines corpus; errors carry the 1-based line number.
    Each line is decoded on its own, so a byte that is not UTF-8 fails with
    its line; the lines split as a text-mode reader splits them."""
    examples = []
    name = str(path)
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line = line.decode("utf-8")
            if not line.strip():
                continue
            examples.append(example_from_json(json.loads(line),
                                              f"{name}:{lineno}"))
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            # RecursionError: JSON nested deeper than the decoder reads
            raise ValueError(f"{path}:{lineno}: malformed corpus line: {exc}") from exc
    return examples


def dump_corpus(examples, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for example in examples:
            fh.write(json.dumps(example_to_json(example), sort_keys=True) + "\n")
