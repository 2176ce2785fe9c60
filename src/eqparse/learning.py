"""Structured linear models over sparse string-keyed feature vectors.

Training runs epoch-based cost-augmented online margin updates with weight
averaging, for at most `epochs` epochs: it stops after the first epoch
without a mistake, and the averaging counts the steps it skipped, so the
weights are those of the full run. Superset supervision (a set of valid
outputs per example) alternates between selecting the current best valid
output and retraining on the selections until the selection reaches a
fixed point.

Every feature value, weight and score is an exact integer, so sums come out
the same in any order. The learning rate num/den scales each update by num
and the decode cost by den: the training weights are den times those of a
learner in exact fractions, and the averaged ones (`total * weights -
lagged`) den * total times its averages. Positive multiples change no argmax.

A decoder reads the weights through a `PackedTable`: one integer per
feature (a labeled name's part before its last `|`) holding its weight under
every label. Label s, in the order labels are first seen, owns bits
[s*W, (s+1)*W): a feature's integer is the sum of w << s*W over its
labels' weights w, so a sum of such integers holds each label's summed
weight in that label's field. W is at least the bit length of the largest
|weight| plus 41, so a sum of fewer than 2**40 names has
|field| < 2**(W-1), the half offset. Adding the half offset of every slot
(the bias) makes every field non-negative and below 2**W, so no field
borrows from the one above, and one label's sum is
`(((total + bias) >> s*W) & mask) - half`. Python integers are unbounded,
so this is exact for any weights, and the sum itself runs in C.

The learner works in that layout too. A decoder's `parts(x, y)` gives an
output's `(names, label)` parts and its untagged features apart, and an
update adds the gold parts and subtracts the guess's straight into the
packed running weights and lagged sum, which share one table's slots; it
widens them once a bound on their fields outgrows the slots. The
averaged weights are unpacked into flat `name|label` weights once, at
the end of training. The flat helpers (`tagged`, `subtract`,
`add_scaled`) serve the untagged features and the tests' reference
learner.

A trained or loaded model is a value: `LinearModel` is frozen and its
`Weights` are read-only, so the packed table a decoder reads, and what
the decoder compiles from it (`PackedTable.constant`), are built once.
Only the learner's running table changes in place.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from itertools import repeat

FeatureVector = dict[str, int]


def dot(weights: FeatureVector, features: FeatureVector) -> int:
    return sum(weights.get(name, 0) * value for name, value in features.items())


def add_scaled(acc: FeatureVector, features: FeatureVector, scale: int) -> None:
    for name, value in features.items():
        acc[name] = acc.get(name, 0) + scale * value


def tagged(parts, flat: FeatureVector | None = None) -> FeatureVector:
    """The feature vector of `(names, label)` parts: each name conjoined
    with its part's label as `name|label`, counted once per occurrence,
    plus the untagged features `flat`. A decoder's `features(x, y)` is
    `tagged(*parts(x, y))`."""
    feats: FeatureVector = {}
    for names, label in parts:
        for name in names:
            name = f"{name}|{label}"
            feats[name] = feats.get(name, 0) + 1
    if flat:
        add_scaled(feats, flat, 1)
    return feats


# the bits a slot has beyond its widest weight: a sum of fewer than 2**40
# names stays inside the slot's field
_HEADROOM = 41


class PackedTable(dict):
    """`feature -> packed integer`: the feature's weight under every label,
    one `width`-bit slot per label (see the module docstring). A feature
    with no labeled weight reads 0, and so does a label with no slot: it
    reads the spare slot above the others, which holds no weight.

    Built from flat weights, the width is the bit length of the largest
    |weight| of a labeled name plus 41, or `width` if that is wider.
    """

    def __init__(self, weights: FeatureVector, width: int = 0):
        super().__init__()
        labeled = []
        for name, value in weights.items():
            feature, bar, label = name.rpartition("|")
            if bar:
                labeled.append((feature, label, value))
        self.width = max(width, _HEADROOM + max(
            (abs(value).bit_length() for _, _, value in labeled), default=0))
        self.mask = (1 << self.width) - 1
        self.half = 1 << (self.width - 1)
        self.shifts: dict[str, int] = {}  # label -> s * width
        self.spare = 0  # the shift of the spare slot
        self.bias = self.half  # the half offset of every slot
        self.constants = {}  # see `constant`
        for feature, label, value in labeled:
            self[feature] = (dict.get(self, feature, 0)
                             + (value << self.slot(label)))

    def slot(self, label: str) -> int:
        """The label's shift, giving it the spare slot if it has none."""
        shift = self.shifts.get(label)
        if shift is None:
            shift = self.shifts[sys.intern(label)] = self.spare
            self.spare += self.width
            self.bias += self.half << self.spare
        return shift

    def fields(self, packed: int):
        """(label, value) of each non-zero field of one packed integer,
        each field's |value| below the half offset: a feature's entry, or
        a sum of a few entries whose fields stay that small. The labels'
        slots run from the lowest bits up, so each field is read, as a
        signed value, at the bottom of what is left, and the read stops
        once nothing is left."""
        mask, half, width = self.mask, self.half, self.width
        for label in self.shifts:
            if not packed:
                return
            value = packed & mask
            if value >= half:
                value -= mask + 1
            if value:
                yield label, value
            packed = (packed - value) >> width

    def shift(self, label: str) -> int:
        """Where the label's field starts in a total."""
        return self.shifts.get(label, self.spare)

    def total(self, names) -> int:
        """The packed sum of the names' weights; a name counts once per
        occurrence. Totals add up to the total of all their names."""
        return sum(map(self.get, names, repeat(0)))

    def score(self, total: int, label: str) -> int:
        """The summed weight under the label of a total's names."""
        return (((total + self.bias) >> self.shift(label)) & self.mask) \
            - self.half

    def constant(self, key, compile, *args):
        """`compile(*args)`, called on the first read of the key: what a
        decoder compiles from the weights alone, on the names path and
        the token columns path alike, kept with the table. A `Weights`'
        table never changes; the learner's update changes its running
        table in place, and empties them."""
        value = self.constants.get(key)
        if value is None:
            value = self.constants[key] = compile(*args)
        return value

    def slots(self, labels) -> tuple:
        """(bias, mask, half, each label's shift, in their order): what a
        decoder reads a total's `score` under the labels with, inline,
        as `(((total + bias) >> shift) & mask) - half`. A decoder looks
        them up once per table (`constant`)."""
        return (self.bias, self.mask, self.half, *map(self.shift, labels))


def packed_of(weights: FeatureVector) -> PackedTable:
    """The packed table a decoder scores through: the one a `Weights`
    keeps, or a plain dict's built afresh."""
    packed = getattr(weights, "packed", None)
    return PackedTable(weights) if packed is None else packed


class Weights(dict):
    """Flat `name -> weight` dict that also keeps its `PackedTable`, so a
    decoder reads a feature's weight under every label with one lookup:
    the weights a trained or loaded model holds. They are read-only, so
    the table, built on first use of `packed`, and what the decoders
    compile from it (`PackedTable.constant`) never go stale.
    """

    _packed = None

    @property
    def packed(self) -> PackedTable:
        if self._packed is None:
            self._packed = PackedTable(self)
        return self._packed

    def __reduce__(self):
        # a copy is built from the items, so it builds its own table; the
        # default would set the items one by one, which is refused
        return Weights, (dict(self),)

    def _refuse(self, *args, **kwargs):
        raise TypeError("Weights are read-only")

    __setitem__ = __delitem__ = pop = popitem = clear = update = \
        setdefault = __ior__ = _refuse


def subtract(a: FeatureVector, b: FeatureVector) -> FeatureVector:
    out = dict(a)
    add_scaled(out, b, -1)
    return {name: value for name, value in out.items() if value != 0}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    learning_rate: float = 0.1
    seed: int = 0
    max_outer_iters: int = 10


@dataclass(frozen=True)
class LinearModel:
    weights: FeatureVector = field(default_factory=dict)
    config: TrainConfig = field(default_factory=TrainConfig)

    def score(self, features: FeatureVector) -> int:
        return dot(self.weights, features)


MODEL_HEADER = "eqparse-model v2"


def model_to_text(model: LinearModel) -> str:
    """Versioned text form: config header, then feature<TAB>integer weight,
    sorted by feature name."""
    lines = [MODEL_HEADER, json.dumps(asdict(model.config), sort_keys=True)]
    for name in sorted(model.weights):
        # any line-boundary character breaks the one-feature-per-line format
        if "\t" in name or name.splitlines() != [name]:
            raise ValueError(f"feature name {name!r} not serializable")
        value = model.weights[name]
        if type(value) is not int:
            raise ValueError(f"weight of {name!r} is not an integer: {value!r}")
        lines.append(f"{name}\t{value}")
    return "\n".join(lines) + "\n"


def config_from_json(cls, raw: str, where: str):
    """A config dataclass from its JSON line, every key known and every
    value of its field's type; errors name `where`."""
    try:
        values = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as e:  # too deep
        raise ValueError(f"{where}: config is not JSON ({e})") from e
    if not isinstance(values, dict):
        raise ValueError(f"{where}: config is not a JSON object")
    types = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    for key, value in values.items():
        if key not in types:
            raise ValueError(f"{where}: unknown config key {key!r}")
        wanted = types[key]
        if not (type(value) is wanted
                or (wanted is float and type(value) is int)):
            raise ValueError(f"{where}: config key {key!r} must be "
                             f"{wanted.__name__}, got {value!r}")
    try:
        return cls(**values)
    except ValueError as e:  # the config's own checks
        raise ValueError(f"{where}: {e}") from e


def model_from_text(text: str, first_line: int = 1) -> LinearModel:
    """Inverse of model_to_text. Errors give the 1-based line number,
    counting `text` as starting at line `first_line`. A weight must be
    written as `model_to_text` writes it, and a feature listed once, so
    that a model that loads saves back to the same text."""
    lines = text.split("\n")
    if lines[0] != MODEL_HEADER:
        raise ValueError(f"line {first_line}: not a model file (bad header)")
    if len(lines) < 2:
        raise ValueError(f"line {first_line + 1}: model config missing")
    config = config_from_json(TrainConfig, lines[1],
                              f"line {first_line + 1}")
    weights = {}  # wrapped once at the end: a Python call per line is slow
    for lineno, line in enumerate(lines[2:], start=first_line + 2):
        if not line:
            continue
        try:
            name, raw = line.split("\t")
            value = int(raw)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed weight line "
                             f"{line!r}, expected feature<TAB>integer "
                             "weight") from None
        if raw != str(value):
            raise ValueError(f"line {lineno}: weight {raw!r} of {name!r} "
                             f"is not written as {value}")
        if name in weights:
            raise ValueError(f"line {lineno}: feature {name!r} listed twice")
        weights[name] = value
    return LinearModel(Weights(weights), config)


@dataclass(frozen=True)
class SupersetExample:
    """An input paired with the set of outputs considered correct."""

    x: object
    gold_set: tuple


def zero_one_cost(gold, other) -> int:
    return int(other != gold)


class ExhaustiveDecoder:
    """Argmax by scoring every candidate; ties keep the earliest candidate.

    The learner's decoder protocol, shared by RelevanceDecoder,
    VariableDecoder and CkyDecoder: `prepare(x)` returns the input with
    what does not depend on the weights built once, and returns a prepared
    input as is; `decode(x, weights, gold=None, cost_unit=1)` returns the
    best output, adding `cost_unit * cost_fn(gold, y)` to each score given
    a gold output, and reads labeled weights through `packed_of(weights)`
    and untagged ones with `weights.get`; `parts(x, y)` is an output's
    features as (its `(names, label)` parts, a flat dict of its untagged
    features), and `features(x, y)` the vector `tagged(*parts(x, y))`;
    `contains(x, y)` says whether y is in the search space. The last four
    take x raw or prepared alike. Here `prepare` is the identity, and every
    feature is untagged, with values of any number type.
    """

    def __init__(self, candidates_fn, feature_fn, cost_fn=zero_one_cost):
        self.candidates_fn = candidates_fn
        self.features = feature_fn
        self.cost_fn = cost_fn

    def prepare(self, x):
        return x

    def parts(self, x, y) -> tuple:
        return (), self.features(x, y)

    def decode(self, x, weights, gold=None, cost_unit: int = 1):
        best = None
        best_score = None
        for y in self.candidates_fn(x):
            score = dot(weights, self.features(x, y))
            if gold is not None:
                score += cost_unit * self.cost_fn(gold, y)
            if best_score is None or score > best_score:
                best, best_score = y, score
        if best is None:
            raise ValueError("empty candidate space")
        return best

    def contains(self, x, y) -> bool:
        return any(candidate == y for candidate in self.candidates_fn(x))


class _Running(dict):
    """The learner's running weights: untagged names in the dict itself,
    read with `get`, and labeled ones in `packed`."""

    def __init__(self, packed: PackedTable):
        super().__init__()
        self.packed = packed


def _widened(table: PackedTable, lagged: dict, width: int) -> tuple:
    """(a table `width` bits wide with the same labels in the same slot
    order and the same weights, `lagged` in its layout)."""
    wider = PackedTable({}, width)
    for label in table.shifts:
        wider.slot(label)

    def move(packed: int) -> int:
        return sum(value << wider.shifts[label]
                   for label, value in table.fields(packed))

    wider.update((feature, move(packed)) for feature, packed in table.items())
    return wider, {feature: move(packed) for feature, packed in lagged.items()}


def train_structured(examples, decoder, config: TrainConfig) -> LinearModel:
    """Averaged cost-augmented online margin training from zero weights.

    Each epoch visits examples in a seed-shuffled order; an update moves the
    weights toward the gold features and away from the cost-augmented argmax.
    With the learning rate num/den, weights are kept in units of 1/den: an
    update adds num * delta and the decode's cost unit is den. The result is
    the averaged weight vector times den * (number of steps), in integers.
    Each input is prepared once, and each gold output's parts are computed
    on its first update.

    The running weights and the lagged sum (each update scaled by
    step - 1) keep their labeled names packed, in one `PackedTable` layout,
    and their untagged names flat. An update nets the gold output's parts
    against the guess's, adds what is left into one packed delta, at each
    label's shift, and adds it times num to the weights and times
    num * (step - 1) to the lagged sum; no `name|label` string is built.
    Each field of the delta is at most the number of names in the netted
    parts, so the sum of those counts bounds every field of the weights
    and of the lagged sum. Once a bound outgrows the slots (the weights'
    41 bits of headroom, the lagged sum's half offset), both are laid out
    again: slots that `need` bits would fit become `2 * need - 41` bits
    wide, so the weights' bound may double its bits before the next
    layout. The averaged weights `total * weights - lagged` are unpacked
    into flat `Weights` once, at the end.

    `epochs` is an upper bound: training stops after the first epoch
    without a mistake. Decoding is deterministic, so such an epoch leaves
    the weights as they were, and every later epoch, in any order, would
    decode each example to its gold again. The averaging counts the steps
    of those epochs, so the result is the one the full run returns.
    """
    examples = [(decoder.prepare(x), gold) for x, gold in examples]
    for x, gold in examples:
        if not decoder.contains(x, gold):
            raise ValueError(f"gold output outside the candidate space: {gold!r}")
    gold_parts: list[tuple | None] = [None] * len(examples)
    rate = Fraction(str(config.learning_rate))
    num, den = rate.numerator, rate.denominator
    table = PackedTable({})
    weights = _Running(table)
    lagged: dict[str, int] = {}  # packed, in the table's layout
    lagged_flat: FeatureVector = {}
    bound = lag_bound = 0  # above every |field| of the weights, the lagged sum
    step = 1
    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        mistakes = 0
        for i in order:
            x, gold = examples[i]
            guess = decoder.decode(x, weights, gold=gold, cost_unit=den)
            if guess != gold:
                mistakes += 1
                if gold_parts[i] is None:
                    gold_parts[i] = decoder.parts(x, gold)
                gold_labeled, gold_flat = gold_parts[i]
                guess_labeled, guess_flat = decoder.parts(x, guess)
                # each distinct part's count, gold less guess: the parts
                # both outputs share cancel before any name is read
                net: dict[tuple, int] = {}
                for sign, parts in ((1, gold_labeled), (-1, guess_labeled)):
                    for names, label in parts:
                        key = tuple(names), label
                        net[key] = net.get(key, 0) + sign
                lag = num * (step - 1)
                size = sum(abs(count) * len(names)
                           for (names, _), count in net.items())
                bound += num * size
                lag_bound += lag * size
                need = max(bound.bit_length() + _HEADROOM,
                           lag_bound.bit_length() + 1)
                if need > table.width:
                    table, lagged = _widened(table, lagged,
                                             2 * need - _HEADROOM)
                    weights.packed = table
                delta: dict[str, int] = {}
                for (names, label), count in net.items():
                    if count:
                        unit = count << table.slot(label)
                        for name in names:
                            delta[name] = delta.get(name, 0) + unit
                for name, value in delta.items():
                    if value:
                        table[name] = table.get(name, 0) + num * value
                        lagged[name] = lagged.get(name, 0) + lag * value
                flat = subtract(gold_flat, guess_flat)
                add_scaled(weights, flat, num)
                add_scaled(lagged_flat, flat, lag)
                table.constants.clear()
            step += 1
        if not mistakes:  # the later epochs would repeat this one
            step += (config.epochs - epoch - 1) * len(examples)
            break
    total = step - 1
    averaged: FeatureVector = {}
    if total:
        need = (total * bound + lag_bound).bit_length() + 1
        if need > table.width:
            table, lagged = _widened(table, lagged, need)
        for feature, packed in table.items():
            for label, value in table.fields(
                    total * packed - lagged.get(feature, 0)):
                averaged[f"{feature}|{label}"] = value
        for name, value in weights.items():
            averaged[name] = (averaged.get(name, 0) + total * value
                              - lagged_flat.get(name, 0))
    return LinearModel(Weights({name: value for name, value in averaged.items()
                                if value != 0}), config)


def train_superset(examples, decoder, config: TrainConfig) -> LinearModel:
    """Train when each example admits a set of valid outputs.

    Repeatedly pick the best-scoring valid output per example under the
    current weights (first listed wins ties, so the zero model picks the
    first), retrain from scratch on those picks, and stop once the picks
    repeat or max_outer_iters is reached. Each input is prepared, and each
    option's parts computed, once; an option scores its labeled parts
    through the model's packed table and its untagged features flat,
    which is `model.score` of its features with no `name|label` built.
    """
    for ex in examples:
        if not ex.gold_set:
            raise ValueError("superset example with empty gold set")
    xs = [decoder.prepare(ex.x) for ex in examples]
    options = [[(y, decoder.parts(x, y)) for y in ex.gold_set]
               for x, ex in zip(xs, examples)]
    model = LinearModel({}, config)
    previous = None
    for _ in range(config.max_outer_iters):
        weights = model.weights
        packed = packed_of(weights)
        selected = []
        for scored in options:
            best, best_score = None, None
            for y, (labeled, flat) in scored:
                score = dot(weights, flat) + sum(
                    packed.score(packed.total(names), label)
                    for names, label in labeled)
                if best_score is None or score > best_score:
                    best, best_score = y, score
            selected.append(best)
        if selected == previous:
            break
        model = train_structured(list(zip(xs, selected)), decoder, config)
        previous = selected
    return model
