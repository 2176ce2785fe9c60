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
weight in that label's field. W is the bit length of the largest |weight|
plus 41 (or more, once weights shrink), so a sum of fewer than 2**40 names
has |field| < 2**(W-1), the half offset. Adding the half offset of every
slot (the bias) makes every field non-negative and below 2**W, so no field
borrows from the one above, and one label's sum is
`(((total + bias) >> s*W) & mask) - half`. Python integers are unbounded,
so this is exact for any weights, and the sum itself runs in C.
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


def tagged(parts) -> FeatureVector:
    """The feature vector of `(names, label)` parts: each name conjoined
    with its part's label as `name|label`, counted once per occurrence."""
    feats: FeatureVector = {}
    for names, label in parts:
        for name in names:
            name = f"{name}|{label}"
            feats[name] = feats.get(name, 0) + 1
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
    |weight| of a labeled name plus 41; `add` keeps it as long as every
    weight `fits`.
    """

    def __init__(self, weights: FeatureVector):
        super().__init__()
        labeled = []
        for name, value in weights.items():
            feature, bar, label = name.rpartition("|")
            if bar:
                labeled.append((feature, label, value))
        self.width = _HEADROOM + max(
            (abs(value).bit_length() for _, _, value in labeled), default=0)
        self.mask = (1 << self.width) - 1
        self.half = 1 << (self.width - 1)
        self.shifts: dict[str, int] = {}  # label -> s * width
        self.spare = 0  # the shift of the spare slot
        self.bias = self.half  # the half offset of every slot
        for feature, label, value in labeled:
            self.add(feature, label, value)

    def fits(self, value: int) -> bool:
        return abs(value).bit_length() + _HEADROOM <= self.width

    def add(self, feature: str, label: str, delta: int) -> None:
        """Add delta to the feature's weight under the label, giving the
        label the spare slot if it has none; the sum must fit."""
        shift = self.shifts.get(label)
        if shift is None:
            shift = self.shifts[sys.intern(label)] = self.spare
            self.spare += self.width
            self.bias += self.half << self.spare
        self[feature] = dict.get(self, feature, 0) + (delta << shift)

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

    def slots(self, labels) -> tuple:
        """(bias, mask, half, each label's shift, in their order): what a
        decoder reads a total's `score` under the labels with, inline,
        as `(((total + bias) >> shift) & mask) - half`. A decoder called
        directly looks them up once per decode, and a bundle's parse once
        per token table (`TokenTable.constant`): the table must not
        change while they are read."""
        return (self.bias, self.mask, self.half, *map(self.shift, labels))


def packed_of(weights: FeatureVector) -> PackedTable:
    """The packed table a decoder scores through: the one a `Weights`
    keeps, or a plain dict's built afresh."""
    packed = getattr(weights, "packed", None)
    return PackedTable(weights) if packed is None else packed


class Weights(dict):
    """Flat `name -> weight` dict that also keeps its `PackedTable`, so a
    decoder reads a feature's weight under every label with one lookup.

    The table is built on first use of `packed` and kept in step by item
    assignment, the only mutator allowed; every other one raises. A
    weight too wide for the table's slots lays the table out again.
    `changes` counts the assignments, so what is compiled from the
    weights (a bundle's `TokenTable`) can tell when it is stale.
    """

    _packed = None
    changes = 0

    @property
    def packed(self) -> PackedTable:
        if self._packed is None:
            self._packed = PackedTable(self)
        return self._packed

    def __setitem__(self, name: str, value: int) -> None:
        self.changes += 1
        old = dict.get(self, name, 0)
        super().__setitem__(name, value)
        packed = self._packed
        feature, bar, label = name.rpartition("|")
        if packed is None or not bar:
            return
        if packed.fits(value):
            packed.add(feature, label, value - old)
        else:
            self._packed = PackedTable(self)

    def __reduce__(self):  # a copy builds its own table, never shares it
        return Weights, (dict(self),)

    def _refuse(self, *args, **kwargs):
        raise TypeError("Weights change only by item assignment")

    __delitem__ = pop = popitem = clear = update = setdefault = __ior__ = _refuse


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


@dataclass
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
    counting `text` as starting at line `first_line`."""
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
    a gold output; `features(x, y)` is an output's feature vector;
    `contains(x, y)` says whether y is in the search space. The last three
    take x raw or prepared alike. Here `prepare` is the identity.
    """

    def __init__(self, candidates_fn, feature_fn, cost_fn=zero_one_cost):
        self.candidates_fn = candidates_fn
        self.features = feature_fn
        self.cost_fn = cost_fn

    def prepare(self, x):
        return x

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


def train_structured(examples, decoder, config: TrainConfig) -> LinearModel:
    """Averaged cost-augmented online margin training from zero weights.

    Each epoch visits examples in a seed-shuffled order; an update moves the
    weights toward the gold features and away from the cost-augmented argmax.
    With the learning rate num/den, weights are kept in units of 1/den: an
    update adds num * delta and the decode's cost unit is den. The result is
    the averaged weight vector times den * (number of steps), in integers.
    Each input is prepared once, and each gold output's features are
    computed on its first update.

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
    gold_features: list[FeatureVector | None] = [None] * len(examples)
    rate = Fraction(str(config.learning_rate))
    num, den = rate.numerator, rate.denominator
    weights = Weights()
    lagged: FeatureVector = {}  # sum of updates scaled by (step - 1), for averaging
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
                if gold_features[i] is None:
                    gold_features[i] = decoder.features(x, gold)
                delta = subtract(gold_features[i], decoder.features(x, guess))
                add_scaled(weights, delta, num)
                add_scaled(lagged, delta, num * (step - 1))
            step += 1
        if not mistakes:  # the later epochs would repeat this one
            step += (config.epochs - epoch - 1) * len(examples)
            break
    total = step - 1
    if total:
        averaged = {name: value * total - lagged.get(name, 0)
                    for name, value in weights.items()}
        weights = Weights({name: value for name, value in averaged.items()
                           if value != 0})
    return LinearModel(weights, config)


def train_superset(examples, decoder, config: TrainConfig) -> LinearModel:
    """Train when each example admits a set of valid outputs.

    Repeatedly pick the best-scoring valid output per example under the
    current weights (first listed wins ties, so the zero model picks the
    first), retrain from scratch on those picks, and stop once the picks
    repeat or max_outer_iters is reached. Each input is prepared, and each
    option's features computed, once.
    """
    for ex in examples:
        if not ex.gold_set:
            raise ValueError("superset example with empty gold set")
    xs = [decoder.prepare(ex.x) for ex in examples]
    options = [[(y, decoder.features(x, y)) for y in ex.gold_set]
               for x, ex in zip(xs, examples)]
    model = LinearModel({}, config)
    previous = None
    for _ in range(config.max_outer_iters):
        selected = []
        for scored in options:
            best, best_score = None, None
            for y, features in scored:
                score = model.score(features)
                if best_score is None or score > best_score:
                    best, best_score = y, score
            selected.append(best)
        if selected == previous:
            break
        model = train_structured(list(zip(xs, selected)), decoder, config)
        previous = selected
    return model
