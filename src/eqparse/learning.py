"""Structured linear models over sparse string-keyed feature vectors.

Training runs epoch-based cost-augmented online margin updates with weight
averaging. Superset supervision (a set of valid outputs per example)
alternates between selecting the current best valid output and retraining on
the selections until the selection reaches a fixed point.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass, field, asdict

FeatureVector = dict[str, float]


def dot(weights: FeatureVector, features: FeatureVector) -> float:
    return sum(weights.get(name, 0.0) * value for name, value in features.items())


def add_scaled(acc: FeatureVector, features: FeatureVector, scale: float) -> None:
    for name, value in features.items():
        acc[name] = acc.get(name, 0.0) + scale * value


def subtract(a: FeatureVector, b: FeatureVector) -> FeatureVector:
    out = dict(a)
    add_scaled(out, b, -1.0)
    return {name: value for name, value in out.items() if value != 0.0}


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

    def score(self, features: FeatureVector) -> float:
        return dot(self.weights, features)


MODEL_HEADER = "eqparse-model v1"


def model_to_text(model: LinearModel) -> str:
    """Versioned text form: config header, then feature<TAB>weight sorted.

    Weights are written with repr so the round-trip is bit-exact.
    """
    lines = [MODEL_HEADER, json.dumps(asdict(model.config), sort_keys=True)]
    for name in sorted(model.weights):
        # any line-boundary character breaks the one-feature-per-line format
        if "\t" in name or name.splitlines() != [name]:
            raise ValueError(f"feature name {name!r} not serializable")
        lines.append(f"{name}\t{model.weights[name]!r}")
    return "\n".join(lines) + "\n"


def config_from_json(cls, raw: str, where: str):
    """A config dataclass from its JSON line, every key known and every
    value of its field's type; errors name `where`."""
    try:
        values = json.loads(raw)
    except json.JSONDecodeError as e:
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
    return cls(**values)


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
    weights = {}
    for lineno, line in enumerate(lines[2:], start=first_line + 2):
        if not line:
            continue
        try:
            name, raw = line.split("\t")
            value = float(raw)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed weight line "
                             f"{line!r}, expected feature<TAB>weight") from None
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: non-finite weight {raw!r} "
                             f"for feature {name!r}")
        weights[name] = value
    return LinearModel(weights, config)


@dataclass(frozen=True)
class SupersetExample:
    """An input paired with the set of outputs considered correct."""

    x: object
    gold_set: tuple


def zero_one_cost(gold, other) -> float:
    return float(other != gold)


class ExhaustiveDecoder:
    """Argmax by scoring every candidate; ties keep the earliest candidate.

    The learner's decoder protocol, shared by CkyDecoder and
    RelevanceDecoder: `decode(x, weights, gold=None)` returns the best
    output, adding `cost_fn(gold, y)` to each score given a gold output;
    `features(x, y)` is an output's feature vector; `contains(x, y)` says
    whether y is in the search space.
    """

    def __init__(self, candidates_fn, feature_fn, cost_fn=zero_one_cost):
        self.candidates_fn = candidates_fn
        self.features = feature_fn
        self.cost_fn = cost_fn

    def decode(self, x, weights, gold=None):
        best = None
        best_score = None
        for y in self.candidates_fn(x):
            score = dot(weights, self.features(x, y))
            if gold is not None:
                score += self.cost_fn(gold, y)
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
    """
    for x, gold in examples:
        if not decoder.contains(x, gold):
            raise ValueError(f"gold output outside the candidate space: {gold!r}")
    weights: FeatureVector = {}
    lagged: FeatureVector = {}  # sum of updates scaled by (step - 1), for averaging
    step = 1
    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for i in order:
            x, gold = examples[i]
            guess = decoder.decode(x, weights, gold=gold)
            if guess != gold:
                delta = subtract(decoder.features(x, gold),
                                 decoder.features(x, guess))
                add_scaled(weights, delta, config.learning_rate)
                add_scaled(lagged, delta, config.learning_rate * (step - 1))
            step += 1
    total = step - 1
    if total:
        averaged = {name: value - lagged.get(name, 0.0) / total
                    for name, value in weights.items()}
        weights = {name: value for name, value in averaged.items() if value != 0.0}
    return LinearModel(weights, config)


def train_superset(examples, decoder, config: TrainConfig) -> LinearModel:
    """Train when each example admits a set of valid outputs.

    Repeatedly pick the best-scoring valid output per example under the
    current weights (first listed wins ties, so the zero model picks the
    first), retrain from scratch on those picks, and stop once the picks
    repeat or max_outer_iters is reached.
    """
    for ex in examples:
        if not ex.gold_set:
            raise ValueError("superset example with empty gold set")
    model = LinearModel({}, config)
    previous = None
    for _ in range(config.max_outer_iters):
        selected = []
        for ex in examples:
            best, best_score = None, None
            for y in ex.gold_set:
                score = model.score(decoder.features(ex.x, y))
                if best_score is None or score > best_score:
                    best, best_score = y, score
            selected.append(best)
        if selected == previous:
            break
        model = train_structured(
            [(ex.x, y) for ex, y in zip(examples, selected)],
            decoder, config)
        previous = selected
    return model
