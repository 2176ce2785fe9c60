"""Three-stage parsing pipeline: relevance, variables, equation tree.

A ModelBundle holds one trained linear model per stage plus the shared
configuration, and composes them into a full sentence -> equation parse.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, asdict
from pathlib import Path

from .core import (
    EquationTree,
    QuantityTrigger,
    Span,
    SymExpr,
    VariableTrigger,
    expr,
    format_tree,
    sort_triggers,
)
from .corpus import AnnotatedSentence, TokenTable
from .learning import (
    LinearModel,
    SupersetExample,
    TrainConfig,
    Weights,
    config_from_json,
    model_from_text,
    model_to_text,
    train_structured,
    train_superset,
)
from .quantities import sentence_quantities
from .relevance import (
    RelevanceAssignment,
    RelevanceDecoder,
    predict_relevance,
)
from .treeparse import LEXICON_SHA256, CkyDecoder
from .variables import (
    VariableDecoder,
    candidate_from_grounding,
    predict_variable_triggers,
)


@dataclass(frozen=True)
class PipelineConfig:
    window: int = 3
    epochs: int = 5
    learning_rate: float = 0.1
    seed: int = 0
    outer_iters: int = 10
    use_lexicon: bool = True
    lexicon_as_features: bool = False
    conform_syntactic: bool = False

    def __post_init__(self):
        for key, least in (("window", 0), ("epochs", 1), ("outer_iters", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"config key {key!r} must be at least "
                                 f"{least}, got {getattr(self, key)!r}")
        rate = self.learning_rate
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError("config key 'learning_rate' must be finite and "
                             f"above 0, got {rate!r}")
        if self.lexicon_as_features and not self.use_lexicon:
            raise ValueError("config key 'lexicon_as_features' needs "
                             "'use_lexicon': no rule is read without it")

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, learning_rate=self.learning_rate,
                           seed=self.seed, max_outer_iters=self.outer_iters)

    def tree_decoder(self) -> CkyDecoder:
        return CkyDecoder(window=self.window, use_lexicon=self.use_lexicon,
                          lexicon_as_features=self.lexicon_as_features,
                          conform_syntactic=self.conform_syntactic)


@dataclass(frozen=True)
class ParseResult:
    """Everything a full parse produced, intermediate stages included."""

    equation: str
    expr: SymExpr
    tree: EquationTree
    quantities: tuple[QuantityTrigger, ...]
    relevance: RelevanceAssignment
    variable_triggers: tuple[VariableTrigger, ...]

    def groundings(self) -> dict[str, Span]:
        """First mention span per variable label."""
        out: dict[str, Span] = {}
        for t in self.variable_triggers:
            out.setdefault(t.label, t.span)
        return out

    def to_json(self, sentence: AnnotatedSentence) -> dict:
        text = sentence.text
        return {
            "equation": self.equation,
            "groundings": {label: {"span": [span.start, span.end],
                                   "text": span.text(text)}
                           for label, span in self.groundings().items()},
            "debug": {
                "quantities": [{"value": str(q.value),
                                "span": [q.span.start, q.span.end],
                                "relevant": rel}
                               for q, rel in zip(self.quantities,
                                                 self.relevance)],
                "variables": [{"label": t.label,
                               "span": [t.span.start, t.span.end],
                               "text": t.span.text(text)}
                              for t in self.variable_triggers],
            },
        }


BUNDLE_HEADER = "eqparse-bundle v3"
# older formats, each with what it lacks; they are refused, not converted
_OLD_HEADERS = {"eqparse-bundle v1": "float weights",
                "eqparse-bundle v2": "no config digest"}
_SECTIONS = ("[relevance]", "[variables]", "[tree]")
# ends the bundle: one line per section, `marker<TAB>weights<TAB>sha256` of
# the section's lines, then `[config]<TAB>sha256` of the config line (line
# 2), then `[lexicon]<TAB>sha256` of the lexicon table the tree model was
# trained under
_FOOTER = "[digests]"
_CONFIG = "[config]"
_LEXICON = "[lexicon]"


# the templates of the word, tag and word pair names each model's weights
# score, in model order: relevance (a quantity's window, `qn`, and its own
# phrase, `qq`), variables, tree
_MODEL_TEMPLATES = (("qn", "qq"), ("vp", "vn"), ("tn", "tc"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ModelBundle:
    """The three stages' trained models and the shared config: a value.
    A model whose weights are a plain mapping is copied into one with
    `Weights` when the bundle is built."""

    relevance_model: LinearModel
    variable_model: LinearModel
    tree_model: LinearModel
    config: PipelineConfig

    def __post_init__(self):
        for name in ("relevance_model", "variable_model", "tree_model"):
            model = getattr(self, name)
            if not isinstance(model.weights, Weights):
                object.__setattr__(self, name, LinearModel(
                    Weights(model.weights), model.config))
        object.__setattr__(self, "_decoder", self.config.tree_decoder())
        object.__setattr__(self, "_table", None)  # see `_columns`

    def _columns(self, sentence: AnnotatedSentence):
        """The sentence's `TokenTable.columns` under the three models'
        window weights. The table is compiled once, on the first parse,
        not at load; the weights are read-only, so it never goes
        stale."""
        table = self._table
        if table is None:
            table = TokenTable(zip(
                (model.weights.packed for model in (
                    self.relevance_model, self.variable_model,
                    self.tree_model)),
                _MODEL_TEMPLATES))
            object.__setattr__(self, "_table", table)
        return table.columns(sentence)

    # prediction ---------------------------------------------------------
    # each reads the stages' token windows from the compiled token table

    def predict_relevance(self, sentence: AnnotatedSentence,
                          quantities) -> RelevanceAssignment:
        return predict_relevance(self.relevance_model, sentence, quantities,
                                 self.config.window, self._columns(sentence))

    def predict_variables(self, sentence: AnnotatedSentence):
        return predict_variable_triggers(self.variable_model, sentence,
                                         self.config.window,
                                         self._columns(sentence))

    def decode_tree(self, sentence: AnnotatedSentence, triggers) -> EquationTree:
        return self._decoder.decode((sentence, tuple(triggers)),
                                    self.tree_model.weights,
                                    columns=self._columns(sentence))

    def parse(self, sentence: AnnotatedSentence) -> ParseResult:
        """Full pipeline. Raises ValueError when the sentence yields fewer
        than two triggers or has no NP chunks to ground a variable in.
        The sentence's token columns are read once, for all three
        stages."""
        window, columns = self.config.window, self._columns(sentence)
        quantities = sentence_quantities(sentence)
        relevance = predict_relevance(self.relevance_model, sentence,
                                      quantities, window, columns)
        variables = predict_variable_triggers(self.variable_model, sentence,
                                              window, columns)
        kept = [q for q, bit in zip(quantities, relevance) if bit]
        triggers = tuple(sort_triggers(kept + list(variables)))
        tree = self._decoder.decode((sentence, triggers),
                                    self.tree_model.weights, columns=columns)
        return ParseResult(
            equation=format_tree(tree),
            expr=expr(tree),
            tree=tree,
            quantities=tuple(quantities),
            relevance=relevance,
            variable_triggers=tuple(variables),
        )

    # serialization ------------------------------------------------------

    def to_text(self) -> str:
        config = json.dumps(asdict(self.config), sort_keys=True)
        parts = [BUNDLE_HEADER, config]
        footer = [_FOOTER]
        for marker, model in zip(_SECTIONS, (self.relevance_model,
                                             self.variable_model,
                                             self.tree_model)):
            section = model_to_text(model)
            parts += [marker, section.rstrip("\n")]
            footer.append(f"{marker}\t{len(model.weights)}\t{_sha256(section)}")
        footer.append(f"{_CONFIG}\t{_sha256(config)}")
        footer.append(f"{_LEXICON}\t{LEXICON_SHA256}")
        return "\n".join(parts + footer) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ModelBundle":
        """Inverse of to_text; errors give the 1-based line number. The
        config and each section are parsed, then checked against their
        footer lines, so a truncated or altered bundle fails to load."""
        # lines end at "\n" only: `splitlines` would also end one at a
        # form feed or other separator that replaced a newline, and so read
        # that damaged bundle as the original
        lines = text.split("\n")
        if lines[-1] == "":  # after the final newline
            lines.pop()
        if lines and lines[0] in _OLD_HEADERS:
            raise ValueError(f"line 1: bundle format {lines[0].split()[-1]} "
                             f"({_OLD_HEADERS[lines[0]]}) is no longer read; "
                             "retrain the model with `eqparse train`")
        if not lines or lines[0] != BUNDLE_HEADER:
            raise ValueError("line 1: not a model bundle (bad header)")
        if len(lines) < 2:
            raise ValueError("line 2: bundle config missing")
        config = config_from_json(PipelineConfig, lines[1], "line 2")
        if _FOOTER not in lines:
            raise ValueError(f"line {len(lines) + 1}: bundle ends before its "
                             f"{_FOOTER} footer; the file is truncated")
        end = lines.index(_FOOTER)
        cuts = [i for i in range(end) if lines[i] in _SECTIONS]
        if [lines[i] for i in cuts] != list(_SECTIONS):
            raise ValueError("model bundle is missing a section")
        models, footer = [], []
        for a, b in zip(cuts, cuts[1:] + [end]):
            section = "\n".join(lines[a + 1:b]) + "\n"
            model = model_from_text(section, first_line=a + 2)
            models.append(model)
            footer.append((lines[a], str(len(model.weights)), _sha256(section)))
        footer.append((_CONFIG, _sha256(lines[1])))
        footer.append((_LEXICON, LEXICON_SHA256))
        for n, (want, got) in enumerate(
                itertools.zip_longest(footer, lines[end + 1:]), start=end + 2):
            if want is None:
                raise ValueError(f"line {n}: unexpected line after the footer")
            if got is None:
                raise ValueError(f"line {n}: footer ends early; the file is "
                                 "truncated")
            if got == "\t".join(want):
                continue
            if want[0] == _CONFIG:
                raise ValueError(f"line {n}: the config on line 2 does not "
                                 f"match its footer line: read sha256 "
                                 f"{want[1]}, footer line is {got!r}")
            if want[0] == _LEXICON:
                raise ValueError(f"line {n}: bundle was trained under another "
                                 "operator lexicon; retrain the model with "
                                 "`eqparse train`")
            raise ValueError(f"line {n}: the {want[0]} section does not match "
                             f"its footer line: read {want[1]} weights with "
                             f"sha256 {want[2]}, footer line is {got!r}")
        return cls(*models, config)

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ModelBundle":
        try:
            return cls.from_text(Path(path).read_text(encoding="utf-8"))
        except ValueError as e:  # UnicodeDecodeError included
            raise ValueError(f"{path}: {e}") from e


def _relevance_instances(examples, golds):
    """(input, gold relevance) of each example, from its `gold_relevance`."""
    return [((ex.sentence, quantities), relevance)
            for ex, (quantities, _, relevance) in zip(examples, golds)]


def _variable_instances(examples, decoder: VariableDecoder):
    """A superset example, on the input the decoder prepared, of each
    example with a grounding. A grounding outside the decoder's candidate
    space raises ValueError naming the example's source."""
    out = []
    for ex in examples:
        x = decoder.prepare(ex.sentence)
        where = f"{ex.source}: " if ex.source else ""
        candidates = []
        for grounding in ex.groundings:
            for trigger in grounding:
                if trigger.span not in x.index:
                    raise ValueError(
                        f"{where}grounding of {trigger.label} at "
                        f"[{trigger.span.start}, {trigger.span.end}] is not "
                        "an NP chunk of the sentence")
            try:
                candidate = candidate_from_grounding(grounding)
            except ValueError as e:
                raise ValueError(f"{where}grounding: {e}") from e
            if not decoder.contains(x, candidate):
                spans = [[np.start, np.end] for np in candidate.nps]
                raise ValueError(
                    f"{where}grounding in the NPs {spans} is outside the "
                    "candidate space: an NP grounds both variables only "
                    "when it mentions two")
            if candidate not in candidates:
                candidates.append(candidate)
        if candidates:
            out.append(SupersetExample(x, tuple(candidates)))
    return out


def _tree_instances(examples, golds, decoder: CkyDecoder):
    """(prepared input, gold tree) of each example whose gold tree the
    decoder reaches; golds are the examples' `gold_relevance`."""
    from .evaluation import gold_tree_instance  # off the parse path
    out = []
    for ex, gold in zip(examples, golds):
        instance = gold_tree_instance(ex, gold)
        if instance is not None:
            sentence, triggers, tree = instance
            x = decoder.prepare((sentence, triggers))
            if decoder.contains(x, tree):
                out.append((x, tree))
                continue
        print(f"skipping unreachable gold tree: {ex.sentence.text[:60]!r}",
              file=sys.stderr)
    return out


def train_bundle(examples, config: PipelineConfig = PipelineConfig()) -> ModelBundle:
    """Train all three stages on an annotated corpus.

    Examples whose gold tree is not reachable by the decoder (no projective
    arrangement, or pruned by the lexicon) are left out of the tree stage
    with a note on stderr; they still train the other stages. A grounding
    outside the variable candidate space, such as a span that is not an NP
    chunk of its sentence, raises ValueError naming the example's source.
    """
    if not examples:
        raise ValueError("empty training corpus")
    from .evaluation import gold_relevance  # off the parse path
    tcfg = config.train_config()
    window = config.window
    # each gold equation is parsed, and its relevance derived, once
    golds = [gold_relevance(ex) for ex in examples]

    rel_model = train_structured(
        _relevance_instances(examples, golds), RelevanceDecoder(window), tcfg)
    var_decoder = VariableDecoder(window)
    var_model = train_superset(
        _variable_instances(examples, var_decoder), var_decoder, tcfg)
    tree_decoder = config.tree_decoder()
    tree_model = train_structured(
        _tree_instances(examples, golds, tree_decoder), tree_decoder, tcfg)

    return ModelBundle(rel_model, var_model, tree_model, config)
