"""In-memory span tracing of eqparse, installed from outside the package.

`Tracer.install()` wraps the package's public functions and methods. A
function imported by name into several modules (pipeline imports
`relevance_features` and `variable_features` that way, and the benchmark
imports `load_corpus` and `train_bundle`) is rebound in every loaded module
that holds it, so every call site records a span. Each span
keeps its name, start, end, parent span, sentence id and phase until the
process exits; `uninstall()` puts the original objects back.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

from eqparse.learning import ExhaustiveDecoder
from eqparse.pipeline import ModelBundle
from eqparse.treeparse import CkyDecoder

STAGE_TRAIN = ("relevance.train", "variables.train", "tree.train")


def _train_structured_name(args, kwargs, parent: str | None) -> str:
    # pipeline calls it for relevance and tree; train_superset once per
    # outer iteration of the variables stage
    if parent == "variables.train":
        return "learning.train_structured"
    decoder = args[1] if len(args) > 1 else kwargs["decoder"]
    if isinstance(decoder, CkyDecoder):
        return "tree.train"
    return "relevance.train"


# (module, attribute, span name or naming function)
FUNCTIONS = (
    ("eqparse.corpus", "load_corpus", "corpus.load"),
    ("eqparse.pipeline", "train_bundle", "pipeline.train"),
    ("eqparse.quantities", "sentence_quantities", "quantities.detect"),
    ("eqparse.relevance", "predict_relevance", "relevance"),
    ("eqparse.relevance", "relevance_features", "relevance.features"),
    ("eqparse.variables", "predict_variable_triggers", "variables"),
    ("eqparse.variables", "variable_features", "variables.features"),
    ("eqparse.treeparse", "tree_node_features", "tree.node_features"),
    ("eqparse.treeparse", "lexicon_match", "tree.lexicon"),
    ("eqparse.treeparse", "node_context_spans", "tree.context"),
    ("eqparse.learning", "train_structured", _train_structured_name),
    ("eqparse.learning", "train_superset", "variables.train"),
    ("eqparse.learning", "subtract", "learning.update"),
    ("eqparse.evaluation", "gold_tree_instance", "evaluation.gold_instance"),
)
# (class, attribute, span name); load is a classmethod
METHODS = (
    (ModelBundle, "parse", "pipeline.parse"),
    (ModelBundle, "save", "pipeline.save"),
    (ModelBundle, "load", "pipeline.load"),
    (CkyDecoder, "decode", "tree"),
    (CkyDecoder, "contains", "tree.contains"),
    (ExhaustiveDecoder, "decode", "learning.decode"),
)


class Tracer:
    """Spans in parallel arrays; `info` is 1 when a lexicon lookup matched."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.sentence_of = array("i")
        self.phase_of = array("i")
        self.info = array("b")
        self.phases: list[str] = []
        self.sentence = -1
        self._phase = -1
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def phase(self, name: str):
        """Tag spans opened inside the block with a phase name."""
        self.phases.append(name)
        saved, self._phase = self._phase, len(self.phases) - 1
        try:
            yield
        finally:
            self._phase = saved

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name):
        clock = time.perf_counter
        stack = self._stack
        fixed = None if callable(name) else self._name_id(name)
        matched = fn.__name__ == "lexicon_match"

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            self.name.append(fixed if fixed is not None else self._name_id(
                name(args, kwargs,
                     self.names[self.name[parent]] if parent >= 0 else None)))
            self.parent.append(parent)
            self.sentence_of.append(self.sentence)
            self.phase_of.append(self._phase)
            self.info.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if matched and result is not None:
                self.info[idx] = 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name)
            for module in modules:
                if getattr(module, "__dict__", {}).get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, traced)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                traced = classmethod(self._wrap(original.__func__, name))
            else:
                traced = self._wrap(original, name)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- queries -------------------------------------------------------------

    def spans(self, name: str, phase: str | None = None) -> list[int]:
        """Indices of spans with this name, optionally in one phase."""
        if name not in self._name_ids:
            return []
        nid = self._name_ids[name]
        phases = ({i for i, p in enumerate(self.phases) if p == phase}
                  if phase is not None else None)
        return [i for i in range(len(self.name)) if self.name[i] == nid
                and (phases is None or self.phase_of[i] in phases)]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def total(self, indices) -> float:
        return sum(self.end[i] - self.start[i] for i in indices)

    def children_time(self) -> list[float]:
        """Per span, the time its direct children cover."""
        covered = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return covered

    def ancestor_in(self, idx: int, names) -> str | None:
        """Name of the nearest ancestor whose name is in `names`."""
        p = self.parent[idx]
        while p >= 0:
            if self.names[self.name[p]] in names:
                return self.names[self.name[p]]
            p = self.parent[p]
        return None

    def descendants(self, name: str, of) -> list[int]:
        """Spans called `name` nested anywhere under the spans `of`."""
        if name not in self._name_ids:
            return []
        nid = self._name_ids[name]
        roots = set(of)
        out = []
        for i in range(len(self.name)):
            if self.name[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and p not in roots:
                p = self.parent[p]
            if p >= 0:
                out.append(i)
        return out
