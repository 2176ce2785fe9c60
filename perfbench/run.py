#!/usr/bin/env python3
"""Train and parse one seeded workload through eqparse's public API.

    python3 perfbench/run.py --workload families --seed 1 --seconds 55

Run from the repository root. One process, one thread, one caller: a
closed loop that sends the next sentence when the last parse returns. The
run generates the workload from the seed, trains a default-config bundle on
the training split, saves and reloads it, parses the held-out split for the
measured time, checks the outputs and prints a report; its last line is one
JSON object with the metrics. With `--trace 0` those are the end-to-end
metrics; with `--trace 1` the per-layer metrics of a separate traced run.
README.md beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TRAIN_SHARE = 0.5      # of --seconds spent timing repeated training
MAX_TRAIN_REPEATS = 25
SETUPS_PER_ROUND = 2
SETUP_REPEATS = 30     # traced run
MIN_PASSES = 3
PROBE_REPEATS = 3


def _import_program():
    """Import eqparse from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "eqparse"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no eqparse sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import eqparse
    if Path(eqparse.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported eqparse from {eqparse.__file__}")


_import_program()

from eqparse.corpus import dump_corpus, load_corpus  # noqa: E402
from eqparse.core import parse_equation  # noqa: E402
from eqparse.evaluation import (  # noqa: E402
    Mode, equations_equal, gold_tree_instance)
from eqparse.pipeline import (  # noqa: E402
    ModelBundle, PipelineConfig, train_bundle)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import STAGE_TRAIN, Tracer  # noqa: E402


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _p95(values: list[float]) -> float:
    """Inclusive-method p95; 200+ samples keep 10 beyond it."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


class Workload:
    """One generated workload, written where the CLI would read it."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        train, held_out = workloads.generate(name, seed)
        self.gold = held_out
        self.train_path = work / "train.jsonl"
        self.held_out_path = work / "held_out.jsonl"
        self.bundle_path = work / "bundle.txt"
        dump_corpus(train, self.train_path)
        dump_corpus([workloads.without_quantities(ex) for ex in held_out],
                    self.held_out_path)

    def train(self) -> ModelBundle:
        return train_bundle(load_corpus(self.train_path), PipelineConfig())

    def setup(self):
        """What `eqparse parse`/`eval` pay before the first parse."""
        return (load_corpus(self.held_out_path),
                ModelBundle.load(self.bundle_path))


def parse_pass(bundle: ModelBundle, sentences, tracer=None):
    """Parse every sentence once; returns (results, failures, latencies).
    A parse that raises yields None in results."""
    results, failures, latencies = [], 0, []
    clock = time.perf_counter
    for i, sentence in enumerate(sentences):
        if tracer is not None:
            tracer.sentence = i
        t0 = clock()
        try:
            result = bundle.parse(sentence)
        except Exception as exc:  # a failed operation, counted and reported
            result = None
            failures += 1
            print(f"parse failed on sentence {i}: {exc!r}", file=sys.stderr)
        latencies.append(clock() - t0)
        results.append(result)
    return results, failures, latencies


def accuracy(gold, results) -> tuple[float, float]:
    eq = eqg = 0
    for ex, r in zip(gold, results):
        if r is None:
            continue
        expr = parse_equation(ex.equation)
        eq += equations_equal(r.expr, expr, Mode.EQUATION_ONLY)
        eqg += equations_equal(r.expr, expr, Mode.WITH_GROUNDING,
                               r.variable_triggers, ex.groundings)
    return eq / len(gold), eqg / len(gold)


def output_checks(w: Workload, bundle: ModelBundle, sentences, results):
    failures = checks.leaves_match_triggers(results)
    failures += checks.relevance_matches_brute_force(
        bundle, sentences, results, w.seed)
    failures += checks.cky_matches_enumeration(bundle, sentences, results,
                                               w.seed)
    failures += checks.round_trip(bundle, w.work / "round_trip.txt", sentences,
                                  results, w.seed)
    return failures


def golden_record(w: Workload, bundle: ModelBundle, results) -> dict:
    """Bundle and prediction digests; reported, never gated."""
    data = ROOT / "data"
    shipped = (load_corpus(data / "synthetic_corpus.jsonl")
               + load_corpus(data / "multiplier_pairs.jsonl"))
    predictions = "\n".join(json.dumps(checks.parse_key(r)) for r in results)
    return {"shipped_bundle_sha256": _sha256(
                train_bundle(shipped, PipelineConfig()).to_text()),
            "workload_bundle_sha256": _sha256(bundle.to_text()),
            "predictions_sha256": _sha256(predictions)}


def measure(w: Workload, seconds: float):
    """End-to-end metrics, tracing off.

    The run is a sequence of rounds: a few set-ups and one full parse pass,
    plus another training whenever training has had less than its share of
    the time so far. Every metric thus samples the whole run, so a slow
    spell of the machine hits all of them alike.
    """
    clock = time.perf_counter
    began = clock()
    train_times, setup_times, passes = [], [], []

    def timed_train():
        t0 = clock()
        trained = w.train()
        train_times.append(clock() - t0)
        return trained

    bundle = timed_train()
    bundle.save(w.bundle_path)
    results, failed = None, 0
    while True:
        elapsed = clock() - began
        if elapsed >= seconds and len(passes) >= MIN_PASSES:
            break
        if (len(train_times) < MAX_TRAIN_REPEATS
                and sum(train_times) < TRAIN_SHARE * elapsed
                and elapsed + train_times[-1] <= seconds):
            timed_train()
        for _ in range(SETUPS_PER_ROUND):
            t0 = clock()
            corpus, loaded = w.setup()
            setup_times.append(clock() - t0)
        sentences = [ex.sentence for ex in corpus]
        out, pass_failed, latencies = parse_pass(loaded, sentences)
        passes.append(latencies)
        results = results or out
        failed += pass_failed

    # each sentence's best pass: noise on a shared machine only adds time
    best = [min(column) for column in zip(*passes)]

    failures = output_checks(w, bundle, sentences, results)
    eq_acc, eqg_acc = accuracy(w.gold, results)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_s": (min(train_times), "s"),
        "parse_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "parse_ms_p95": (_p95(best) * 1e3, "ms"),
        "parse_per_s": (len(best) / sum(best), "1/s"),
        "equation_acc": (eq_acc, "ratio"),
        "equation_grounding_acc": (eqg_acc, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    report = {"workload": w.name, "seed": w.seed,
              "train_sentences": len(load_corpus(w.train_path)),
              "held_out_sentences": len(sentences),
              "train_repeats": len(train_times),
              "setup_repeats": len(setup_times),
              "parse_samples": len(best),
              "parse_passes": len(passes),
              "golden": golden_record(w, bundle, results)}
    return metrics, report, sum(map(len, passes)), failed, failures


def trace(w: Workload, seconds: float):
    """Per-layer metrics from a traced run, plus tracing overhead."""
    tracer = Tracer()
    clock = time.perf_counter
    with tracer.installed():
        with tracer.phase("train"):
            bundle = w.train()
        with tracer.phase("save"):
            bundle.save(w.bundle_path)
        with tracer.phase("setup"):
            for _ in range(SETUP_REPEATS):
                corpus, loaded = w.setup()
    sentences = [ex.sentence for ex in corpus]

    # alternate untraced and traced passes so drift hits both alike
    plain, traced = [], []
    attempted = failed = 0
    results = None
    deadline = clock() + (1 - TRAIN_SHARE) * seconds
    while clock() < deadline or len(traced) < 2:
        _, plain_failed, plain_latencies = parse_pass(loaded, sentences)
        with tracer.installed(), tracer.phase("parse"):
            out, traced_failed, traced_latencies = parse_pass(
                loaded, sentences, tracer=tracer)
        plain.append(plain_latencies)
        traced.append(traced_latencies)
        results = results or out
        attempted += 2 * len(sentences)
        failed += plain_failed + traced_failed

    by_k, by_n = workloads.probes(w.seed)
    metrics = layer_metrics(tracer, bundle, w)
    metrics["trace.overhead_frac"] = (
        sum(map(min, zip(*traced))) / sum(map(min, zip(*plain))) - 1, "ratio")
    metrics.update(probe_metrics(loaded, by_k, by_n))
    failures = output_checks(w, bundle, sentences, results)
    report = {"workload": w.name, "seed": w.seed,
              "traced_passes": len(traced), "spans": len(tracer.name)}
    return metrics, report, attempted, failed, failures


def layer_metrics(tr: Tracer, bundle: ModelBundle, w: Workload) -> dict:
    m = {}
    covered = tr.children_time()

    for name in ("corpus.load", "pipeline.load"):
        spans = tr.spans(name, "setup")
        m[name + "_ms"] = (tr.total(spans) / len(spans) * 1e3, "ms")
    m["pipeline.save_ms"] = (tr.total(tr.spans("pipeline.save", "save"))
                             * 1e3, "ms")
    m["pipeline.bundle_bytes"] = (w.bundle_path.stat().st_size, "bytes")
    for stage, model in (("relevance", bundle.relevance_model),
                         ("variables", bundle.variable_model),
                         ("tree", bundle.tree_model)):
        m[f"pipeline.weights.{stage}"] = (len(model.weights), "count")

    parses = tr.spans("pipeline.parse", "parse")
    parse_time = tr.total(parses)
    stage_spans = {s: tr.spans(s, "parse")
                   for s in ("quantities.detect", "relevance", "variables",
                             "tree")}
    m["pipeline.glue_ms"] = (sum(tr.duration(i) - covered[i] for i in parses)
                             / len(parses) * 1e3, "ms")
    for stage, spans in stage_spans.items():
        m[f"{stage.split('.')[0]}.share"] = (tr.total(spans) / parse_time,
                                             "ratio")
    detect = stage_spans["quantities.detect"]
    m["quantities.detect_us"] = (tr.total(detect) / len(detect) * 1e6, "us")

    rel = stage_spans["relevance"]
    m["relevance.ms"] = (tr.total(rel) / len(rel) * 1e3, "ms")
    m["relevance.features_calls"] = (
        len(tr.descendants("relevance.features", rel)) / len(rel), "count")
    var = stage_spans["variables"]
    m["variables.ms"] = (tr.total(var) / len(var) * 1e3, "ms")
    m["variables.candidates"] = (
        len(tr.descendants("variables.features", var)) / len(var), "count")

    tree = stage_spans["tree"]
    decodes = len(tree)
    lexicon = tr.descendants("tree.lexicon", tree)
    m["tree.ms"] = (tr.total(tree) / decodes * 1e3, "ms")
    node_features = tr.descendants("tree.node_features", tree)
    m["tree.node_features_calls"] = (len(node_features) / decodes, "count")
    m["tree.node_features_ms"] = (tr.total(node_features) / decodes * 1e3,
                                  "ms")
    m["tree.lexicon_calls"] = (len(lexicon) / decodes, "count")
    m["tree.lexicon_ms"] = ((tr.total(lexicon) + tr.total(
        tr.descendants("tree.context", tree))) / decodes * 1e3, "ms")
    m["tree.lexicon_pin_rate"] = (sum(tr.info[i] for i in lexicon)
                                  / max(1, len(lexicon)), "ratio")
    m["tree.chart_ms"] = (sum(tr.duration(i) - covered[i] for i in tree)
                          / decodes * 1e3, "ms")

    # training: one traced train_bundle
    for name in STAGE_TRAIN:
        m[name + "_s"] = (tr.total(tr.spans(name, "train")), "s")
    m["tree.contains_ms"] = (tr.total(tr.spans("tree.contains", "train"))
                             * 1e3, "ms")
    m["evaluation.gold_instance_ms"] = (
        tr.total(tr.spans("evaluation.gold_instance", "train")) * 1e3, "ms")
    outer = len(tr.spans("learning.train_structured", "train"))
    m["variables.outer_iters"] = (outer, "count")
    m["variables.converged"] = (int(outer < bundle.config.outer_iters),
                                "count")
    decodes_by = dict.fromkeys(STAGE_TRAIN, 0)
    updates_by = dict.fromkeys(STAGE_TRAIN, 0)
    for name, tally in (("learning.decode", decodes_by),
                        ("tree", decodes_by),
                        ("learning.update", updates_by)):
        for i in tr.spans(name, "train"):
            stage = tr.ancestor_in(i, STAGE_TRAIN)
            if stage is not None:
                tally[stage] += 1
    for name in STAGE_TRAIN:
        stage = name.split(".")[0]
        m[f"learning.decodes.{stage}"] = (decodes_by[name], "count")
        m[f"learning.updates.{stage}"] = (updates_by[name], "count")
        m[f"learning.update_rate.{stage}"] = (
            updates_by[name] / max(1, decodes_by[name]), "ratio")
    return m


def probe_metrics(bundle: ModelBundle, by_k, by_n) -> dict:
    """Stage latency by size on the seeded probe sentences, untraced: the
    median of a few calls per sentence, averaged over the sentences."""
    clock = time.perf_counter

    def timed(call):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = clock()
            call()
            times.append(clock() - t0)
        return statistics.median(times) * 1e3

    m = {}
    for k, examples in by_k.items():
        m[f"relevance.ms.k{k}"] = (statistics.fmean(timed(
            lambda s=ex.sentence: bundle.predict_relevance(s, s.quantities))
            for ex in examples), "ms")
    for n, examples in by_n.items():
        ms = []
        for ex in examples:
            sentence, triggers, _ = gold_tree_instance(ex)
            ms.append(timed(lambda: bundle.decode_tree(sentence, triggers)))
        m[f"tree.ms.n{n}"] = (statistics.fmean(ms), "ms")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        w = Workload(args.workload, args.seed, Path(tmp))
        run = trace if args.trace else measure
        metrics, report, attempted, failed, failures = run(w, args.seconds)

    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:>14.6g} {unit}")
    values = {name: {"value": value, "unit": unit}
              for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
