"""Command line behavior: exit codes, JSON output, determinism."""

import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from eqparse import cli
from eqparse.core import MAX_EQUATION_DEPTH
from eqparse.corpus import example_to_json, load_corpus
from eqparse.pipeline import ModelBundle, PipelineConfig

from helpers import nested_equation

# JSON nested deeper than the decoder's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_broken_entry(obj, sentence, field, sep):
    """The sentence's JSON object `obj` with `sep` put into the token, or
    the POS tag, of its first word of three letters or more, and that
    entry. A token's middle character is replaced, in the text too, so the
    tokens still align and no offset moves."""
    t = next(i for i, tok in enumerate(sentence.tokens)
             if len(tok) >= 3 and tok.isalpha())
    if field == "tokens":
        tok, start = sentence.tokens[t], sentence.token_starts[t]
        entry = tok[0] + sep + tok[2:]
        obj["text"] = (obj["text"][:start] + entry
                       + obj["text"][start + len(tok):])
    else:
        entry = sentence.pos[t][:1] + sep + sentence.pos[t][1:]
    obj[field][t] = entry
    return obj, entry


class TestTrain:
    def test_writes_bundle_and_summary(self, train_corpus_path, tmp_path,
                                       capsys):
        model = tmp_path / "m.txt"
        code, out, err = run_cli(
            ["train", "--corpus", str(train_corpus_path),
             "--model", str(model)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary == {"examples": 45, "model": str(model)}
        text = model.read_text()
        for marker in ("[relevance]", "[variables]", "[tree]"):
            assert f"\n{marker}\n" in text

    def test_retrain_byte_identical(self, train_corpus_path, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for model in (a, b):
            code, _, _ = run_cli(
                ["train", "--corpus", str(train_corpus_path),
                 "--model", str(model)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags, key", [
        (["--learning-rate", "-0.1"], "learning_rate"),
        (["--learning-rate", "0"], "learning_rate"),
        (["--learning-rate", "1e-400"], "learning_rate"),
        (["--learning-rate", "inf"], "learning_rate"),
        (["--learning-rate", "nan"], "learning_rate"),
        (["--epochs", "-1"], "epochs"),
        (["--epochs", "0"], "epochs"),
        (["--window", "-2"], "window"),
        (["--outer-iters", "0"], "outer_iters"),
    ])
    def test_invalid_setting_rejected(self, train_corpus_path, tmp_path,
                                      capsys, flags, key):
        model = tmp_path / "m.txt"
        code, out, err = run_cli(
            ["train", "--corpus", str(train_corpus_path),
             "--model", str(model)] + flags, capsys)
        assert code == 2
        assert f"error: config key '{key}' must be" in err
        assert not model.exists()
        assert out == ""

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_lexicon_as_features_without_lexicon_refused(
            self, command, train_corpus_path, tmp_path, capsys):
        # the pair would train the no-lexicon model under another sha
        model = tmp_path / "m.txt"
        argv = {"train": ["train", "--model", str(model)],
                "cv": ["cv"]}[command]
        code, out, err = run_cli(
            argv + ["--corpus", str(train_corpus_path), "--no-lexicon",
                    "--lexicon-as-features"], capsys)
        assert code == 2
        assert ("error: config key 'lexicon_as_features' needs "
                "'use_lexicon'") in err
        assert out == ""
        assert not model.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_flag_defaults_are_the_config_defaults(self, command):
        args = cli.build_parser().parse_args(
            [command, "--corpus", "c.jsonl", "--model", "m.txt"]
            if command == "train" else [command, "--corpus", "c.jsonl"])
        default = PipelineConfig()
        for field in fields(PipelineConfig):
            assert getattr(args, field.name) == getattr(default, field.name)

    def test_tiny_corpus_rejected(self, synthetic_corpus, tmp_path, capsys):
        corpus = tmp_path / "one.jsonl"
        corpus.write_text(json.dumps(example_to_json(synthetic_corpus[0]))
                          + "\n")
        code, out, err = run_cli(
            ["train", "--corpus", str(corpus),
             "--model", str(tmp_path / "m.txt")], capsys)
        assert code == 2
        assert "corpus too small" in err


class TestParse:
    def test_annotated_input(self, bundle_path, twice_triple_input_path,
                             capsys):
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--input", str(twice_triple_input_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["equation"] == "(= (* 2 V1) (- (* 3 V1) 25))"
        assert payload["groundings"] == {
            "V1": {"span": [6, 14], "text": "a number"}}
        assert "debug" in payload

    def test_text_mode_with_np_spans(self, bundle_path, capsys):
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--text", "The sum of two numbers is 80.",
             "--np-span", "0:7", "--np-span", "11:22"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["equation"] == "(= (+ V1 V2) 80)"
        assert payload["groundings"]["V1"]["text"] == "two numbers"
        assert payload["groundings"]["V2"]["text"] == "two numbers"

    def test_missing_np_chunks(self, bundle_path, capsys):
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--text", "The sum of two numbers is 80."], capsys)
        assert code == 2
        assert "np_chunks" in err

    def test_bad_np_span(self, bundle_path, capsys):
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path), "--text", "x is 3.",
             "--np-span", "five:nine"], capsys)
        assert code == 2
        assert "--np-span" in err

    def test_empty_np_span(self, bundle_path, capsys):
        # [4, 4) falls inside "number" but covers nothing of it
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--text", "A number plus 5 is 12.", "--np-span", "4:4"], capsys)
        assert code == 2
        assert "np chunk Span(start=4, end=4) is empty" in err
        assert out == ""

    def test_empty_np_chunk_in_input(self, bundle_path,
                                     twice_triple_input_path, capsys):
        obj = json.loads(twice_triple_input_path.read_text())
        obj["np_chunks"][0] = [10, 10]  # inside "number"
        twice_triple_input_path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--input", str(twice_triple_input_path)], capsys)
        assert code == 2
        assert (f"{twice_triple_input_path}: malformed sentence object "
                "(np chunk Span(start=10, end=10) is empty)") in err

    def test_empty_quantity_span_in_input(self, bundle_path, synthetic_corpus,
                                          tmp_path, capsys):
        obj = example_to_json(synthetic_corpus[0])
        obj["quantities"][0] = {"value": 2, "span": [4, 4]}
        path = tmp_path / "sentence.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path), "--input", str(path)],
            capsys)
        assert code == 2
        assert (f"{path}: malformed sentence object "
                "(quantity span Span(start=4, end=4) is empty)") in err
        assert out == ""

    @pytest.mark.parametrize("sep", ["\t", "\u2028"], ids=["tab", "u2028"])
    @pytest.mark.parametrize("field", ["tokens", "pos"])
    def test_line_break_in_token_or_tag(self, field, sep, bundle_path,
                                        twice_triple_sentence,
                                        twice_triple_input_path, capsys):
        obj, entry = with_broken_entry(
            json.loads(twice_triple_input_path.read_text()),
            twice_triple_sentence, field, sep)
        twice_triple_input_path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--input", str(twice_triple_input_path)], capsys)
        assert code == 2
        assert (f"{twice_triple_input_path}: malformed sentence object "
                f"({field} entry {entry!r} holds a tab or a line break)"
                ) in err
        assert out == ""

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-conversion digit limit")
    def test_over_long_digit_token(self, bundle_path, capsys):
        # more digits than the interpreter converts to an int: the error
        # names the stage and the token's span
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--text", "1" * 5000 + " apples are 3",
             "--np-span", "5001:5007"], capsys)
        assert code == 2
        assert "error: quantity detection: the token at [0, 5000]: " in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-conversion digit limit")
    def test_over_long_decimal_quantity(self, bundle_path, capsys):
        # each digit run converts, but the reduced fraction's numerator has
        # more digits than the interpreter writes out: the error names the
        # stage and the quantity's span
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--text", "1" * 4000 + "." + "1" * 4000 + " apples are 3",
             "--np-span", "8002:8008"], capsys)
        assert code == 2
        assert "error: equation formatting: the quantity at [0, 8001]: " in err
        assert "Traceback" not in err
        assert out == ""

    def test_np_span_with_input_refused(self, bundle_path,
                                        twice_triple_input_path, capsys):
        # the file's chunks would be parsed and the flag silently dropped
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--input", str(twice_triple_input_path), "--np-span", "0:1"],
            capsys)
        assert code == 1
        assert "argument --np-span: not allowed with argument --input" in err
        assert out == ""

    def test_empty_input_path(self, bundle_path, capsys):
        # an empty path is a path that does not exist, not a missing --input
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path), "--input", ""], capsys)
        assert code == 2
        assert "No such file or directory: ''" in err
        assert "Traceback" not in err

    def test_input_not_utf8(self, bundle_path, twice_triple_input_path,
                            capsys):
        data = twice_triple_input_path.read_bytes()
        twice_triple_input_path.write_bytes(
            data.replace(b'"text": "', b'"text": "\xff', 1))
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--input", str(twice_triple_input_path)], capsys)
        assert code == 2
        assert (f"{twice_triple_input_path}: not valid UTF-8 ('utf-8' codec "
                "can't decode byte 0xff") in err

    def test_input_not_json(self, bundle_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path), "--input", str(bad)],
            capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_input_nested_too_deeply(self, bundle_path, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path), "--input", str(deep)],
            capsys)
        assert code == 2
        assert f"error: {deep}: not valid JSON (" in err
        assert "Traceback" not in err
        assert out == ""

    def test_missing_model_file(self, twice_triple_input_path, tmp_path,
                                capsys):
        code, out, err = run_cli(
            ["parse", "--model", str(tmp_path / "absent.txt"),
             "--input", str(twice_triple_input_path)], capsys)
        assert code == 2
        assert "error:" in err


    def test_zero_denominator_quantity(self, bundle_path,
                                       twice_triple_input_path, capsys):
        obj = json.loads(twice_triple_input_path.read_text())
        obj["quantities"] = [{"value": "1/0", "span": [0, 5]}]
        twice_triple_input_path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--input", str(twice_triple_input_path)], capsys)
        assert code == 2
        assert str(twice_triple_input_path) in err
        assert "'1/0'" in err

    @pytest.mark.parametrize("text", [5, None, ["a"]],
                             ids=["number", "null", "list"])
    def test_non_string_text(self, bundle_path, twice_triple_input_path,
                             capsys, text):
        obj = json.loads(twice_triple_input_path.read_text())
        obj["text"] = text
        twice_triple_input_path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path),
             "--input", str(twice_triple_input_path)], capsys)
        assert code == 2
        assert (f"{twice_triple_input_path}: malformed sentence object "
                f"(text must be a string, got {text!r})") in err
        assert "Traceback" not in err

    def test_whitespace_text_with_np_span(self, bundle_path, capsys):
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path), "--text", "   ",
             "--np-span", "0:1"], capsys)
        assert code == 2
        assert "covers no token" in err


def parse_with_bundle(bundle_text, tmp_path, capsys):
    model = tmp_path / "damaged.txt"
    model.write_text(bundle_text)
    return run_cli(["parse", "--model", str(model),
                    "--text", "The sum of two numbers is 80.",
                    "--np-span", "0:7", "--np-span", "11:22"], capsys)


def weight_line_number(lines, section):
    """1-based number of the first weight line in a bundle section."""
    return lines.index(section) + 4


def with_digests(lines):
    """The bundle lines with each section's footer line recomputed from
    the section as it now reads, weight lines counted, so that no digest
    check can refuse them."""
    end = lines.index("[digests]")
    cuts = [lines.index(marker)
            for marker in ("[relevance]", "[variables]", "[tree]")] + [end]
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        section = "\n".join(lines[a + 1:b]) + "\n"
        count = sum(1 for line in lines[a + 3:b] if line)
        lines[end + 1 + i] = (f"{lines[a]}\t{count}\t"
                              + hashlib.sha256(section.encode()).hexdigest())
    return lines


class TestDamagedBundle:
    def test_unknown_config_key(self, bundle_path, tmp_path, capsys):
        lines = bundle_path.read_text().split("\n")
        lines[1] = lines[1].replace("{", '{"depth": 2, ', 1)
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert "damaged.txt: line 2: unknown config key 'depth'" in err

    def test_unknown_model_config_key(self, bundle_path, tmp_path, capsys):
        lines = bundle_path.read_text().split("\n")
        at = lines.index("[tree]") + 2
        lines[at] = lines[at].replace("{", '{"momentum": 0.5, ', 1)
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert f"line {at + 1}: unknown config key 'momentum'" in err

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_weight(self, bundle_path, tmp_path, capsys, raw):
        # weights are integers, so a non-finite one is a malformed line
        lines = bundle_path.read_text().split("\n")
        n = weight_line_number(lines, "[variables]")
        name = lines[n - 1].split("\t")[0]
        lines[n - 1] = f"{name}\t{raw}"
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert f"line {n}: malformed weight line" in err
        assert "integer weight" in err
        assert out == ""

    @pytest.mark.parametrize("damage", [
        lambda line: line.replace("\t", " "),
        lambda line: line + "\t1.0",
        lambda line: line.split("\t")[0] + "\tone",
    ], ids=["no-tab", "extra-field", "not-a-number"])
    def test_malformed_weight_line(self, bundle_path, tmp_path, capsys,
                                   damage):
        lines = bundle_path.read_text().split("\n")
        n = weight_line_number(lines, "[relevance]") + 2
        lines[n - 1] = damage(lines[n - 1])
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert f"line {n}: malformed weight line" in err


    @pytest.mark.parametrize("raw, value", [
        (" 5", 5), ("5 ", 5), ("+5", 5), ("05", 5), ("1_0", 10),
        ("\u0665", 5), ("-0", 0), ("5", None)],
        ids=["space-before", "space-after", "plus", "leading-zero",
             "underscore", "arabic-indic", "minus-zero", "canonical"])
    def test_non_canonical_weight(self, bundle_path, tmp_path, capsys, raw,
                                  value):
        # `int` reads each of these, so only the canonical-form check
        # refuses them: the section's digest is recomputed. The canonical
        # control loads, and saves back to the same bytes
        lines = bundle_path.read_text().split("\n")
        n = weight_line_number(lines, "[tree]") + 3
        name = lines[n - 1].split("\t")[0]
        lines[n - 1] = f"{name}\t{raw}"
        text = "\n".join(with_digests(lines))
        code, out, err = parse_with_bundle(text, tmp_path, capsys)
        if value is None:
            assert code == 0
            assert ModelBundle.from_text(text).to_text() == text
            return
        assert code == 2
        assert (f"damaged.txt: line {n}: weight {raw!r} of {name!r} is not "
                f"written as {value}") in err
        assert out == ""

    @pytest.mark.parametrize("other", [None, "7"], ids=["same", "other"])
    def test_feature_listed_twice(self, bundle_path, tmp_path, capsys,
                                  other):
        # the later line would silently win: refused, digests recomputed
        lines = bundle_path.read_text().split("\n")
        n = weight_line_number(lines, "[variables]") + 2
        name, value = lines[n - 1].split("\t")
        lines.insert(n, f"{name}\t{other or value}")
        code, out, err = parse_with_bundle("\n".join(with_digests(lines)),
                                           tmp_path, capsys)
        assert code == 2
        assert f"damaged.txt: line {n + 1}: feature {name!r} listed twice" \
            in err
        assert out == ""

    def test_truncated_bundle(self, bundle_path, tmp_path, capsys):
        # the bundle minus its last 50 lines, as `head -n -50` leaves it
        kept = bundle_path.read_text().splitlines(keepends=True)[:-50]
        code, out, err = parse_with_bundle("".join(kept), tmp_path, capsys)
        assert code == 2
        assert f"damaged.txt: line {len(kept) + 1}: bundle ends before its " \
            "[digests] footer; the file is truncated" in err
        assert out == ""

    @pytest.mark.parametrize("cut", [1, 3])
    def test_truncated_footer(self, bundle_path, tmp_path, capsys, cut):
        kept = bundle_path.read_text().splitlines(keepends=True)[:-cut]
        code, out, err = parse_with_bundle("".join(kept), tmp_path, capsys)
        assert code == 2
        assert f"damaged.txt: line {len(kept) + 1}: footer ends early" in err

    def test_changed_weight_digit(self, bundle_path, tmp_path, capsys):
        lines = bundle_path.read_text().split("\n")
        n = weight_line_number(lines, "[tree]") + 5
        name, value = lines[n - 1].split("\t")
        last = "1" if value[-1] != "1" else "2"
        lines[n - 1] = f"{name}\t{value[:-1]}{last}"
        footer = lines.index("[digests]") + 1
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert (f"damaged.txt: line {footer + 3}: the [tree] section does "
                "not match its footer line") in err
        assert out == ""

    def test_removed_weight_line(self, bundle_path, tmp_path, capsys):
        lines = bundle_path.read_text().split("\n")
        del lines[weight_line_number(lines, "[relevance]") - 1]
        footer = lines.index("[digests]") + 1
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert (f"line {footer + 1}: the [relevance] section does not match "
                "its footer line") in err

    def test_wrong_lexicon_digest(self, bundle_path, tmp_path, capsys):
        lines = bundle_path.read_text().split("\n")
        assert lines[-1] == ""
        assert lines[-2].startswith("[lexicon]\t")
        lines[-2] = "[lexicon]\t" + "0" * 64
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert (f"damaged.txt: line {len(lines) - 1}: bundle was trained "
                "under another operator lexicon") in err
        assert out == ""

    def test_line_after_footer(self, bundle_path, tmp_path, capsys):
        text = bundle_path.read_text()
        n = len(text.splitlines()) + 1
        code, out, err = parse_with_bundle(text + "extra\n", tmp_path, capsys)
        assert code == 2
        assert f"line {n}: unexpected line after the footer" in err

    def test_v1_bundle_asks_for_retraining(self, bundle_path, tmp_path, capsys):
        lines = bundle_path.read_text().split("\n")
        lines[0] = "eqparse-bundle v1"
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert "damaged.txt: line 1: bundle format v1" in err
        assert "retrain" in err
        assert "Traceback" not in err

    def test_v2_bundle_asks_for_retraining(self, bundle_path, tmp_path,
                                           capsys):
        # v2 had no [config] footer line; it is refused like v1
        lines = bundle_path.read_text().split("\n")
        lines[0] = "eqparse-bundle v2"
        del lines[-3]
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert "damaged.txt: line 1: bundle format v2" in err
        assert "retrain" in err
        assert out == ""

    @pytest.mark.parametrize("edit, key", [
        (('"epochs": 5', '"epochs": 0'), "epochs"),
        (('"window": 3', '"window": -2'), "window"),
        (('"learning_rate": 0.1', '"learning_rate": -0.1'), "learning_rate"),
        (('"learning_rate": 0.1', '"learning_rate": 1e999'), "learning_rate"),
    ], ids=["epochs", "window", "negative-rate", "infinite-rate"])
    def test_invalid_config_setting(self, bundle_path, tmp_path, capsys,
                                    edit, key):
        lines = bundle_path.read_text().split("\n")
        assert edit[0] in lines[1]
        lines[1] = lines[1].replace(*edit)
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert f"damaged.txt: line 2: config key '{key}' must be" in err
        assert out == ""

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c"])
    def test_newline_replaced_by_other_line_separator(self, bundle_path,
                                                      tmp_path, capsys,
                                                      separator):
        # `str.splitlines` ends a line at each of these too, and read the
        # damaged bundle as the original
        text = bundle_path.read_text()
        at = text.index("\n", len(text) // 2)
        code, out, err = parse_with_bundle(
            text[:at] + separator + text[at + 1:], tmp_path, capsys)
        assert code == 2
        assert "damaged.txt: line " in err
        assert out == ""

    def test_lexicon_as_features_without_lexicon(self, bundle_path,
                                                  tmp_path, capsys):
        # the pair on line 2, its [config] digest recomputed: refused by
        # the config's own check
        lines = bundle_path.read_text().split("\n")
        lines[1] = lines[1].replace(
            '"lexicon_as_features": false', '"lexicon_as_features": true'
        ).replace('"use_lexicon": true', '"use_lexicon": false')
        assert lines[-3].startswith("[config]\t")
        lines[-3] = "[config]\t" + hashlib.sha256(
            lines[1].encode("utf-8")).hexdigest()
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert ("damaged.txt: line 2: config key 'lexicon_as_features' "
                "needs 'use_lexicon'") in err
        assert out == ""

    def test_deeply_nested_config_line(self, bundle_path, tmp_path, capsys):
        lines = bundle_path.read_text().split("\n")
        lines[1] = DEEP_JSON
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert "damaged.txt: line 2: config is not JSON (" in err
        assert "Traceback" not in err
        assert out == ""

    def test_changed_config_line(self, bundle_path, tmp_path, capsys):
        # what `sed -e '2s/"window": 3/"window": 1/'
        # -e '2s/"use_lexicon": true/"use_lexicon": false/'` does to the
        # bundle: a valid config that the weights were not trained under
        lines = bundle_path.read_text().split("\n")
        edited = lines[1].replace('"window": 3', '"window": 1').replace(
            '"use_lexicon": true', '"use_lexicon": false')
        assert edited != lines[1]
        lines[1] = edited
        assert lines[-3].startswith("[config]\t")
        code, out, err = parse_with_bundle("\n".join(lines), tmp_path, capsys)
        assert code == 2
        assert (f"damaged.txt: line {len(lines) - 2}: the config on line 2 "
                "does not match its footer line") in err
        assert out == ""


class TestEval:
    def test_eval_on_train_is_perfect_here(self, bundle_path,
                                           train_corpus_path, capsys):
        code, out, err = run_cli(
            ["eval", "--model", str(bundle_path),
             "--corpus", str(train_corpus_path)], capsys)
        assert code == 0
        metrics = json.loads(out)
        assert metrics["count"] == 45
        for name, value in metrics.items():
            if name != "count":
                assert value == 1.0

    def test_empty_corpus(self, bundle_path, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        code, out, err = run_cli(
            ["eval", "--model", str(bundle_path), "--corpus", str(corpus)],
            capsys)
        assert code == 2
        assert "empty" in err

    def test_malformed_corpus_line_reported(self, bundle_path, synthetic_corpus,
                                            tmp_path, capsys):
        corpus = tmp_path / "broken.jsonl"
        good = json.dumps(example_to_json(synthetic_corpus[0]))
        corpus.write_text(good + "\n{broken\n")
        code, out, err = run_cli(
            ["eval", "--model", str(bundle_path), "--corpus", str(corpus)],
            capsys)
        assert code == 2
        assert ":2: malformed corpus line" in err


class TestCorpusInput:
    @pytest.mark.parametrize("text", [None, 5], ids=["null", "number"])
    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_non_string_text_reported(self, command, text, bundle_path,
                                      synthetic_corpus, tmp_path, capsys):
        corpus = tmp_path / "bad-text.jsonl"
        bad = example_to_json(synthetic_corpus[1])
        bad["text"] = text
        corpus.write_text(json.dumps(example_to_json(synthetic_corpus[0]))
                          + "\n" + json.dumps(bad) + "\n")
        argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                "eval": ["eval", "--model", str(bundle_path)],
                "cv": ["cv"]}[command] + ["--corpus", str(corpus)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert (f"{corpus}:2: malformed corpus line: text must be a string, "
                f"got {text!r}") in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_empty_np_chunk_reported(self, command, bundle_path,
                                     synthetic_corpus, tmp_path, capsys):
        corpus = tmp_path / "empty-chunk.jsonl"
        bad = example_to_json(synthetic_corpus[1])
        start = bad["np_chunks"][0][0] + 1  # inside the chunk's first word
        bad["np_chunks"][0] = [start, start]
        corpus.write_text(json.dumps(example_to_json(synthetic_corpus[0]))
                          + "\n" + json.dumps(bad) + "\n")
        argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                "eval": ["eval", "--model", str(bundle_path)],
                "cv": ["cv"]}[command] + ["--corpus", str(corpus)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert (f"{corpus}:2: malformed corpus line: np chunk "
                f"Span(start={start}, end={start}) is empty") in err
        assert out == ""

    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_empty_quantity_span_reported(self, command, bundle_path,
                                          synthetic_corpus, tmp_path, capsys):
        corpus = tmp_path / "empty-quantity.jsonl"
        bad = example_to_json(synthetic_corpus[1])
        bad["quantities"][0] = {"value": 2, "span": [4, 4]}
        corpus.write_text(json.dumps(example_to_json(synthetic_corpus[0]))
                          + "\n" + json.dumps(bad) + "\n")
        argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                "eval": ["eval", "--model", str(bundle_path)],
                "cv": ["cv"]}[command] + ["--corpus", str(corpus)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert (f"{corpus}:2: malformed corpus line: quantity span "
                "Span(start=4, end=4) is empty") in err
        assert out == ""

    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_non_utf8_line_reported(self, command, bundle_path,
                                    synthetic_corpus, tmp_path, capsys):
        # the byte sits on line 2 of 3; a reader that decodes ahead of the
        # line it hands out would fail without a line, or on the wrong one
        corpus = tmp_path / "latin.jsonl"
        lines = [json.dumps(example_to_json(ex)).encode()
                 for ex in synthetic_corpus[:3]]
        lines[1] = lines[1].replace(b'"text": "', b'"text": "\xff', 1)
        corpus.write_bytes(b"\n".join(lines) + b"\n")
        argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                "eval": ["eval", "--model", str(bundle_path)],
                "cv": ["cv"]}[command] + ["--corpus", str(corpus)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert (f"{corpus}:2: malformed corpus line: 'utf-8' codec can't "
                "decode byte 0xff") in err
        assert out == ""

    @pytest.mark.parametrize("sep", ["\t", "\u2028"], ids=["tab", "u2028"])
    @pytest.mark.parametrize("field", ["tokens", "pos"])
    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_line_break_in_token_or_tag_reported(
            self, command, field, sep, bundle_path, synthetic_corpus,
            tmp_path, capsys):
        # refused at load, before any training: a feature name made from
        # the entry could not be written to a bundle
        corpus = tmp_path / "bad-token.jsonl"
        example = synthetic_corpus[1]
        bad, entry = with_broken_entry(example_to_json(example),
                                       example.sentence, field, sep)
        corpus.write_text(json.dumps(example_to_json(synthetic_corpus[0]))
                          + "\n" + json.dumps(bad) + "\n")
        argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                "eval": ["eval", "--model", str(bundle_path)],
                "cv": ["cv"]}[command] + ["--corpus", str(corpus)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert (f"{corpus}:2: malformed corpus line: {field} entry "
                f"{entry!r} holds a tab or a line break") in err
        assert "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("equation", [7, None], ids=["number", "null"])
    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_non_string_equation_reported(self, command, equation, bundle_path,
                                          synthetic_corpus, tmp_path, capsys):
        corpus = tmp_path / "bad-equation.jsonl"
        bad = example_to_json(synthetic_corpus[1])
        bad["equation"] = equation
        corpus.write_text(json.dumps(example_to_json(synthetic_corpus[0]))
                          + "\n" + json.dumps(bad) + "\n")
        argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                "eval": ["eval", "--model", str(bundle_path)],
                "cv": ["cv"]}[command] + ["--corpus", str(corpus)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert ":2: malformed corpus line: equation must be a string" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("equation", ["(= (+ V1", "(= V1 1/0)"],
                             ids=["truncated", "zero-denominator"])
    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_malformed_equation_reported(self, command, equation, bundle_path,
                                         synthetic_corpus, tmp_path, capsys):
        # equations are parsed where they are used, not at load; the error
        # still names the corpus line
        corpus = tmp_path / "bad-equation.jsonl"
        bad = example_to_json(synthetic_corpus[1])
        bad["equation"] = equation
        corpus.write_text(json.dumps(example_to_json(synthetic_corpus[0]))
                          + "\n" + json.dumps(bad) + "\n")
        argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                "eval": ["eval", "--model", str(bundle_path)],
                "cv": ["cv", "--folds", "2"]}[command] + ["--corpus", str(corpus)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert f"{corpus}:2: malformed equation: " in err
        assert repr(equation) in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_line_nested_too_deeply_reported(self, command, bundle_path,
                                             synthetic_corpus, tmp_path,
                                             capsys):
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text(json.dumps(example_to_json(synthetic_corpus[0]))
                          + "\n" + DEEP_JSON + "\n")
        argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                "eval": ["eval", "--model", str(bundle_path)],
                "cv": ["cv", "--folds", "2"]}[command] + ["--corpus", str(corpus)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert f"error: {corpus}:2: malformed corpus line: " in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_equation_nesting_bound(self, command, bundle_path,
                                    synthetic_corpus, tmp_path, capsys):
        # an equation at the bound is read (its gold tree is unreachable
        # here, so training skips it); one level deeper names its line
        for depth, code in ((MAX_EQUATION_DEPTH, 0),
                            (MAX_EQUATION_DEPTH + 1, 2)):
            corpus = tmp_path / f"nested-{depth}.jsonl"
            deep = example_to_json(synthetic_corpus[1])
            deep["equation"] = nested_equation(depth)
            corpus.write_text(json.dumps(example_to_json(synthetic_corpus[0]))
                              + "\n" + json.dumps(deep) + "\n")
            argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                    "eval": ["eval", "--model", str(bundle_path)],
                    }[command] + ["--corpus", str(corpus)]
            got, out, err = run_cli(argv, capsys)
            assert got == code, err
            assert "Traceback" not in err
        assert (f"error: {corpus}:2: malformed equation: equation nested "
                f"deeper than {MAX_EQUATION_DEPTH} operators: ") in err
        assert out == ""

    # line 4 grounds V1 and V2 in the chunk [11, 20], "two books"; each
    # edit of its grounding, and the message that names it
    BAD_GROUNDINGS = {
        # [11, 21] ends one character later, inside no chunk
        "one-mention-off-chunk": (
            lambda g: g[1].update(np_span=[11, 21]),
            "grounding of V2 at [11, 21] is not an NP chunk of the sentence"),
        "both-mentions-off-chunk": (
            lambda g: [m.update(np_span=[11, 21]) for m in g],
            "grounding of V1 at [11, 21] is not an NP chunk of the sentence"),
        # "The sum" does not mention two, so it cannot ground both
        "self-pair-without-two": (
            lambda g: [m.update(np_span=[0, 7]) for m in g],
            "grounding in the NPs [[0, 7], [0, 7]] is outside the candidate "
            "space: an NP grounds both variables only when it mentions two"),
        "three-mentions": (
            lambda g: g.append({"label": "V1", "np_span": [0, 7]}),
            "grounding: candidate must hold 1 or 2 NPs"),
    }

    @pytest.mark.parametrize("edit", BAD_GROUNDINGS)
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_grounding_outside_candidate_space_reported(
            self, command, edit, synthetic_corpus, tmp_path, capsys):
        # checked when the variable stage's instances are built, not at load
        lines = [json.dumps(example_to_json(ex)) for ex in synthetic_corpus]
        bad = json.loads(lines[3])
        assert bad["np_chunks"] == [[0, 7], [11, 20]]
        change, message = self.BAD_GROUNDINGS[edit]
        change(bad["groundings"][0])
        lines[3] = json.dumps(bad)
        corpus = tmp_path / "bad-grounding.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        argv = {"train": ["train", "--model", str(tmp_path / "m.txt")],
                "cv": ["cv"]}[command] + ["--corpus", str(corpus)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert f"{corpus}:4: {message}" in err
        assert "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "m.txt").exists()


class TestCv:
    def test_deterministic_and_at_most_eval_on_train(self, train_corpus_path,
                                                     bundle_path, capsys):
        argv = ["cv", "--corpus", str(train_corpus_path), "--folds", "5"]
        code, first, _ = run_cli(argv, capsys)
        assert code == 0
        code, second, _ = run_cli(argv, capsys)
        assert code == 0
        assert first == second
        cv_metrics = json.loads(first)

        code, out, _ = run_cli(
            ["eval", "--model", str(bundle_path),
             "--corpus", str(train_corpus_path)], capsys)
        assert code == 0
        train_metrics = json.loads(out)
        for name in cv_metrics:
            if name != "count":
                assert train_metrics[name] >= cv_metrics[name]

    def test_too_many_folds(self, synthetic_corpus, tmp_path, capsys):
        corpus = tmp_path / "three.jsonl"
        corpus.write_text("".join(
            json.dumps(example_to_json(ex)) + "\n"
            for ex in synthetic_corpus[:3]))
        code, out, err = run_cli(
            ["cv", "--corpus", str(corpus), "--folds", "5"], capsys)
        assert code == 2
        assert "smaller than k" in err


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["train", "--nonsense"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "train" in out and "parse" in out

    def test_closed_stdout_exits_quietly(self, bundle_path, tmp_path,
                                         monkeypatch, capsys):
        # as under `eqparse parse ... | head -1` once head has exited: the
        # write fails with EPIPE; stdout then points at devnull, and the
        # exit code is 1 with nothing on stderr
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = cli.main(["parse", "--model", str(bundle_path),
                             "--text", "The sum of two numbers is 80.",
                             "--np-span", "0:7", "--np-span", "11:22"])
            redirected = os.fstat(fd).st_rdev
        finally:
            os.close(fd)
        assert code == 1
        assert capsys.readouterr().err == ""
        assert redirected == os.stat(os.devnull).st_rdev

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "eqparse.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "eqparse" in proc.stdout


def test_tokenizer_keeps_inner_hyphens():
    assert cli._tokenize("There are 54 5-dollar and 10-dollar notes.") == [
        "There", "are", "54", "5-dollar", "and", "10-dollar", "notes", "."]


def test_tokenizer_peels_leading_punctuation():
    assert cli._tokenize('"80, then.') == ['"', "80", ",", "then", "."]


def test_corpus_roundtrips_through_cli_train(train_corpus_path):
    # the merged fixture corpus must load cleanly and keep its size
    assert len(load_corpus(train_corpus_path)) == 45
