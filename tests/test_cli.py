"""Command line behavior: exit codes, JSON output, determinism."""

import errno
import io
import json
import os
import subprocess
import sys

import pytest

from eqparse import cli
from eqparse.corpus import example_to_json, load_corpus


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_input_not_json(self, bundle_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out, err = run_cli(
            ["parse", "--model", str(bundle_path), "--input", str(bad)],
            capsys)
        assert code == 2
        assert "not valid JSON" in err

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
