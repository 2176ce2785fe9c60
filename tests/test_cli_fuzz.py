"""The command line on arbitrary input, run in-process: `cli.main` returns 0
or 2 and never raises, and a damaged bundle never yields a parse."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from eqparse import cli
from eqparse.corpus import example_to_json, sentence_to_json

# a sentence the shipped families parse, with its NP chunk
TEXT = "The sum of 2 and 3 is a number ."
NP_SPAN = "22:30"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)
words = st.lists(st.sampled_from(
    ["the", "sum", "of", "2", "3", "1/2", "2.5", "twice", "half", "a",
     "number", "is", "more", "than", "and", ".", ",", "-", "0", "itself"]),
    max_size=12).map(" ".join)
np_spans = st.text(max_size=8) | st.builds(
    "{}:{}".format, st.integers(-2, 60), st.integers(-2, 60))


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2)
    return code


def read_back(data: bytes) -> str | None:
    """The bundle file's text as `ModelBundle.load` reads it, or None if it
    is not UTF-8: text mode ends a line at "\\r" or "\\r\\n" as at "\\n"."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError:
        return None


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def sentence_json(synthetic_corpus):
    return sentence_to_json(synthetic_corpus[0].sentence)


@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=40) | words,
       spans=st.lists(np_spans, max_size=3))
def test_text_and_np_spans(bundle_path, text, spans):
    run(["parse", "--model", str(bundle_path), f"--text={text}"]
        + [f"--np-span={span}" for span in spans])


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(["text", "tokens", "pos", "np_chunks",
                            "quantities"]),
       value=json_values)
def test_sentence_json_with_one_field_replaced(bundle_path, fuzz_dir,
                                               sentence_json, key, value):
    path = fuzz_dir / "sentence.json"
    path.write_text(json.dumps({**sentence_json, key: value}),
                    encoding="utf-8")
    run(["parse", "--model", str(bundle_path), "--input", str(path)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_byte_bundle_mutation_never_parses(bundle_path, fuzz_dir, data):
    original = bundle_path.read_bytes()
    kind = data.draw(st.sampled_from(["set", "delete", "insert"]))
    at = data.draw(st.integers(0, len(original) - (kind != "insert")))
    byte = bytes([data.draw(st.integers(0, 255))])
    if kind == "set":
        mutated = original[:at] + byte + original[at + 1:]
    elif kind == "delete":
        mutated = original[:at] + original[at + 1:]
    else:
        mutated = original[:at] + byte + original[at:]
    path = fuzz_dir / "bundle.txt"
    path.write_bytes(mutated)
    code = run(["parse", "--model", str(path), f"--text={TEXT}",
                f"--np-span={NP_SPAN}"])
    text = original.decode("utf-8")
    if code == 0:  # only a change of the trailing newline may load
        assert read_back(mutated) in (text, text[:-1])


def test_the_unmutated_bundle_parses(bundle_path):
    assert run(["parse", "--model", str(bundle_path), f"--text={TEXT}",
                f"--np-span={NP_SPAN}"]) == 0


@pytest.mark.parametrize("key, value", [
    ("tokens", "ab"),        # a string would load as its characters
    ("pos", "NN"),
    ("pos", None),
    ("tokens", {"0": "a"}),
    ("pos", [None]),         # a null tag would name the feature qn_p=None
    ("pos", [1]),
])
def test_tokens_and_pos_must_be_arrays_of_strings(
        bundle_path, fuzz_dir, synthetic_corpus, sentence_json, key, value):
    if isinstance(value, list):  # one bad tag among good ones
        value = sentence_json[key][:-1] + value
    sentence = fuzz_dir / "bad_sentence.json"
    sentence.write_text(json.dumps({**sentence_json, key: value}),
                        encoding="utf-8")
    line = {**example_to_json(synthetic_corpus[0]), key: value}
    corpus = fuzz_dir / "bad_corpus.jsonl"
    corpus.write_text(json.dumps(example_to_json(synthetic_corpus[1])) + "\n"
                      + json.dumps(line) + "\n", encoding="utf-8")
    for argv, where in (
            (["parse", "--input", str(sentence)], f"{sentence}: "),
            (["eval", "--corpus", str(corpus)], f"{corpus}:2: ")):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--model", str(bundle_path)])
        assert code == 2
        assert where in err.getvalue()
        assert f"{key} must be an array of strings" in err.getvalue()
