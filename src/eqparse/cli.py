"""Command line front end.

Subcommands: train, parse, eval, cv. All results go to stdout as JSON;
diagnostics go to stderr. Exit codes: 0 success, 1 usage error or closed
stdout, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from .core import Span
from .corpus import AnnotatedSentence, load_corpus, sentence_from_json
from .evaluation import cross_validate, evaluate
from .pipeline import ModelBundle, PipelineConfig, train_bundle


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    # each flag's dest is a PipelineConfig field, whose default it takes
    parser.add_argument("--window", type=int,
                        help="token window for neighborhood features")
    parser.add_argument("--epochs", type=int,
                        help="most training epochs per stage; training "
                        "stops after the first epoch without a mistake")
    parser.add_argument("--learning-rate", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--outer-iters", type=int,
                        help="outer loops for variable-stage training")
    parser.add_argument("--no-lexicon", dest="use_lexicon",
                        action="store_false",
                        help="ablation: drop the operator lexicon")
    parser.add_argument("--lexicon-as-features", action="store_true",
                        help="ablation: lexicon matches become features, not constraints")
    parser.add_argument("--conform-syntactic", action="store_true",
                        help="ablation: keep tree nodes from crossing NP chunks")
    parser.set_defaults(**asdict(PipelineConfig()))


def _config_from_args(args) -> PipelineConfig:
    return PipelineConfig(**{f.name: getattr(args, f.name)
                             for f in fields(PipelineConfig)})


def _tokenize(text: str) -> list[str]:
    """Whitespace tokenization with edge punctuation peeled into its own
    tokens, so terminal periods do not mask digit tokens."""
    out = []
    for chunk in text.split():
        lead = []
        while chunk and not chunk[0].isalnum():
            lead.append(chunk[0])
            chunk = chunk[1:]
        tail = []
        while chunk and not chunk[-1].isalnum():
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(lead)
        if chunk:
            out.append(chunk)
        out.extend(reversed(tail))
    return out


def _parse_np_span(raw: str) -> Span:
    try:
        start, end = raw.split(":")
        return Span(int(start), int(end))
    except (ValueError, TypeError) as e:
        raise ValueError(f"bad --np-span {raw!r}, expected START:END") from e


def _sentence_from_args(args) -> AnnotatedSentence:
    if args.input is not None:
        with open(args.input, "rb") as fh:
            data = fh.read()
        try:
            obj = json.loads(data.decode("utf-8"))
        except UnicodeDecodeError as e:
            raise ValueError(f"{args.input}: not valid UTF-8 ({e})") from e
        except (json.JSONDecodeError, RecursionError) as e:  # too deep
            raise ValueError(f"{args.input}: not valid JSON ({e})") from e
        try:
            return sentence_from_json(obj)
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{args.input}: malformed sentence object ({e})") from e
    tokens = tuple(_tokenize(args.text))
    return AnnotatedSentence(
        text=args.text,
        tokens=tokens,
        pos=("UNK",) * len(tokens),
        np_chunks=tuple(_parse_np_span(raw) for raw in args.np_span or ()),
    )


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_train(args) -> int:
    config = _config_from_args(args)
    examples = load_corpus(args.corpus)
    if len(examples) < 2:
        raise ValueError("corpus too small: need at least 2 examples")
    bundle = train_bundle(examples, config)
    bundle.save(args.model)
    _emit({"examples": len(examples), "model": args.model})
    return 0


def cmd_parse(args) -> int:
    bundle = ModelBundle.load(args.model)
    sentence = _sentence_from_args(args)
    if not sentence.np_chunks:
        raise ValueError("np_chunks missing: supply NP spans in the input "
                         "JSON or via --np-span")
    result = bundle.parse(sentence)
    _emit(result.to_json(sentence))
    return 0


def cmd_eval(args) -> int:
    bundle = ModelBundle.load(args.model)
    examples = load_corpus(args.corpus)
    _emit(evaluate(bundle, examples).to_json())
    return 0


def cmd_cv(args) -> int:
    config = _config_from_args(args)
    examples = load_corpus(args.corpus)
    metrics = cross_validate(examples, args.folds, args.seed, config)
    _emit(metrics.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqparse",
        description="Parse a sentence into an equation with grounded variables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model bundle on a corpus")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--model", required=True, help="output bundle path")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_parse = sub.add_parser("parse", help="parse one sentence")
    p_parse.add_argument("--model", required=True)
    src = p_parse.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="JSON file with text/tokens/pos/np_chunks")
    src.add_argument("--text", help="raw sentence; tokens split on whitespace, "
                                    "quantities detected, POS tagged UNK")
    p_parse.add_argument("--np-span", action="append", metavar="START:END",
                         help="NP chunk span for --text mode (repeatable; "
                         "not allowed with --input)")
    p_parse.set_defaults(func=cmd_parse)

    p_eval = sub.add_parser("eval", help="score a bundle on a corpus")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_cv = sub.add_parser("cv", help="k-fold cross-validation")
    p_cv.add_argument("--corpus", required=True)
    p_cv.add_argument("--folds", type=int, default=5)
    _add_config_flags(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "parse" and args.input is not None and args.np_span:
            # the file carries its own chunks; a dropped flag would go unseen
            parser.error("argument --np-span: not allowed with argument --input")
    except SystemExit as e:
        # argparse exits 2 on usage problems; 0 stays 0 (e.g. --help)
        return 0 if e.code == 0 else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`eqparse parse ... | head -1`). As
        # Python's SIGPIPE notes advise, point stdout at devnull, so the
        # flush at exit cannot fail again, and exit 1 without a message
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
