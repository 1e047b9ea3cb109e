"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success (also when the reader of stdout stops early, as
``| head`` does), 1 usage or configuration error, 2 data or file-format error,
3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

from . import clustering, corpus, embedding, expansion, pipeline
from .config import ExperimentConfig, coerce_value, load_config
from .errors import ConfigError, DataFormatError, NumericError, check_range, open_text
from .nn import ClassifierConfig, TrainConfig, load_model, save_model


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on usage problems so main() can map them to exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _load_dictionary(args):
    return corpus.load_dictionary_file(args.dictionary) if args.dictionary else None


def cmd_tokenize(args) -> int:
    user_dict = _load_dictionary(args)
    with open_text(args.corpus) as fh:
        lines = [" ".join(corpus.tokenize(line, user_dict)) for line in fh]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_train_embeddings(args) -> int:
    cfg = embedding.SkipGramConfig(**_given(args, embedding.SkipGramConfig))
    user_dict = _load_dictionary(args)
    sentences = corpus.load_sentence_file(args.corpus, user_dict)
    vocab = corpus.build_vocabulary(sentences, cfg.min_count)
    encoded = corpus.encode_corpus(sentences, vocab)
    emb = embedding.train_skipgram(encoded, cfg, track_objective=args.track_objective)
    if args.track_objective:
        for epoch, value in enumerate(emb.objective_history):
            label = "initial" if epoch == 0 else f"epoch {epoch}"
            print(f"objective {label}: {value:.6f}")
    embedding.save_embeddings(emb, args.output)
    print(f"trained {len(vocab)} x {cfg.dim} vectors -> {args.output}")
    return 0


def cmd_cluster(args) -> int:
    emb = embedding.load_embeddings(args.embeddings)
    check_range("--k", args.k, 1, len(emb.vocabulary))
    assignment = clustering.hac_cluster(emb.input_vectors, args.k, emb.vocabulary.words)
    clustering.save_assignment(assignment, args.output)
    print(f"assigned {len(emb.vocabulary)} words to {args.k} clusters -> {args.output}")
    return 0


def cmd_expand(args) -> int:
    emb = embedding.load_embeddings(args.embeddings)
    assignment = clustering.load_assignment(args.assignment, emb.vocabulary)
    expanded = expansion.expand(emb, assignment)
    expansion.save_expanded(emb.vocabulary.words, expanded, args.output)
    print(f"wrote {len(emb.vocabulary)} x {expanded.shape[1]} expanded vectors -> {args.output}")
    return 0


def _vectors_and_dataset(args):
    """The ``--vectors`` table and the dataset encoded over its vocabulary."""
    emb = embedding.load_embeddings(args.vectors)
    examples = corpus.load_labeled_file(args.dataset, _load_dictionary(args))
    return emb.input_vectors, corpus.encode_dataset(examples, emb.vocabulary)


def cmd_train(args) -> int:
    shape = ClassifierConfig(**_given(args, ClassifierConfig))
    config = TrainConfig(**_given(args, TrainConfig))
    table, dataset = _vectors_and_dataset(args)
    model, log = pipeline.fit(shape, config, dataset, table)
    save_model(model, args.output)
    print(
        f"final epoch loss {log.epoch_losses[-1]:.6f} "
        f"accuracy {log.epoch_accuracies[-1]:.4f} -> {args.output}"
    )
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model_file)
    table, dataset = _vectors_and_dataset(args)
    if table.shape[1] != model.input_width:
        raise DataFormatError(
            f"{args.vectors}: vectors have width {table.shape[1]}, "
            f"but {args.model_file} expects {model.input_width}"
        )
    if dataset.num_classes != model.num_classes:
        raise DataFormatError(
            f"{args.dataset}: dataset has {dataset.num_classes} classes, "
            f"but {args.model_file} expects {model.num_classes}"
        )
    result = pipeline.score(model, dataset, table)
    for line in result.summary_lines(dataset.label_names):
        print(line)
    return 0


def cmd_run(args) -> int:
    report = pipeline.run_pipeline(load_config(args.config, _given(args, ExperimentConfig)))
    for line in report.summary_lines():
        print(line)
    return 0


def cmd_compare(args) -> int:
    report_a = pipeline.load_report(args.report_a)
    report_b = pipeline.load_report(args.report_b)
    for line in pipeline.comparison_lines(pipeline.compare_runs(report_a, report_b)):
        print(line)
    return 0


def _add_dictionary_flag(parser) -> None:
    parser.add_argument("--dictionary", help="user dictionary file, one term per line")


def _add_field_flags(parser, config) -> None:
    """One --flag per field of dataclass ``config``, typed like the field; an
    absent flag parses to None, so the default applies."""
    for f in dataclasses.fields(config):
        convert = functools.partial(coerce_value, f.name, config=config)
        extra = {"help": f"default: {f.default}"} if f.default != "" else {}
        if isinstance(f.default, bool):
            extra |= {"nargs": "?", "const": "true", "metavar": "BOOL"}
        else:
            extra["metavar"] = f.name.upper()
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=convert, **extra)


def _given(args, config) -> dict:
    """The fields of dataclass ``config`` that were set by a flag."""
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(config)}
    return {name: value for name, value in values.items() if value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semexpand", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="tokenize a text file, one sentence per line")
    p.add_argument("corpus")
    _add_dictionary_flag(p)
    p.add_argument("--output")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("train-embeddings", help="train skip-gram word vectors on a corpus")
    p.add_argument("corpus")
    p.add_argument("--output", required=True)
    _add_dictionary_flag(p)
    _add_field_flags(p, embedding.SkipGramConfig)
    p.add_argument("--track-objective", action="store_true")
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("cluster", help="group word vectors by hierarchical clustering")
    p.add_argument("embeddings")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("expand", help="concatenate word vectors with cluster centroids")
    p.add_argument("embeddings")
    p.add_argument("assignment")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("train", help="train a classifier on a labeled dataset")
    p.add_argument("dataset")
    p.add_argument("--vectors", required=True, help="word or expanded vector file")
    _add_dictionary_flag(p)
    p.add_argument("--output", required=True)
    _add_field_flags(p, ClassifierConfig)
    _add_field_flags(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved classifier on a labeled dataset")
    p.add_argument("dataset")
    p.add_argument("--vectors", required=True, help="word or expanded vector file")
    _add_dictionary_flag(p)
    p.add_argument("--model-file", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="run the full pipeline from a config")
    p.add_argument("--config", help="flat key = value config file")
    _add_field_flags(p.add_argument_group("config overrides"), ExperimentConfig)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="diff two run reports on the same test split")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone, which is no fault of the command; pointing stdout
        # at devnull keeps the flush at interpreter exit from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
