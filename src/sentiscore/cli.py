"""Command-line entry point wiring the toolkit's pipelines together.

Exit codes: 0 success, 1 malformed or missing input, 2 runtime failure
(non-convergence, diverged training, out of memory). A command that
draws random numbers draws them all from its single --seed flag
(learn-scores draws none), so identical invocations write identical
bytes. Flags that set a config field take their type and default from
that config dataclass.
"""
from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import fields, replace

import numpy as np

from sentiscore.augment import AugmentConfig, augment_corpus, splice_variants
from sentiscore.cnn import (
    ACTIVATIONS,
    POOLING_MODES,
    CnnConfig,
    TrainingDiverged,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_classifier,
)
# Unused here, but perfbench/tests/test_perfbench.py checks that its tracer
# rebinds this cross-module import of cnn.fit and restores it.
from sentiscore.cnn import fit  # noqa: F401
from sentiscore.learner import LearningConfig, train_iterative
from sentiscore.lexicon import (
    LABEL_SCORES,
    LABELS,
    MentionRecord,
    load_lexicon,
    load_mention_records,
    masked_text,
    prepare_mentions,
    save_lexicon,
    save_mention_records,
    tokenize,
)
from sentiscore.losses import PenaltyMatrix
from sentiscore.evaluate import (
    VARIANTS,
    ExperimentConfig,
    load_experiment_config,
    run_experiment,
    save_report,
)
from sentiscore.synthetic import CorpusConfig, generate_corpus

#: Every domain error subclasses ValueError.
_INPUT_ERRORS = (OSError, ValueError)

_PENALTY_HELP = (
    "penalty rows 'p11,p12,p13;p21,p22,p23;p31,p32,p33' indexed "
    "[predicted][expected] in label order positive negative neutral "
    "(default: 1,4,3;4,1,3;2,2,1)"
)

# Flag and help text per config field a command exposes, in help order.
_LEARN_FLAGS = {
    "lam": ("--lambda", "ridge regularization strength"),
    "max_outer_iterations": ("--iters", "max outer iterations"),
    "solver_tol": ("--tol", "solver tolerance"),
}
_AUGMENT_FLAGS = {
    "score_tolerance": ("--delta", "score similarity tolerance"),
    "max_variants_per_sample": ("--max-variants", "cap on variants per mention"),
    "include_flips": ("--no-flips", "skip opposite-sign substitutions (default: flips enabled)"),
    "rng_seed": ("--seed", "rng seed"),
}
_TRAIN_FLAGS = {
    "window": ("--window", "convolution window height"),
    "filter_count": ("--filters", "convolution filters"),
    "pool_window": ("--pool-window", "pooling chunk height"),
    "pooling": ("--pooling", "pooling mode", {"choices": POOLING_MODES, "metavar": None}),
    "activation": ("--activation", "convolution activation", {"choices": ACTIVATIONS, "metavar": None}),
    "dropout_rate": ("--dropout", "dropout rate"),
    "learning_rate": ("--learning-rate", "SGD step"),
    "epochs": ("--epochs", "training epochs"),
    "batch_size": ("--batch-size", "mini-batch size"),
    "rng_seed": ("--seed", "rng seed"),
    "sequence_length": ("--sequence-length", "padded token sequence length"),
    "embedding_dim": ("--embedding-dim", "embedding width"),
}
_CORPUS_FLAGS = {
    "size": ("--size", "mention count"),
    "word_count": ("--words", "sentiment word count"),
    "adverb_count": ("--adverbs", "modifier count"),
    # Text for _parse_mix, so a malformed mix exits 1, not 2.
    "class_mix": (
        "--mix",
        "positive,negative,neutral fractions",
        {"default": ",".join(str(CorpusConfig().class_mix[label]) for label in LABELS)},
    ),
    "noise_rate": ("--noise", "label flip rate"),
    "min_occurrences": ("--min-occurrences", "per-term coverage floor"),
    "adverb_rate": ("--adverb-rate", "chance a sentiment word is modified"),
    "rng_seed": ("--seed", "rng seed"),
}
_VOCAB_FLAGS = {"vocab_size": ("--vocab-size", "vocabulary cap")}
# Every table maps a shared field, rng_seed, to the same flag.
_FLAG_OF = {
    name: spec[0]
    for table in (_LEARN_FLAGS, _AUGMENT_FLAGS, _TRAIN_FLAGS, _CORPUS_FLAGS, _VOCAB_FLAGS)
    for name, spec in table.items()
}


def _add_config_flags(parser: argparse.ArgumentParser, defaults, table: dict) -> None:
    """Add one flag per ``{field: (flag, help[, overrides])}`` entry, typed and
    defaulted by ``defaults`` unless ``overrides`` (argparse keywords) say
    otherwise. A boolean field is on by default and its flag turns it off."""
    for name, (flag, text, *overrides) in table.items():
        default = getattr(defaults, name)
        if isinstance(default, bool):
            parser.add_argument(flag, dest=name, action="store_false", help=text)
            continue
        spec = {"default": default, "metavar": flag[2:].replace("-", "_").upper()}
        spec.update(*overrides)
        parser.add_argument(
            flag,
            dest=name,
            type=type(spec["default"]),
            help=f"{text} (default: {spec['default']})",
            **spec,
        )


def _checked(build, *args, **values):
    """The config ``build(*args, **values)`` returns. A value it rejects is
    reported as ``FLAG: message``: each config check's message begins with
    the name of the field it rejects."""
    try:
        return build(*args, **values)
    except ValueError as exc:
        flag = _FLAG_OF.get(str(exc).split(" ", 1)[0])
        if flag is None:
            raise
        raise ValueError(f"{flag}: {exc}") from None


def _config(cls, args: argparse.Namespace, **overrides):
    """``cls`` from the parsed fields it has; fields without a flag keep their default."""
    parsed = vars(args)
    values = {f.name: parsed[f.name] for f in fields(cls) if f.name in parsed}
    return _checked(cls, **(values | overrides))


def _parse_penalty(text: str) -> PenaltyMatrix:
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
        if {len(row) for row in rows} != {3}:
            raise ValueError("each row must hold three comma-separated weights")
        return PenaltyMatrix(np.array(rows))
    except ValueError as exc:
        raise ValueError(f"--penalty: {exc}") from None


def _parse_mix(text: str) -> dict[str, float]:
    try:
        parts = [float(x) for x in text.split(",")]
        if len(parts) != 3:
            raise ValueError("class mix must be three comma-separated fractions")
    except ValueError as exc:
        raise ValueError(f"--mix: {exc}") from None
    return dict(zip(LABELS, parts))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentiscore",
        description="Sentiment scoring, augmentation, training, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "learn-scores",
        help="learn lexicon scores from labeled mentions",
        description="Alternately fit modifier and word scores to mention targets.",
    )
    p.add_argument("--mentions", required=True, help="labeled mention TSV")
    p.add_argument("--lexicon", required=True, help="seed lexicon TSV")
    p.add_argument("--out", required=True, help="path for the learned lexicon TSV")
    p.add_argument("--trace", help="objective trace TSV (default: OUT.trace)")
    _add_config_flags(p, LearningConfig(), _LEARN_FLAGS)

    p = sub.add_parser(
        "augment",
        help="generate score-similar variants of a corpus",
        description=(
            "Substitute sentiment words with peers of similar score; "
            "opposite-sign substitutions flip the label."
        ),
    )
    p.add_argument("--corpus", required=True, help="labeled mention TSV")
    p.add_argument("--lexicon", required=True, help="scored lexicon TSV")
    p.add_argument("--out", required=True, help="augmented corpus TSV")
    _add_config_flags(p, AugmentConfig(), _AUGMENT_FLAGS)

    p = sub.add_parser(
        "train",
        help="train the CNN classifier and write a checkpoint",
        description="Train the text classifier on a labeled mention corpus.",
    )
    p.add_argument("--corpus", required=True, help="labeled mention TSV")
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_config_flags(p, CnnConfig(), _TRAIN_FLAGS)
    _add_config_flags(p, ExperimentConfig(), _VOCAB_FLAGS)
    p.add_argument(
        "--weighted-ce",
        action="store_true",
        help="train with penalty-weighted cross entropy (default: plain)",
    )
    p.add_argument("--penalty", type=str, default=None, help=_PENALTY_HELP)
    _add_config_flags(p, CnnConfig(), {"finetune_embeddings": (
        "--static-embeddings", "freeze embedding rows during training (default: fine-tune)"
    )})

    p = sub.add_parser(
        "evaluate",
        help="k-fold evaluation of an experiment variant",
        description=(
            "Run stratified k-fold evaluation. Variants: cnn, cnn-quad "
            "(learned scores + augmentation), cnn-cross (weighted cross "
            "entropy, default penalties 1,4,3;4,1,3;2,2,1), cnn-total (both)."
        ),
    )
    p.add_argument("--corpus", required=True, help="labeled mention TSV")
    p.add_argument("--config", help="experiment config INI (default: built-ins)")
    p.add_argument("--lexicon", help="seed lexicon TSV for quad/total variants")
    p.add_argument("--out", required=True, help="report path")
    p.add_argument(
        "--variant",
        choices=VARIANTS,
        default=None,
        help="override the config's experiment variant",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the config's rng seed (default: keep config value)",
    )

    p = sub.add_parser(
        "predict",
        help="classify text lines with a trained checkpoint",
        description=(
            "Read one text per line and write 'label<TAB>p_pos p_neg p_neu'."
        ),
    )
    p.add_argument("--checkpoint", required=True, help="trained checkpoint path")
    p.add_argument("--input", help="text file, one mention per line (default: stdin)")
    p.add_argument("--entity", help="entity name to mask as TARGET before tokenizing")

    p = sub.add_parser(
        "gen-corpus",
        help="generate a synthetic labeled corpus with known scores",
        description=(
            "Write a templated corpus and the ground-truth lexicon that "
            "scored it."
        ),
    )
    p.add_argument("--out", required=True, help="corpus TSV path")
    p.add_argument("--lexicon-out", required=True, help="ground-truth lexicon path")
    _add_config_flags(p, CorpusConfig(), _CORPUS_FLAGS)

    return parser


def _load_records(path) -> list[MentionRecord]:
    """The records of a mention file that must hold at least one."""
    records = load_mention_records(path)
    if not records:
        raise ValueError(f"{path}: no mention records")
    return records


def _cmd_learn_scores(args: argparse.Namespace) -> int:
    records = _load_records(args.mentions)
    seed_lexicon = load_lexicon(args.lexicon)
    mentions = prepare_mentions(records, seed_lexicon)
    if not any(m.pair_indices for m in mentions):
        raise ValueError(f"{args.mentions}: no sentiment word occurrences")
    trace = train_iterative(mentions, seed_lexicon, _config(LearningConfig, args))
    save_lexicon(trace.lexicon, args.out)
    with open(args.trace, "w", encoding="utf-8") as fh:
        fh.write("# iteration\tadverb_objective\tword_objective\n")
        for line in trace.trace_lines():
            fh.write(line + "\n")
        if not trace.converged:
            fh.write("# warning: solver did not converge\n")
    if not trace.converged:
        print("warning: solver did not converge; lexicon written", file=sys.stderr)
        return 2
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    records = load_mention_records(args.corpus)
    lexicon = load_lexicon(args.lexicon)
    mentions = prepare_mentions(records, lexicon)
    samples = augment_corpus(mentions, lexicon, _config(AugmentConfig, args))
    scores = {label: repr(score) for label, score in LABEL_SCORES.items()}
    texts = splice_variants(mentions, samples)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{text}\t{sample.label}\t{scores[sample.label]}\t\t{sample.provenance}\n"
            for text, sample in zip(texts, samples)
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    _checked(ExperimentConfig, vocab_size=args.vocab_size)
    if args.penalty is not None and not args.weighted_ce:
        raise ValueError("--penalty applies only with --weighted-ce")
    penalty = None
    if args.weighted_ce:
        penalty = PenaltyMatrix.default() if args.penalty is None else _parse_penalty(args.penalty)
    records = _load_records(args.corpus)
    config = _config(CnnConfig, args)
    model, vocab, _ = train_classifier(
        [tokenize(masked_text(r.text, r.entity)) for r in records],
        [r.label for r in records],
        config,
        args.vocab_size,
        penalty,
    )
    save_checkpoint(args.out, model, vocab, config)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config) if args.config else ExperimentConfig()
    overrides = {"variant": args.variant, "rng_seed": args.seed}
    config = _checked(replace, config, **{k: v for k, v in overrides.items() if v is not None})
    records = _load_records(args.corpus)
    seed_lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    report = run_experiment(config, records, seed_lexicon)
    save_report(args.out, report)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if args.entity is not None and not args.entity.strip():
        raise ValueError("--entity must hold a non-space character")
    model, vocab, config = load_checkpoint(args.checkpoint)
    # Standard input is read as the file is: strict UTF-8, universal newlines.
    binary = open(args.input, "rb") if args.input else io.BytesIO(sys.stdin.buffer.read())
    with io.TextIOWrapper(binary, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise ValueError(f"{args.input or '<stdin>'}: not UTF-8 text") from None
    texts = (line.rstrip("\n") for line in lines)
    tokens = (tokenize(masked_text(text, args.entity)) for text in texts if text)
    labels, probs = predict(model, tokens, vocab, config)
    for label, (pos, neg, neu) in zip(labels, probs.tolist()):
        print(f"{label}\t{pos:.6f} {neg:.6f} {neu:.6f}")
    return 0


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    config = _config(CorpusConfig, args, class_mix=_parse_mix(args.class_mix))
    records, lexicon = generate_corpus(config)
    save_mention_records(records, args.out)
    save_lexicon(lexicon, args.lexicon_out)
    return 0


_COMMANDS = {
    "learn-scores": _cmd_learn_scores,
    "augment": _cmd_augment,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "gen-corpus": _cmd_gen_corpus,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Before any work: each output is a file in an existing directory,
        # naming neither another output nor an input.
        if args.command == "learn-scores":
            args.trace = args.trace or f"{args.out}.trace"
        claimed = {
            os.path.realpath(path): flag
            for flag in ("--mentions", "--lexicon", "--corpus", "--config", "--checkpoint", "--input")
            if (path := getattr(args, flag[2:], None))
        }
        for flag in ("--out", "--trace", "--lexicon-out"):
            path = getattr(args, flag[2:].replace("-", "_"), None)
            if not path:
                continue
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"{flag} {path}: not a file in an existing directory")
            first = claimed.setdefault(os.path.realpath(path), flag)
            if first != flag:
                raise ValueError(f"{first} and {flag} name one file: {path}")
        return _COMMANDS[args.command](args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
