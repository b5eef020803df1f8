"""Command-line entry point wiring the toolkit's pipelines together.

Exit codes: 0 success, 1 malformed or missing input, 2 runtime failure
(non-convergence, diverged training). All randomness in a command flows
from its single --seed flag, so identical invocations write identical
bytes.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from sentiscore.augment import AugmentConfig, augment_corpus
from sentiscore.cnn import (
    ACTIVATIONS,
    POOLING_MODES,
    CnnConfig,
    CnnError,
    TrainingDiverged,
    fit,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from sentiscore.embeddings import sequence_indices
from sentiscore.learner import LearnerError, LearningConfig, train_iterative
from sentiscore.lexicon import (
    LABEL_INDEX,
    LABEL_SCORES,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    LexiconError,
    load_lexicon,
    load_mention_records,
    mask_target,
    prepare_mentions,
    save_lexicon,
    save_mention_records,
    tokenize,
)
from sentiscore.losses import LossError, PenaltyMatrix
from sentiscore.evaluate import (
    VARIANTS,
    EvalError,
    ExperimentConfig,
    load_experiment_config,
    run_experiment,
    save_report,
)
from sentiscore.synthetic import CorpusConfig, GeneratorError, generate_corpus
from sentiscore.vocab import build_vocab

_INPUT_ERRORS = (
    LexiconError,
    LearnerError,
    LossError,
    EvalError,
    GeneratorError,
    CnnError,
    OSError,
    ValueError,
)

_PENALTY_HELP = (
    "penalty rows 'p11,p12,p13;p21,p22,p23;p31,p32,p33' indexed "
    "[predicted][expected] in label order positive negative neutral "
    "(default: 1,4,3;4,1,3;2,2,1)"
)


#: ``train`` flag and help text per CnnConfig field but finetune_embeddings
#: (set off by ``--static-embeddings``); types and defaults come from
#: ``CnnConfig()``.
_TRAIN_FLAGS = {
    "window": ("--window", "convolution window height"),
    "filter_count": ("--filters", "convolution filters"),
    "pool_window": ("--pool-window", "pooling chunk height"),
    "pooling": ("--pooling", "pooling mode"),
    "activation": ("--activation", "convolution activation"),
    "dropout_rate": ("--dropout", "dropout rate"),
    "learning_rate": ("--learning-rate", "SGD step"),
    "epochs": ("--epochs", "training epochs"),
    "batch_size": ("--batch-size", "mini-batch size"),
    "rng_seed": ("--seed", "rng seed"),
    "sequence_length": ("--sequence-length", "padded token sequence length"),
    "embedding_dim": ("--embedding-dim", "embedding width"),
}
_TRAIN_CHOICES = {"pooling": POOLING_MODES, "activation": ACTIVATIONS}


def _parse_penalty(text: str) -> PenaltyMatrix:
    rows = []
    for chunk in text.split(";"):
        rows.append([float(x) for x in chunk.split(",")])
    return PenaltyMatrix(np.array(rows))


def _parse_mix(text: str) -> dict[str, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("class mix must be three comma-separated fractions")
    return {
        POSITIVE: float(parts[0]),
        NEGATIVE: float(parts[1]),
        NEUTRAL: float(parts[2]),
    }


def _masked(text: str, entity: str | None) -> str:
    return mask_target(text, entity) if entity else text


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
    learning = LearningConfig()
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=learning.lam,
        help=f"ridge regularization strength (default: {learning.lam})",
    )
    p.add_argument(
        "--iters",
        type=int,
        default=learning.max_outer_iterations,
        help=f"max outer iterations (default: {learning.max_outer_iterations})",
    )
    p.add_argument(
        "--tol",
        type=float,
        default=learning.solver_tol,
        help=f"solver tolerance (default: {learning.solver_tol})",
    )
    p.add_argument("--seed", type=int, default=0, help="rng seed (default: 0)")

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
    augment = AugmentConfig()
    p.add_argument(
        "--delta",
        type=float,
        default=augment.score_tolerance,
        help=f"score similarity tolerance (default: {augment.score_tolerance})",
    )
    p.add_argument(
        "--max-variants",
        type=int,
        default=augment.max_variants_per_sample,
        help=f"cap on variants per mention (default: {augment.max_variants_per_sample})",
    )
    p.add_argument(
        "--no-flips",
        action="store_true",
        help="skip opposite-sign substitutions (default: flips enabled)",
    )
    p.add_argument("--seed", type=int, default=0, help="rng seed (default: 0)")

    p = sub.add_parser(
        "train",
        help="train the CNN classifier and write a checkpoint",
        description="Train the text classifier on a labeled mention corpus.",
    )
    p.add_argument("--corpus", required=True, help="labeled mention TSV")
    p.add_argument("--out", required=True, help="checkpoint path")
    cnn_defaults = CnnConfig()
    for f in fields(CnnConfig):
        if f.name == "finetune_embeddings":
            continue
        flag, text = _TRAIN_FLAGS[f.name]
        default = getattr(cnn_defaults, f.name)
        choices = _TRAIN_CHOICES.get(f.name)
        p.add_argument(
            flag,
            dest=f.name,
            type=type(default),
            default=default,
            choices=choices,
            metavar=None if choices else flag[2:].replace("-", "_").upper(),
            help=f"{text} (default: {default})",
        )
    p.add_argument(
        "--vocab-size", type=int, default=5000, help="vocabulary cap (default: 5000)"
    )
    p.add_argument(
        "--weighted-ce",
        action="store_true",
        help="train with penalty-weighted cross entropy (default: plain)",
    )
    p.add_argument("--penalty", type=str, default=None, help=_PENALTY_HELP)
    p.add_argument(
        "--static-embeddings",
        dest="finetune_embeddings",
        action="store_false",
        help="freeze embedding rows during training (default: fine-tune)",
    )

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
    p.add_argument("--size", type=int, default=500, help="mention count (default: 500)")
    p.add_argument(
        "--words", type=int, default=20, help="sentiment word count (default: 20)"
    )
    p.add_argument("--adverbs", type=int, default=5, help="modifier count (default: 5)")
    p.add_argument(
        "--mix",
        type=str,
        default="0.3,0.3,0.4",
        help="positive,negative,neutral fractions (default: 0.3,0.3,0.4)",
    )
    p.add_argument(
        "--noise", type=float, default=0.0, help="label flip rate (default: 0.0)"
    )
    p.add_argument(
        "--min-occurrences",
        type=int,
        default=3,
        help="per-term coverage floor (default: 3)",
    )
    p.add_argument(
        "--adverb-rate",
        type=float,
        default=0.5,
        help="chance a sentiment word is modified (default: 0.5)",
    )
    p.add_argument("--seed", type=int, default=0, help="rng seed (default: 0)")

    return parser


def _cmd_learn_scores(args: argparse.Namespace) -> int:
    records = load_mention_records(args.mentions)
    seed_lexicon = load_lexicon(args.lexicon)
    mentions = prepare_mentions(records, seed_lexicon)
    config = LearningConfig(
        max_outer_iterations=args.iters, lam=args.lam, solver_tol=args.tol
    )
    trace = train_iterative(mentions, seed_lexicon, config)
    save_lexicon(trace.lexicon, args.out)
    trace_path = args.trace or f"{args.out}.trace"
    with open(trace_path, "w", encoding="utf-8") as fh:
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
    config = AugmentConfig(
        score_tolerance=args.delta,
        max_variants_per_sample=args.max_variants,
        include_flips=not args.no_flips,
        rng_seed=args.seed,
    )
    samples = augment_corpus(mentions, lexicon, config)
    with open(args.out, "w", encoding="utf-8") as fh:
        for sample in samples:
            score = repr(LABEL_SCORES[sample.label])
            fh.write(
                f"{sample.text}\t{sample.label}\t{score}\t\t{sample.provenance}\n"
            )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    records = load_mention_records(args.corpus)
    config = CnnConfig(**{f.name: getattr(args, f.name) for f in fields(CnnConfig)})
    token_lists = [tokenize(_masked(r.text, r.entity)) for r in records]
    vocab = build_vocab(token_lists, args.vocab_size)
    dataset = [
        (sequence_indices(tokens, vocab, config.sequence_length), LABEL_INDEX[r.label])
        for tokens, r in zip(token_lists, records)
    ]
    penalty = None
    if args.weighted_ce:
        penalty = _parse_penalty(args.penalty) if args.penalty else PenaltyMatrix.default()
    model = init_model(len(vocab), config)
    model, _ = fit(model, dataset, config, penalty)
    save_checkpoint(args.out, model, vocab, config)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config) if args.config else ExperimentConfig()
    if args.variant is not None:
        config = replace(config, variant=args.variant)
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    records = load_mention_records(args.corpus)
    seed_lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    report = run_experiment(config, records, seed_lexicon)
    save_report(args.out, report)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model, vocab, config = load_checkpoint(args.checkpoint)
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = sys.stdin.readlines()
    texts = (line.rstrip("\n") for line in lines)
    tokens = (tokenize(_masked(text, args.entity)) for text in texts if text)
    for label, probs in zip(*predict(model, tokens, vocab, config)):
        formatted = " ".join(f"{p:.6f}" for p in probs)
        print(f"{label}\t{formatted}")
    return 0


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    config = CorpusConfig(
        size=args.size,
        word_count=args.words,
        adverb_count=args.adverbs,
        class_mix=_parse_mix(args.mix),
        noise_rate=args.noise,
        min_occurrences=args.min_occurrences,
        adverb_rate=args.adverb_rate,
        rng_seed=args.seed,
    )
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
        return _COMMANDS[args.command](args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
