"""Cross-validation harness: folds, rebalancing, metrics, experiments.

The experiment grid mirrors the toolkit's enhancement axes. Variant
``cnn`` trains the classifier as-is; ``cnn-quad`` adds learned lexicon
scores and score-driven augmentation of the training folds;
``cnn-cross`` swaps the loss for penalty-weighted cross entropy;
``cnn-total`` applies both. Reports carry per-fold confusion matrices,
per-class metrics, and macro aggregates with mean and standard
deviation, plus an echo of the full configuration.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, Sequence

import numpy as np

from sentiscore.augment import AugmentConfig, augment_corpus
from sentiscore.cnn import CnnConfig, predict, train_classifier
# Unused here, but perfbench/tests/test_perfbench.py checks that its tracer
# rebinds this cross-module import of cnn.fit and restores it.
from sentiscore.cnn import fit  # noqa: F401
from sentiscore.learner import LearningConfig, train_iterative
from sentiscore.lexicon import (
    LABEL_INDEX,
    LABELS,
    Lexicon,
    MentionRecord,
    masked_text,
    prepare_mentions,
    tokenize,
)
from sentiscore.losses import PenaltyMatrix

VARIANTS = ("cnn", "cnn-quad", "cnn-cross", "cnn-total")


class EvalError(ValueError):
    """Raised on invalid harness configuration or inputs."""


def variant_uses_learner(variant: str) -> bool:
    return variant in ("cnn-quad", "cnn-total")


def variant_uses_weighted_loss(variant: str) -> bool:
    return variant in ("cnn-cross", "cnn-total")


# ----------------------------------------------------------------------
# Confusion matrices and metrics.


@dataclass
class ConfusionMatrix:
    """3x3 integer counts indexed [predicted][expected] in label order."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f_measure: float


@dataclass
class MetricsReport:
    per_class: dict[str, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f: float


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class precision/recall/F and their unweighted macro means.

    Precision divides the diagonal by the predicted row sum, recall by
    the expected column sum; any zero denominator yields 0, as does an
    F-measure whose precision and recall are both 0.
    """
    per_class: dict[str, ClassMetrics] = {}
    for label in LABELS:
        i = LABEL_INDEX[label]
        hit = float(cm.counts[i, i])
        precision = _safe_ratio(hit, float(cm.counts[i, :].sum()))
        recall = _safe_ratio(hit, float(cm.counts[:, i].sum()))
        f_measure = _safe_ratio(2.0 * precision * recall, precision + recall)
        per_class[label] = ClassMetrics(precision, recall, f_measure)
    return MetricsReport(
        per_class=per_class,
        macro_precision=sum(m.precision for m in per_class.values()) / len(LABELS),
        macro_recall=sum(m.recall for m in per_class.values()) / len(LABELS),
        macro_f=sum(m.f_measure for m in per_class.values()) / len(LABELS),
    )


# ----------------------------------------------------------------------
# Fold assignment and class rebalancing.


def kfold_split(labels: Sequence[str], k: int, seed: int) -> list[int]:
    """Stratified fold ids, one per example label, deterministic in ``seed``.

    Each label's examples are shuffled and dealt round-robin, so
    per-label fold sizes differ by at most one. Labels start the deal at
    staggered offsets to keep overall fold sizes close as well.
    """
    if k < 1:
        raise EvalError("k must be >= 1")
    if k > len(labels):
        raise EvalError(f"k={k} exceeds the {len(labels)} available examples")
    for label in labels:
        if label not in LABEL_INDEX:
            raise EvalError(f"unknown label {label!r}")
    rng = np.random.default_rng(seed)
    assignment = [0] * len(labels)
    for offset, label in enumerate(LABELS):
        indices = [i for i, other in enumerate(labels) if other == label]
        order = rng.permutation(len(indices))
        for position, where in enumerate(order):
            assignment[indices[int(where)]] = (position + offset) % k
    return assignment


def rebalance(labels: Sequence[str], seed: int) -> list[int]:
    """Indices that oversample minority classes to the majority count, seeded.

    Every original index comes first, in order; duplicates are drawn
    uniformly with replacement per class and appended in label order.
    """
    if not labels:
        raise EvalError("cannot rebalance an empty training set")
    rng = np.random.default_rng(seed)
    by_label: dict[str, list[int]] = {label: [] for label in LABELS}
    for i, label in enumerate(labels):
        by_label[label].append(i)
    majority = max(len(group) for group in by_label.values())
    out = list(range(len(labels)))
    for group in by_label.values():
        if not group:
            continue
        for _ in range(majority - len(group)):
            out.append(group[int(rng.integers(len(group)))])
    return out


# ----------------------------------------------------------------------
# Experiment configuration and its text format.


@dataclass(frozen=True)
class ExperimentConfig:
    k: int = 5
    rebalance: bool = True
    variant: str = "cnn"
    rng_seed: int = 0
    vocab_size: int = 5000
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
    cnn: CnnConfig = field(default_factory=CnnConfig)
    penalty: PenaltyMatrix = field(default_factory=PenaltyMatrix.default)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise EvalError("k must be >= 2")
        if self.variant not in VARIANTS:
            raise EvalError(f"variant must be one of {VARIANTS}")
        if self.rng_seed < 0:
            raise EvalError("rng_seed must be >= 0")
        if self.vocab_size < 1:
            raise EvalError(f"vocab_size must be >= 1, got {self.vocab_size}")
        for name, sub in _nested(self).items():
            if getattr(sub, "rng_seed", 0) != 0:
                raise EvalError(
                    f"{name}.rng_seed must be 0, got {sub.rng_seed}: each fold's seed "
                    "derives from the experiment's rng_seed"
                )


def _nested(config: ExperimentConfig) -> dict[str, object]:
    """Sub-configs written as one key per field; the penalty matrix has its own form."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    return {k: v for k, v in values.items() if is_dataclass(v) and k != "penalty"}


def _keys(config) -> list[str]:
    """A section's keys: the config's plain (non-dataclass) field names, in
    field order, less a nested config's rng_seed, which each fold sets."""
    return [
        f.name
        for f in fields(config)
        if not is_dataclass(getattr(config, f.name))
        and (f.name != "rng_seed" or isinstance(config, ExperimentConfig))
    ]


def _text(name: str, value) -> str:
    if name == "antonyms":
        return " ".join(f"{a}:{b}" for a, b in sorted(value.items()))
    if name == "comparatives":
        return "auto" if value is None else " ".join(sorted(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read(cp: configparser.ConfigParser, section: str, name: str, default):
    """Parse one key that the text sets; the default's type picks the parser."""
    if name == "antonyms":
        antonyms = {}
        for pair in cp.get(section, name).split():
            if ":" not in pair:
                raise EvalError(f"bad antonym pair {pair!r}, expected a:b")
            a, b = pair.split(":", 1)
            if a in antonyms:
                raise EvalError(f"antonym term {a!r} is mapped twice")
            antonyms[a] = b
        return antonyms
    if name == "comparatives":
        raw = cp.get(section, name).strip()
        return None if raw == "auto" else frozenset(raw.split())
    if isinstance(default, bool):
        return cp.getboolean(section, name)
    if isinstance(default, int):
        return cp.getint(section, name)
    if isinstance(default, float):
        return cp.getfloat(section, name)
    return cp.get(section, name)


def _read_section(cp: configparser.ConfigParser, section: str, default):
    """``default`` with every plain field the section sets replaced."""
    return replace(
        default,
        **{
            name: _read(cp, section, name, getattr(default, name))
            for name in _keys(default)
            if cp.has_option(section, name)
        },
    )


def _parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)  # a value's "%" is literal
    cp.optionxform = str  # keep keys verbatim
    return cp


def config_to_text(config: ExperimentConfig) -> str:
    """Render a config as INI-style sections, parseable back losslessly."""
    cp = _parser()
    for section, sub in {"experiment": config, **_nested(config)}.items():
        cp[section] = {name: _text(name, getattr(sub, name)) for name in _keys(sub)}
    cp["penalty"] = {
        label: " ".join(repr(float(x)) for x in config.penalty.weights[LABEL_INDEX[label]])
        for label in LABELS
    }
    buffer = io.StringIO()
    cp.write(buffer)
    return buffer.getvalue()


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse the INI form; absent keys fall back to defaults, unknown ones raise."""
    cp = _parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise EvalError(f"malformed experiment config: {exc}") from None
    defaults = ExperimentConfig()
    known = {"experiment": _keys(defaults), "penalty": LABELS}
    known.update((section, _keys(sub)) for section, sub in _nested(defaults).items())
    if cp.defaults():  # its keys would reach every section unseen
        raise EvalError(f"unknown experiment config section [{cp.default_section}]")
    for section in cp.sections():
        if section not in known:
            raise EvalError(f"unknown experiment config section [{section}]")
        for key in cp.options(section):
            if key not in known[section]:
                raise EvalError(f"unknown key {key!r} in experiment config section [{section}]")
    try:
        nested = {
            section: _read_section(cp, section, sub)
            for section, sub in _nested(defaults).items()
        }
        penalty = defaults.penalty
        if cp.has_section("penalty"):
            rows = []
            for label in LABELS:
                if not cp.has_option("penalty", label):
                    raise EvalError(f"penalty section is missing the {label} row")
                row = [float(x) for x in cp.get("penalty", label).split()]
                if len(row) != 3:
                    raise ValueError(f"penalty {label} row must hold three weights, got {len(row)}")
                rows.append(row)
            penalty = PenaltyMatrix(np.array(rows))
        return _read_section(cp, "experiment", replace(defaults, **nested, penalty=penalty))
    except ValueError as exc:
        if isinstance(exc, EvalError):
            raise
        raise EvalError(f"malformed experiment config: {exc}") from None


def load_experiment_config(path) -> ExperimentConfig:
    """Read and parse a config file; every error it raises names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_experiment_config(text)
    except UnicodeDecodeError:
        raise EvalError(f"{path}: not UTF-8 text") from None
    except EvalError as exc:
        raise EvalError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------
# Running an experiment.


@dataclass
class FoldResult:
    index: int
    confusion: ConfusionMatrix
    metrics: MetricsReport
    train_size: int
    test_size: int


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    folds: list[FoldResult]
    macro_precision_mean: float
    macro_precision_std: float
    macro_recall_mean: float
    macro_recall_std: float
    macro_f_mean: float
    macro_f_std: float

    @property
    def pooled_confusion(self) -> ConfusionMatrix:
        return ConfusionMatrix(sum(fold.confusion.counts for fold in self.folds))


def _fold_seed(base: int, fold: int) -> int:
    return (base * 1009 + fold) % 2**32


def run_experiment(
    config: ExperimentConfig,
    records: Sequence[MentionRecord],
    seed_lexicon: Lexicon | None = None,
    on_fold: Callable[[FoldResult], None] | None = None,
) -> ExperimentReport:
    """Run the k-fold pipeline for one variant and aggregate the folds.

    Each record is labeled, masked, tokenized and (for the learner
    variants) made a mention once; folds take these by index. Per fold:
    optionally learn lexicon scores on the training split and augment it
    with score-similar substitutions, optionally rebalance, build the
    vocabulary from training texts only, train the classifier with the
    variant's loss, and score the held-out split. Augmentation and score
    learning never see test examples. ``on_fold`` is invoked with each
    finished fold, for progress reporting.
    """
    if not records:
        raise EvalError("corpus is empty")
    learns = variant_uses_learner(config.variant)
    if learns and seed_lexicon is None:
        raise EvalError(f"variant {config.variant} requires a seed lexicon")
    labels = [r.label for r in records]
    assignment = np.array(kfold_split(labels, config.k, config.rng_seed))
    expected = np.array([LABEL_INDEX[label] for label in labels])
    if learns:  # each mention has masked and tokenized its record
        mentions = prepare_mentions(records, seed_lexicon)
        tokens = [m.tokens for m in mentions]
    else:
        tokens = [tokenize(masked_text(r.text, r.entity)) for r in records]
    penalty = config.penalty if variant_uses_weighted_loss(config.variant) else None

    fold_results: list[FoldResult] = []
    for fold in range(config.k):
        train, test = np.flatnonzero(assignment != fold), np.flatnonzero(assignment == fold)
        seed = _fold_seed(config.rng_seed, fold)

        train_tokens = [tokens[i] for i in train]
        train_labels = [labels[i] for i in train]
        if learns:
            train_mentions = [mentions[i] for i in train]
            if not any(m.pair_indices for m in train_mentions):
                raise EvalError(f"fold {fold}: no sentiment word occurrences in its training split")
            trace = train_iterative(train_mentions, seed_lexicon, config.learning)
            augment_cfg = replace(config.augment, rng_seed=seed)
            for edits, label, source, _ in augment_corpus(
                train_mentions, trace.lexicon, augment_cfg
            ):
                variant = list(train_mentions[source].tokens)
                for idx, term in edits:
                    variant[idx] = term
                train_tokens.append(variant)
                train_labels.append(label)
        if config.rebalance:
            order = rebalance(train_labels, seed)
            train_tokens = [train_tokens[i] for i in order]
            train_labels = [train_labels[i] for i in order]

        cnn_cfg = replace(config.cnn, rng_seed=seed)
        model, vocab, _ = train_classifier(
            train_tokens, train_labels, cnn_cfg, config.vocab_size, penalty
        )
        _, probs = predict(model, [tokens[i] for i in test], vocab, cnn_cfg)
        counts = np.bincount(3 * probs.argmax(axis=1) + expected[test], minlength=9)
        cm = ConfusionMatrix(counts.reshape(3, 3))
        result = FoldResult(fold, cm, metrics(cm), len(train_labels), len(test))
        fold_results.append(result)
        if on_fold is not None:
            on_fold(result)

    precisions = np.array([f.metrics.macro_precision for f in fold_results])
    recalls = np.array([f.metrics.macro_recall for f in fold_results])
    fs = np.array([f.metrics.macro_f for f in fold_results])
    return ExperimentReport(
        config=config,
        folds=fold_results,
        macro_precision_mean=float(precisions.mean()),
        macro_precision_std=float(precisions.std()),
        macro_recall_mean=float(recalls.mean()),
        macro_recall_std=float(recalls.std()),
        macro_f_mean=float(fs.mean()),
        macro_f_std=float(fs.std()),
    )


# ----------------------------------------------------------------------
# Report rendering.


def _metrics_lines(report: MetricsReport, indent: str) -> list[str]:
    lines = []
    for label in LABELS:
        m = report.per_class[label]
        lines.append(
            f"{indent}{label:<9}"
            f"precision={m.precision:.6f} recall={m.recall:.6f} f={m.f_measure:.6f}"
        )
    lines.append(
        f"{indent}{'macro':<9}"
        f"precision={report.macro_precision:.6f} "
        f"recall={report.macro_recall:.6f} f={report.macro_f:.6f}"
    )
    return lines


def _matrix_lines(cm: ConfusionMatrix, indent: str) -> list[str]:
    lines = [f"{indent}confusion [predicted x expected], order {' '.join(LABELS)}:"]
    for i in range(3):
        row = " ".join(f"{int(cm.counts[i, j]):>6d}" for j in range(3))
        lines.append(f"{indent}  {row}")
    return lines


def format_report(report: ExperimentReport) -> str:
    """Render a report as stable, diff-friendly text."""
    lines = [
        "sentiscore experiment report",
        f"variant: {report.config.variant}",
        f"folds: {len(report.folds)}",
        f"evaluated examples: {report.pooled_confusion.total}",
        "",
        "[configuration]",
    ]
    lines.extend("  " + line for line in config_to_text(report.config).splitlines())
    for fold in report.folds:
        lines.append("")
        lines.append(f"fold {fold.index}: train={fold.train_size} test={fold.test_size}")
        lines.extend(_matrix_lines(fold.confusion, "  "))
        lines.extend(_metrics_lines(fold.metrics, "  "))
    lines.append("")
    lines.append("pooled over folds:")
    lines.extend(_matrix_lines(report.pooled_confusion, "  "))
    lines.append("")
    lines.append("aggregate (mean +- std over folds):")
    lines.append(
        f"  macro precision {report.macro_precision_mean:.6f} "
        f"+- {report.macro_precision_std:.6f}"
    )
    lines.append(
        f"  macro recall    {report.macro_recall_mean:.6f} "
        f"+- {report.macro_recall_std:.6f}"
    )
    lines.append(
        f"  macro f         {report.macro_f_mean:.6f} +- {report.macro_f_std:.6f}"
    )
    lines.append("")
    return "\n".join(lines)


def save_report(path, report: ExperimentReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))
