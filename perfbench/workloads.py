"""The benchmark's workloads: inputs made from a seed, one timed cycle, output checks.

Each workload drives sentiscore through its public entry points: the
``sentiscore.cli.main`` commands in-process, or the function a command
calls. Package functions are always looked up through their module at
call time, so a traced run sees every call.

A cycle returns the wall time of each command, the bytes it produced
(for the determinism checks) and what the checks and metrics need.
"""
from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from sentiscore import cli, cnn, evaluate, lexicon, synthetic
from sentiscore.augment import AugmentConfig
from sentiscore.cnn import CnnConfig
from sentiscore.evaluate import ExperimentConfig
from sentiscore.learner import LearningConfig
from sentiscore.lexicon import LABELS, NEGATIVE, NEUTRAL, POSITIVE, MentionRecord
from sentiscore.synthetic import CorpusConfig

#: Entity written into the train-predict texts, masked again by the CLI.
ENTITY = "Nimbus Nine"
#: Generator seed offset of the held-out predict texts.
HELD_OUT_SEED_OFFSET = 7919
#: Each printed probability carries up to 5e-7 of rounding (6 decimals),
#: so three of them may sum 1.5e-6 away from one on top of the 1e-6
#: tolerance the model's own probabilities are held to.
PROB_SUM_TOL = 1e-6 + 3 * 5e-7
#: The label a flip variant must carry, by its source's label.
_FLIPPED = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}


@dataclass
class Outcome:
    seconds: dict[str, float]
    outputs: dict[str, bytes]
    info: dict = field(default_factory=dict)


def _timed_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI command in-process; return exit code, seconds, stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue()


def _read(path: Path) -> bytes:
    """A command's output file, or nothing when the command wrote none."""
    return path.read_bytes() if path.exists() else b""


def _trace_rows(path: Path) -> int:
    """Outer iterations listed in a learn-scores trace file."""
    lines = _read(path).decode("utf-8").splitlines()
    return sum(1 for line in lines if line and not line.startswith("#"))


def _with_entity(records: list[MentionRecord]) -> list[MentionRecord]:
    return [
        MentionRecord(r.text.replace("TARGET", ENTITY), r.label, r.target_score, ENTITY)
        for r in records
    ]


class KfoldTotal:
    """`evaluate` with variant cnn-total, shaped like acceptance criterion 7."""

    name = "kfold-total"
    commands = ("evaluate",)

    def __init__(self, size: int, epochs: int) -> None:
        self.size, self.epochs = size, epochs

    def setup(self, seed: int, workdir: Path) -> dict:
        records, truth = synthetic.generate_corpus(
            CorpusConfig(
                size=self.size,
                word_count=20,
                adverb_count=5,
                class_mix={POSITIVE: 0.15, NEGATIVE: 0.25, NEUTRAL: 0.60},
                noise_rate=0.10,
                mixed_rate=0.3,
                rng_seed=seed,
            )
        )
        config = ExperimentConfig(
            k=5,
            rebalance=True,
            variant="cnn-total",
            rng_seed=seed,
            augment=AugmentConfig(include_flips=False),
            learning=LearningConfig(lam=0.01),
            cnn=CnnConfig(
                filter_count=12,
                embedding_dim=24,
                sequence_length=16,
                epochs=self.epochs,
                learning_rate=0.1,
                dropout_rate=0.5,
            ),
        )
        return {
            "records": records,
            "seed_lexicon": synthetic.coarse_seed_lexicon(truth),
            "config": config,
        }

    def cycle(self, inputs: dict, workdir: Path, on_span=None) -> Outcome:
        def on_fold(result) -> None:
            nonlocal last
            now = time.perf_counter()
            if on_span is not None:
                on_span("evaluate.fold", last, now)
            last = now

        last = start = time.perf_counter()
        report = evaluate.run_experiment(
            inputs["config"], inputs["records"], inputs["seed_lexicon"], on_fold=on_fold
        )
        seconds = time.perf_counter() - start
        return Outcome(
            seconds={"evaluate": seconds},
            outputs={"evaluate": evaluate.format_report(report).encode("utf-8")},
            info={"report": report},
        )

    def check(self, inputs: dict, outcome: Outcome) -> dict[str, list[str]]:
        report, n = outcome.info["report"], len(inputs["records"])
        problems = []
        if sum(f.test_size for f in report.folds) != n:
            problems.append("fold test sizes do not sum to the corpus size")
        for fold in report.folds:
            if fold.confusion.total != fold.test_size:
                problems.append(f"fold {fold.index}: confusion total != test size")
        if report.pooled_confusion.total != n:
            problems.append("pooled confusion total != corpus size")
        if not 0.0 < report.macro_f_mean <= 1.0:
            problems.append(f"macro F out of range: {report.macro_f_mean}")
        return {"evaluate": problems}

    def named(self, inputs: dict, outcome: Outcome) -> dict:
        experiment_s = outcome.seconds["evaluate"]
        sample_epochs = sum(f.train_size for f in outcome.info["report"].folds) * self.epochs
        return {
            "experiment_s": (experiment_s, "s"),
            # One command both fits and applies, so both rates are its
            # training sample-epochs per second.
            "fit_per_s": (sample_epochs / experiment_s, "1/s"),
            "apply_per_s": (sample_epochs / experiment_s, "1/s"),
        }

    def quality(self, inputs: dict, outcome: Outcome) -> dict:
        return {"macro_f": (outcome.info["report"].macro_f_mean, "ratio")}


class TrainPredict:
    """CLI `train` with its defaults, then `predict --entity` on held-out texts."""

    name = "train-predict"
    commands = ("train", "predict")

    def __init__(self, size: int, epochs: int, texts: int) -> None:
        self.size, self.epochs, self.texts = size, epochs, texts

    def setup(self, seed: int, workdir: Path) -> dict:
        shape = dict(word_count=40, adverb_count=8)
        records, _ = synthetic.generate_corpus(
            CorpusConfig(size=self.size, rng_seed=seed, **shape)
        )
        held_out, _ = synthetic.generate_corpus(
            CorpusConfig(size=self.texts, rng_seed=seed + HELD_OUT_SEED_OFFSET, **shape)
        )
        held_out = _with_entity(held_out)
        corpus, texts = workdir / "train.tsv", workdir / "texts.txt"
        lexicon.save_mention_records(_with_entity(records), corpus)
        texts.write_text("".join(r.text + "\n" for r in held_out), encoding="utf-8")
        return {
            "seed": seed,
            "corpus": corpus,
            "texts": texts,
            "labels": [r.label for r in held_out],
        }

    def cycle(self, inputs: dict, workdir: Path, on_span=None) -> Outcome:
        checkpoint = workdir / "model.ckpt"
        train_code, train_s, _ = _timed_cli(
            ["train", "--corpus", str(inputs["corpus"]), "--out", str(checkpoint),
             "--epochs", str(self.epochs), "--seed", str(inputs["seed"])]
        )
        predict_code, predict_s, stdout = _timed_cli(
            ["predict", "--checkpoint", str(checkpoint), "--input", str(inputs["texts"]),
             "--entity", ENTITY]
        )
        return Outcome(
            seconds={"train": train_s, "predict": predict_s},
            outputs={"train": _read(checkpoint), "predict": stdout.encode("utf-8")},
            info={"codes": (train_code, predict_code), "checkpoint": checkpoint, "stdout": stdout},
        )

    def check(self, inputs: dict, outcome: Outcome) -> dict[str, list[str]]:
        train_code, predict_code = outcome.info["codes"]
        train_problems = [] if train_code == 0 else [f"train exit code {train_code}"]
        if train_code == 0:
            model, vocab, config = cnn.load_checkpoint(outcome.info["checkpoint"])
            copy = outcome.info["checkpoint"].with_suffix(".roundtrip")
            cnn.save_checkpoint(copy, model, vocab, config)
            if copy.read_bytes() != outcome.outputs["train"]:
                train_problems.append("checkpoint does not round-trip through load_checkpoint")
        predict_problems = [] if predict_code == 0 else [f"predict exit code {predict_code}"]
        lines = outcome.info["stdout"].splitlines()
        texts = sum(1 for line in inputs["texts"].read_text(encoding="utf-8").splitlines() if line)
        if len(lines) != texts:
            predict_problems.append(f"{len(lines)} output lines for {texts} non-blank input lines")
        for number, line in enumerate(lines, start=1):
            label, _, rest = line.partition("\t")
            probs = [float(p) for p in rest.split()]
            if label not in LABELS or len(probs) != len(LABELS):
                predict_problems.append(f"line {number}: malformed {line!r}")
            elif abs(sum(probs) - 1.0) > PROB_SUM_TOL:
                predict_problems.append(f"line {number}: probabilities sum to {sum(probs)}")
            elif probs[LABELS.index(label)] != max(probs):
                predict_problems.append(f"line {number}: label is not the argmax")
        return {"train": train_problems, "predict": predict_problems}

    def named(self, inputs: dict, outcome: Outcome) -> dict:
        sample_epochs_per_s = self.size * self.epochs / outcome.seconds["train"]
        texts_per_s = len(inputs["labels"]) / outcome.seconds["predict"]
        return {
            "train_sample_epochs_per_s": (sample_epochs_per_s, "1/s"),
            "predict_texts_per_s": (texts_per_s, "1/s"),
            "fit_per_s": (sample_epochs_per_s, "1/s"),
            "apply_per_s": (texts_per_s, "1/s"),
        }

    def quality(self, inputs: dict, outcome: Outcome) -> dict:
        loss = 0.0
        for line, truth in zip(outcome.info["stdout"].splitlines(), inputs["labels"]):
            probs = [float(p) for p in line.partition("\t")[2].split()]
            loss -= math.log(max(probs[LABELS.index(truth)], 1e-6))
        return {"held_out_log_loss": (loss / len(inputs["labels"]), "nat")}


class LexiconScale:
    """CLI `learn-scores`, then `augment` with flips, on a large lexicon."""

    name = "lexicon-scale"
    commands = ("learn-scores", "augment")

    def __init__(self, size: int, words: int) -> None:
        self.size, self.words = size, words

    def setup(self, seed: int, workdir: Path) -> dict:
        records, truth = synthetic.generate_corpus(
            CorpusConfig(size=self.size, word_count=self.words, adverb_count=20, rng_seed=seed)
        )
        seed_lexicon = synthetic.coarse_seed_lexicon(truth)
        mentions, seed_path = workdir / "mentions.tsv", workdir / "seed_lexicon.tsv"
        lexicon.save_mention_records(records, mentions)
        lexicon.save_lexicon(seed_lexicon, seed_path)
        return {
            "seed": seed,
            "records": records,
            "seed_lexicon": seed_lexicon,
            "mentions": mentions,
            "seed_path": seed_path,
        }

    def cycle(self, inputs: dict, workdir: Path, on_span=None) -> Outcome:
        learned, augmented = workdir / "learned.tsv", workdir / "augmented.tsv"
        learn_code, learn_s, _ = _timed_cli(
            ["learn-scores", "--mentions", str(inputs["mentions"]),
             "--lexicon", str(inputs["seed_path"]), "--out", str(learned),
             "--lambda", "0.01", "--iters", "5"]
        )
        augment_code, augment_s, _ = _timed_cli(
            ["augment", "--corpus", str(inputs["mentions"]), "--lexicon", str(learned),
             "--out", str(augmented), "--seed", str(inputs["seed"])]
        )
        return Outcome(
            seconds={"learn-scores": learn_s, "augment": augment_s},
            outputs={"learn-scores": _read(learned), "augment": _read(augmented)},
            info={
                "codes": (learn_code, augment_code),
                "learned": learned,
                "iterations": _trace_rows(learned.with_name(learned.name + ".trace")),
            },
        )

    def check(self, inputs: dict, outcome: Outcome) -> dict[str, list[str]]:
        learn_code, augment_code = outcome.info["codes"]
        # Exit code 2 is the solver's "did not converge" report; the
        # lexicon is still written and is checked like any other.
        learn_problems = [] if learn_code in (0, 2) else [f"learn-scores exit code {learn_code}"]
        if learn_code in (0, 2):
            learn_problems += self._check_lexicon(inputs, outcome)
        augment_problems = [] if augment_code == 0 else [f"augment exit code {augment_code}"]
        records = inputs["records"]
        for number, line in enumerate(outcome.outputs["augment"].decode("utf-8").splitlines(), 1):
            fields = line.split("\t")
            source = fields[-1].partition(";")[0].removeprefix("src=")
            if len(fields) != 5 or fields[1] not in LABELS or not source.isdigit():
                augment_problems.append(f"line {number}: malformed {line!r}")
                continue
            index = int(source)
            if index >= len(records):
                augment_problems.append(f"line {number}: src={index} out of range")
            elif fields[-1].endswith("(flip)") and fields[1] != _FLIPPED.get(records[index].label):
                augment_problems.append(f"line {number}: flip of a {records[index].label} source")
        return {"learn-scores": learn_problems, "augment": augment_problems}

    def _check_lexicon(self, inputs: dict, outcome: Outcome) -> list[str]:
        problems = []
        learned = lexicon.load_lexicon(outcome.info["learned"])
        seed_lexicon = inputs["seed_lexicon"]
        for term in learned.word_terms():
            score = learned.word_score(term)
            if not math.isfinite(score):
                problems.append(f"word {term}: score {score}")
            elif (score > 0) != (seed_lexicon.word_score(term) > 0):
                problems.append(f"word {term}: lost its seed sign")
        for term in learned.adverb_terms():
            score = learned.adverb_score(term)
            if not (math.isfinite(score) and score >= 0):
                problems.append(f"adverb {term}: score {score}")
        copy = outcome.info["learned"].with_suffix(".roundtrip")
        lexicon.save_lexicon(learned, copy)
        if copy.read_bytes() != outcome.outputs["learn-scores"] or lexicon.load_lexicon(copy) != learned:
            problems.append("learned lexicon does not load back equal")
        return problems

    def named(self, inputs: dict, outcome: Outcome) -> dict:
        seconds, mentions = outcome.seconds, len(inputs["records"])
        variants = outcome.outputs["augment"].count(b"\n")
        return {
            "learn_s": (seconds["learn-scores"], "s"),
            "augment_variants_per_s": (variants / seconds["augment"], "1/s"),
            "outer_iterations": (outcome.info["iterations"], "count"),
            # A fixed amount of work, so the rate follows learn_s even when
            # the learner stops after a different number of iterations.
            "fit_per_s": (mentions / seconds["learn-scores"], "1/s"),
            "apply_per_s": (mentions / seconds["augment"], "1/s"),
        }

    def quality(self, inputs: dict, outcome: Outcome) -> dict:
        learned = lexicon.load_lexicon(outcome.info["learned"])
        mentions = lexicon.prepare_mentions(inputs["records"], learned)
        rmse = math.sqrt(
            sum((m.score(learned) - m.target_score) ** 2 for m in mentions) / len(mentions)
        )
        return {
            "score_rmse": (rmse, "score"),
            "learn_exit_code": (outcome.info["codes"][0], "code"),
        }


def make(name: str, smoke: bool = False):
    """The named workload at benchmark size, or at a tiny size for tests."""
    if name == "kfold-total":
        return KfoldTotal(size=220, epochs=1) if smoke else KfoldTotal(size=300, epochs=5)
    if name == "train-predict":
        if smoke:
            return TrainPredict(size=220, epochs=1, texts=220)
        return TrainPredict(size=3000, epochs=3, texts=12000)
    if name == "lexicon-scale":
        return LexiconScale(size=300, words=60) if smoke else LexiconScale(size=6000, words=1000)
    raise KeyError(name)


WORKLOADS = ("kfold-total", "train-predict", "lexicon-scale")
