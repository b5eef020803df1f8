"""Metrics, folds, rebalancing, config round trips, and the harness."""
from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sentiscore import augment, evaluate, lexicon
from sentiscore.augment import AugmentConfig
from sentiscore.cnn import CnnConfig
from sentiscore.evaluate import (
    ConfusionMatrix,
    EvalError,
    ExperimentConfig,
    config_to_text,
    format_report,
    kfold_split,
    load_experiment_config,
    metrics,
    parse_experiment_config,
    rebalance,
    run_experiment,
    save_report,
    variant_uses_learner,
    variant_uses_weighted_loss,
)
from sentiscore.learner import LearningConfig
from sentiscore.lexicon import (
    LABEL_INDEX,
    LABELS,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    MentionRecord,
)
from sentiscore.losses import PenaltyMatrix
from sentiscore.synthetic import CorpusConfig, coarse_seed_lexicon, generate_corpus


class TestVariantFlags:
    def test_learner_usage(self):
        assert not variant_uses_learner("cnn")
        assert variant_uses_learner("cnn-quad")
        assert not variant_uses_learner("cnn-cross")
        assert variant_uses_learner("cnn-total")

    def test_weighted_loss_usage(self):
        assert not variant_uses_weighted_loss("cnn")
        assert not variant_uses_weighted_loss("cnn-quad")
        assert variant_uses_weighted_loss("cnn-cross")
        assert variant_uses_weighted_loss("cnn-total")


def confusion(*pairs: tuple[str, str]) -> ConfusionMatrix:
    """Counts of ``(predicted, expected)`` label pairs."""
    counts = np.zeros((3, 3), dtype=np.int64)
    for predicted, expected in pairs:
        counts[LABEL_INDEX[predicted], LABEL_INDEX[expected]] += 1
    return ConfusionMatrix(counts)


class TestMetrics:
    def test_hand_computed_case(self):
        # Two predicted positive, one of them actually positive, and the
        # real positives both found: precision 1/2, recall 1, F 2/3.
        cm = confusion((POSITIVE, POSITIVE), (POSITIVE, NEGATIVE), (NEUTRAL, NEUTRAL))
        report = metrics(cm)
        pos = report.per_class[POSITIVE]
        assert pos.precision == pytest.approx(0.5)
        assert pos.recall == pytest.approx(1.0)
        assert pos.f_measure == pytest.approx(2 / 3)

    def test_perfect_diagonal(self):
        report = metrics(confusion(*((label, label) for label in LABELS)))
        assert report.macro_f == pytest.approx(1.0)
        assert report.macro_precision == pytest.approx(1.0)
        assert report.macro_recall == pytest.approx(1.0)

    def test_zero_denominators_become_zero(self):
        report = metrics(confusion((POSITIVE, NEGATIVE)))  # nothing neutral anywhere
        neu = report.per_class[NEUTRAL]
        assert neu.precision == 0.0
        assert neu.recall == 0.0
        assert neu.f_measure == 0.0

    def test_macro_is_unweighted_mean(self):
        report = metrics(
            confusion(
                (POSITIVE, POSITIVE), (NEGATIVE, POSITIVE), (NEGATIVE, NEGATIVE), (NEUTRAL, NEUTRAL)
            )
        )
        assert report.macro_precision == pytest.approx(
            np.mean([report.per_class[label].precision for label in LABELS])
        )

    def test_random_assignment_hovers_at_one_third(self):
        rng = np.random.default_rng(0)
        macro_fs = []
        for _ in range(100):
            counts = np.zeros((3, 3), dtype=np.int64)
            for _ in range(300):
                counts[rng.integers(3), rng.integers(3)] += 1
            macro_fs.append(metrics(ConfusionMatrix(counts)).macro_f)
        assert abs(float(np.mean(macro_fs)) - 1 / 3) < 0.05


def label_list(per_label: dict[str, int]) -> list[str]:
    return [label for label, count in per_label.items() for _ in range(count)]


def labeled_records(per_label: dict[str, int]) -> list[MentionRecord]:
    return [
        MentionRecord(f"TARGET sample {i}", label) for i, label in enumerate(label_list(per_label))
    ]


class TestKfold:
    def test_balanced_corpus_splits_evenly(self):
        labels = label_list({POSITIVE: 10, NEGATIVE: 10, NEUTRAL: 10})
        folds = kfold_split(labels, k=5, seed=0)
        assert len(folds) == 30
        for fold in range(5):
            counts = Counter(label for label, f in zip(labels, folds) if f == fold)
            assert counts == {POSITIVE: 2, NEGATIVE: 2, NEUTRAL: 2}

    def test_per_label_sizes_differ_by_at_most_one(self):
        labels = label_list({POSITIVE: 7, NEGATIVE: 13, NEUTRAL: 29})
        folds = kfold_split(labels, k=4, seed=3)
        for label in LABELS:
            sizes = Counter(f for other, f in zip(labels, folds) if other == label)
            present = [sizes.get(i, 0) for i in range(4)]
            assert max(present) - min(present) <= 1

    def test_fold_ids_cover_range_and_partition(self):
        labels = label_list({POSITIVE: 9, NEGATIVE: 5, NEUTRAL: 12})
        folds = kfold_split(labels, k=3, seed=1)
        assert set(folds) == {0, 1, 2}
        assert len(folds) == len(labels)

    def test_seed_changes_assignment_deterministically(self):
        labels = label_list({POSITIVE: 20, NEGATIVE: 20, NEUTRAL: 20})
        a = kfold_split(labels, k=5, seed=4)
        b = kfold_split(labels, k=5, seed=4)
        c = kfold_split(labels, k=5, seed=5)
        assert a == b
        assert a != c

    def test_bad_k_rejected(self):
        with pytest.raises(EvalError):
            kfold_split(label_list({POSITIVE: 3}), k=0, seed=0)


class TestRebalance:
    def test_counts_equalize_to_majority(self):
        labels = label_list({POSITIVE: 3, NEGATIVE: 8, NEUTRAL: 5})
        balanced = rebalance(labels, seed=0)
        counts = Counter(labels[i] for i in balanced)
        assert counts == {POSITIVE: 8, NEGATIVE: 8, NEUTRAL: 8}

    def test_originals_lead_duplicates_follow(self):
        labels = label_list({POSITIVE: 2, NEGATIVE: 4})
        balanced = rebalance(labels, seed=1)
        assert balanced[: len(labels)] == list(range(len(labels)))
        for extra in balanced[len(labels) :]:
            assert extra in range(len(labels))
            assert labels[extra] == POSITIVE

    def test_seeded_determinism(self):
        labels = label_list({POSITIVE: 2, NEGATIVE: 9, NEUTRAL: 4})
        assert rebalance(labels, seed=7) == rebalance(labels, seed=7)

    def test_empty_input_rejected(self):
        with pytest.raises(EvalError):
            rebalance([], seed=0)


class TestConfigRoundTrip:
    def test_default_round_trips(self):
        config = ExperimentConfig()
        assert parse_experiment_config(config_to_text(config)) == config

    def test_modified_fields_survive(self):
        config = ExperimentConfig(
            k=7,
            rebalance=False,
            variant="cnn-total",
            rng_seed=99,
            vocab_size=1234,
            augment=AugmentConfig(
                score_tolerance=0.25,
                max_variants_per_sample=2,
                include_flips=False,
                antonyms={"better": "worse", "worse": "better"},
                comparatives=frozenset({"better", "worse", "fancier"}),
            ),
            learning=LearningConfig(lam=0.75, max_outer_iterations=9),
            cnn=CnnConfig(
                window=4,
                filter_count=6,
                pool_window=24,
                activation="tanh",
                dropout_rate=0.25,
                sequence_length=24,
                embedding_dim=12,
            ),
            penalty=PenaltyMatrix(np.array([[1, 2, 2], [2, 1, 2], [3, 3, 1]], dtype=float)),
        )
        assert parse_experiment_config(config_to_text(config)) == config

    def test_missing_keys_use_defaults(self):
        config = parse_experiment_config("[experiment]\nk = 3\n")
        assert config.k == 3
        assert config.variant == ExperimentConfig().variant
        assert config.cnn == CnnConfig()

    def test_malformed_text_wrapped(self):
        with pytest.raises(EvalError):
            parse_experiment_config("not an ini file at all [")

    def test_bad_values_wrapped(self):
        with pytest.raises(EvalError):
            parse_experiment_config("[experiment]\nk = banana\n")

    @pytest.mark.parametrize(
        "text, field",
        [("[experiment]\nvariant = cnn%\n", "variant"), ("[cnn]\nactivation = %(x)s\n", "activation")],
        ids=["percent", "interpolation-syntax"],
    )
    def test_percent_is_literal(self, text, field):
        # No interpolation: the value reaches its field's own check as written.
        with pytest.raises(EvalError, match=f"{field} must be one of"):
            parse_experiment_config(text)

    def test_percent_in_a_comparative_round_trips(self):
        config = ExperimentConfig(augment=AugmentConfig(comparatives=frozenset({"50%", "%(k)s"})))
        assert parse_experiment_config(config_to_text(config)) == config

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[cnn]\nepoch = 3\n", r"unknown key 'epoch' in experiment config section \[cnn\]"),
            ("[experiment]\nk = 3\nfolds = 4\n", r"'folds' in .* section \[experiment\]"),
            ("[penalty]\nmixed = 1 1 1\n", r"'mixed' in experiment config section \[penalty\]"),
            ("[cnn]\nrng_seed = 0\n", r"unknown key 'rng_seed' in .* section \[cnn\]"),
            ("[augment]\nrng_seed = 0\n", r"unknown key 'rng_seed' in .* section \[augment\]"),
            ("[cnnn]\nepochs = 3\n", r"unknown experiment config section \[cnnn\]"),
            ("[DEFAULT]\nepochs = 1\n", r"unknown experiment config section \[DEFAULT\]"),
            ("[DEFAULT]\nepochs = 1\n[cnn]\n", r"unknown experiment config section \[DEFAULT\]"),
            (
                "[DEFAULT]\nepochs = 1\n[experiment]\n",
                r"unknown experiment config section \[DEFAULT\]",
            ),
        ],
        ids=[
            "cnn-key",
            "experiment-key",
            "penalty-key",
            "cnn-seed-key",
            "augment-seed-key",
            "section",
            "default-alone",
            "default-with-a-section-that-has-the-key",
            "default-with-a-section-that-lacks-the-key",
        ],
    )
    def test_unknown_keys_and_sections_rejected(self, text, message):
        with pytest.raises(EvalError, match=message):
            parse_experiment_config(text)

    def test_antonym_pair_with_extra_colon_rejected(self):
        # "a:b:c" would otherwise read back as {"a": "b:c"}.
        with pytest.raises(EvalError, match="antonym"):
            parse_experiment_config("[augment]\nantonyms = a:b:c\n")

    def test_repeated_antonym_term_rejected(self):
        # The second pair would otherwise replace the first unseen.
        with pytest.raises(EvalError, match="antonym term 'better' is mapped twice"):
            parse_experiment_config("[augment]\nantonyms = better:worse better:best\n")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "experiment.ini"
        config = ExperimentConfig(k=4, variant="cnn-cross")
        path.write_text(config_to_text(config), encoding="utf-8")
        assert load_experiment_config(path) == config

    def test_unknown_variant_rejected(self):
        with pytest.raises(EvalError):
            ExperimentConfig(variant="cnn-extra")

    def test_negative_seed_names_the_field(self):
        with pytest.raises(EvalError, match="rng_seed must be >= 0"):
            ExperimentConfig(rng_seed=-3)

    @pytest.mark.parametrize(
        "nested", [{"cnn": CnnConfig(rng_seed=5)}, {"augment": AugmentConfig(rng_seed=5)}],
        ids=["cnn", "augment"],
    )
    def test_nested_seed_rejected(self, nested):
        # run_experiment would overwrite it with each fold's seed.
        name = next(iter(nested))
        with pytest.raises(EvalError, match=rf"^{name}\.rng_seed must be 0, got 5"):
            ExperimentConfig(**nested)


def every_section_changed() -> ExperimentConfig:
    return ExperimentConfig(
        k=7,
        rebalance=False,
        variant="cnn-total",
        rng_seed=99,
        vocab_size=1234,
        augment=AugmentConfig(
            score_tolerance=0.25,
            max_variants_per_sample=2,
            include_flips=False,
            antonyms={"more": "less", "less": "more", "better": "worse"},
            comparatives=frozenset({"better", "more", "less", "fancier"}),
        ),
        learning=LearningConfig(
            max_outer_iterations=9,
            lam=0.75,
            epsilon_margin=0.001,
            solver_tol=1e-10,
            solver_max_iter=500,
        ),
        cnn=CnnConfig(
            window=4,
            filter_count=6,
            pool_window=24,
            activation="tanh",
            dropout_rate=0.25,
            learning_rate=0.125,
            epochs=7,
            batch_size=16,
            sequence_length=24,
            embedding_dim=12,
            finetune_embeddings=False,
        ),
        penalty=PenaltyMatrix(
            np.array([[1.0, 2.5, 2.0], [2.0, 1.0, 2.0], [3.0, 3.0, 1.0]])
        ),
    )


class TestConfigTextGolden:
    """Exact INI bytes: key order, number formatting and special cases."""

    def test_default_text(self):
        assert config_to_text(ExperimentConfig()) == (
            "[experiment]\nk = 5\nrebalance = true\nvariant = cnn\nrng_seed = 0\n"
            "vocab_size = 5000\n\n"
            "[augment]\nscore_tolerance = 0.1\nmax_variants_per_sample = 4\n"
            "include_flips = true\n"
            "antonyms = better:worse worse:better\ncomparatives = auto\n\n"
            "[learning]\nmax_outer_iterations = 20\nlam = 0.1\n"
            "epsilon_margin = 1e-06\nsolver_tol = 1e-08\nsolver_max_iter = 10000\n\n"
            "[cnn]\nwindow = 3\nfilter_count = 16\npool_window = 2\n"
            "activation = relu\ndropout_rate = 0.5\n"
            "learning_rate = 0.05\nepochs = 5\nbatch_size = 32\n"
            "sequence_length = 32\nembedding_dim = 32\nfinetune_embeddings = true\n\n"
            "[penalty]\npositive = 1.0 4.0 3.0\nnegative = 4.0 1.0 3.0\n"
            "neutral = 2.0 2.0 1.0\n\n"
        )

    def test_every_section_changed_text(self):
        assert config_to_text(every_section_changed()) == (
            "[experiment]\nk = 7\nrebalance = false\nvariant = cnn-total\n"
            "rng_seed = 99\nvocab_size = 1234\n\n"
            "[augment]\nscore_tolerance = 0.25\nmax_variants_per_sample = 2\n"
            "include_flips = false\n"
            "antonyms = better:worse less:more more:less\n"
            "comparatives = better fancier less more\n\n"
            "[learning]\nmax_outer_iterations = 9\nlam = 0.75\n"
            "epsilon_margin = 0.001\nsolver_tol = 1e-10\nsolver_max_iter = 500\n\n"
            "[cnn]\nwindow = 4\nfilter_count = 6\npool_window = 24\n"
            "activation = tanh\ndropout_rate = 0.25\n"
            "learning_rate = 0.125\nepochs = 7\nbatch_size = 16\n"
            "sequence_length = 24\nembedding_dim = 12\nfinetune_embeddings = false\n\n"
            "[penalty]\npositive = 1.0 2.5 2.0\nnegative = 2.0 1.0 2.0\n"
            "neutral = 3.0 3.0 1.0\n\n"
        )

    def test_every_section_changed_round_trips(self):
        config = every_section_changed()
        assert parse_experiment_config(config_to_text(config)) == config


def tiny_corpus(size: int = 120, noise: float = 0.0, seed: int = 3):
    config = CorpusConfig(
        size=size,
        word_count=6,
        adverb_count=2,
        class_mix={POSITIVE: 0.3, NEGATIVE: 0.3, NEUTRAL: 0.4},
        noise_rate=noise,
        rng_seed=seed,
    )
    return generate_corpus(config)


def tiny_experiment(variant: str = "cnn", **overrides) -> ExperimentConfig:
    base = dict(
        k=3,
        rebalance=True,
        variant=variant,
        rng_seed=0,
        vocab_size=200,
        cnn=CnnConfig(
            window=2,
            filter_count=4,
            pool_window=2,
            sequence_length=10,
            embedding_dim=16,
            dropout_rate=0.1,
            learning_rate=0.3,
            epochs=40,
            batch_size=8,
        ),
        learning=LearningConfig(lam=0.01),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def quick_cnn() -> CnnConfig:
    return CnnConfig(window=2, filter_count=4, sequence_length=10, embedding_dim=8, epochs=2)


class TestRunExperiment:
    def test_separable_corpus_scores_high(self):
        records, _ = tiny_corpus()
        report = run_experiment(tiny_experiment(), records)
        assert len(report.folds) == 3
        assert report.macro_f_mean >= 0.9
        assert report.pooled_confusion.total == len(records)

    def test_deterministic_across_runs(self):
        records, _ = tiny_corpus()
        a = run_experiment(tiny_experiment(), records)
        b = run_experiment(tiny_experiment(), records)
        assert a.macro_f_mean == b.macro_f_mean
        assert np.array_equal(a.pooled_confusion.counts, b.pooled_confusion.counts)

    def test_learner_variant_runs_end_to_end(self):
        records, true_lex = tiny_corpus(size=60)
        seed_lex = coarse_seed_lexicon(true_lex)
        report = run_experiment(
            tiny_experiment("cnn-total"), records, seed_lexicon=seed_lex
        )
        assert len(report.folds) == 3
        assert report.pooled_confusion.total == len(records)

    def test_learner_variant_requires_seed_lexicon(self):
        records, _ = tiny_corpus(size=60)
        with pytest.raises(EvalError):
            run_experiment(tiny_experiment("cnn-quad"), records)

    def test_on_fold_callback_fires_per_fold(self):
        records, _ = tiny_corpus()
        seen = []
        run_experiment(tiny_experiment(), records, on_fold=seen.append)
        assert [fold.index for fold in seen] == [0, 1, 2]
        assert all(fold.test_size > 0 for fold in seen)

    def test_each_record_is_prepared_once(self, monkeypatch):
        plain, true_lex = tiny_corpus(size=60)
        records = [
            replace(r, text=r.text.replace("TARGET", "Acme Phone"), entity="acme phone")
            for r in plain
        ]
        masked_texts = Counter(lexicon.masked_text(r.text, r.entity) for r in records)
        made, masked, tokenized, spanned = Counter(), Counter(), Counter(), Counter()
        augmented = Counter()

        def spy(module, name, note) -> None:
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                note(args, result)
                return result

            monkeypatch.setattr(module, name, wrapper)

        spy(lexicon, "make_mention", lambda args, _: made.update([args[0]]))
        spy(lexicon, "mask_target", lambda args, _: masked.update([args[0]]))
        spy(lexicon, "tokenize", lambda args, _: tokenized.update([args[0]]))
        spy(evaluate, "tokenize", lambda args, _: tokenized.update([args[0]]))
        spy(lexicon, "tokenize_with_spans", lambda args, _: spanned.update([args[0]]))
        spy(augment, "tokenize_with_spans", lambda args, _: spanned.update([args[0]]))
        spy(evaluate, "augment_corpus", lambda _, out: augmented.update(s.label for s in out))
        run_experiment(
            tiny_experiment("cnn-total", cnn=quick_cnn()),
            records,
            seed_lexicon=coarse_seed_lexicon(true_lex),
        )
        texts = Counter(r.text for r in records)
        assert made == texts
        assert masked == texts
        assert sum(augmented.values()) > 0
        # Each record is tokenized once, by its mention; a variant's tokens
        # are its mention's with the variant's edits, never a tokenized text.
        assert tokenized == masked_texts
        assert spanned == Counter()

    def test_too_few_examples_rejected(self):
        records = labeled_records({POSITIVE: 1, NEGATIVE: 1})
        with pytest.raises(EvalError):
            run_experiment(tiny_experiment(), records)

    def test_empty_test_fold_rejected_before_any_fold_trains(self, monkeypatch):
        records = labeled_records({POSITIVE: 1, NEUTRAL: 2})
        assert kfold_split([r.label for r in records], 3, 0) == [0, 2, 0]
        trained = []
        monkeypatch.setattr(evaluate, "train_classifier", lambda *args: trained.append(args))
        with pytest.raises(EvalError, match=r"^k=3 leaves fold\(s\) \[1\] without a test example"):
            run_experiment(tiny_experiment(), records)
        assert trained == []

    def test_vocab_size_follows_the_build_vocab_rule(self):
        records, _ = tiny_corpus()
        assert len(run_experiment(tiny_experiment(vocab_size=2), records).folds) == 3
        with pytest.raises(ValueError, match="vocab_size must be >= 1, got 0"):
            run_experiment(tiny_experiment(vocab_size=0), records)


class TestFoldConfusion:
    def test_rows_are_the_predicted_label(self, monkeypatch):
        def always_neutral(model, token_lists, vocab, config):
            probs = np.zeros((len(token_lists), 3))
            probs[:, LABEL_INDEX[NEUTRAL]] = 1.0
            return [NEUTRAL] * len(token_lists), probs

        monkeypatch.setattr(evaluate, "predict", always_neutral)
        records, _ = tiny_corpus(size=60)
        labels = [r.label for r in records]
        folds = kfold_split(labels, k=3, seed=0)
        report = run_experiment(tiny_experiment(cnn=quick_cnn()), records)
        for result in report.folds:
            test_labels = Counter(label for label, f in zip(labels, folds) if f == result.index)
            assert result.confusion.counts[LABEL_INDEX[NEUTRAL]].tolist() == [
                test_labels[label] for label in LABELS
            ]
            assert result.confusion.total == result.test_size

    def test_pooled_confusion_sums_the_folds(self):
        records, _ = tiny_corpus(size=60)
        report = run_experiment(tiny_experiment(cnn=quick_cnn()), records)
        summed = np.sum([result.confusion.counts for result in report.folds], axis=0)
        assert np.array_equal(report.pooled_confusion.counts, summed)
        assert report.pooled_confusion.total == len(records)

    def test_unknown_record_label_names_it(self):
        records = [*labeled_records({POSITIVE: 3, NEGATIVE: 3}), MentionRecord("TARGET", "mixed")]
        with pytest.raises(EvalError, match="unknown label 'mixed'"):
            run_experiment(tiny_experiment(), records)


class TestReportText:
    def test_format_contains_sections_and_ascii(self, tmp_path):
        records, _ = tiny_corpus()
        report = run_experiment(tiny_experiment(), records)
        text = format_report(report)
        assert "sentiscore experiment report" in text
        assert "variant: cnn" in text
        assert "+-" in text
        assert text.isascii()
        assert "macro" in text
        path = tmp_path / "report.txt"
        save_report(path, report)
        assert path.read_text(encoding="utf-8") == text


class TestLearnerFolds:
    def test_training_split_without_a_lexicon_word_names_the_fold(self):
        records = [MentionRecord("TARGET is superb", POSITIVE)] + [
            MentionRecord(f"TARGET item {i}", LABELS[i % 3]) for i in range(14)
        ]
        config = tiny_experiment("cnn-quad", cnn=quick_cnn())
        fold = kfold_split([r.label for r in records], config.k, config.rng_seed)[0]
        superb_only = lexicon.Lexicon({"superb": 0.8})
        message = f"fold {fold}: no sentiment word occurrences in its training split"
        with pytest.raises(EvalError, match=message):
            run_experiment(config, records, superb_only)
