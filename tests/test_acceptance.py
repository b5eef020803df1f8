"""Acceptance gate: eight criteria, one printed pass/fail line each.

Each test prints its verdict straight to the terminal (bypassing
capture) before asserting, so a full run always shows one line per
criterion, timed, with the headline numbers.
"""
from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import stats

from helpers import grid_oracle
from test_boxlsq import random_problem
from test_cnn import finite_difference_check, tiny_config

from sentiscore.augment import AugmentConfig, augment_corpus, splice_variants
from sentiscore.boxlsq import solve
from sentiscore.cnn import CnnConfig, fit, forward, init_model
from sentiscore.evaluate import ExperimentConfig, kfold_split, run_experiment
from sentiscore.learner import LearningConfig, train_iterative
from sentiscore.lexicon import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    Lexicon,
    make_mention,
    mask_target,
    prepare_mentions,
    score_mention,
)
from sentiscore.losses import PenaltyMatrix, loss_and_logit_grad, softmax
from sentiscore.synthetic import CorpusConfig, coarse_seed_lexicon, generate_corpus


def announce(capsys, number: int, name: str, passed: bool, elapsed: float, detail: str = "") -> None:
    with capsys.disabled():
        verdict = "PASS" if passed else "FAIL"
        print(f"[acceptance] {number} {name}: {verdict} ({elapsed:.1f}s){detail}")


def test_1_loss_worked_example_goldens(capsys):
    # The fourth golden is 4 * -ln(0.2) = 4 ln 5 = 6.437752, rounded to
    # 6.438 like the other three goldens. The paper prints 6.436 because
    # it computed 4 x 1.609 from a base loss already rounded to three
    # decimals; that figure is 1.75e-3 from the exact value, outside the
    # 1e-3 tolerance.
    t0 = time.perf_counter()
    # The first example expects negative, the second positive.
    labels = np.array([1, 0])
    probs = np.array([[0.2, 0.3, 0.5], [0.2, 0.7, 0.1]])
    plain, _ = loss_and_logit_grad(labels, probs, None)
    weighted, _ = loss_and_logit_grad(labels, probs, PenaltyMatrix.default())
    goldens = [
        ("first example, unweighted", float(plain[0]), 1.204),
        ("first example, weighted", float(weighted[0]), 2.408),
        ("second example, unweighted", float(plain[1]), 1.609),
        ("second example, weighted", float(weighted[1]), 6.438),
    ]
    elapsed = time.perf_counter() - t0
    ok = all(abs(got - want) <= 1e-3 for _, got, want in goldens) and elapsed < 1.0
    shown = "; ".join(f"{got:.6f} vs {want}" for _, got, want in goldens)
    announce(capsys, 1, "loss worked-example goldens", ok, elapsed, detail=f" [{shown}]")
    for name, got, want in goldens:
        assert got == pytest.approx(want, abs=1e-3), name
    assert elapsed < 1.0


def test_2_mention_scoring_golden(capsys):
    t0 = time.perf_counter()
    lexicon = Lexicon({"beautiful": 0.75}, {"very": 1.5})
    score = make_mention("S5 is very beautiful", POSITIVE, lexicon).score(lexicon)
    elapsed = time.perf_counter() - t0
    announce(capsys, 2, "mention scoring golden", score == 1.125, elapsed)
    assert score == 1.125


def test_3_solver_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_gap = -np.inf
    worst_kkt = 0.0
    for _ in range(100):
        problem = random_problem(rng)
        report = solve(problem, tol=1e-6)
        worst_kkt = max(worst_kkt, report.kkt_residual)
        _, oracle_value = grid_oracle(problem, final_step=1e-3)
        worst_gap = max(worst_gap, report.objective - oracle_value)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-4 and worst_kkt <= 1e-6 and elapsed < 60.0
    announce(
        capsys, 3, "solver vs grid oracle", ok, elapsed,
        detail=f" [gap {worst_gap:.1e}, kkt {worst_kkt:.1e}]",
    )
    assert worst_gap <= 1e-4
    assert worst_kkt <= 1e-6
    assert elapsed < 60.0


def test_4_score_learning_recovery(capsys):
    t0 = time.perf_counter()
    corpus_cfg = CorpusConfig(
        size=500,
        word_count=20,
        adverb_count=5,
        min_occurrences=3,
        noise_rate=0.0,
        rng_seed=7,
    )
    records, truth = generate_corpus(corpus_cfg)
    seed_lexicon = coarse_seed_lexicon(truth)
    mentions = prepare_mentions(records, seed_lexicon)
    trace = train_iterative(
        mentions, seed_lexicon, LearningConfig(max_outer_iterations=20, lam=1e-6)
    )
    words = sorted(truth.word_terms())
    learned = np.array([trace.lexicon.word_score(w) for w in words])
    target = np.array([truth.word_score(w) for w in words])
    rho = float(stats.spearmanr(learned, target).statistic)
    max_error = float(np.max(np.abs(learned - target)))
    elapsed = time.perf_counter() - t0
    ok = (
        rho >= 0.95
        and max_error <= 1e-2
        and len(trace.iterations) <= 20
        and elapsed < 30.0
    )
    announce(
        capsys, 4, "score learning recovery", ok, elapsed,
        detail=f" [spearman {rho:.4f}, max err {max_error:.1e}]",
    )
    assert rho >= 0.95
    assert max_error <= 1e-2
    assert len(trace.iterations) <= 20
    assert elapsed < 30.0


def test_5_augmentation_goldens(capsys):
    t0 = time.perf_counter()
    lexicon = Lexicon(
        {"horrible": -1.0, "poor": -1.0, "terrible": -1.0, "great": 1.0, "amazing": 1.0}
    )
    text = mask_target(
        "Company A is better than Company B. Company B is horrible", "Company B"
    )
    mention = make_mention(text, NEGATIVE, lexicon)
    variants = augment_corpus([mention], lexicon, AugmentConfig())
    got = [(text, v.label) for text, v in zip(splice_variants([mention], variants), variants)]
    expected = [
        ("Company A is better than TARGET. TARGET is poor", NEGATIVE),
        ("Company A is better than TARGET. TARGET is terrible", NEGATIVE),
        ("Company A is worse than TARGET. TARGET is amazing", POSITIVE),
        ("Company A is worse than TARGET. TARGET is great", POSITIVE),
    ]
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 1.0
    announce(capsys, 5, "augmentation goldens", ok, elapsed)
    assert got == expected
    assert elapsed < 1.0


def test_6_gradient_correctness(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for pool_window in (2, 6):  # chunked, and max over time (p = N = 6)
        for seed in range(5):
            config = tiny_config(pool_window=pool_window)
            worst = max(worst, finite_difference_check(config, seed))
            worst = max(
                worst,
                finite_difference_check(config, seed, penalty=PenaltyMatrix.default()),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    announce(
        capsys, 6, "gradient checks", ok, elapsed,
        detail=f" [worst rel err {worst:.1e}]",
    )
    assert worst < 1e-4
    assert elapsed < 60.0


def test_7_directional_replication(capsys):
    t0 = time.perf_counter()
    corpus_cfg = CorpusConfig(
        size=1500,
        word_count=20,
        adverb_count=5,
        class_mix={POSITIVE: 0.15, NEGATIVE: 0.25, NEUTRAL: 0.60},
        noise_rate=0.10,
        mixed_rate=0.3,
        rng_seed=2024,
    )
    records, truth = generate_corpus(corpus_cfg)
    seed_lexicon = coarse_seed_lexicon(truth)

    averages = {}
    for variant in ("cnn", "cnn-cross", "cnn-total"):
        precisions, f_scores = [], []
        for seed in (0, 1, 2):
            experiment = ExperimentConfig(
                k=5,
                rebalance=True,
                variant=variant,
                rng_seed=seed,
                augment=AugmentConfig(include_flips=False),
                learning=LearningConfig(lam=0.01),
                cnn=CnnConfig(
                    filter_count=12,
                    embedding_dim=24,
                    sequence_length=16,
                    epochs=8,
                    learning_rate=0.1,
                    dropout_rate=0.5,
                ),
            )
            report = run_experiment(experiment, records, seed_lexicon=seed_lexicon)
            precisions.append(report.macro_precision_mean)
            f_scores.append(report.macro_f_mean)
        averages[variant] = (sum(precisions) / 3, sum(f_scores) / 3)

    cross_p, base_p = averages["cnn-cross"][0], averages["cnn"][0]
    total_f, base_f = averages["cnn-total"][1], averages["cnn"][1]
    elapsed = time.perf_counter() - t0
    ok = cross_p >= base_p and total_f >= base_f and elapsed < 900.0
    announce(
        capsys, 7, "directional replication", ok, elapsed,
        detail=(
            f" [cross P {cross_p:.4f} vs cnn {base_p:.4f};"
            f" total F {total_f:.4f} vs cnn {base_f:.4f}]"
        ),
    )
    assert cross_p >= base_p, "weighted loss should not lose macro precision"
    assert total_f >= base_f, "full pipeline should not lose macro F"
    assert elapsed < 900.0


def test_8_invariant_spot_checks(capsys):
    t0 = time.perf_counter()
    failures = []

    # Linearity: a mention's score is the sum over its pairs.
    lexicon = Lexicon(
        {"beautiful": 1.5, "bad": -0.8, "great": 1.0}, {"very": 0.75, "quite": 0.5}
    )
    first = [("very", "beautiful")]
    second = [(None, "bad"), ("quite", "great")]
    joint = score_mention(first + second, lexicon)
    split = score_mention(first, lexicon) + score_mention(second, lexicon)
    if abs(joint - split) > 1e-12:
        failures.append("scoring linearity")

    # Sign safety: learned word scores keep the seed polarity and
    # modifier scores stay non-negative.
    corpus_cfg = CorpusConfig(
        size=150, word_count=8, adverb_count=2, noise_rate=0.0, rng_seed=5
    )
    records, truth = generate_corpus(corpus_cfg)
    seed_lexicon = coarse_seed_lexicon(truth)
    trace = train_iterative(
        prepare_mentions(records, seed_lexicon),
        seed_lexicon,
        LearningConfig(max_outer_iterations=10, lam=0.1),
    )
    for word in truth.word_terms():
        if np.sign(trace.lexicon.word_score(word)) != np.sign(truth.word_score(word)):
            failures.append("sign safety")
            break
    if any(trace.lexicon.adverb_score(a) < 0 for a in truth.adverb_terms()):
        failures.append("modifier non-negativity")

    # Fold disjointness: every example lands in exactly one fold.
    labels = [r.label for r in records]
    assignments = kfold_split(labels, k=5, seed=3)
    if sorted(set(assignments)) != [0, 1, 2, 3, 4] or len(assignments) != len(records):
        failures.append("fold partition")
    if assignments != kfold_split(labels, k=5, seed=3):
        failures.append("fold determinism")

    # Determinism: regeneration reproduces the corpus byte for byte.
    again, _ = generate_corpus(corpus_cfg)
    if [(r.text, r.label, r.target_score) for r in records] != [
        (r.text, r.label, r.target_score) for r in again
    ]:
        failures.append("corpus determinism")

    # Determinism: training twice gives the same loss history.
    config = tiny_config(epochs=3)
    indices = np.array([[2, 3, 4, 0, 0, 0], [4, 5, 6, 7, 0, 0], [1, 2, 0, 0, 0, 0]])
    labels = np.array([0, 1, 2])
    _, history_a = fit(init_model(9, config), indices, config, labels)
    _, history_b = fit(init_model(9, config), indices, config, labels)
    if history_a != history_b:
        failures.append("training determinism")

    # Softmax rows are probability distributions.
    rng = np.random.default_rng(0)
    for _ in range(100):
        probs = softmax(rng.normal(scale=5.0, size=3))
        if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
            failures.append("softmax normalization")
            break

    # Shape chain: pooling yields ceil(N / p) rows per filter, one (max
    # over time) for any p >= N.
    indices = rng.integers(0, 9, size=(1, 7))
    for p, rows in ((3, 3), (7, 1), (10**11, 1)):
        config = tiny_config(sequence_length=7, pool_window=p)
        _, cache = forward(init_model(9, config), indices, config)
        if cache.pooled.shape != (1, rows * config.filter_count) or config.pooled_rows != rows:
            failures.append(f"pooling shape chain at p = {p}")

    elapsed = time.perf_counter() - t0
    announce(
        capsys, 8, "invariant spot checks", not failures, elapsed,
        detail=f" [{', '.join(failures)}]" if failures else "",
    )
    assert not failures
