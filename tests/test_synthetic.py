"""Generated-corpus invariants: quotas, coverage, labels, noise."""
from __future__ import annotations

import math

import numpy as np
import pytest

from sentiscore.lexicon import (
    LABELS,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    make_mention,
    tokenize,
)
from sentiscore.synthetic import (
    CorpusConfig,
    GeneratorError,
    coarse_seed_lexicon,
    generate_corpus,
    make_true_lexicon,
)


def small_config(**overrides) -> CorpusConfig:
    base = dict(size=300, word_count=10, adverb_count=3, rng_seed=7)
    base.update(overrides)
    return CorpusConfig(**base)


class TestTrueLexicon:
    def test_counts_and_ranges(self):
        rng = np.random.default_rng(0)
        lexicon = make_true_lexicon(20, 5, rng)
        words = list(lexicon.word_terms())
        adverbs = list(lexicon.adverb_terms())
        assert len(words) == 20
        assert len(adverbs) == 5
        positives = [w for w in words if lexicon.word_score(w) > 0]
        negatives = [w for w in words if lexicon.word_score(w) < 0]
        assert len(positives) == 10 and len(negatives) == 10
        for w in words:
            assert 0.4 <= abs(lexicon.word_score(w)) <= 1.6
        for a in adverbs:
            assert 0.5 <= lexicon.adverb_score(a) <= 1.5

    def test_seeded_determinism(self):
        a = make_true_lexicon(8, 2, np.random.default_rng(3))
        b = make_true_lexicon(8, 2, np.random.default_rng(3))
        assert {w: a.word_score(w) for w in a.word_terms()} == {
            w: b.word_score(w) for w in b.word_terms()
        }


class TestCoarseSeed:
    def test_quantization_rule(self):
        rng = np.random.default_rng(1)
        true = make_true_lexicon(20, 4, rng)
        seed = coarse_seed_lexicon(true)
        for w in true.word_terms():
            exact = true.word_score(w)
            coarse = seed.word_score(w)
            assert abs(coarse) == (1.0 if abs(exact) >= 1.0 else 0.5)
            assert np.sign(coarse) == np.sign(exact)
        for a in true.adverb_terms():
            assert seed.adverb_score(a) == 1.0


class TestQuotas:
    def test_exact_mix_without_noise(self):
        records, _ = generate_corpus(
            small_config(
                size=500,
                class_mix={POSITIVE: 0.3, NEGATIVE: 0.3, NEUTRAL: 0.4},
            )
        )
        counts = {label: 0 for label in LABELS}
        for rec in records:
            counts[rec.label] += 1
        assert counts == {POSITIVE: 150, NEGATIVE: 150, NEUTRAL: 200}

    def test_rounding_preserves_total(self):
        records, _ = generate_corpus(
            small_config(
                size=100,
                class_mix={POSITIVE: 1 / 3, NEGATIVE: 1 / 3, NEUTRAL: 1 / 3},
            )
        )
        counts = {label: 0 for label in LABELS}
        for rec in records:
            counts[rec.label] += 1
        assert sum(counts.values()) == 100
        assert all(33 <= c <= 34 for c in counts.values())



def lexicon_score(record, lexicon) -> float:
    return make_mention(record.text, record.label, lexicon).score(lexicon)


class TestCoverage:
    def test_every_term_reaches_minimum(self):
        config = small_config(size=200, min_occurrences=4)
        records, lexicon = generate_corpus(config)
        word_counts = {w: 0 for w in lexicon.word_terms()}
        pair_counts = {a: 0 for a in lexicon.adverb_terms()}
        for rec in records:
            tokens = tokenize(rec.text)
            for w in set(tokens) & set(word_counts):
                word_counts[w] += 1
            for adverb, _ in make_mention(rec.text, rec.label, lexicon).pairs:
                if adverb is not None:
                    pair_counts[adverb] += 1
        assert all(c >= 4 for c in word_counts.values()), word_counts
        assert all(c >= 4 for c in pair_counts.values()), pair_counts

    def test_impossible_coverage_rejected(self):
        with pytest.raises(GeneratorError):
            generate_corpus(small_config(size=12, word_count=20, min_occurrences=5))

    def test_coverage_within_size_still_checks_class_quotas(self):
        # 3 * 20 = 60 mentions fit the size, but the 10 positive words'
        # 3 * 10 do not fit the 0.3 positive quota of 18.
        with pytest.raises(GeneratorError, match=r"^min_occurrences \* positive words = 3 \* 10 "
                           "exceeds the 18 positive mentions"):
            small_config(size=60, word_count=20, min_occurrences=3)

    def test_modifier_top_ups_are_checked_against_class_quotas(self):
        # The one positive word's 3 mentions fit the quota of 3, but two
        # modifier top-ups against it make 5.
        config = small_config(size=10, word_count=2, adverb_count=2, min_occurrences=3)
        with pytest.raises(GeneratorError, match="coverage needs 5 positive mentions but the "
                           "class mix allows 3"):
            generate_corpus(config)


class TestLabels:
    def test_labels_match_score_sign_without_noise(self):
        records, _ = generate_corpus(small_config(size=400))
        for rec in records:
            if rec.label == POSITIVE:
                assert rec.target_score > 0
            elif rec.label == NEGATIVE:
                assert rec.target_score < 0
            else:
                assert rec.target_score == 0.0

    def test_target_scores_recomputable_from_lexicon(self):
        records, lexicon = generate_corpus(small_config(size=200))
        for rec in records:
            assert lexicon_score(rec, lexicon) == pytest.approx(rec.target_score)

    def test_texts_carry_the_target_token(self):
        records, _ = generate_corpus(small_config(size=120))
        for rec in records:
            assert "TARGET" in rec.text.split()

    def test_neutral_texts_hold_no_sentiment_words(self):
        records, lexicon = generate_corpus(small_config(size=300))
        vocabulary = set(lexicon.word_terms())
        for rec in records:
            if rec.label == NEUTRAL:
                assert not vocabulary & set(tokenize(rec.text))


class TestMixedMentions:
    def test_two_sided_texts_keep_a_margin(self):
        records, lexicon = generate_corpus(
            small_config(size=600, word_count=20, mixed_rate=0.5, rng_seed=11)
        )
        vocabulary = set(lexicon.word_terms())
        two_sided = 0
        for rec in records:
            present = vocabulary & set(tokenize(rec.text))
            signs = {np.sign(lexicon.word_score(w)) for w in present}
            if {1.0, -1.0} <= signs:
                two_sided += 1
                assert abs(rec.target_score) > 0.3
        assert two_sided > 20

    def test_zero_rate_stays_single_sided(self):
        records, lexicon = generate_corpus(small_config(size=300, mixed_rate=0.0))
        vocabulary = set(lexicon.word_terms())
        for rec in records:
            present = vocabulary & set(tokenize(rec.text))
            signs = {np.sign(lexicon.word_score(w)) for w in present}
            assert not ({1.0, -1.0} <= signs)


class TestNoise:
    def test_flips_change_label_not_score(self):
        config = small_config(size=1000, noise_rate=0.2, rng_seed=5)
        records, lexicon = generate_corpus(config)
        flipped = 0
        for rec in records:
            score = lexicon_score(rec, lexicon)
            derived = POSITIVE if score > 0 else NEGATIVE if score < 0 else NEUTRAL
            assert rec.target_score == pytest.approx(score)
            if rec.label != derived:
                flipped += 1
        assert 0.12 <= flipped / len(records) <= 0.28

    def test_zero_noise_flips_nothing(self):
        records, lexicon = generate_corpus(small_config(size=200, noise_rate=0.0))
        for rec in records:
            score = lexicon_score(rec, lexicon)
            derived = POSITIVE if score > 0 else NEGATIVE if score < 0 else NEUTRAL
            assert rec.label == derived


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a_records, a_lex = generate_corpus(small_config(rng_seed=9))
        b_records, b_lex = generate_corpus(small_config(rng_seed=9))
        assert [(r.text, r.label, r.target_score) for r in a_records] == [
            (r.text, r.label, r.target_score) for r in b_records
        ]
        assert {w: a_lex.word_score(w) for w in a_lex.word_terms()} == {
            w: b_lex.word_score(w) for w in b_lex.word_terms()
        }

    def test_different_seed_differs(self):
        a_records, _ = generate_corpus(small_config(rng_seed=1))
        b_records, _ = generate_corpus(small_config(rng_seed=2))
        assert [r.text for r in a_records] != [r.text for r in b_records]


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"size": 0},
            {"word_count": 1},
            {"adverb_count": -1},
            {"noise_rate": 1.5},
            {"mixed_rate": 1.0},
            {"min_occurrences": -2},
            {"class_mix": {POSITIVE: 0.9, NEGATIVE: 0.2, NEUTRAL: 0.2}},
            {"class_mix": {POSITIVE: 1.0}},
            {"class_mix": {POSITIVE: math.nan, NEGATIVE: math.nan, NEUTRAL: math.nan}},
            {"class_mix": {POSITIVE: 1.0, NEGATIVE: math.nan, NEUTRAL: 0.0}},
            {"class_mix": {POSITIVE: 1.5, NEGATIVE: -0.5, NEUTRAL: 0.0}},
            {"adverb_rate": 7.0},
            {"adverb_rate": -1.0},
            {"adverb_rate": math.nan},
            {"min_occurrences": 9},  # 9 coverage mentions for each of 6 words exceed size 50
            {"word_count": 51},
            {"adverb_count": 26},
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        field = next(iter(overrides))
        with pytest.raises(GeneratorError, match=field):
            CorpusConfig(**{**dict(size=50, word_count=6, adverb_count=2), **overrides})

    def test_negative_seed_names_the_field(self):
        with pytest.raises(GeneratorError, match="rng_seed must be >= 0"):
            CorpusConfig(rng_seed=-1)
