from __future__ import annotations

import pytest

from sentiscore.augment import (
    AugmentConfig,
    augment_corpus,
    derive_seed,
    flip_label,
    generate_variants,
    similar_terms,
)
from sentiscore.lexicon import Lexicon, make_mention


@pytest.fixture
def lexicon():
    return Lexicon.from_scores(
        {
            "horrible": -1.0,
            "poor": -1.0,
            "terrible": -1.0,
            "great": 1.0,
            "amazing": 1.0,
            "nice": 0.6,
        },
        {"very": 1.2},
    )


def make(text, label, lexicon, **kwargs):
    return make_mention(text, label, lexicon, **kwargs)


class TestSimilarTerms:
    def test_same_sign_within_tolerance(self, lexicon):
        same, opposite = similar_terms("horrible", lexicon, 0.1)
        assert same == ["poor", "terrible"]
        assert opposite == ["amazing", "great"]

    def test_tolerance_excludes_distant_scores(self, lexicon):
        same, opposite = similar_terms("nice", lexicon, 0.1)
        assert same == []
        assert opposite == []

    def test_opposite_compares_absolute_scores(self):
        lex = Lexicon.from_scores({"up": 0.8, "down": -0.75, "floor": -2.0})
        same, opposite = similar_terms("up", lex, 0.1)
        assert opposite == ["down"]

    def test_unknown_word_rejected(self, lexicon):
        from sentiscore.lexicon import LexiconError

        with pytest.raises(LexiconError):
            similar_terms("stupendous", lexicon, 0.1)


class TestGenerateVariants:
    def test_same_sign_substitution_keeps_label(self, lexicon):
        m = make("TARGET is horrible", "negative", lexicon)
        config = AugmentConfig(include_flips=False)
        variants = generate_variants(m, lexicon, config)
        assert [(v.text, v.label) for v in variants] == [
            ("TARGET is poor", "negative"),
            ("TARGET is terrible", "negative"),
        ]

    def test_opposite_sign_substitution_flips_label(self, lexicon):
        m = make("TARGET is horrible", "negative", lexicon)
        variants = generate_variants(m, lexicon, AugmentConfig())
        flips = [(v.text, v.label) for v in variants if v.label == "positive"]
        assert ("TARGET is amazing", "positive") in flips
        assert ("TARGET is great", "positive") in flips

    def test_flip_swaps_comparative(self, lexicon):
        m = make("TARGET is better and great", "positive", lexicon)
        variants = generate_variants(
            m, lexicon, AugmentConfig(max_variants_per_sample=10)
        )
        flipped = [v for v in variants if v.label == "negative"]
        assert flipped
        assert all("worse" in v.text and "better" not in v.text for v in flipped)

    def test_flip_suppressed_when_comparative_unmapped(self, lexicon):
        m = make("TARGET is fancier and great", "positive", lexicon)
        config = AugmentConfig(
            max_variants_per_sample=10,
            comparatives=frozenset({"fancier"}),
        )
        variants = generate_variants(m, lexicon, config)
        assert all(v.label == "positive" for v in variants)

    def test_same_sign_substitution_leaves_comparative_alone(self, lexicon):
        m = make("TARGET is better and horrible", "negative", lexicon)
        config = AugmentConfig(include_flips=False, max_variants_per_sample=10)
        variants = generate_variants(m, lexicon, config)
        assert variants
        assert all("better" in v.text for v in variants)

    def test_neutral_mentions_never_flip(self, lexicon):
        m = make("TARGET is nice i suppose", "neutral", lexicon)
        variants = generate_variants(
            m, lexicon, AugmentConfig(score_tolerance=0.5, max_variants_per_sample=10)
        )
        assert all(v.label == "neutral" for v in variants)

    def test_substitution_provenance_names_position_and_terms(self, lexicon):
        m = make("TARGET is horrible", "negative", lexicon)
        config = AugmentConfig(include_flips=False)
        variants = generate_variants(m, lexicon, config)
        assert variants[0].substitution == "horrible@2->poor"

    def test_each_variant_changes_one_occurrence(self, lexicon):
        m = make("horrible camera but great sound", "neutral", lexicon)
        config = AugmentConfig(include_flips=False, max_variants_per_sample=10)
        for variant in generate_variants(m, lexicon, config):
            differing = sum(
                a != b
                for a, b in zip(m.raw_text.split(), variant.text.split())
            )
            assert differing == 1

    def test_cap_and_seeded_selection_preserve_canonical_order(self, lexicon):
        m = make("horrible and poor and terrible", "negative", lexicon)
        full = generate_variants(
            m, lexicon, AugmentConfig(max_variants_per_sample=100, include_flips=True)
        )
        capped = generate_variants(
            m, lexicon, AugmentConfig(max_variants_per_sample=3, include_flips=True)
        )
        assert len(capped) == 3
        texts = [v.text for v in full]
        positions = [texts.index(v.text) for v in capped]
        assert positions == sorted(positions)

    def test_selection_is_deterministic_per_seed(self, lexicon):
        m = make("horrible and poor and terrible", "negative", lexicon)
        a = generate_variants(m, lexicon, AugmentConfig(max_variants_per_sample=3, rng_seed=9))
        b = generate_variants(m, lexicon, AugmentConfig(max_variants_per_sample=3, rng_seed=9))
        assert a == b

    def test_no_duplicate_text_label_pairs(self, lexicon):
        m = make("poor poor poor", "negative", lexicon)
        variants = generate_variants(
            m, lexicon, AugmentConfig(max_variants_per_sample=50)
        )
        seen = {(v.text, v.label) for v in variants}
        assert len(seen) == len(variants)

    def test_mention_without_sentiment_words_yields_nothing(self, lexicon):
        m = make("nothing to report", "neutral", lexicon)
        assert generate_variants(m, lexicon, AugmentConfig()) == []


class TestFlipLabel:
    def test_mapping(self):
        assert flip_label("positive") == "negative"
        assert flip_label("negative") == "positive"
        assert flip_label("neutral") == "neutral"


class TestAugmentCorpus:
    def test_provenance_carries_source_index(self, lexicon):
        mentions = [
            make("TARGET is horrible", "negative", lexicon),
            make("TARGET is great", "positive", lexicon),
        ]
        samples = augment_corpus(mentions, lexicon, AugmentConfig())
        assert samples
        for sample in samples:
            assert sample.provenance.startswith(f"src={sample.source_index};")
        assert {s.source_index for s in samples} == {0, 1}

    def test_deterministic_given_seed(self, lexicon):
        mentions = [make("horrible and poor and terrible", "negative", lexicon)]
        config = AugmentConfig(max_variants_per_sample=2, rng_seed=3)
        assert augment_corpus(mentions, lexicon, config) == augment_corpus(
            mentions, lexicon, config
        )

    def test_per_mention_seeds_differ(self):
        assert derive_seed(0, 0) != derive_seed(0, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestConfigValidation:
    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(max_variants_per_sample=-1)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(score_tolerance=-0.1)

    @pytest.mark.parametrize(
        "antonyms",
        [
            {"a:b": "c"},
            {"a": "b:c"},
            {"": "worse"},
            {"better": ""},
            {"much better": "worse"},
            {"a": "b\tc"},
        ],
    )
    def test_unwritable_antonym_terms_rejected(self, antonyms):
        # config_to_text writes antonyms as space-separated a:b pairs, so
        # such a term would not read back as written.
        with pytest.raises(ValueError, match="antonym"):
            AugmentConfig(antonyms=antonyms)

    def test_comparatives_default_to_antonym_keys(self):
        config = AugmentConfig()
        assert config.comparative_terms() == frozenset({"better", "worse"})
