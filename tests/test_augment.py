from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_augment_corpus, written_samples
from sentiscore.augment import (
    DEFAULT_ANTONYMS,
    AugmentConfig,
    augment_corpus,
    derive_seed,
    flip_label,
)
from sentiscore import augment
from sentiscore.cli import main
from sentiscore.lexicon import (
    LABELS,
    Lexicon,
    LexiconError,
    MentionRecord,
    make_mention,
    prepare_mentions,
    save_lexicon,
    save_mention_records,
    tokenize,
    tokenize_with_spans,
)


@pytest.fixture
def lexicon():
    return Lexicon(
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


def written(mentions, lexicon, config):
    """The variants of ``mentions`` with the texts the ``augment`` command writes."""
    return written_samples(mentions, augment_corpus(mentions, lexicon, config))


def edited(tokens, edits):
    out = list(tokens)
    for idx, term in edits:
        out[idx] = term
    return out


class TestSimilarTerms:
    def test_tolerance_excludes_distant_scores(self, lexicon):
        m = make("TARGET is nice", "positive", lexicon)
        assert augment_corpus([m], lexicon, AugmentConfig(score_tolerance=0.1)) == []

    def test_opposite_compares_absolute_scores(self):
        lex = Lexicon({"up": 0.8, "down": -0.75, "floor": -2.0})
        variants = written([make("up", "positive", lex)], lex, AugmentConfig())
        assert [(v.text, v.label) for v in variants] == [("down", "negative")]


class TestGenerateVariants:
    def test_same_sign_substitution_keeps_label(self, lexicon):
        m = make("TARGET is horrible", "negative", lexicon)
        config = AugmentConfig(include_flips=False)
        variants = written([m], lexicon, config)
        assert [(v.text, v.label) for v in variants] == [
            ("TARGET is poor", "negative"),
            ("TARGET is terrible", "negative"),
        ]

    def test_opposite_sign_substitution_flips_label(self, lexicon):
        m = make("TARGET is horrible", "negative", lexicon)
        variants = written([m], lexicon, AugmentConfig())
        flips = [(v.text, v.label) for v in variants if v.label == "positive"]
        assert ("TARGET is amazing", "positive") in flips
        assert ("TARGET is great", "positive") in flips

    def test_flip_swaps_comparative(self, lexicon):
        m = make("TARGET is better and great", "positive", lexicon)
        variants = written([m], lexicon, AugmentConfig(max_variants_per_sample=10))
        flipped = [v for v in variants if v.label == "negative"]
        assert flipped
        assert all("worse" in v.text and "better" not in v.text for v in flipped)

    def test_flip_suppressed_when_comparative_unmapped(self, lexicon):
        m = make("TARGET is fancier and great", "positive", lexicon)
        config = AugmentConfig(
            max_variants_per_sample=10,
            comparatives=frozenset({"fancier"}),
        )
        variants = augment_corpus([m], lexicon, config)
        assert all(v.label == "positive" for v in variants)

    def test_unmapped_comparative_suppresses_only_other_occurrences_flips(self):
        lex = Lexicon({"worse": -0.5, "fine": 0.5})
        config = AugmentConfig(
            antonyms={}, comparatives=frozenset({"worse"}), max_variants_per_sample=10
        )
        alone = written([make("worse", "negative", lex)], lex, config)
        assert [(v.text, v.label) for v in alone] == [("fine", "positive")]
        assert augment_corpus([make("worse worse", "negative", lex)], lex, config) == []

    def test_same_sign_substitution_leaves_comparative_alone(self, lexicon):
        m = make("TARGET is better and horrible", "negative", lexicon)
        config = AugmentConfig(include_flips=False, max_variants_per_sample=10)
        variants = written([m], lexicon, config)
        assert variants
        assert all("better" in v.text for v in variants)

    def test_neutral_mentions_never_flip(self, lexicon):
        m = make("TARGET is nice i suppose", "neutral", lexicon)
        variants = augment_corpus(
            [m], lexicon, AugmentConfig(score_tolerance=0.5, max_variants_per_sample=10)
        )
        assert all(v.label == "neutral" for v in variants)

    def test_substitution_provenance_names_position_and_terms(self, lexicon):
        m = make("TARGET is horrible", "negative", lexicon)
        config = AugmentConfig(include_flips=False)
        variants = augment_corpus([m], lexicon, config)
        assert variants[0].substitution == "horrible@2->poor"

    def test_each_variant_changes_one_occurrence(self, lexicon):
        m = make("horrible camera but great sound", "neutral", lexicon)
        config = AugmentConfig(include_flips=False, max_variants_per_sample=10)
        for variant in written([m], lexicon, config):
            differing = sum(
                a != b
                for a, b in zip(m.raw_text.split(), variant.text.split())
            )
            assert differing == 1

    def test_cap_and_seeded_selection_preserve_canonical_order(self, lexicon):
        m = make("horrible and poor and terrible", "negative", lexicon)
        full = written([m], lexicon, AugmentConfig(max_variants_per_sample=100))
        capped = written([m], lexicon, AugmentConfig(max_variants_per_sample=3))
        assert len(capped) == 3
        texts = [v.text for v in full]
        positions = [texts.index(v.text) for v in capped]
        assert positions == sorted(positions)

    def test_selection_is_deterministic_per_seed(self, lexicon):
        m = make("horrible and poor and terrible", "negative", lexicon)
        a = augment_corpus([m], lexicon, AugmentConfig(max_variants_per_sample=3, rng_seed=9))
        b = augment_corpus([m], lexicon, AugmentConfig(max_variants_per_sample=3, rng_seed=9))
        assert a == b

    def test_no_duplicate_text_label_pairs(self, lexicon):
        m = make("poor poor poor", "negative", lexicon)
        variants = written([m], lexicon, AugmentConfig(max_variants_per_sample=50))
        seen = {(v.text, v.label) for v in variants}
        assert len(seen) == len(variants)

    def test_comparative_lexicon_word_flips_once(self):
        # Either occurrence, flipped to its antonym, gives "worse worse".
        lex = Lexicon({"better": 0.5, "worse": -0.5})
        m = make("better better", "positive", lex)
        variants = written([m], lex, AugmentConfig(max_variants_per_sample=10))
        assert [(v.text, v.label, v.substitution) for v in variants] == [
            ("worse worse", "negative", "better@0->worse (flip)")
        ]

    def test_splices_at_raw_offsets_in_non_ascii_text(self):
        # "İ" lowercases to two characters; the splice must still land
        # on the raw text's "good".
        lex = Lexicon({"good": 1.0, "great": 1.0})
        m = make("İ liked it, good movie", "positive", lex)
        variants = written([m], lex, AugmentConfig())
        assert [v.text for v in variants] == ["İ liked it, great movie"]

    @pytest.mark.parametrize(
        "text, spliced",
        [
            ("İyi TARGET", "ok\u0307yi TARGET"),
            ("İ TARGET", "ok\u0307 TARGET"),
            ("tamam İ", "tamam ok\u0307"),
        ],
    )
    def test_splice_keeps_the_dot_of_an_edited_dotted_capital_i(self, text, spliced):
        # "İ" lowercases to "i" and a combining dot; the token "i" ends
        # at the "i", and the dot kept "yi" apart from it. The splice
        # keeps the dot, so "ok" does not run into "yi".
        lex = Lexicon({"i": 0.5, "ok": 0.52})
        m = make(text, "positive", lex)
        variants = written([m], lex, AugmentConfig(include_flips=False))
        assert [v.text for v in variants] == [spliced]
        assert tokenize(spliced) == ["ok" if t == "i" else t for t in m.tokens]

    def test_variants_are_token_edits_in_token_order(self, lexicon):
        m = make("TARGET is better and great, not worse", "positive", lexicon)
        variants = augment_corpus([m], lexicon, AugmentConfig(max_variants_per_sample=10))
        assert [(v.edits, v.label, v.substitution) for v in variants] == [
            (((4, "amazing"),), "positive", "great@4->amazing"),
            (((2, "worse"), (4, "horrible"), (6, "better")), "negative", "great@4->horrible (flip)"),
            (((2, "worse"), (4, "poor"), (6, "better")), "negative", "great@4->poor (flip)"),
            (((2, "worse"), (4, "terrible"), (6, "better")), "negative", "great@4->terrible (flip)"),
        ]

    def test_mention_without_sentiment_words_yields_nothing(self, lexicon):
        m = make("nothing to report", "neutral", lexicon)
        assert augment_corpus([m], lexicon, AugmentConfig()) == []


class TestFlipLabel:
    def test_mapping(self):
        assert flip_label("positive") == "negative"
        assert flip_label("negative") == "positive"
        assert flip_label("neutral") == "neutral"


class TestAugmentCorpus:
    def test_reads_occurrences_from_the_mentions(self, lexicon, monkeypatch):
        mentions = [
            make("TARGET is very horrible, not better", "negative", lexicon),
            make("TARGET is nice", "positive", lexicon),  # no peer within tolerance
            make("Great! TARGET is amazing", "positive", lexicon),
            make("nothing to report", "neutral", lexicon),
        ]
        config = AugmentConfig(max_variants_per_sample=10)
        expected = augment_corpus(mentions, lexicon, config)
        assert any(sample.label == "positive" for sample in expected)
        assert {sample.source_index for sample in expected} == {0, 2}

        def tokenized_again(*args, **kwargs):
            raise AssertionError("augment_corpus tokenized or extracted again")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "sentiscore":
                for attr in ("tokenize", "tokenize_with_spans", "extract_pair_indices"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, tokenized_again)
        assert augment_corpus(mentions, lexicon, config) == expected
        assert augment_corpus(mentions, lexicon, AugmentConfig(max_variants_per_sample=0)) == []

    def test_writer_finds_spans_only_for_mentions_that_keep_a_variant(
        self, lexicon, monkeypatch, tmp_path
    ):
        texts = [
            "TARGET is very horrible, not better",
            "TARGET is nice",  # no peer within tolerance
            "Great! TARGET is amazing",
            "nothing to report",
        ]
        corpus, lexicon_path = tmp_path / "corpus.tsv", tmp_path / "lexicon.tsv"
        save_mention_records([MentionRecord(t, "positive") for t in texts], corpus)
        save_lexicon(lexicon, lexicon_path)
        spanned = []

        def spans(text):
            spanned.append(text)
            return tokenize_with_spans(text)

        monkeypatch.setattr(augment, "tokenize_with_spans", spans)
        args = ["augment", "--corpus", str(corpus), "--lexicon", str(lexicon_path)]
        assert main([*args, "--out", str(tmp_path / "out.tsv")]) == 0
        assert spanned == [texts[0], texts[2]]
        spanned.clear()
        assert main([*args, "--out", str(tmp_path / "none.tsv"), "--max-variants", "0"]) == 0
        assert spanned == []
        assert (tmp_path / "none.tsv").read_bytes() == b""

    def test_lexicon_without_a_mention_word_raises(self, lexicon):
        mentions = [make("TARGET is nice", "positive", lexicon)]
        smaller = Lexicon({t: s for t, s in lexicon.words.items() if t != "nice"})
        with pytest.raises(LexiconError, match="nice"):
            augment_corpus(mentions, smaller, AugmentConfig())

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
            {"Better": "worse"},
            {"better": "not-worse"},
        ],
    )
    def test_unwritable_antonym_terms_rejected(self, antonyms):
        # Antonyms are matched against tokens and spliced in as tokens;
        # config_to_text also writes them as space-separated a:b pairs.
        with pytest.raises(ValueError, match="antonym"):
            AugmentConfig(antonyms=antonyms)

    def test_comparatives_default_to_antonym_keys(self):
        config = AugmentConfig()
        assert config.comparative_terms() == frozenset({"better", "worse"})


# Differential tests against the enumerate, de-duplicate, then sample
# augmenter kept in tests/helpers.py.
WORDS = ("good", "fine", "nice", "bad", "poor", "awful", "better", "worse", "meh")
OTHER_TOKENS = ("the", "camera", "is", "TARGET", "fancier", "very")
SEPARATORS = (" ", " ", ", ", "-", "! ", " İ", "'s ")
# A lexicon rejects an infinite score; the largest finite one stands in for it.
MAGNITUDES = st.sampled_from([0.1, 0.2, 0.3, 0.1 + 0.2, 0.5, 1.0, sys.float_info.max])
MAGNITUDES |= st.floats(0.05, 1.5)
TOLERANCES = st.sampled_from([0.0, 0.1, 0.2, 0.5, 3.0, math.inf]) | st.floats(0.0, 1.0)


@st.composite
def lexicons(draw):
    terms = draw(st.lists(st.sampled_from(WORDS), min_size=1, unique=True))
    scores = {t: draw(MAGNITUDES) * draw(st.sampled_from([1.0, -1.0])) for t in terms}
    return Lexicon(scores, {"very": 1.5})


@st.composite
def mention_texts(draw):
    tokens = draw(st.lists(st.sampled_from(WORDS + OTHER_TOKENS), max_size=8))
    parts = []
    for token in tokens:
        parts.append(draw(st.sampled_from([token, token.upper(), token.title()])))
        parts.append(draw(st.sampled_from(SEPARATORS)))
    return "".join(parts)


CONFIGS = st.builds(
    AugmentConfig,
    score_tolerance=TOLERANCES,
    max_variants_per_sample=st.integers(0, 30),
    include_flips=st.booleans(),
    rng_seed=st.integers(0, 2**32 - 1),
    antonyms=st.sampled_from(
        [DEFAULT_ANTONYMS, {"better": "worse"}, {}, {**DEFAULT_ANTONYMS, "fancier": "plainer"}]
    ),
    comparatives=st.sampled_from(
        [None, frozenset({"better", "worse", "fancier"}), frozenset({"fancier"})]
    ),
)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        lexicon=lexicons(),
        labelled=st.lists(st.tuples(mention_texts(), st.sampled_from(LABELS)), max_size=4),
        last_label=st.sampled_from(LABELS),
        config=CONFIGS,
    )
    def test_same_variants_as_enumerate_then_sample(self, lexicon, labelled, last_label, config):
        # The last mention holds every word, so each word's peers are
        # checked against the reference's scan of the whole lexicon.
        mentions = [make(text, label, lexicon) for text, label in labelled]
        mentions.append(make(" ".join(lexicon.word_terms()), last_label, lexicon))
        assert written(mentions, lexicon, config) == reference_augment_corpus(
            mentions, lexicon, config
        )


# The augment command's own output: every text it writes tokenizes to its
# mention's tokens with that variant's edits applied. Pieces run into each
# other without a separator, so "İ" and the lexicon word "i" sit inside
# and at the ends of tokens; "Acme" is the masked entity.
WRITER_WORDS = ("i", "ok", "oki", "yi", "good", "bad", "better", "worse")
WRITER_PIECES = (*WRITER_WORDS, "İ", "İyi", "OKİ", "Better", "WORSE", "Acme", "ACME", "TARGET")
WRITER_SEPARATORS = ("", " ", " ", ", ", "-", "İ", "'")


@st.composite
def writer_records(draw):
    parts = []
    for piece in draw(st.lists(st.sampled_from(WRITER_PIECES), min_size=1, max_size=8)):
        parts += [piece, draw(st.sampled_from(WRITER_SEPARATORS))]
    entity = draw(st.sampled_from([None, "acme"]))
    return MentionRecord("".join(parts).strip(), draw(st.sampled_from(LABELS)), None, entity)


class TestWriter:
    @settings(max_examples=150, deadline=None)
    @given(
        records=st.lists(writer_records(), min_size=1, max_size=4),
        scores=st.lists(MAGNITUDES, min_size=len(WRITER_WORDS), max_size=len(WRITER_WORDS)),
        signs=st.lists(st.booleans(), min_size=len(WRITER_WORDS), max_size=len(WRITER_WORDS)),
        delta=st.sampled_from([0.1, 0.5, math.inf]),
        seed=st.integers(0, 3),
    )
    def test_written_texts_tokenize_to_the_edited_tokens(self, records, scores, signs, delta, seed):
        words = {w: s if up else -s for w, s, up in zip(WRITER_WORDS, scores, signs)}
        lexicon = Lexicon(words)
        config = AugmentConfig(score_tolerance=delta, max_variants_per_sample=3, rng_seed=seed)
        mentions = prepare_mentions(records, lexicon)
        samples = augment_corpus(mentions, lexicon, config)
        with tempfile.TemporaryDirectory() as work:
            corpus, lexicon_path, out = (Path(work) / name for name in ("c.tsv", "l.tsv", "o.tsv"))
            save_mention_records(records, corpus)
            save_lexicon(lexicon, lexicon_path)
            code = main([
                "augment", "--corpus", str(corpus), "--lexicon", str(lexicon_path),
                "--out", str(out), "--delta", str(delta), "--max-variants", "3",
                "--seed", str(seed),
            ])
            lines = out.read_text(encoding="utf-8").splitlines()
        assert code == 0
        assert len(lines) == len(samples)
        for line, sample in zip(lines, samples):
            text, label, _, _, provenance = line.split("\t")
            assert (label, provenance) == (sample.label, sample.provenance)
            tokens = mentions[sample.source_index].tokens
            assert tokenize(text) == edited(tokens, sample.edits)
