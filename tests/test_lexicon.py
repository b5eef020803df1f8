from __future__ import annotations

import math

import numpy as np
import pytest

from sentiscore.lexicon import (
    LABEL_SCORES,
    LABELS,
    Lexicon,
    LexiconError,
    MentionRecord,
    extract_pair_indices,
    load_lexicon,
    load_mention_records,
    make_mention,
    mask_target,
    prepare_mentions,
    save_lexicon,
    save_mention_records,
    score_mention,
    tokenize,
    tokenize_with_spans,
)


@pytest.fixture
def lexicon() -> Lexicon:
    return Lexicon(
        {"beautiful": 1.5, "great": 1.0, "ugly": -1.2, "bad": -0.8},
        {"very": 0.75, "quite": 0.5, "extremely": 1.3},
    )


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("The Screen, is GREAT!") == ["the", "screen", "is", "great"]

    def test_keeps_digits_and_apostrophes(self):
        assert tokenize("it isn't a 2nd-rate phone") == [
            "it",
            "isn't",
            "a",
            "2nd",
            "rate",
            "phone",
        ]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("  ... !!") == []

    def test_spans_point_into_original_text(self):
        text = "Very GOOD, really"
        for token, start, end in tokenize_with_spans(text):
            assert text[start:end].lower() == token

    def test_spans_agree_with_tokenize(self):
        text = "The battery's life, 10 hours!"
        assert [t for t, _, _ in tokenize_with_spans(text)] == tokenize(text)

    def test_spans_index_raw_text_after_multi_char_lowercase(self):
        # "İ".lower() is "i" plus a combining dot, two characters.
        text = "İ liked it, good movie"
        spans = tokenize_with_spans(text)
        assert [t for t, _, _ in spans] == tokenize(text)
        assert spans[0] == ("i", 0, 1)
        assert [text[start:end] for _, start, end in spans[1:]] == ["liked", "it", "good", "movie"]


class TestMaskTarget:
    def test_replaces_case_insensitively(self):
        assert mask_target("I love my Phone, phone is great", "phone") == (
            "I love my TARGET, TARGET is great"
        )

    def test_multi_word_entity(self):
        assert mask_target("the Acme X2 rocks", "acme x2") == "the TARGET rocks"

    def test_idempotent(self):
        once = mask_target("Alpha is nice", "alpha")
        assert mask_target(once, "alpha") == once

    def test_entity_substring_of_mask_token(self):
        # "tar" occurs inside the literal TARGET; a second pass must not
        # chew up the mask it produced.
        once = mask_target("tar looks odd", "tar")
        assert once == "TARGET looks odd"
        assert mask_target(once, "tar") == once

    def test_empty_entity_rejected(self):
        with pytest.raises(LexiconError):
            mask_target("some text", "")

    @pytest.mark.parametrize("entity", [" ", " \t "])
    def test_blank_entity_rejected(self, entity):
        # A space entity would turn every space into TARGET.
        with pytest.raises(LexiconError, match="non-space"):
            mask_target("Nimbus is great", entity)


def write_lexicon(tmp_path, text: str):
    path = tmp_path / "lex.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLexiconInvariants:
    def test_positive_word_with_negative_score_rejected(self, tmp_path):
        path = write_lexicon(tmp_path, "good\tword\tpositive\t-1.0\n")
        with pytest.raises(LexiconError, match="lex.tsv:1: positive word 'good' must have score >"):
            load_lexicon(path)

    def test_negative_word_with_positive_score_rejected(self, tmp_path):
        path = write_lexicon(tmp_path, "bad\tword\tnegative\t0.5\n")
        with pytest.raises(LexiconError, match="lex.tsv:1: negative word 'bad' must have score <"):
            load_lexicon(path)

    def test_zero_score_word_rejected(self):
        with pytest.raises(LexiconError, match="nonzero"):
            Lexicon({"good": 0.0})

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, score):
        with pytest.raises(LexiconError, match="word 'wow' must have a finite"):
            Lexicon({"wow": score})
        with pytest.raises(LexiconError, match="adverb 'very' must have a finite"):
            Lexicon({}, {"very": score})

    def test_negative_adverb_rejected(self):
        with pytest.raises(LexiconError, match="adverb"):
            Lexicon({}, {"very": -0.1})

    @pytest.mark.parametrize("term", ["Good", "not-bad", "two words", "", "café"])
    def test_term_that_is_not_one_token_rejected(self, term):
        with pytest.raises(LexiconError, match="single lowercase token"):
            Lexicon({term: 1.0})
        with pytest.raises(LexiconError, match="single lowercase token"):
            Lexicon({}, {term: 1.0})

    def test_word_adverb_overlap_rejected(self):
        with pytest.raises(LexiconError, match="both"):
            Lexicon({"very": 1.0}, {"very": 1.0})

    def test_polarity_is_the_sign_of_the_score(self, lexicon):
        assert lexicon.polarity("beautiful") == "positive"
        assert lexicon.polarity("ugly") == "negative"
        with pytest.raises(LexiconError, match="shiny"):
            lexicon.polarity("shiny")

    def test_replace_scores_preserves_polarity(self, lexicon):
        updated = lexicon.replace_scores(word_scores={"beautiful": 2.0})
        assert updated.word_score("beautiful") == 2.0
        assert updated.polarity("beautiful") == "positive"
        # the original is untouched
        assert lexicon.word_score("beautiful") == 1.5

    def test_replace_scores_rejects_sign_flip(self, lexicon):
        with pytest.raises(LexiconError, match="'beautiful' must keep the sign"):
            lexicon.replace_scores(word_scores={"beautiful": -0.3})
        with pytest.raises(LexiconError, match="'ugly' must keep the sign"):
            lexicon.replace_scores(word_scores={"ugly": 0.3})

    def test_replace_scores_rejects_unknown_term(self, lexicon):
        with pytest.raises(LexiconError, match="shiny"):
            lexicon.replace_scores(word_scores={"shiny": 1.0})

    def test_term_maps_are_read_only(self, lexicon):
        with pytest.raises(TypeError):
            lexicon.words["great"] = 2.0
        with pytest.raises(TypeError):
            lexicon.adverbs["very"] = 2.0
        assert lexicon.word_score("great") == 1.0
        assert lexicon.adverb_score("very") == 0.75

    def test_unknown_lookups_name_the_term(self, lexicon):
        with pytest.raises(LexiconError, match="shiny"):
            lexicon.word_score("shiny")
        with pytest.raises(LexiconError, match="hardly"):
            lexicon.adverb_score("hardly")


def pairs(text: str, lexicon: Lexicon) -> tuple:
    return make_mention(text, "neutral", lexicon).pairs


class TestExtractPairs:
    def test_adverb_attaches_only_when_adjacent(self, lexicon):
        assert pairs("the screen is very beautiful", lexicon) == (("very", "beautiful"),)

    def test_non_adjacent_adverb_ignored(self, lexicon):
        assert pairs("very shiny and beautiful", lexicon) == ((None, "beautiful"),)

    def test_word_at_sentence_start(self, lexicon):
        assert pairs("beautiful indeed", lexicon) == ((None, "beautiful"),)

    def test_multiple_occurrences_in_order(self, lexicon):
        assert pairs("bad camera but very great sound, quite bad strap", lexicon) == (
            (None, "bad"),
            ("very", "great"),
            ("quite", "bad"),
        )

    def test_stacked_adverbs_only_nearest_attaches(self, lexicon):
        assert pairs("extremely very beautiful", lexicon) == (("very", "beautiful"),)

    def test_adverb_without_word_contributes_nothing(self, lexicon):
        assert pairs("very much so", lexicon) == ()


class TestScoreMention:
    def test_modified_word_golden(self, lexicon):
        assert score_mention(pairs("TARGET is very beautiful", lexicon), lexicon) == 1.125

    def test_unmodified_word_uses_raw_score(self, lexicon):
        assert score_mention([(None, "ugly")], lexicon) == -1.2

    def test_additivity_over_occurrences(self, lexicon):
        a = [("very", "beautiful")]
        b = [(None, "bad"), ("quite", "great")]
        assert score_mention(a + b, lexicon) == pytest.approx(
            score_mention(a, lexicon) + score_mention(b, lexicon)
        )

    def test_scaling_word_scores_scales_mention_scores(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            words = {f"w{i}": float(s) for i, s in enumerate(rng.uniform(0.2, 2.0, 4))}
            words.update(
                {f"n{i}": -float(s) for i, s in enumerate(rng.uniform(0.2, 2.0, 3))}
            )
            adverbs = {f"a{i}": float(s) for i, s in enumerate(rng.uniform(0.0, 2.0, 2))}
            lex = Lexicon(words, adverbs)
            factor = float(rng.uniform(0.5, 3.0))
            scaled = lex.replace_scores(
                word_scores={t: s * factor for t, s in words.items()}
            )
            pairs = [("a0", "w1"), (None, "n2"), ("a1", "w3"), (None, "w0")]
            assert score_mention(pairs, scaled) == pytest.approx(
                factor * score_mention(pairs, lex)
            )

    def test_unknown_word_raises(self, lexicon):
        with pytest.raises(LexiconError, match="splendid"):
            score_mention([(None, "splendid")], lexicon)


class TestMention:
    def test_make_mention_masks_and_extracts(self, lexicon):
        m = make_mention(
            "The X9 screen is very beautiful", "positive", lexicon, entity="x9"
        )
        assert "TARGET" in m.raw_text
        assert m.pairs == (("very", "beautiful"),)
        assert m.label == "positive"

    def test_mention_keeps_its_tokens_and_occurrence_indices(self, lexicon):
        m = make_mention("Ünïcode: very  beautiful, BAD!", "neutral", lexicon)
        assert m.tokens == tuple(tokenize(m.raw_text))
        pair_indices = tuple(extract_pair_indices(m.tokens, lexicon))
        assert m.pair_indices == pair_indices == ((2, 3), (None, 4))
        assert m.pairs == (("very", "beautiful"), (None, "bad"))

    def test_default_target_scores_follow_labels(self, lexicon):
        for label in LABELS:
            m = make_mention("nothing notable", label, lexicon)
            assert m.target_score == LABEL_SCORES[label]

    def test_explicit_target_score_wins(self, lexicon):
        m = make_mention("fine", "positive", lexicon, target_score=0.25)
        assert m.target_score == 0.25

    def test_unknown_label_rejected(self, lexicon):
        with pytest.raises(LexiconError):
            make_mention("text", "mixed", lexicon)


class TestLexiconRoundTrip:
    def test_save_load_exact(self, tmp_path, lexicon):
        path = tmp_path / "lex.tsv"
        save_lexicon(lexicon, path)
        loaded = load_lexicon(path)
        assert loaded == lexicon

    def test_polarity_column_is_the_sign_and_round_trips_byte_for_byte(self, tmp_path, lexicon):
        first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
        save_lexicon(lexicon, first)
        save_lexicon(load_lexicon(first), second)
        assert second.read_bytes() == first.read_bytes()
        rows = [line.split("\t") for line in first.read_text(encoding="utf-8").splitlines()]
        assert {term: polarity for term, kind, polarity, _ in rows if kind == "word"} == {
            "bad": "negative",
            "beautiful": "positive",
            "great": "positive",
            "ugly": "negative",
        }

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        lex = Lexicon({"odd": 0.1 + 0.2}, {"mod": 1.0 / 3.0})
        path = tmp_path / "lex.tsv"
        save_lexicon(lex, path)
        loaded = load_lexicon(path)
        assert loaded.word_score("odd") == lex.word_score("odd")
        assert loaded.adverb_score("mod") == lex.adverb_score("mod")

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\tword\tpositive\t1.0\nbad line\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="2"):
            load_lexicon(path)

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan"])
    def test_non_finite_score_reports_location(self, tmp_path, score):
        path = tmp_path / "lex.tsv"
        path.write_text(f"good\tword\tpositive\t1.0\nwow\tword\tpositive\t{score}\n")
        with pytest.raises(LexiconError, match=f"lex.tsv:2: non-finite score '{score}'"):
            load_lexicon(path)


    def test_non_token_term_reports_location(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\tword\tpositive\t1.0\nnot-bad\tword\tpositive\t0.5\n")
        with pytest.raises(LexiconError, match="lex.tsv:2: term 'not-bad' is not a single"):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("good\tword\tpositive\t0.0", "positive word 'good' must have score > 0"),
            ("good\tword\tn/a\t0.5", "word 'good' must be positive or negative"),
            ("very\tadverb\tn/a\t-0.5", "adverb 'very' must have score >= 0"),
            ("very\tadverb\tnegative\t1.5", "adverb 'very' must have polarity n/a"),
        ],
        ids=["positive-at-zero", "word-without-polarity", "negative-adverb", "adverb-with-polarity"],
    )
    def test_polarity_or_sign_mismatch_reports_location(self, tmp_path, line, message):
        path = write_lexicon(tmp_path, f"bad\tword\tnegative\t-1.0\n{line}\n")
        with pytest.raises(LexiconError, match=f"lex.tsv:2: {message}"):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("good\tword\tpositive\t1.0", "good\tword\tpositive\t0.5"),
            ("very\tadverb\tn/a\t1.5", "very\tadverb\tn/a\t2.0"),
            ("good\tword\tpositive\t1.0", "good\tadverb\tn/a\t1.5"),
        ],
        ids=["word-twice", "adverb-twice", "word-and-adverb"],
    )
    def test_term_listed_twice_reports_both_lines(self, tmp_path, first, second):
        path = tmp_path / "lex.tsv"
        path.write_text(f"{first}\nbad\tword\tnegative\t-1.0\n{second}\n")
        with pytest.raises(LexiconError, match="lex.tsv:3: term '[a-z]+' already listed at line 1"):
            load_lexicon(path)


class TestMentionRecords:
    def test_round_trip(self, tmp_path):
        records = [
            MentionRecord("TARGET is great", "positive", 1.5, None),
            MentionRecord("meh", "neutral", None, None),
            MentionRecord("the X2 is bad", "negative", -0.8, "x2"),
        ]
        path = tmp_path / "corpus.tsv"
        save_mention_records(records, path)
        assert load_mention_records(path) == records

    @pytest.mark.parametrize(
        "record",
        [
            MentionRecord("tab\there", "positive"),
            MentionRecord("two\nlines", "positive"),
            MentionRecord("carriage\rreturn", "positive"),
            MentionRecord("TARGET is fine", "neutral", None, "the\tx2"),
        ],
    )
    def test_unwritable_field_rejected_naming_record(self, tmp_path, record):
        records = [MentionRecord("fine", "neutral"), record]
        with pytest.raises(LexiconError, match="record 1"):
            save_mention_records(records, tmp_path / "corpus.tsv")

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text(
            "TARGET is great\tpositive\t1.5\t\textra\tcolumns\n", encoding="utf-8"
        )
        [rec] = load_mention_records(path)
        assert rec.text == "TARGET is great"
        assert rec.target_score == 1.5

    def test_unknown_label_reports_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("fine\tpositive\n?\tsomething\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="2"):
            load_mention_records(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_target_score_reports_location(self, tmp_path, score):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"fine\tpositive\t1.0\nmeh\tneutral\t{score}\n", encoding="utf-8")
        with pytest.raises(
            LexiconError, match=f"corpus.tsv:2: non-finite target score '{score}'"
        ):
            load_mention_records(path)

    def test_blank_entity_reports_location(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("fine\tpositive\t\t\nNimbus is great\tpositive\t\t \n", encoding="utf-8")
        with pytest.raises(LexiconError, match="corpus.tsv:2: blank entity ' '"):
            load_mention_records(path)

    def test_prepare_mentions_masks_entities(self, lexicon):
        records = [MentionRecord("the X2 is very beautiful", "positive", None, "x2")]
        [mention] = prepare_mentions(records, lexicon)
        assert mention.raw_text == "the TARGET is very beautiful"
        assert mention.pairs == (("very", "beautiful"),)
        assert mention.target_score == 1.0
