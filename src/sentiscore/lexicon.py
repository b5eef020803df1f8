"""Sentiment lexicon, mention parsing, and mention scoring.

A lexicon holds two disjoint term maps: sentiment words carry a signed
score (positive words strictly above zero, negative words strictly
below), and modifiers ("adverbs") carry a non-negative multiplicative
score. A mention is a labeled text tokenized once, with its tokens and
the token indices of its (modifier, word) occurrences; its lexicon
score is the sum of ``modifier_score * word_score`` over those
occurrences, with a modifier score of 1 for unmodified words.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

POSITIVE = "positive"
NEGATIVE = "negative"
NEUTRAL = "neutral"

#: Global label order used for one-hot vectors and probability outputs.
LABELS = (POSITIVE, NEGATIVE, NEUTRAL)
LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}

#: Supervision score assigned to a mention when only a class label exists.
LABEL_SCORES = {POSITIVE: 1.0, NEGATIVE: -1.0, NEUTRAL: 0.0}

#: Literal token substituted for the entity under analysis.
TARGET_TOKEN = "TARGET"

_TOKEN_RE = re.compile(r"[a-z0-9']+")


class LexiconError(ValueError):
    """Raised on malformed lexicons, unknown terms, or bad records."""


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split into alphanumeric tokens.

    Punctuation is discarded; apostrophes inside words are kept. Empty
    input yields an empty list.
    """
    return _TOKEN_RE.findall(text.lower())


def tokenize_with_spans(text: str) -> list[tuple[str, int, int]]:
    """Tokenize, returning ``(token, start, end)`` character spans.

    Spans index into the original (non-lowercased) text so callers can
    splice replacements back in, even where ``"İ"`` lowercases to two
    characters (a token ending inside those spans the whole ``"İ"``).
    """
    lowered = text.lower()
    spans = [(m[0], m.start(), m.end()) for m in _TOKEN_RE.finditer(lowered)]
    if len(lowered) != len(text):
        raw = [i for i, ch in enumerate(text) for _ in ch.lower()]
        spans = [(token, raw[start], raw[end - 1] + 1) for token, start, end in spans]
    return spans


def is_token(term: str) -> bool:
    """Whether ``term`` is one whole token, i.e. ``tokenize(term) == [term]``."""
    return _TOKEN_RE.fullmatch(term) is not None


def mask_target(text: str, entity: str) -> str:
    """Replace every case-insensitive occurrence of ``entity`` with TARGET.

    Occurrences are matched as contiguous substrings of the raw text, so
    multi-word entities work. Existing literal TARGET tokens are left
    alone, which makes the operation idempotent even when ``entity`` is
    a substring of the mask token itself.
    """
    if not entity.strip():
        raise LexiconError("entity must hold a non-space character")
    pattern = _entity_pattern(entity)
    segments = text.split(TARGET_TOKEN)
    return TARGET_TOKEN.join([pattern.sub(TARGET_TOKEN, seg) for seg in segments])


@functools.lru_cache
def _entity_pattern(entity: str) -> re.Pattern[str]:
    """The compiled case-insensitive pattern of ``entity``, made once per entity."""
    return re.compile(re.escape(entity), re.IGNORECASE)


def masked_text(text: str, entity: str | None) -> str:
    """``text`` with ``entity`` masked as TARGET, or as is when no entity is given."""
    return mask_target(text, entity) if entity else text


@dataclass(frozen=True, repr=False)
class Lexicon:
    """Immutable sentiment dictionary of words and modifiers.

    ``words`` maps term to a signed score whose sign is the word's
    polarity; ``adverbs`` maps term to a non-negative score. Construction
    validates that terms are single tokens (:func:`is_token`), scores are
    finite, word scores are nonzero, modifier scores are non-negative,
    and the two maps are disjoint, then holds read-only copies of both.
    """

    words: Mapping[str, float]
    adverbs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        words = {term: float(score) for term, score in self.words.items()}
        adverbs = {term: float(score) for term, score in self.adverbs.items()}
        for term in (*words, *adverbs):
            if not is_token(term):
                raise LexiconError(f"term {term!r} is not a single lowercase token")
        for term, score in words.items():
            if not (math.isfinite(score) and score != 0.0):
                raise LexiconError(f"word {term!r} must have a finite nonzero score")
        for term, score in adverbs.items():
            if not (math.isfinite(score) and score >= 0):
                raise LexiconError(f"adverb {term!r} must have a finite score >= 0")
        overlap = set(words) & set(adverbs)
        if overlap:
            raise LexiconError(f"terms in both maps: {sorted(overlap)}")
        object.__setattr__(self, "words", MappingProxyType(words))
        object.__setattr__(self, "adverbs", MappingProxyType(adverbs))

    def word_terms(self) -> list[str]:
        return sorted(self.words)

    def adverb_terms(self) -> list[str]:
        return sorted(self.adverbs)

    def word_score(self, term: str) -> float:
        try:
            return self.words[term]
        except KeyError:
            raise LexiconError(f"unknown sentiment word: {term!r}") from None

    def polarity(self, term: str) -> str:
        """The sign of the word's score, as :data:`POSITIVE` or :data:`NEGATIVE`."""
        return POSITIVE if self.word_score(term) > 0 else NEGATIVE

    def adverb_score(self, term: str) -> float:
        try:
            return self.adverbs[term]
        except KeyError:
            raise LexiconError(f"unknown adverb: {term!r}") from None

    def replace_scores(
        self,
        word_scores: Mapping[str, float] | None = None,
        adverb_scores: Mapping[str, float] | None = None,
    ) -> "Lexicon":
        """Return a new lexicon with the given scores substituted in.

        Terms absent from the update keep their current score. An updated
        word must keep the sign of its current score, i.e. its polarity.
        """
        word_scores, adverb_scores = word_scores or {}, adverb_scores or {}
        for term, score in word_scores.items():
            if (score > 0) != (self.word_score(term) > 0):
                raise LexiconError(f"word {term!r} must keep the sign of its score")
        for term in adverb_scores:
            self.adverb_score(term)  # raises on an unknown adverb
        return Lexicon({**self.words, **word_scores}, {**self.adverbs, **adverb_scores})

    def __repr__(self) -> str:
        return f"Lexicon(words={len(self.words)}, adverbs={len(self.adverbs)})"


def extract_pair_indices(
    tokens: Sequence[str], lexicon: Lexicon
) -> list[tuple[int | None, int]]:
    """Token indices ``(modifier or None, word)`` of each occurrence.

    Every token present in the lexicon's word map yields one occurrence,
    in token order. The modifier slot is filled iff the immediately
    preceding token is in the modifier map; each modifier token attaches
    to at most the one word it directly precedes.
    """
    words, adverbs = lexicon.words, lexicon.adverbs
    pairs: list[tuple[int | None, int]] = []
    for i, tok in enumerate(tokens):
        if tok not in words:
            continue
        if i > 0 and tokens[i - 1] in adverbs:
            pairs.append((i - 1, i))
        else:
            pairs.append((None, i))
    return pairs


def score_mention(pairs: Iterable[tuple[str | None, str]], lexicon: Lexicon) -> float:
    """Sum ``modifier_score * word_score`` over extracted pairs.

    Unmodified words contribute their score unscaled. Unknown terms
    raise :class:`LexiconError` naming the term.
    """
    total = 0.0
    for adverb, word in pairs:
        scale = 1.0 if adverb is None else lexicon.adverb_score(adverb)
        total += scale * lexicon.word_score(word)
    return total


@dataclass(frozen=True)
class Mention:
    """A labeled text, tokenized once, with its sentiment occurrences.

    ``tokens`` holds the text's tokens, as from :func:`tokenize`;
    ``pair_indices`` holds each occurrence's ``(modifier or None, word)``
    token indices, as from :func:`extract_pair_indices`. ``target_score``
    is the supervision value for score learning: +1 / 0 / -1 by label
    unless one is given.
    """

    raw_text: str
    tokens: tuple[str, ...]
    pair_indices: tuple[tuple[int | None, int], ...]
    label: str
    target_score: float

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise LexiconError(f"unknown label: {self.label!r}")

    @property
    def pairs(self) -> tuple[tuple[str | None, str], ...]:
        """The ``(modifier or None, word)`` terms of each occurrence, in order."""
        tokens = self.tokens
        return tuple(
            (None if adverb is None else tokens[adverb], tokens[word])
            for adverb, word in self.pair_indices
        )

    def score(self, lexicon: Lexicon) -> float:
        return score_mention(self.pairs, lexicon)


def make_mention(
    text: str,
    label: str,
    lexicon: Lexicon,
    target_score: float | None = None,
    entity: str | None = None,
) -> Mention:
    """Build a :class:`Mention`: mask, tokenize, and find occurrences.

    When ``entity`` is given the text is target-masked first, so
    downstream consumers always see the masked form.
    """
    text = masked_text(text, entity)
    tokens = tuple(tokenize(text))
    pair_indices = tuple(extract_pair_indices(tokens, lexicon))
    if target_score is None:
        target_score = LABEL_SCORES.get(label, 0.0)  # Mention rejects an unknown label
    return Mention(text, tokens, pair_indices, label, float(target_score))


# ----------------------------------------------------------------------
# File formats
#
# Lexicon file: one tab-separated record per line,
#   term<TAB>kind<TAB>polarity<TAB>score
# with kind in {word, adverb} and polarity in {positive, negative, n/a}.
#
# Mention file: one tab-separated record per line,
#   text<TAB>label[<TAB>target_score[<TAB>entity]]
# where the two trailing fields may be empty or absent. Extra fields
# (e.g. augmentation provenance) are ignored on read.


@dataclass(frozen=True)
class MentionRecord:
    """One line of a mention file, before lexicon-aware preparation."""

    text: str
    label: str
    target_score: float | None = None
    entity: str | None = None


def _rows(path) -> Iterator[tuple[int, list[str]]]:
    """``(line number, tab-separated fields)`` of each non-empty line of a UTF-8 file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line.split("\t")
        except UnicodeDecodeError:
            raise LexiconError(f"{path}: not UTF-8 text") from None


def save_lexicon(lexicon: Lexicon, path) -> None:
    lines = []
    for term in lexicon.word_terms():
        lines.append(f"{term}\tword\t{lexicon.polarity(term)}\t{lexicon.words[term]!r}")
    for term in lexicon.adverb_terms():
        lines.append(f"{term}\tadverb\tn/a\t{lexicon.adverbs[term]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def load_lexicon(path) -> Lexicon:
    """Read a lexicon file; a term may be listed once, as a word or an adverb.

    A word's polarity column must name the sign of its score; an
    adverb's must be ``n/a``.
    """
    words: dict[str, float] = {}
    adverbs: dict[str, float] = {}
    listed_at: dict[str, int] = {}
    for lineno, fields in _rows(path):
        at = f"{path}:{lineno}"
        if len(fields) != 4:
            raise LexiconError(f"{at}: expected 4 fields, got {len(fields)}")
        term, kind, polarity, score_text = fields
        if not is_token(term):
            raise LexiconError(f"{at}: term {term!r} is not a single lowercase token")
        try:
            score = float(score_text)
        except ValueError:
            raise LexiconError(f"{at}: bad score {score_text!r}") from None
        if not math.isfinite(score):
            raise LexiconError(f"{at}: non-finite score {score_text!r}")
        if term in listed_at:
            raise LexiconError(f"{at}: term {term!r} already listed at line {listed_at[term]}")
        listed_at[term] = lineno
        if kind == "word":
            if polarity not in (POSITIVE, NEGATIVE):
                raise LexiconError(f"{at}: word {term!r} must be positive or negative")
            if score == 0.0 or (score > 0) != (polarity == POSITIVE):
                sign = ">" if polarity == POSITIVE else "<"
                raise LexiconError(f"{at}: {polarity} word {term!r} must have score {sign} 0")
            words[term] = score
        elif kind == "adverb":
            if polarity != "n/a":
                raise LexiconError(f"{at}: adverb {term!r} must have polarity n/a")
            if score < 0:
                raise LexiconError(f"{at}: adverb {term!r} must have score >= 0")
            adverbs[term] = score
        else:
            raise LexiconError(f"{at}: unknown kind {kind!r}")
    return Lexicon(words, adverbs)


def save_mention_records(records: Iterable[MentionRecord], path) -> None:
    """Write a mention file; a tab or line break in a field would not read back."""
    lines = []
    for index, rec in enumerate(records):
        entity = rec.entity or ""
        if any(c in value for value in (rec.text, entity) for c in "\t\n\r"):
            raise LexiconError(f"record {index}: text or entity holds a tab or line break")
        score = "" if rec.target_score is None else repr(rec.target_score)
        lines.append(f"{rec.text}\t{rec.label}\t{score}\t{entity}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_mention_records(path) -> list[MentionRecord]:
    records = []
    for lineno, fields in _rows(path):
        if len(fields) < 2:
            raise LexiconError(f"{path}:{lineno}: expected at least text and label")
        text, label = fields[0], fields[1]
        if label not in LABELS:
            raise LexiconError(f"{path}:{lineno}: unknown label {label!r}")
        score: float | None = None
        if len(fields) > 2 and fields[2]:
            try:
                score = float(fields[2])
            except ValueError:
                raise LexiconError(f"{path}:{lineno}: bad target score {fields[2]!r}") from None
            if not math.isfinite(score):
                raise LexiconError(f"{path}:{lineno}: non-finite target score {fields[2]!r}")
        entity = fields[3] if len(fields) > 3 and fields[3] else None
        if entity is not None and not entity.strip():
            raise LexiconError(f"{path}:{lineno}: blank entity {entity!r}")
        records.append(MentionRecord(text, label, score, entity))
    return records


def prepare_mentions(records: Iterable[MentionRecord], lexicon: Lexicon) -> list[Mention]:
    """Turn raw records into mentions against ``lexicon``."""
    return [
        make_mention(rec.text, rec.label, lexicon, rec.target_score, rec.entity)
        for rec in records
    ]
