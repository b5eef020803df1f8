"""Synthetic labeled corpora with a known ground-truth lexicon.

Experiments need reproducible data with controllable class imbalance
and label noise. The generator draws a lexicon of invented sentiment
words and modifiers, realizes templated sentences about a masked
TARGET entity, and emits mention records whose target scores are
computed from the ground-truth lexicon, so score learning can be
checked against the truth that produced the data.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from sentiscore.lexicon import (
    LABELS,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    Lexicon,
    MentionRecord,
    score_mention,
)


class GeneratorError(ValueError):
    """Raised when a corpus request is internally inconsistent."""


# Neutral vocabulary for padding sentences; none of these terms may
# collide with generated lexicon names (pos*/neg*/adv*).
FILLERS = (
    "box", "cable", "manual", "store", "shelf", "monday", "crowd",
    "review", "video", "office", "window", "corner", "table", "morning",
    "update", "cover", "strap", "button", "charger", "outlet",
)

_SENTIMENT_TEMPLATES = (
    "TARGET is {phrase}",
    "the {f0} of TARGET is {phrase}",
    "TARGET looks {phrase} to me",
    "my {f0} finds TARGET {phrase}",
)
_TWO_PHRASE_TEMPLATE = "TARGET is {phrase} and {phrase2}"
_MIXED_MARGIN = 0.3
#: Chance a single-polarity mention carries a second word of its pool.
_SECOND_WORD_RATE = 0.2
_NEUTRAL_TEMPLATES = (
    "TARGET comes with a {f0} and a {f1}",
    "the {f0} on TARGET matches the {f1}",
    "we saw TARGET near the {f0}",
    "TARGET ships with the {f0} {f1}",
)


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs of one generated corpus.

    ``class_mix`` maps labels to fractions summing to one;
    ``min_occurrences`` is the per-term coverage floor;
    ``noise_rate`` flips that fraction of labels to a different class
    while leaving the lexicon-derived target score untouched.
    """

    size: int = 500
    word_count: int = 20
    adverb_count: int = 5
    class_mix: Mapping[str, float] = field(
        default_factory=lambda: {POSITIVE: 0.3, NEGATIVE: 0.3, NEUTRAL: 0.4}
    )
    noise_rate: float = 0.0
    min_occurrences: int = 3
    adverb_rate: float = 0.5
    mixed_rate: float = 0.15
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise GeneratorError("size must be >= 1")
        if self.word_count < 2:
            raise GeneratorError("word_count must be >= 2 (one per polarity)")
        if self.adverb_count < 0:
            raise GeneratorError("adverb_count must be >= 0")
        if set(self.class_mix) != set(LABELS):
            raise GeneratorError("class_mix must assign a fraction to every label")
        if not abs(sum(self.class_mix[label] for label in LABELS) - 1.0) <= 1e-9:
            raise GeneratorError("class_mix fractions must sum to 1")
        if not all(fraction >= 0 for fraction in self.class_mix.values()):
            raise GeneratorError("class_mix fractions must be non-negative")
        if not 0.0 <= self.noise_rate < 1.0:
            raise GeneratorError("noise_rate must be in [0, 1)")
        if self.min_occurrences < 1:
            raise GeneratorError("min_occurrences must be >= 1")
        if not 0.0 <= self.mixed_rate < 1.0:
            raise GeneratorError("mixed_rate must be in [0, 1)")
        if not 0.0 <= self.adverb_rate <= 1.0:
            raise GeneratorError("adverb_rate must be in [0, 1]")
        if self.rng_seed < 0:
            raise GeneratorError("rng_seed must be >= 0")
        # Each word and each modifier takes min_occurrences coverage mentions,
        # all inside the polar quotas: a cheap bound checked before any work.
        terms = max(self.word_count, self.adverb_count)
        if self.min_occurrences * terms > self.size:
            raise GeneratorError(
                f"size must be >= min_occurrences * max(word_count, adverb_count) = "
                f"{self.min_occurrences} * {terms}, got {self.size}"
            )


def make_true_lexicon(word_count: int, adverb_count: int, rng: np.random.Generator) -> Lexicon:
    """Draw a ground-truth lexicon with distinct continuous scores.

    Word magnitudes land in [0.4, 1.6] split evenly between polarities;
    modifier scores land in [0.5, 1.5].
    """
    n_pos = word_count - word_count // 2
    n_neg = word_count // 2
    word_scores: dict[str, float] = {}
    for i in range(n_pos):
        word_scores[f"pos{i:02d}"] = float(rng.uniform(0.4, 1.6))
    for i in range(n_neg):
        word_scores[f"neg{i:02d}"] = -float(rng.uniform(0.4, 1.6))
    adverb_scores = {
        f"adv{i:02d}": float(rng.uniform(0.5, 1.5)) for i in range(adverb_count)
    }
    return Lexicon(word_scores, adverb_scores)


def coarse_seed_lexicon(true_lexicon: Lexicon) -> Lexicon:
    """Quantize a lexicon to coarse seed scores.

    Words map to +-1 when their true magnitude is at least 1 and +-0.5
    otherwise; every modifier seeds at 1. Polarities are preserved, so
    the seed is a valid starting point for score learning.
    """
    word_scores = {}
    for term in true_lexicon.word_terms():
        score = true_lexicon.word_score(term)
        magnitude = 1.0 if abs(score) >= 1.0 else 0.5
        word_scores[term] = magnitude if score > 0 else -magnitude
    adverb_scores = {term: 1.0 for term in true_lexicon.adverb_terms()}
    return Lexicon(word_scores, adverb_scores)


def _quotas(config: CorpusConfig) -> dict[str, int]:
    raw = {label: config.class_mix.get(label, 0.0) * config.size for label in LABELS}
    counts = {label: int(raw[label]) for label in LABELS}
    short = config.size - sum(counts.values())
    # Hand leftover slots to the largest fractional parts, label order
    # breaking ties, so quotas are deterministic and sum to size.
    order = sorted(LABELS, key=lambda lab: (counts[lab] - raw[lab], LABELS.index(lab)))
    for label in order[:short]:
        counts[label] += 1
    return counts


def _phrase(word: str, adverb: str | None) -> str:
    return f"{adverb} {word}" if adverb else word


def _pick(rng: np.random.Generator, items: Sequence[str]) -> str:
    return items[int(rng.integers(len(items)))]


def _realize(
    rng: np.random.Generator,
    parts: list[tuple[str | None, str]],
) -> str:
    """Render one sentence holding the given (adverb, word) parts."""
    if len(parts) == 2:
        (a1, w1), (a2, w2) = parts
        return _TWO_PHRASE_TEMPLATE.format(phrase=_phrase(w1, a1), phrase2=_phrase(w2, a2))
    (adverb, word) = parts[0]
    template = _pick(rng, _SENTIMENT_TEMPLATES)
    return template.format(phrase=_phrase(word, adverb), f0=_pick(rng, FILLERS))


def _neutral_sentence(rng: np.random.Generator) -> str:
    template = _pick(rng, _NEUTRAL_TEMPLATES)
    return template.format(f0=_pick(rng, FILLERS), f1=_pick(rng, FILLERS))


def _coverage_jobs(
    words: Sequence[str], adverbs: Sequence[str], min_occurrences: int
) -> list[list[tuple[str | None, str]]]:
    """Schedule mentions guaranteeing per-term coverage.

    Every word gets ``min_occurrences`` mentions, alternating unpaired
    and paired so each word is observed both bare (pinning its own
    score) and under a modifier (pinning the modifier's). Modifiers
    short of the floor get topped up against cycling words.
    """
    jobs: list[list[tuple[str | None, str]]] = []
    adverb_use = {adverb: 0 for adverb in adverbs}
    cursor = 0
    for word in words:
        for occurrence in range(min_occurrences):
            paired = bool(adverbs) and occurrence % 2 == 1
            if paired:
                adverb = adverbs[cursor % len(adverbs)]
                cursor += 1
                adverb_use[adverb] += 1
                jobs.append([(adverb, word)])
            else:
                jobs.append([(None, word)])
    word_cursor = 0
    for adverb in adverbs:
        while adverb_use[adverb] < min_occurrences:
            jobs.append([(adverb, words[word_cursor % len(words)])])
            word_cursor += 1
            adverb_use[adverb] += 1
    return jobs


def generate_corpus(config: CorpusConfig) -> tuple[list[MentionRecord], Lexicon]:
    """Generate records plus the ground-truth lexicon that scored them.

    Coverage mentions come first in the schedule, the remaining class
    quotas are filled with random template draws, and the final record
    order is a seeded shuffle. Labels reflect the sign of the
    lexicon-derived score until noise flips them.
    """
    rng = np.random.default_rng(config.rng_seed)
    lexicon = make_true_lexicon(config.word_count, config.adverb_count, rng)
    words = list(lexicon.word_terms())
    adverbs = list(lexicon.adverb_terms())
    positive_words = [w for w in words if lexicon.word_score(w) > 0]
    negative_words = [w for w in words if lexicon.word_score(w) < 0]

    quotas = _quotas(config)
    sentiment_jobs: dict[str, list[list[tuple[str | None, str]]]] = {POSITIVE: [], NEGATIVE: []}
    for parts in _coverage_jobs(words, adverbs, config.min_occurrences):
        sentiment_jobs[lexicon.polarity(parts[0][1])].append(parts)
    for label in (POSITIVE, NEGATIVE):
        if len(sentiment_jobs[label]) > quotas[label]:
            raise GeneratorError(
                f"coverage needs {len(sentiment_jobs[label])} {label} mentions but the class mix "
                f"allows {quotas[label]}; increase size or the {label} fraction"
            )

    def draw_adverb() -> str | None:
        return _pick(rng, adverbs) if adverbs and rng.random() < config.adverb_rate else None

    def random_parts(label: str, pool: Sequence[str]) -> list[tuple[str | None, str]]:
        # A mixed mention carries one word of each polarity and is kept
        # only when its net score clears a margin on the requested side.
        # Swapping a word for a peer within a 0.1 score tolerance moves
        # the net by at most 0.15 under the largest adverb, so a 0.3
        # margin keeps the label stable under such edits while the text
        # still reads two-sided.
        if positive_words and negative_words and rng.random() < config.mixed_rate:
            for _ in range(20):
                parts = [
                    (draw_adverb(), _pick(rng, side)) for side in (positive_words, negative_words)
                ]
                net = score_mention(parts, lexicon)
                if net > _MIXED_MARGIN and label == POSITIVE:
                    return parts
                if net < -_MIXED_MARGIN and label == NEGATIVE:
                    return parts
        word = _pick(rng, pool)
        parts = [(draw_adverb(), word)]
        if len(pool) > 1 and rng.random() < _SECOND_WORD_RATE:
            second = _pick(rng, pool)
            parts.append((draw_adverb(), second))
        return parts

    for label, pool in ((POSITIVE, positive_words), (NEGATIVE, negative_words)):
        while len(sentiment_jobs[label]) < quotas[label]:
            sentiment_jobs[label].append(random_parts(label, pool))

    records: list[MentionRecord] = []
    for label in (POSITIVE, NEGATIVE):
        for parts in sentiment_jobs[label]:
            # Templates and fillers hold no lexicon term, so the text's
            # occurrences are exactly ``parts``, in this order.
            score = score_mention(parts, lexicon)
            records.append(MentionRecord(_realize(rng, parts), label, score, None))
    for _ in range(quotas[NEUTRAL]):
        records.append(MentionRecord(_neutral_sentence(rng), NEUTRAL, 0.0, None))

    if config.noise_rate > 0.0:
        noisy = []
        for rec in records:
            if rng.random() < config.noise_rate:
                others = [lab for lab in LABELS if lab != rec.label]
                flipped = others[int(rng.integers(len(others)))]
                rec = MentionRecord(rec.text, flipped, rec.target_score, rec.entity)
            noisy.append(rec)
        records = noisy

    order = rng.permutation(len(records))
    return [records[i] for i in order], lexicon
