"""Label-aware training variants from score-similar word substitution.

Variants of a mention are produced by replacing one sentiment-word
occurrence with another word of similar absolute score. A same-polarity
replacement keeps the label; an opposite-polarity replacement flips a
positive label to negative or vice versa. Flip variants also swap any
comparative word in the surrounding text to its antonym so the sentence
still reads consistently; a flip is suppressed when a comparative has no
antonym mapping.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from sentiscore.lexicon import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    Lexicon,
    LexiconError,
    Mention,
    extract_pair_indices,
    tokenize_with_spans,
)

#: Comparatives swapped when a variant flips the label.
DEFAULT_ANTONYMS = {"better": "worse", "worse": "better"}


def flip_label(label: str) -> str:
    if label == POSITIVE:
        return NEGATIVE
    if label == NEGATIVE:
        return POSITIVE
    return NEUTRAL


@dataclass(frozen=True)
class AugmentConfig:
    """Settings for variant generation.

    ``comparatives`` names the tokens that must be antonym-swapped on a
    label flip; it defaults to the keys of ``antonyms``. A flip variant
    whose text contains a comparative missing from ``antonyms`` is
    dropped rather than emitted inconsistent.
    """

    score_tolerance: float = 0.1
    max_variants_per_sample: int = 4
    include_flips: bool = True
    rng_seed: int = 0
    antonyms: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_ANTONYMS))
    comparatives: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.max_variants_per_sample < 0:
            raise ValueError("max_variants_per_sample must be >= 0")
        if not self.score_tolerance >= 0:
            raise ValueError("score_tolerance must be >= 0")
        for term in (*self.antonyms, *self.antonyms.values()):
            if not term or ":" in term or any(c.isspace() for c in term):
                raise ValueError(f"antonym terms must be non-empty without ':' or spaces: {term!r}")

    def comparative_terms(self) -> frozenset[str]:
        if self.comparatives is not None:
            return self.comparatives
        return frozenset(self.antonyms)


def similar_terms(
    word: str, lexicon: Lexicon, delta: float
) -> tuple[list[str], list[str]]:
    """Words whose scores are within ``delta`` of ``word``'s.

    Returns ``(same_sign, opposite_sign)``: peers of the same polarity
    with close scores, and peers of the opposite polarity with close
    absolute scores. Both lists are sorted lexicographically.
    """
    if not lexicon.has_word(word):
        raise LexiconError(f"unknown sentiment word: {word!r}")
    score = lexicon.word_score(word)
    polarity = lexicon.polarity(word)
    same_sign: list[str] = []
    opposite_sign: list[str] = []
    for term in lexicon.word_terms():
        if term == word:
            continue
        other = lexicon.word_score(term)
        if lexicon.polarity(term) == polarity:
            if abs(other - score) <= delta:
                same_sign.append(term)
        else:
            if abs(abs(other) - abs(score)) <= delta:
                opposite_sign.append(term)
    return same_sign, opposite_sign


@dataclass(frozen=True)
class Variant:
    """One generated substitution: new text, label, and what changed."""

    text: str
    label: str
    substitution: str


def _splice(text: str, replacements: Sequence[tuple[int, int, str]]) -> str:
    """Apply (start, end, new) span replacements, right to left."""
    out = text
    for start, end, new in sorted(replacements, reverse=True):
        out = out[:start] + new + out[end:]
    return out


def generate_variants(
    mention: Mention, lexicon: Lexicon, config: AugmentConfig
) -> list[Variant]:
    """Substitution variants of one mention, with provenance.

    Each variant replaces exactly one sentiment-word occurrence. Flip
    variants are only emitted for positive or negative mentions when
    ``include_flips`` is set, and carry the opposite label. Candidates
    come out in canonical order (occurrence position, then replacement
    term); when more than ``max_variants_per_sample`` exist a seeded
    sample is kept, still in canonical order. Duplicate (text, label)
    combinations are removed. The mention text is expected to be
    target-masked already.
    """
    spans = tokenize_with_spans(mention.raw_text)
    tokens = [tok for tok, _, _ in spans]
    pair_indices = extract_pair_indices(tokens, lexicon)
    comparatives = config.comparative_terms()

    candidates: list[Variant] = []
    seen: set[tuple[str, str]] = set()

    def emit(text: str, label: str, substitution: str) -> None:
        key = (text, label)
        if key not in seen:
            seen.add(key)
            candidates.append(Variant(text, label, substitution))

    for _, word_idx in pair_indices:
        word = tokens[word_idx]
        _, start, end = spans[word_idx]
        same_sign, opposite_sign = similar_terms(word, lexicon, config.score_tolerance)
        for replacement in same_sign:
            emit(
                _splice(mention.raw_text, [(start, end, replacement)]),
                mention.label,
                f"{word}@{word_idx}->{replacement}",
            )
        if not config.include_flips or mention.label == NEUTRAL:
            continue
        for replacement in opposite_sign:
            replacements = [(start, end, replacement)]
            suppressed = False
            for idx, (tok, tok_start, tok_end) in enumerate(spans):
                if idx == word_idx or tok not in comparatives:
                    continue
                antonym = config.antonyms.get(tok)
                if antonym is None:
                    suppressed = True
                    break
                replacements.append((tok_start, tok_end, antonym))
            if suppressed:
                continue
            emit(
                _splice(mention.raw_text, replacements),
                flip_label(mention.label),
                f"{word}@{word_idx}->{replacement} (flip)",
            )

    if len(candidates) > config.max_variants_per_sample:
        rng = random.Random(config.rng_seed)
        keep = sorted(rng.sample(range(len(candidates)), config.max_variants_per_sample))
        candidates = [candidates[i] for i in keep]
    return candidates


@dataclass(frozen=True)
class AugmentedSample:
    """A generated variant plus provenance back to its source mention."""

    text: str
    label: str
    source_index: int
    provenance: str


def derive_seed(rng_seed: int, index: int) -> int:
    """Per-mention seed so corpus augmentation parallelizes cleanly."""
    return (rng_seed * 1_000_003 + index) % 2**32


def augment_corpus(
    mentions: Sequence[Mention],
    lexicon: Lexicon,
    config: AugmentConfig,
) -> list[AugmentedSample]:
    """Augment every mention with per-mention seeds derived from the config."""
    out: list[AugmentedSample] = []
    for index, mention in enumerate(mentions):
        per_mention = replace(config, rng_seed=derive_seed(config.rng_seed, index))
        for variant in generate_variants(mention, lexicon, per_mention):
            out.append(
                AugmentedSample(
                    text=variant.text,
                    label=variant.label,
                    source_index=index,
                    provenance=f"src={index};{variant.substitution}",
                )
            )
    return out
