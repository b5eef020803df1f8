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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from typing import Callable, Mapping, Sequence

from sentiscore.lexicon import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    Lexicon,
    Mention,
    is_token,
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
    dropped rather than emitted inconsistent. Antonyms are single tokens.
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
        if not 0 <= self.rng_seed < 2**32:  # derive_seed folds seeds modulo 2**32
            raise ValueError("rng_seed must be in [0, 2**32)")
        for term in (*self.antonyms, *self.antonyms.values()):
            if not is_token(term):
                raise ValueError(f"antonym terms must be single lowercase tokens: {term!r}")

    def comparative_terms(self) -> frozenset[str]:
        if self.comparatives is not None:
            return self.comparatives
        return frozenset(self.antonyms)


def _similarity_lookup(lexicon: Lexicon, delta: float) -> Callable:
    """A word's sorted peers within ``delta``, ``(same_sign, opposite_sign)``.

    Peers are compared by |score|; for a same-sign peer that is the
    score difference itself, rounding included, as ``a - s`` and
    ``s - a`` round to each other's negation. Words are sorted by
    |score| once; those rounded differences are monotone in ``a``, so two
    bisections bound the window of exactly the peers of a word with
    ``|score| = s``, which is then split by sign. Results are memoised
    per word.
    """
    words = lexicon.words
    by_magnitude = sorted(words, key=lambda term: abs(words[term]))
    magnitudes = [abs(words[term]) for term in by_magnitude]

    @cache
    def lookup(word: str) -> tuple[list[str], list[str]]:
        score = lexicon.word_score(word)
        magnitude = abs(score)
        lo = bisect_left(magnitudes, True, key=lambda a: not magnitude - a > delta)
        hi = bisect_left(magnitudes, True, lo=lo, key=lambda a: a - magnitude > delta)
        same_sign, opposite_sign = [], []
        for term in by_magnitude[lo:hi]:
            if (words[term] > 0) != (score > 0):
                opposite_sign.append(term)
            elif term != word:
                same_sign.append(term)
        return sorted(same_sign), sorted(opposite_sign)

    return lookup


@dataclass(frozen=True)
class AugmentedSample:
    """A generated variant: new text, label, source mention and what changed."""

    text: str
    label: str
    source_index: int
    substitution: str

    @property
    def provenance(self) -> str:
        return f"src={self.source_index};{self.substitution}"


def derive_seed(rng_seed: int, index: int) -> int:
    """Per-mention seed so corpus augmentation parallelizes cleanly."""
    return (rng_seed * 1_000_003 + index) % 2**32


def augment_corpus(
    mentions: Sequence[Mention],
    lexicon: Lexicon,
    config: AugmentConfig,
) -> list[AugmentedSample]:
    """Substitution variants of every (target-masked) mention, in order.

    Each variant replaces exactly one sentiment-word occurrence. Flip
    variants are only emitted for positive or negative mentions when
    ``include_flips`` is set, and carry the opposite label. A mention's
    candidates are numbered in canonical order (occurrence position;
    same-sign replacements, then flips; replacement term). When more
    than ``max_variants_per_sample`` exist, a sample of the numbers,
    seeded with ``derive_seed(rng_seed, index)``, is drawn before
    splicing. Lexicon terms and antonyms are single tokens, so no two
    candidates share a (text, label), except flips that swap a
    comparative lexicon word for its own antonym: all give the fully
    swapped text, and only the first counts.

    ``lexicon`` must hold the same words as the one the mentions were
    made with; a word it lacks raises ``LexiconError``.
    """
    lookup = _similarity_lookup(lexicon, config.score_tolerance)
    return [
        sample
        for index, mention in enumerate(mentions)
        for sample in _variants(mention, config, lookup, index)
    ]


def _variants(
    mention: Mention, config: AugmentConfig, lookup: Callable, index: int
) -> list[AugmentedSample]:
    tokens, comparatives = mention.tokens, config.comparative_terms()
    swaps = [
        (idx, config.antonyms.get(tok)) for idx, tok in enumerate(tokens) if tok in comparatives
    ]
    unmapped = [idx for idx, antonym in swaps if antonym is None]
    flips = config.include_flips and mention.label != NEUTRAL

    # (word index, replacements, is_flip) blocks in canonical order.
    blocks: list[tuple[int, list[str], bool]] = []
    full_swap_counted = False
    for _, word_idx in mention.pair_indices:
        word = tokens[word_idx]
        same_sign, opposite_sign = lookup(word)
        blocks.append((word_idx, same_sign, False))
        if not flips or any(idx != word_idx for idx in unmapped):
            continue
        antonym = config.antonyms.get(word) if word in comparatives else None
        if antonym in opposite_sign:
            if full_swap_counted:
                opposite_sign = [term for term in opposite_sign if term != antonym]
            full_swap_counted = True
        blocks.append((word_idx, opposite_sign, True))

    starts = list(accumulate((len(terms) for _, terms, _ in blocks), initial=0))
    keep: Sequence[int] = range(starts[-1])
    if len(keep) > config.max_variants_per_sample:
        seed = derive_seed(config.rng_seed, index)
        keep = sorted(random.Random(seed).sample(keep, config.max_variants_per_sample))

    # Character spans only for a mention that keeps a variant to splice.
    spans = tokenize_with_spans(mention.raw_text) if keep else []
    variants: list[AugmentedSample] = []
    for number in keep:
        block = bisect_right(starts, number) - 1
        word_idx, terms, is_flip = blocks[block]
        replacement = terms[number - starts[block]]
        edits = [(word_idx, replacement)]
        label, note = mention.label, ""
        if is_flip:
            edits += [(idx, new) for idx, new in swaps if idx != word_idx]
            label, note = flip_label(mention.label), " (flip)"
        out = mention.raw_text
        for idx, new in sorted(edits, reverse=True):
            _, start, end = spans[idx]
            out = out[:start] + new + out[end:]
        substitution = f"{tokens[word_idx]}@{word_idx}->{replacement}{note}"
        variants.append(AugmentedSample(out, label, index, substitution))
    return variants
