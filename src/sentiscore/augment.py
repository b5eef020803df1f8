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
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

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


class _Peers:
    """Every word's peers within ``delta``, as name ranks split by sign.

    Peers are compared by |score|; for a same-sign peer that is the
    score difference itself, rounding included, as ``a - s`` and
    ``s - a`` round to each other's negation. Words are sorted by
    |score| once; those rounded differences are monotone in ``a``, so two
    bisections bound the window of exactly the peers of a word with
    ``|score| = s``. A word's window is sorted by name and split by sign
    the first time the word is seen.
    """

    def __init__(self, lexicon: Lexicon, delta: float) -> None:
        words = lexicon.words
        self.lexicon, self.delta, self.names = lexicon, delta, sorted(words)
        self.rank = {term: i for i, term in enumerate(self.names)}
        self.positive = np.array([words[term] > 0 for term in self.names])
        # Name ranks in |score| order; int32 halves the cached windows.
        order = sorted(range(len(self.names)), key=lambda i: abs(words[self.names[i]]))
        self.magnitudes = [abs(words[self.names[i]]) for i in order]
        self.by_magnitude = np.array(order, dtype=np.int32)
        self.found: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, word: str) -> tuple[np.ndarray, np.ndarray]:
        """The name ranks, in name order, of ``word``'s peers of its sign
        (itself among them) and of the other sign."""
        found = self.found.get(word)
        if found is None:
            score = self.lexicon.word_score(word)
            magnitude, magnitudes, delta = abs(score), self.magnitudes, self.delta
            lo = bisect_left(magnitudes, True, key=lambda a: not magnitude - a > delta)
            hi = bisect_left(magnitudes, True, lo=lo, key=lambda a: a - magnitude > delta)
            ranks = np.sort(self.by_magnitude[lo:hi])
            same = self.positive[ranks] == (score > 0)
            found = self.found[word] = (ranks[same], ranks[~same])
        return found


class AugmentedSample(NamedTuple):
    """A generated variant: its token edits, label, source mention and what changed.

    ``edits`` holds ``(token index, term)`` pairs in token order; applied
    to the source mention's tokens they give the variant's tokens, and
    :func:`splice_variants` writes them into its text.
    """

    edits: tuple[tuple[int, str], ...]
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
    seeded with ``derive_seed(rng_seed, index)``, is drawn, and only the
    kept numbers are resolved to their edits. Lexicon terms and antonyms
    are single tokens, so no two candidates share a (tokens, label),
    except flips that swap a comparative lexicon word for its own
    antonym: all give the fully swapped tokens, and only the first
    counts.

    ``lexicon`` must hold the same words as the one the mentions were
    made with; a word it lacks raises ``LexiconError``.
    """
    peers = _Peers(lexicon, config.score_tolerance)
    comparatives = config.comparative_terms()
    variants: list[AugmentedSample] = []
    for index, mention in enumerate(mentions):
        if mention.pair_indices:
            variants += _variants(mention, config, comparatives, peers, index)
    return variants


def _variants(
    mention: Mention,
    config: AugmentConfig,
    comparatives: frozenset[str],
    peers: _Peers,
    index: int,
) -> list[AugmentedSample]:
    tokens, antonyms = mention.tokens, config.antonyms
    swaps, unmapped = [], []
    if not comparatives.isdisjoint(tokens):
        swaps = [(idx, antonyms.get(tok)) for idx, tok in enumerate(tokens) if tok in comparatives]
        unmapped = [idx for idx, antonym in swaps if antonym is None]
    flips = config.include_flips and mention.label != NEUTRAL

    # (word index, word, is_flip, ranks, rank left out) blocks, and each one's first number.
    blocks: list[tuple[int, str, bool, np.ndarray, int]] = []
    starts = [0]
    full_swap_counted = False
    for _, word_idx in mention.pair_indices:
        word = tokens[word_idx]
        same, opposite = peers(word)
        blocks.append((word_idx, word, False, same, peers.rank[word]))
        starts.append(starts[-1] + len(same) - 1)
        if not flips or any(idx != word_idx for idx in unmapped):
            continue
        antonym = antonyms.get(word) if word in comparatives else None
        full_swap = antonym in peers.rank and np.any(opposite == peers.rank[antonym])
        skip = peers.rank[antonym] if full_swap and full_swap_counted else len(peers.names)
        full_swap_counted |= full_swap
        blocks.append((word_idx, word, True, opposite, skip))
        starts.append(starts[-1] + len(opposite) - (skip < len(peers.names)))

    keep: Sequence[int] = range(starts[-1])
    if len(keep) > config.max_variants_per_sample:
        seed = derive_seed(config.rng_seed, index)
        keep = sorted(random.Random(seed).sample(keep, config.max_variants_per_sample))

    flipped = flip_label(mention.label)
    variants: list[AugmentedSample] = []
    for number in keep:
        block = bisect_right(starts, number) - 1
        word_idx, word, is_flip, ranks, skip = blocks[block]
        offset = number - starts[block]
        replacement = peers.names[ranks.item(offset + (ranks.item(offset) >= skip))]
        edits, label, note = ((word_idx, replacement),), mention.label, ""
        if is_flip:
            swapped = ((idx, new) for idx, new in swaps if idx != word_idx)
            edits, label, note = tuple(sorted([*edits, *swapped])), flipped, " (flip)"
        substitution = f"{word}@{word_idx}->{replacement}{note}"
        variants.append(AugmentedSample(edits, label, index, substitution))
    return variants


def splice_variants(
    mentions: Sequence[Mention], samples: Iterable[AugmentedSample]
) -> Iterator[str]:
    """Each sample's text: its source mention's raw text with its edits spliced in.

    Texts are yielded one at a time, so a writer holds one at a time.
    Character spans are found once per run of samples from one mention,
    and ``augment_corpus`` returns each mention's samples together.
    Every text tokenizes to its mention's tokens with the sample's edits
    applied: of a raw character whose lowercase form is longer than one
    character (``"İ"``, to ``"i"`` and a combining dot), the part that
    the edited token does not cover is kept, so that the replacement
    stays apart from any letters after it.
    """
    source = None
    for edits, _, index, _ in samples:
        if index != source:
            source, text = index, mentions[index].raw_text
            spans = tokenize_with_spans(text)
        out = text
        for idx, term in reversed(edits):
            _, start, end = spans[idx]
            out = out[:start] + term + text[end - 1].lower()[1:] + out[end:]
        yield out
