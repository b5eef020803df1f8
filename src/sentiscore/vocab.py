"""Token vocabulary with reserved padding and unknown entries, and padded index rows."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PAD = "<pad>"
UNK = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1


@dataclass(frozen=True)
class Vocab:
    """Bijective term/index map with dense indices starting at 0."""

    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("vocabulary terms must be unique")
        if self.terms[:2] != (PAD, UNK):
            raise ValueError("vocabulary must start with the PAD and UNK entries")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.terms)})

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def lookup(self, term: str) -> int:
        """Index of ``term``, or the UNK index when absent."""
        return self._index.get(term, UNK_INDEX)


def build_vocab(corpus: Iterable[Sequence[str]], vocab_size: int) -> Vocab:
    """Vocabulary of the ``vocab_size`` most frequent terms plus PAD and UNK.

    ``corpus`` is an iterable of token sequences. Frequency ties break
    lexicographically, so the result is deterministic. An empty corpus
    or a ``vocab_size`` below 1 is an error.
    """
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    token_lists = list(corpus)
    if not token_lists:
        raise ValueError("corpus is empty")
    counts: Counter[str] = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [term for term, _ in ranked[:vocab_size]]
    return Vocab(tuple([PAD, UNK] + kept))


def sequence_indices(tokens: Sequence[str], vocab: Vocab, length: int) -> np.ndarray:
    """Vocabulary indices for ``tokens``, padded/truncated to ``length``."""
    idx = np.full(length, PAD_INDEX, dtype=np.int64)
    for i, tok in enumerate(tokens[:length]):
        idx[i] = vocab.lookup(tok)
    return idx
