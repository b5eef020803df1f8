"""Token sequences as embedding-row indices.

The classifier embeds a sequence by gathering one row of its embedding
matrix per index; the PAD row is pinned to zero, so padded positions
contribute nothing.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from sentiscore.vocab import PAD_INDEX, Vocab


def sequence_indices(tokens: Sequence[str], vocab: Vocab, length: int) -> np.ndarray:
    """Vocabulary indices for ``tokens``, padded/truncated to ``length``."""
    idx = np.full(length, PAD_INDEX, dtype=np.int64)
    for i, tok in enumerate(tokens[:length]):
        idx[i] = vocab.lookup(tok)
    return idx
