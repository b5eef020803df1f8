"""Vocabulary and embedding-layer behavior."""
from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_sequence_indices

from sentiscore.cnn import CnnConfig, init_model
from sentiscore.vocab import PAD, PAD_INDEX, UNK, UNK_INDEX, Vocab, build_vocab, encode


def small_vocab() -> Vocab:
    return Vocab((PAD, UNK, "camera", "is", "great"))


def init_embedding(vocab_size: int, dim: int, seed: int) -> np.ndarray:
    """The embedding matrix of a freshly initialised classifier."""
    config = CnnConfig(window=1, embedding_dim=dim, rng_seed=seed)
    return init_model(vocab_size, config).embedding


class TestVocab:
    def test_reserved_entries_come_first(self):
        vocab = small_vocab()
        assert vocab.lookup(PAD) == PAD_INDEX
        assert vocab.lookup(UNK) == UNK_INDEX

    def test_lookup_round_trip(self):
        vocab = small_vocab()
        for i, term in enumerate(vocab.terms):
            assert vocab.lookup(term) == i
            assert vocab.terms[i] == term

    def test_unknown_maps_to_unk(self):
        assert small_vocab().lookup("zebra") == UNK_INDEX

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Vocab((PAD, UNK, "a", "a"))

    def test_missing_reserved_rejected(self):
        with pytest.raises(ValueError):
            Vocab(("a", "b"))

    def test_build_ranks_by_frequency_then_term(self):
        corpus = [["b", "a", "a"], ["b", "c"]]
        vocab = build_vocab(corpus, vocab_size=10)
        # a and b both occur twice; the tie breaks alphabetically.
        assert vocab.terms == (PAD, UNK, "a", "b", "c")

    def test_build_truncates_to_max_size(self):
        corpus = [["a", "a", "b", "b", "c"]]
        vocab = build_vocab(corpus, vocab_size=2)
        assert vocab.terms == (PAD, UNK, "a", "b")

    def test_build_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocab([], vocab_size=5)

    @pytest.mark.parametrize("size", [0, -1])
    def test_build_rejects_size_below_one(self, size):
        # -1 once sliced off the least frequent term; 0 kept only PAD and UNK.
        with pytest.raises(ValueError, match=f"vocab_size must be >= 1, got {size}"):
            build_vocab([["a", "b", "b"]], vocab_size=size)


class TestSequenceEncoding:
    def test_padding_and_truncation(self):
        vocab = small_vocab()
        idx = encode([["camera", "is"]], vocab, length=4)
        npt.assert_array_equal(idx, [[2, 3, PAD_INDEX, PAD_INDEX]])
        idx = encode([["camera", "is", "great"]], vocab, length=2)
        npt.assert_array_equal(idx, [[2, 3]])

    @settings(max_examples=200, deadline=None)
    @given(
        # "zebra" is unknown; lists run past every length drawn.
        token_lists=st.lists(
            st.lists(st.sampled_from(["camera", "is", "great", "zebra"]), max_size=8), max_size=5
        ),
        length=st.integers(1, 6),
    )
    def test_encode_matches_the_per_row_reference(self, token_lists, length):
        vocab = small_vocab()
        idx = encode(token_lists, vocab, length)
        assert idx.dtype == np.int64 and idx.shape == (len(token_lists), length)
        for row, tokens in zip(idx, token_lists):
            npt.assert_array_equal(row, reference_sequence_indices(tokens, vocab, length))

    def test_embed_matches_row_gather(self):
        vocab = small_vocab()
        matrix = init_embedding(len(vocab), dim=4, seed=0)
        embedded = matrix[encode([["great", "zebra"]], vocab, length=3)[0]]
        npt.assert_array_equal(embedded[0], matrix[vocab.lookup("great")])
        npt.assert_array_equal(embedded[1], matrix[UNK_INDEX])
        npt.assert_array_equal(embedded[2], np.zeros(4))

    def test_embed_equals_one_hot_product(self):
        vocab = small_vocab()
        matrix = init_embedding(len(vocab), dim=3, seed=1)
        idx = encode([["is", "great", "camera"]], vocab, length=3)[0]
        one_hot = np.eye(len(vocab))[idx]
        npt.assert_allclose(matrix[idx], one_hot @ matrix, atol=1e-15)


class TestInitEmbeddings:
    def test_pad_row_is_zero(self):
        matrix = init_embedding(10, dim=8, seed=3)
        npt.assert_array_equal(matrix[PAD_INDEX], np.zeros(8))

    def test_range_scales_with_dim(self):
        matrix = init_embedding(200, dim=8, seed=3)
        assert np.abs(matrix).max() <= 0.5 / 8

    def test_seed_determinism(self):
        npt.assert_array_equal(
            init_embedding(20, dim=5, seed=7), init_embedding(20, dim=5, seed=7)
        )
        assert not np.array_equal(
            init_embedding(20, dim=5, seed=7), init_embedding(20, dim=5, seed=8)
        )

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            init_embedding(10, dim=0, seed=0)
