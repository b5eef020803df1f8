"""Shape, gradient, and training behavior of the text classifier."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
from numpy.random import default_rng
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _reference_pool, reference_fit

from sentiscore import cnn
from sentiscore.cnn import (
    CnnConfig,
    CnnError,
    TrainingDiverged,
    backward,
    fit,
    forward,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_classifier,
    train_step,
)
from sentiscore.lexicon import LABEL_INDEX, LABELS
from sentiscore.losses import PROB_FLOOR, PenaltyMatrix, loss_and_logit_grad, softmax
from sentiscore.vocab import PAD, UNK, Vocab, build_vocab, encode


def tiny_config(**overrides) -> CnnConfig:
    base = dict(
        window=2,
        filter_count=3,
        pool_window=2,
        sequence_length=6,
        embedding_dim=4,
        dropout_rate=0.0,
        learning_rate=0.1,
        epochs=3,
        batch_size=2,
        rng_seed=0,
    )
    base.update(overrides)
    return CnnConfig(**base)


class TestConfig:
    def test_pooled_rows_ceiling(self):
        assert tiny_config(sequence_length=6, pool_window=2).pooled_rows == 3
        assert tiny_config(sequence_length=7, pool_window=2).pooled_rows == 4
        assert tiny_config(sequence_length=7, pool_window=3).pooled_rows == 3
        # A chunk stops at the sequence: any p >= N pools over all N rows.
        assert tiny_config(sequence_length=6, pool_window=6).pooled_rows == 1
        assert tiny_config(sequence_length=6, pool_window=10**11).pooled_rows == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"window": 0},
            {"activation": "sigmoid"},
            {"dropout_rate": 1.0},
            {"dropout_rate": -0.1},
            {"learning_rate": 0.0},
            {"window": 9, "sequence_length": 6},
            {"pool_window": 0},
            {"epochs": 0},
            {"epochs": -1},
            {"batch_size": 0},
            {"filter_count": 0},
            {"embedding_dim": 0},
            {"sequence_length": 0},
        ],
    )
    def test_invalid_settings_rejected(self, overrides):
        with pytest.raises(CnnError):
            tiny_config(**overrides)

    @pytest.mark.parametrize(
        "name", ["epochs", "batch_size", "filter_count", "embedding_dim", "sequence_length"]
    )
    def test_size_errors_name_the_field(self, name):
        with pytest.raises(CnnError, match=f"{name} must be >= 1"):
            tiny_config(**{name: 0})

    def test_negative_seed_names_the_field(self):
        with pytest.raises(CnnError, match="rng_seed must be >= 0"):
            tiny_config(rng_seed=-2)


def random_embedding(model, seed: int):
    """``model`` with its embedding, PAD row included, drawn N(0, 0.7^2) from ``seed``."""
    rng = np.random.default_rng(seed)
    return replace(model, embedding=rng.normal(scale=0.7, size=model.embedding.shape))


def random_indices(config: CnnConfig, seed: int, size: int = 3, vocab_size: int = 9):
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab_size, size=(size, config.sequence_length))


class TestForward:
    def test_logit_and_cache_shapes(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        indices = np.array([[2, 3, 4, 5, 0, 0], [6, 7, 8, 0, 0, 0]])
        logits, cache = forward(model, indices, config)
        assert logits.shape == (2, 3)
        assert cache.indices.shape == (2, config.sequence_length)
        assert cache.pre.shape == (2, config.sequence_length - config.window + 1, 3)
        assert cache.pooled.shape == (2, 9)
        assert cache.kept.shape == (2, 9)

    def test_matches_loop_reference(self):
        # Re-derive the convolution and chunked pooling with plain loops,
        # one sequence at a time, also where N is not a multiple of p.
        for n, p in [(6, 2), (7, 2), (7, 3)]:
            config = tiny_config(activation="tanh", sequence_length=n, pool_window=p)
            self.check_loop_reference(config)

    def check_loop_reference(self, config):
        model = random_embedding(init_model(vocab_size=9, config=replace(config, rng_seed=5)), 11)
        indices = random_indices(config, seed=11)
        logits, _ = forward(model, indices, config)

        n, d, f, p = config.sequence_length, config.window, config.filter_count, config.pool_window
        for row, row_logits in zip(indices, logits):
            x = model.embedding[row]
            features = np.zeros((n, f))
            for pos in range(n - d + 1):
                window = x[pos : pos + d]
                for j in range(f):
                    features[pos, j] = np.tanh(
                        float((window * model.filters[j]).sum()) + model.filter_bias[j]
                    )
            pooled = np.zeros((n // p if n % p == 0 else n // p + 1, f))
            for chunk in range(pooled.shape[0]):
                pooled[chunk] = features[chunk * p : (chunk + 1) * p].max(axis=0)
            expected = pooled.reshape(-1) @ model.dense_w + model.dense_b
            npt.assert_allclose(row_logits, expected, atol=1e-12)

    def test_max_over_time_pools_whole_columns(self):
        config = tiny_config(pool_window=6)
        model = random_embedding(init_model(vocab_size=9, config=replace(config, rng_seed=2)), 3)
        _, cache = forward(model, random_indices(config, seed=3), config)
        assert cache.pooled.shape == (3, 3)
        column = np.zeros((3, config.sequence_length, 3))
        column[:, : cache.pre.shape[1]] = np.maximum(cache.pre, 0.0)
        npt.assert_array_equal(cache.pooled, column.max(axis=1))

    def test_dropout_repeatable_with_seeded_rng(self):
        config = tiny_config(dropout_rate=0.5)
        model = init_model(vocab_size=9, config=config)
        indices = np.array([[2, 3, 4, 5, 6, 7]])
        a, _ = forward(model, indices, config, dropout_active=True, rng=default_rng(42))
        b, _ = forward(model, indices, config, dropout_active=True, rng=default_rng(42))
        npt.assert_array_equal(a, b)

    def test_batch_dropout_draw_equals_sequential_draws(self):
        # One (B, q*f) draw consumes the generator exactly like B draws
        # of q*f, so batching leaves every example's mask unchanged.
        config = tiny_config(dropout_rate=0.5, sequence_length=7)
        model = random_embedding(init_model(vocab_size=9, config=config), 4)
        indices = random_indices(config, seed=4, size=5)
        _, batched = forward(model, indices, config, dropout_active=True, rng=default_rng(9))
        gen = default_rng(9)
        for row, mask in zip(indices, batched.mask):
            _, single = forward(model, row[None], config, dropout_active=True, rng=gen)
            npt.assert_array_equal(single.mask[0], mask)

    def test_dropout_off_at_evaluation(self):
        config = tiny_config(dropout_rate=0.9)
        model = init_model(vocab_size=9, config=config)
        indices = np.array([[2, 3, 4, 5, 6, 7]])
        logits, cache = forward(model, indices, config, dropout_active=False)
        assert cache.mask is None
        npt.assert_array_equal(cache.kept, cache.pooled)

    def test_wrong_input_shape_rejected(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        for shape in [(6,), (4, 4), (6, 4), (1, 4, 4), (1, 6, 5), (1, 6, 4)]:
            with pytest.raises(CnnError, match="token indices"):
                forward(model, np.zeros(shape, dtype=np.int64), config)

    @pytest.mark.parametrize("index", [-1, 9])
    def test_out_of_range_index_rejected(self, index):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        indices = np.array([[2, 3, index, 0, 0, 0]])
        with pytest.raises(CnnError, match=r"token indices must lie in \[0, 9\)"):
            forward(model, indices, config)


#: Three index sequences for the gradient check: rows repeat within a
#: sequence (2, 6) and across sequences (2, 3, 5, ...), and PAD (0) occurs;
#: the first N columns are used.
FD_INDICES = np.array([
    [2, 5, 2, 7, 0, 3, 0],
    [5, 1, 6, 6, 4, 0, 0],
    [3, 7, 4, 2, 5, 1, 6],
])


def finite_difference_check(config: CnnConfig, seed: int, penalty=None) -> float:
    """Worst relative error between analytic and central-difference grads.

    Differences all five parameter tensors, the embedding included, over
    a batch of three index sequences (:data:`FD_INDICES`): the loss is
    the sum of the per-example losses, whose gradient ``backward``
    returns. The embedding, PAD row included, is drawn at random so
    every row the batch touches moves the loss. The analytic side is the
    training loss ``loss_and_logit_grad``; the numeric side differences
    the paper's per-example formula, written out here:
    ``w * -ln max(p_y, PROB_FLOOR)``, where ``w`` is 1 without a penalty
    and the weight for the (argmax, expected) pair with one.
    """
    model = init_model(vocab_size=8, config=replace(config, rng_seed=seed))
    model = random_embedding(model, seed + 100)
    indices = FD_INDICES[:, : config.sequence_length]
    labels = [(seed + i) % 3 for i in range(len(indices))]
    h = 1e-5

    logits, cache = forward(model, indices, config)
    _, dlogits = loss_and_logit_grad(np.array(labels), softmax(logits), penalty)
    grads = backward(model, config, cache, dlogits)

    def example_loss(y: int, row: np.ndarray) -> float:
        probs = softmax(row)
        weight = 1.0 if penalty is None else penalty.weights[int(np.argmax(probs)), y]
        return weight * -np.log(max(probs[y], PROB_FLOOR))

    def loss() -> float:
        out, _ = forward(model, indices, config)
        return sum(example_loss(y, row) for y, row in zip(labels, out))

    worst = 0.0
    for name in ("embedding", "filters", "filter_bias", "dense_w", "dense_b"):
        # A view: writing a cell perturbs the model's own tensor.
        flat = getattr(model, name).reshape(-1)
        grad = getattr(grads, name).reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            up = loss()
            flat[idx] = original - h
            down = loss()
            flat[idx] = original
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8))
    return worst


class TestGradients:
    # p = N = 6 is max-over-time pooling.
    @pytest.mark.parametrize("pool_window", [2, 6], ids=["chunked", "max_over_time"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_finite_differences(self, pool_window, activation):
        config = tiny_config(pool_window=pool_window, activation=activation)
        worst = finite_difference_check(config, seed=1)
        assert worst < 1e-4

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("pool_window", [2, 7], ids=["chunked", "max_over_time"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_finite_differences_ragged_chunks(self, pool_window, activation, weighted):
        # N = 7 is not a multiple of p = 2: the last chunk holds one
        # zero-padded row and one row past N. p = N = 7 is max over time.
        config = tiny_config(pool_window=pool_window, activation=activation, sequence_length=7)
        penalty = PenaltyMatrix.default() if weighted else None
        assert finite_difference_check(config, seed=3, penalty=penalty) < 1e-4

    def test_finite_differences_weighted_loss(self):
        config = tiny_config(activation="tanh")
        worst = finite_difference_check(config, seed=2, penalty=PenaltyMatrix.default())
        assert worst < 1e-4

    def test_finite_differences_across_seeds(self):
        config = tiny_config()
        for seed in range(5):
            assert finite_difference_check(config, seed=seed) < 1e-4


class TestTrainStep:
    def batch(self):
        # Two separable classes over a 9-term vocabulary.
        return np.array([[2, 3, 4, 0, 0, 0], [5, 6, 7, 0, 0, 0]]), np.array([0, 1])

    def test_loss_decreases(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        first = None
        loss = None
        for _ in range(40):
            model, loss = train_step(model, *self.batch(), config, rng=default_rng(0))
            if first is None:
                first = loss
        assert loss < first

    def test_pad_row_stays_zero(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        for _ in range(10):
            model, _ = train_step(model, *self.batch(), config, rng=default_rng(0))
        npt.assert_array_equal(model.embedding[0], np.zeros(config.embedding_dim))

    def test_static_embeddings_do_not_move(self):
        config = tiny_config(finetune_embeddings=False)
        model = init_model(vocab_size=9, config=config)
        before = model.embedding.copy()
        for _ in range(5):
            model, _ = train_step(model, *self.batch(), config, rng=default_rng(0))
        npt.assert_array_equal(model.embedding, before)

    def test_duplicated_example_matches_single(self):
        # Averaging over identical items must equal the single-item step.
        config = tiny_config()
        example = np.array([[2, 3, 4, 0, 0, 0]])
        a = init_model(vocab_size=9, config=config)
        b = init_model(vocab_size=9, config=config)
        a, _ = train_step(a, example, np.array([0]), config, rng=default_rng(0))
        b, _ = train_step(
            b, example.repeat(2, axis=0), np.array([0, 0]), config, rng=default_rng(0)
        )
        npt.assert_allclose(a.filters, b.filters, atol=1e-12)
        npt.assert_allclose(a.dense_w, b.dense_w, atol=1e-12)

    def test_empty_batch_rejected(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        with pytest.raises(CnnError):
            train_step(
                model, np.zeros((0, 6), dtype=np.int64), np.zeros(0, dtype=np.int64), config,
                rng=default_rng(0),
            )

    @pytest.mark.parametrize("label", [-1, 3])
    def test_out_of_range_label_rejected(self, label):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        with pytest.raises(CnnError, match="label"):
            train_step(model, np.array([[2, 3, 4, 0, 0, 0]]), np.array([label]), config,
                       rng=default_rng(0))

    def test_divergence_raises(self):
        config = tiny_config(learning_rate=1e9)
        model = init_model(vocab_size=9, config=config)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            for _ in range(30):
                model, _ = train_step(model, *self.batch(), config, rng=default_rng(0))

    def test_nan_feature_behind_a_chunks_first_row_diverges(self):
        # Window 1: only feature row 1, the second row of chunk 0, is NaN.
        config = tiny_config(window=1)
        model = init_model(vocab_size=9, config=config)
        model.embedding[3, 0] = np.nan
        logits, _ = forward(model, self.batch()[0], config)
        assert np.isnan(logits[0]).all() and np.isfinite(logits[1]).all()
        with pytest.raises(TrainingDiverged, match="non-finite logits"):
            train_step(model, *self.batch(), config, rng=default_rng(0))


class TestFit:
    def vocab(self):
        return Vocab((PAD, UNK, "good", "fine", "nice", "bad", "poor", "sad"))

    def dataset(self):
        indices = np.array([
            [2, 3, 0, 0, 0, 0],
            [3, 4, 0, 0, 0, 0],
            [5, 6, 0, 0, 0, 0],
            [6, 7, 0, 0, 0, 0],
        ])
        return indices, np.array([0, 0, 1, 1])

    def test_history_length_and_determinism(self):
        config = tiny_config(epochs=4)
        indices, labels = self.dataset()
        model_a, hist_a = fit(init_model(8, config), indices, config, labels)
        model_b, hist_b = fit(init_model(8, config), indices, config, labels)
        assert len(hist_a) == 4
        npt.assert_array_equal(model_a.filters, model_b.filters)
        assert hist_a == hist_b

    def test_overfits_separable_toy_data(self):
        config = tiny_config(epochs=60, learning_rate=0.5, batch_size=4)
        indices, labels = self.dataset()
        model, history = fit(init_model(8, config), indices, config, labels)
        assert history[-1] < history[0]
        vocab = self.vocab()
        for tokens, expected in [
            (["good", "fine"], "positive"),
            (["bad", "poor"], "negative"),
        ]:
            labels, probs = predict(model, [tokens], vocab, config)
            assert labels == [expected]
            assert probs.shape == (1, 3)
            assert probs.sum() == pytest.approx(1.0)

    def test_empty_dataset_rejected(self):
        config = tiny_config()
        with pytest.raises(CnnError, match="got 0 and 0"):
            fit(init_model(8, config), np.empty((0, 6), dtype=np.int64), config,
                np.empty(0, dtype=np.int64))

    @pytest.mark.parametrize("rows", [3, 5])
    def test_unequal_lengths_rejected(self, rows):
        config = tiny_config()
        indices, labels = self.dataset()
        with pytest.raises(CnnError, match=f"got {rows} and 4"):
            fit(init_model(8, config), np.resize(indices, (rows, 6)), config, labels)

    @pytest.mark.parametrize(
        "overrides, weighted",
        [
            ({}, False),
            ({"pool_window": 7, "activation": "tanh"}, True),
            ({"activation": "tanh", "finetune_embeddings": False}, True),
            # A chunk taller than N = 7 stops at the sequence: max over time.
            ({"pool_window": 40}, False),
            # d = 1 leaves no zero-padded row, so the last chunk of N = 7
            # holds one real row and one row past N.
            ({"window": 1, "activation": "tanh"}, True),
        ],
    )
    def test_matches_per_example_reference(self, overrides, weighted):
        # The per-example oracle draws each dropout mask separately and
        # sums in another order; the loss histories agree to 1e-12.
        config = tiny_config(
            sequence_length=7, dropout_rate=0.5, learning_rate=0.3, batch_size=4, **overrides
        )
        rng = np.random.default_rng(17)
        dataset = [(rng.integers(0, 12, size=7), int(rng.integers(3))) for _ in range(10)]
        indices, labels = map(np.array, zip(*dataset))
        penalty = PenaltyMatrix.default() if weighted else None
        model, history = fit(init_model(12, config), indices, config, labels, penalty)
        expected_model, expected = reference_fit(init_model(12, config), dataset, config, penalty)
        npt.assert_allclose(history, expected, rtol=0, atol=1e-12)
        for name in ("embedding", "filters", "filter_bias", "dense_w", "dense_b"):
            npt.assert_allclose(getattr(model, name), getattr(expected_model, name), atol=1e-12)


class TestWorkspace:
    """``fit`` and ``predict`` run every step in one reused workspace; the
    bytes must be those of a fresh workspace per call."""

    TENSORS = ("embedding", "filters", "filter_bias", "dense_w", "dense_b")

    def dataset(self, size: int, seed: int):
        # Mostly PAD rows in half the examples, so ReLU zeros tie in the pool.
        rng = np.random.default_rng(seed)
        dataset = [
            (np.where(rng.random(7) < 0.2 + 0.6 * (i % 2), 0, rng.integers(2, 12, size=7)),
             int(rng.integers(3)))
            for i in range(size)
        ]
        indices, labels = map(np.array, zip(*dataset))
        return indices, labels

    def test_sized_by_the_rows_a_batch_can_hold(self, monkeypatch):
        requested = []
        workspace = cnn._Workspace

        def recording(config, width, rows):
            requested.append(rows)
            if rows > 5:
                raise AssertionError(f"a workspace of {rows} rows for 5 examples")
            return workspace(config, width, rows)

        monkeypatch.setattr(cnn, "_Workspace", recording)
        config = tiny_config(sequence_length=7, batch_size=10**9)
        indices, labels = self.dataset(5, seed=1)
        fit(init_model(12, config), indices, config, labels)
        vocab = Vocab((PAD, UNK, "good", "bad"))
        model = init_model(len(vocab), config)
        predict(model, [["good"], ["bad"], [], ["good", "bad"], ["bad"]], vocab, config)
        predict(model, [], vocab, config)
        assert requested == [5, 5]

    @pytest.mark.parametrize(
        "overrides",
        [{"activation": "relu"}, {"pool_window": 7, "activation": "tanh"}],
        ids=["chunked-relu", "max-over-time-tanh"],
    )
    def test_fit_equals_steps_without_a_workspace(self, overrides):
        # 10 examples in batches of 4: the last batch holds 2.
        config = tiny_config(
            sequence_length=7, dropout_rate=0.5, learning_rate=0.3, batch_size=4, **overrides
        )
        indices, labels = self.dataset(10, seed=2)
        penalty = PenaltyMatrix.default()
        model, history = fit(init_model(12, config), indices, config, labels, penalty)

        expected = init_model(12, config)
        gen = np.random.default_rng(config.rng_seed)
        expected_history = []
        for _ in range(config.epochs):
            order = gen.permutation(len(labels))
            losses = []
            for start in range(0, len(labels), config.batch_size):
                chosen = order[start : start + config.batch_size]
                expected, loss = train_step(
                    expected, indices[chosen], labels[chosen], config, penalty, rng=gen
                )
                losses.append(loss)
            expected_history.append(sum(losses) / len(losses))
        npt.assert_array_equal(history, expected_history)
        for name in self.TENSORS:
            npt.assert_array_equal(getattr(model, name), getattr(expected, name))

    def test_reused_workspace_equals_fresh_ones(self):
        # The second, shorter batch pools other winners: a d_column cell
        # left over from the first would leak into its gradients.
        config = tiny_config(sequence_length=7, dropout_rate=0.5, activation="tanh")
        model = random_embedding(init_model(12, config), 6)
        workspace = cnn._Workspace(config, config.embedding_dim, 3)
        rng = np.random.default_rng(8)
        for size in (3, 2):
            indices = rng.integers(0, 12, size=(size, 7))
            dlogits = rng.normal(size=(size, 3))
            logits, cache = forward(model, indices, config, True, default_rng(size),
                                    workspace=workspace)
            fresh_logits, fresh_cache = forward(model, indices, config, True, default_rng(size))
            npt.assert_array_equal(logits, fresh_logits)
            grads = backward(model, config, cache, dlogits)
            fresh = backward(model, config, fresh_cache, dlogits)
            for name in self.TENSORS:
                npt.assert_array_equal(getattr(grads, name), getattr(fresh, name))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_pool_matches_the_reference(self, data):
        n = data.draw(st.integers(1, 9), label="n")
        d = data.draw(st.integers(1, n), label="d")
        # p > N stops each chunk at the sequence, as p = N does.
        span = data.draw(st.integers(1, n + 2), label="span")
        b, f, spare = (data.draw(st.integers(1, 3)) for _ in range(3))
        positions = n - d + 1
        # Few distinct values: after ReLU, zeros and equal maxima tie often;
        # NaN must win its chunk as it does under argmax.
        values = [-1.0, 0.0, 0.5, 1.0, np.inf, np.nan]
        pre = data.draw(st.lists(st.sampled_from(values),
                                 min_size=b * positions * f, max_size=b * positions * f))
        config = tiny_config(window=d, filter_count=f, pool_window=span, sequence_length=n)
        workspace = cnn._Workspace(config, 1, b + spare)
        workspace.column[:b, :positions] = np.maximum(np.reshape(pre, (b, positions, f)), 0.0)
        pooled = cnn._pool(workspace.column[:b], workspace.span)
        rows = [_reference_pool(workspace.column[i, :n], span) for i in range(b)]
        for i in range(b):
            npt.assert_array_equal(pooled[i], workspace.column[i, rows[i], np.arange(f)].reshape(-1))
        if np.isnan(pre).any():
            return
        # Gradients land on the reference's winning rows and nowhere else;
        # backward never sees a NaN column, so NaN draws stop above.
        d_pooled = np.arange(1.0, pooled.size + 1).reshape(pooled.shape)
        d_column = np.full_like(workspace.column[:b], np.nan)
        cnn._unpool(workspace.column[:b], workspace.span, pooled, d_pooled, d_column)
        expected = np.zeros_like(d_column)
        for i in range(b):
            expected[i, rows[i], np.arange(f)] = d_pooled[i].reshape(rows[i].shape)
        npt.assert_array_equal(d_column, expected)


class TestTrainClassifier:
    TEXTS = [
        ["good", "fine", "day"],
        ["bad", "poor"],
        ["a", "day", "out"],
        ["fine", "good"],
        ["poor", "sad", "day"],
        ["out", "a"],
        ["nice", "good", "good"],
    ]
    LABELS = ["positive", "negative", "neutral", "positive", "negative", "neutral", "positive"]

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_the_inline_recipe(self, weighted):
        config = tiny_config(dropout_rate=0.5, epochs=4, rng_seed=7)
        penalty = PenaltyMatrix.default() if weighted else None
        model, vocab, history = train_classifier(self.TEXTS, self.LABELS, config, 6, penalty)

        expected_vocab = build_vocab(self.TEXTS, 6)
        indices = encode(self.TEXTS, expected_vocab, config.sequence_length)
        labels = np.array([LABEL_INDEX[label] for label in self.LABELS])
        expected, expected_history = fit(
            init_model(len(expected_vocab), config), indices, config, labels, penalty
        )
        assert vocab == expected_vocab and len(vocab) == 8
        assert history == expected_history
        for name in ("embedding", "filters", "filter_bias", "dense_w", "dense_b"):
            npt.assert_array_equal(getattr(model, name), getattr(expected, name))


class TestPredict:
    def test_chunks_agree_with_single_sequences(self):
        config = tiny_config(batch_size=2)
        vocab = Vocab((PAD, UNK, "good", "fine", "nice", "bad", "poor", "sad"))
        model = init_model(len(vocab), replace(config, rng_seed=3))
        texts = [["good"], ["bad", "poor"], [], ["nice", "unknown", "sad"], ["fine"] * 9]
        labels, probs = predict(model, texts, vocab, config)
        assert probs.shape == (5, 3)
        for text, label, row in zip(texts, labels, probs):
            single_labels, single = predict(model, [text], vocab, config)
            assert single_labels == [label] == [LABELS[int(np.argmax(row))]]
            npt.assert_allclose(single[0], row, rtol=0, atol=1e-15)

    def test_takes_a_lazy_iterable(self):
        config = tiny_config(batch_size=2)
        vocab = Vocab((PAD, UNK, "good", "bad"))
        model = init_model(len(vocab), replace(config, rng_seed=3))
        texts = [["good"], ["bad"], ["good", "bad"]]
        labels, probs = predict(model, (text for text in texts), vocab, config)
        expected_labels, expected = predict(model, texts, vocab, config)
        assert labels == expected_labels
        npt.assert_array_equal(probs, expected)

    def test_no_sequences(self):
        config = tiny_config()
        labels, probs = predict(init_model(8, config), [], Vocab((PAD, UNK)), config)
        assert labels == [] and probs.shape == (0, 3)

    def test_chunk_contract(self):
        # Labels and probability bytes are those of one softmax over the
        # concatenated per-chunk forward logits, the last chunk short.
        config = tiny_config(batch_size=4)
        vocab = Vocab((PAD, UNK, "good", "fine", "bad", "poor"))
        model = random_embedding(init_model(len(vocab), replace(config, rng_seed=7)), 13)
        rng = default_rng(2)
        texts = [list(rng.choice(["good", "fine", "bad", "poor", "odd"], size=rng.integers(0, 9)))
                 for _ in range(2 * config.batch_size + 5)]
        chunks = [texts[i : i + config.batch_size] for i in range(0, len(texts), config.batch_size)]
        logits = [forward(model, encode(chunk, vocab, config.sequence_length), config)[0]
                  for chunk in chunks]
        expected = softmax(np.concatenate(logits))
        for source in (texts, (text for text in texts)):
            labels, probs = predict(model, source, vocab, config)
            assert labels == [LABELS[i] for i in expected.argmax(axis=1)]
            assert probs.tobytes() == expected.tobytes()
        labels, probs = predict(model, iter([]), vocab, config)
        assert (labels, probs.shape) == ([], (0, 3))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_config(epochs=2)
        vocab = Vocab((PAD, UNK, "good", "bad"))
        indices = np.array([[2, 0, 0, 0, 0, 0], [3, 0, 0, 0, 0, 0]])
        model, _ = fit(init_model(len(vocab), config), indices, config, np.array([0, 1]))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab, config)

        loaded_model, loaded_vocab, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert loaded_vocab.terms == vocab.terms
        npt.assert_array_equal(loaded_model.embedding, model.embedding)
        npt.assert_array_equal(loaded_model.filters, model.filters)
        npt.assert_array_equal(loaded_model.filter_bias, model.filter_bias)
        npt.assert_array_equal(loaded_model.dense_w, model.dense_w)
        npt.assert_array_equal(loaded_model.dense_b, model.dense_b)

        before = predict(model, [["good"]], vocab, config)
        after = predict(loaded_model, [["good"]], loaded_vocab, loaded_config)
        assert before[0] == after[0]
        npt.assert_array_equal(before[1], after[1])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"not a checkpoint\n" + b"\x00" * 64)
        with pytest.raises(CnnError):
            load_checkpoint(path)

    def saved(self, tmp_path):
        config = tiny_config()
        vocab = Vocab((PAD, UNK, "good", "bad"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_model(len(vocab), config), vocab, config)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        return path, magic, json.loads(header), payload

    def rewrite(self, path, magic, meta, payload):
        path.write_bytes(magic + b"\n" + json.dumps(meta).encode() + b"\n" + payload)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda meta: meta["config"].update(bogus=1), "bad checkpoint header"),
            (lambda meta: meta["config"].update(window="3"), "bad checkpoint header"),
            (lambda meta: meta["shapes"].pop("dense_w"), "lacks 'dense_w'"),
            (lambda meta: meta.pop("shapes"), "lacks 'shapes'"),
            (lambda meta: meta["shapes"].update(dense_b=[-3]), "non-negative"),
            (lambda meta: meta["vocab"].pop(), "embedding rows"),
            (lambda meta: meta["config"].update(filter_count=2), "filter bank shape"),
            (lambda meta: meta["shapes"].update(filters=[24]), "3-D"),
            (lambda meta: meta.update(config=None), "bad checkpoint header"),
            (lambda meta: meta["config"].update(pooling=None),
             "config pooling must be chunked or max_over_time, not None"),
        ],
    )
    def test_bad_header_raises_cnn_error_naming_path(self, tmp_path, corrupt, message):
        path, magic, meta, payload = self.saved(tmp_path)
        corrupt(meta)
        self.rewrite(path, magic, meta, payload)
        with pytest.raises(CnnError, match=message) as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("change", [b"\x00", b"\x00" * 8, -8, -1])
    def test_payload_length_must_match_shapes(self, tmp_path, change):
        path, magic, meta, payload = self.saved(tmp_path)
        payload = payload + change if isinstance(change, bytes) else payload[:change]
        self.rewrite(path, magic, meta, payload)
        with pytest.raises(CnnError, match="bytes") as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)

    def test_undecodable_header_raises_cnn_error(self, tmp_path):
        path, magic, _, payload = self.saved(tmp_path)
        path.write_bytes(magic + b"\n{not json\n" + payload)
        with pytest.raises(CnnError, match="bad checkpoint header"):
            load_checkpoint(path)


class TestInitModel:
    def test_seeded_determinism(self):
        config = tiny_config(rng_seed=4)
        a = init_model(9, config)
        b = init_model(9, config)
        npt.assert_array_equal(a.filters, b.filters)
        npt.assert_array_equal(a.embedding, b.embedding)
        other = init_model(9, replace(config, rng_seed=5))
        assert not np.array_equal(a.filters, other.filters)

    def test_shapes_check_against_config(self):
        config = tiny_config()
        model = init_model(9, config)
        model.check_shapes(config)
        other = tiny_config(pool_window=3)
        with pytest.raises(CnnError):
            model.check_shapes(other)
