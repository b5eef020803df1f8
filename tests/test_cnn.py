"""Shape, gradient, and training behavior of the text classifier."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
from numpy.random import default_rng
import pytest

from helpers import reference_fit

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
from sentiscore.vocab import PAD, UNK, Vocab, build_vocab, sequence_indices


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
        assert tiny_config(pooling="max_over_time").pooled_rows == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pooling": "avg"},
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


def random_batch(config: CnnConfig, seed: int, size: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(scale=0.7, size=(size, config.sequence_length, config.embedding_dim))


class TestForward:
    def test_logit_and_cache_shapes(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        embedded = model.embedding[np.array([[2, 3, 4, 5, 0, 0], [6, 7, 8, 0, 0, 0]])]
        logits, cache = forward(model, embedded, config)
        assert logits.shape == (2, 3)
        assert cache.pre.shape == (2, config.sequence_length - config.window + 1, 3)
        assert cache.pool_rows.shape == (2, 3, 3)
        assert cache.kept.shape == (2, 9)

    def test_matches_loop_reference(self):
        # Re-derive the convolution and chunked pooling with plain loops,
        # one sequence at a time, also where N is not a multiple of p.
        for n, p in [(6, 2), (7, 2), (7, 3)]:
            config = tiny_config(activation="tanh", sequence_length=n, pool_window=p)
            self.check_loop_reference(config)

    def check_loop_reference(self, config):
        model = init_model(vocab_size=9, config=replace(config, rng_seed=5))
        embedded = random_batch(config, seed=11)
        logits, _ = forward(model, embedded, config)

        n, d, f, p = config.sequence_length, config.window, config.filter_count, config.pool_window
        for x, row_logits in zip(embedded, logits):
            features = np.zeros((n, f))
            for pos in range(n - d + 1):
                window = x[pos : pos + d]
                for j in range(f):
                    features[pos, j] = np.tanh(
                        float((window * model.filters[j]).sum()) + model.filter_bias[j]
                    )
            pooled = np.zeros((n // p if n % p == 0 else n // p + 1, f))
            for row in range(pooled.shape[0]):
                pooled[row] = features[row * p : (row + 1) * p].max(axis=0)
            expected = pooled.reshape(-1) @ model.dense_w + model.dense_b
            npt.assert_allclose(row_logits, expected, atol=1e-12)

    def test_max_over_time_pools_whole_columns(self):
        config = tiny_config(pooling="max_over_time")
        model = init_model(vocab_size=9, config=replace(config, rng_seed=2))
        embedded = random_batch(config, seed=3)
        _, cache = forward(model, embedded, config)
        assert cache.pooled.shape == (3, 3)
        column = np.zeros((3, config.sequence_length, 3))
        column[:, : cache.pre.shape[1]] = np.maximum(cache.pre, 0.0)
        npt.assert_array_equal(cache.pooled, column.max(axis=1))

    def test_dropout_repeatable_with_seeded_rng(self):
        config = tiny_config(dropout_rate=0.5)
        model = init_model(vocab_size=9, config=config)
        embedded = model.embedding[np.array([[2, 3, 4, 5, 6, 7]])]
        a, _ = forward(model, embedded, config, dropout_active=True, rng=default_rng(42))
        b, _ = forward(model, embedded, config, dropout_active=True, rng=default_rng(42))
        npt.assert_array_equal(a, b)

    def test_batch_dropout_draw_equals_sequential_draws(self):
        # One (B, q*f) draw consumes the generator exactly like B draws
        # of q*f, so batching leaves every example's mask unchanged.
        config = tiny_config(dropout_rate=0.5, sequence_length=7)
        model = init_model(vocab_size=9, config=config)
        embedded = random_batch(config, seed=4, size=5)
        _, batched = forward(model, embedded, config, dropout_active=True, rng=default_rng(9))
        gen = default_rng(9)
        for x, mask in zip(embedded, batched.mask):
            _, single = forward(model, x[None], config, dropout_active=True, rng=gen)
            npt.assert_array_equal(single.mask[0], mask)

    def test_dropout_off_at_evaluation(self):
        config = tiny_config(dropout_rate=0.9)
        model = init_model(vocab_size=9, config=config)
        embedded = model.embedding[np.array([[2, 3, 4, 5, 6, 7]])]
        logits, cache = forward(model, embedded, config, dropout_active=False)
        assert cache.mask is None
        npt.assert_array_equal(cache.kept, cache.pooled)

    def test_wrong_input_shape_rejected(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        for shape in [(4, 4), (6, 4), (1, 4, 4), (1, 6, 5)]:
            with pytest.raises(CnnError):
                forward(model, np.zeros(shape), config)


def finite_difference_check(config: CnnConfig, seed: int, penalty=None) -> float:
    """Worst relative error between analytic and central-difference grads.

    Runs on a batch of three sequences: the loss is the sum of the
    per-example losses, whose gradient ``backward`` returns. The analytic
    side is the training loss ``loss_and_logit_grad``; the numeric side
    differences the paper's per-example formula, written out here:
    ``w * -ln max(p_y, PROB_FLOOR)``, where ``w`` is 1 without a penalty
    and the weight for the (argmax, expected) pair with one.
    """
    seeded = replace(config, rng_seed=seed)
    model = init_model(vocab_size=8, config=seeded)
    embedded = random_batch(config, seed=seed + 100)
    labels = [(seed + i) % 3 for i in range(len(embedded))]
    h = 1e-5

    logits, cache = forward(model, embedded, config)
    _, dlogits = loss_and_logit_grad(np.array(labels), softmax(logits), penalty)
    grads = backward(model, config, cache, dlogits)

    def example_loss(y: int, row: np.ndarray) -> float:
        probs = softmax(row)
        weight = 1.0 if penalty is None else penalty.weights[int(np.argmax(probs)), y]
        return weight * -np.log(max(probs[y], PROB_FLOOR))

    def loss_at(candidate, x) -> float:
        out, _ = forward(candidate, x, config)
        return sum(example_loss(y, row) for y, row in zip(labels, out))

    worst = 0.0

    def compare(array, grad, rebuild):
        nonlocal worst
        flat = array.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            up = loss_at(*rebuild())
            flat[idx] = original - h
            down = loss_at(*rebuild())
            flat[idx] = original
            fd = (up - down) / (2 * h)
            an = grad.reshape(-1)[idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))

    filters = model.filters.copy()
    fb = model.filter_bias.copy()
    dw = model.dense_w.copy()
    db = model.dense_b.copy()
    x = embedded.copy()

    def rebuild():
        candidate = init_model(vocab_size=8, config=seeded)
        candidate = type(candidate)(
            embedding=candidate.embedding,
            filters=filters,
            filter_bias=fb,
            dense_w=dw,
            dense_b=db,
        )
        return candidate, x

    compare(filters, grads.filters, rebuild)
    compare(fb, grads.filter_bias, rebuild)
    compare(dw, grads.dense_w, rebuild)
    compare(db, grads.dense_b, rebuild)
    compare(x, grads.embedded, rebuild)
    return worst


class TestGradients:
    @pytest.mark.parametrize("pooling", ["chunked", "max_over_time"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_finite_differences(self, pooling, activation):
        config = tiny_config(pooling=pooling, activation=activation)
        worst = finite_difference_check(config, seed=1)
        assert worst < 1e-4

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("pooling", ["chunked", "max_over_time"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_finite_differences_ragged_chunks(self, pooling, activation, weighted):
        # N = 7 is not a multiple of p = 2: the last chunk holds one
        # zero-padded row and one row past N.
        config = tiny_config(pooling=pooling, activation=activation, sequence_length=7)
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
    def dataset(self, config):
        # Two separable classes over a 9-term vocabulary.
        pos = (np.array([2, 3, 4, 0, 0, 0]), 0)
        neg = (np.array([5, 6, 7, 0, 0, 0]), 1)
        return [pos, neg]

    def test_loss_decreases(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        batch = self.dataset(config)
        first = None
        loss = None
        for _ in range(40):
            model, loss = train_step(model, batch, config, rng=default_rng(0))
            if first is None:
                first = loss
        assert loss < first

    def test_pad_row_stays_zero(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        for _ in range(10):
            model, _ = train_step(model, self.dataset(config), config, rng=default_rng(0))
        npt.assert_array_equal(model.embedding[0], np.zeros(config.embedding_dim))

    def test_static_embeddings_do_not_move(self):
        config = tiny_config(finetune_embeddings=False)
        model = init_model(vocab_size=9, config=config)
        before = model.embedding.copy()
        for _ in range(5):
            model, _ = train_step(model, self.dataset(config), config, rng=default_rng(0))
        npt.assert_array_equal(model.embedding, before)

    def test_duplicated_example_matches_single(self):
        # Averaging over identical items must equal the single-item step.
        config = tiny_config()
        example = (np.array([2, 3, 4, 0, 0, 0]), 0)
        a = init_model(vocab_size=9, config=config)
        b = init_model(vocab_size=9, config=config)
        a, _ = train_step(a, [example], config, rng=default_rng(0))
        b, _ = train_step(b, [example, example], config, rng=default_rng(0))
        npt.assert_allclose(a.filters, b.filters, atol=1e-12)
        npt.assert_allclose(a.dense_w, b.dense_w, atol=1e-12)

    def test_empty_batch_rejected(self):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        with pytest.raises(CnnError):
            train_step(model, [], config, rng=default_rng(0))

    @pytest.mark.parametrize("label", [-1, 3])
    def test_out_of_range_label_rejected(self, label):
        config = tiny_config()
        model = init_model(vocab_size=9, config=config)
        with pytest.raises(CnnError, match="label"):
            batch = [(np.array([2, 3, 4, 0, 0, 0]), label)]
            train_step(model, batch, config, rng=default_rng(0))

    def test_divergence_raises(self):
        config = tiny_config(learning_rate=1e9)
        model = init_model(vocab_size=9, config=config)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            for _ in range(30):
                model, _ = train_step(model, self.dataset(config), config, rng=default_rng(0))


class TestFit:
    def vocab(self):
        return Vocab((PAD, UNK, "good", "fine", "nice", "bad", "poor", "sad"))

    def dataset(self):
        return [
            (np.array([2, 3, 0, 0, 0, 0]), 0),
            (np.array([3, 4, 0, 0, 0, 0]), 0),
            (np.array([5, 6, 0, 0, 0, 0]), 1),
            (np.array([6, 7, 0, 0, 0, 0]), 1),
        ]

    def test_history_length_and_determinism(self):
        config = tiny_config(epochs=4)
        model_a, hist_a = fit(init_model(8, config), self.dataset(), config)
        model_b, hist_b = fit(init_model(8, config), self.dataset(), config)
        assert len(hist_a) == 4
        npt.assert_array_equal(model_a.filters, model_b.filters)
        assert hist_a == hist_b

    def test_overfits_separable_toy_data(self):
        config = tiny_config(epochs=60, learning_rate=0.5, batch_size=4)
        model, history = fit(init_model(8, config), self.dataset(), config)
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
        with pytest.raises(CnnError):
            fit(init_model(8, config), [], config)

    @pytest.mark.parametrize(
        "overrides, weighted",
        [
            ({}, False),
            ({"pooling": "max_over_time", "activation": "tanh"}, True),
            ({"activation": "tanh", "finetune_embeddings": False}, True),
            ({"pooling": "max_over_time", "pool_window": 3}, False),
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
        penalty = PenaltyMatrix.default() if weighted else None
        model, history = fit(init_model(12, config), dataset, config, penalty)
        expected_model, expected = reference_fit(init_model(12, config), dataset, config, penalty)
        npt.assert_allclose(history, expected, rtol=0, atol=1e-12)
        for name in ("embedding", "filters", "filter_bias", "dense_w", "dense_b"):
            npt.assert_allclose(getattr(model, name), getattr(expected_model, name), atol=1e-12)


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
        dataset = [
            (sequence_indices(tokens, expected_vocab, config.sequence_length), LABEL_INDEX[label])
            for tokens, label in zip(self.TEXTS, self.LABELS)
        ]
        expected, expected_history = fit(
            init_model(len(expected_vocab), config), dataset, config, penalty
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


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_config(epochs=2)
        vocab = Vocab((PAD, UNK, "good", "bad"))
        dataset = [
            (np.array([2, 0, 0, 0, 0, 0]), 0),
            (np.array([3, 0, 0, 0, 0, 0]), 1),
        ]
        model, _ = fit(init_model(len(vocab), config), dataset, config)
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
