"""A small from-scratch CNN text classifier over word embeddings.

The forward pass embeds a token sequence into an N x K matrix, convolves
it with f window filters of height d (one abstract feature per filter
per position), zero-pads the per-position feature columns back to N
rows, pools them either over disjoint chunks of p consecutive rows
(yielding ceil(N/p) pooled rows per filter) or with a single max over
all positions, applies inverted dropout to the pooled vector during
training, and maps through a dense layer to three logits. Backward
passes are computed analytically for every parameter tensor, including
the embedding rows touched by the sequence.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from sentiscore.embeddings import sequence_indices
from sentiscore.lexicon import LABELS
from sentiscore.losses import PenaltyMatrix, label_loss, one_hot, softmax, weighted_ce_grad_logits
from sentiscore.vocab import PAD_INDEX, Vocab

CHUNKED = "chunked"
MAX_OVER_TIME = "max_over_time"
POOLING_MODES = (CHUNKED, MAX_OVER_TIME)
ACTIVATIONS = ("relu", "tanh")


class CnnError(ValueError):
    """Raised on inconsistent configuration or shapes."""


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss."""


@dataclass(frozen=True)
class CnnConfig:
    """Hyperparameters of the classifier.

    ``window`` is the filter height d, ``filter_count`` the number of
    filters f, ``pool_window`` the chunk height p, and
    ``sequence_length`` the padded input length N.
    """

    window: int = 3
    filter_count: int = 16
    pool_window: int = 2
    pooling: str = CHUNKED
    activation: str = "relu"
    dropout_rate: float = 0.5
    learning_rate: float = 0.05
    epochs: int = 5
    batch_size: int = 32
    rng_seed: int = 0
    sequence_length: int = 32
    embedding_dim: int = 32
    finetune_embeddings: bool = True

    def __post_init__(self) -> None:
        for name in (
            "filter_count", "pool_window", "epochs", "batch_size", "sequence_length", "embedding_dim"
        ):
            if getattr(self, name) < 1:
                raise CnnError(f"{name} must be >= 1")
        if self.window < 1 or self.window > self.sequence_length:
            raise CnnError("window must satisfy 1 <= window <= sequence_length")
        if self.pooling not in POOLING_MODES:
            raise CnnError(f"pooling must be one of {POOLING_MODES}")
        if self.activation not in ACTIVATIONS:
            raise CnnError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise CnnError("dropout_rate must be in [0, 1)")
        if not self.learning_rate > 0:
            raise CnnError("learning_rate must be > 0")

    @property
    def pooled_rows(self) -> int:
        """Rows of the pooled matrix: ceil(N/p) chunked, 1 max-over-time."""
        if self.pooling == MAX_OVER_TIME:
            return 1
        return -(-self.sequence_length // self.pool_window)


@dataclass(frozen=True)
class CnnModel:
    """All parameter tensors of one classifier instance."""

    embedding: np.ndarray  # (M, K)
    filters: np.ndarray  # (f, d, K)
    filter_bias: np.ndarray  # (f,)
    dense_w: np.ndarray  # (pooled_rows * f, 3)
    dense_b: np.ndarray  # (3,)

    def check_shapes(self, config: CnnConfig) -> None:
        if self.filters.ndim != 3 or self.embedding.ndim != 2:
            raise CnnError("filters must be 3-D and the embedding 2-D")
        f, d, k = self.filters.shape
        if d != config.window or f != config.filter_count:
            raise CnnError("filter bank shape disagrees with the config")
        if self.embedding.shape[1] != k:
            raise CnnError("embedding width disagrees with the filter width")
        if self.filter_bias.shape != (f,):
            raise CnnError("filter bias shape disagrees with the filter count")
        expected_in = config.pooled_rows * f
        if self.dense_w.shape != (expected_in, 3) or self.dense_b.shape != (3,):
            raise CnnError("dense layer shape disagrees with the pooled size")
        for tensor in (self.embedding, self.filters, self.filter_bias, self.dense_w, self.dense_b):
            if not np.all(np.isfinite(tensor)):
                raise CnnError("model parameters must be finite")


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model(
    vocab_size: int,
    config: CnnConfig,
    seed: int | None = None,
    embedding: np.ndarray | None = None,
) -> CnnModel:
    """Seeded uniform fan-in/fan-out init; optionally adopt an embedding."""
    rng = np.random.default_rng(config.rng_seed if seed is None else seed)
    d, f = config.window, config.filter_count
    if embedding is None:
        k = config.embedding_dim
        emb = (rng.random((vocab_size, k)) - 0.5) / k
        emb[PAD_INDEX] = 0.0
    else:
        emb = np.array(embedding, dtype=float)
        k = emb.shape[1]
    filters = _glorot(rng, (f, d, k), fan_in=d * k, fan_out=f)
    dense_in = config.pooled_rows * f
    dense_w = _glorot(rng, (dense_in, 3), fan_in=dense_in, fan_out=3)
    model = CnnModel(
        embedding=emb,
        filters=filters,
        filter_bias=np.zeros(f),
        dense_w=dense_w,
        dense_b=np.zeros(3),
    )
    model.check_shapes(config)
    return model


@dataclass
class ForwardCache:
    """Intermediates retained by the forward pass for backpropagation."""

    windows: np.ndarray  # (P, d, K) sliding views of the input
    pre: np.ndarray  # (P, f) pre-activation features
    pool_rows: np.ndarray  # (q, f) row index feeding each pooled value
    pooled: np.ndarray  # (q * f,) pooled vector before dropout
    mask: np.ndarray | None  # dropout keep mask, None when inactive
    kept: np.ndarray  # (q * f,) dense-layer input


def _activate(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(pre, 0.0)
    return np.tanh(pre)


def _activation_grad(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (pre > 0.0).astype(float)
    return 1.0 - np.tanh(pre) ** 2


def _as_rng(rng: np.random.Generator | int | None, fallback_seed: int) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(fallback_seed if rng is None else rng)


def forward(
    model: CnnModel,
    embedded: np.ndarray,
    config: CnnConfig,
    dropout_active: bool = False,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Logits for one embedded N x K sequence, plus the backward cache.

    Convolution covers the N - d + 1 valid window positions; the feature
    columns are zero-padded back to N rows so the chunked pooling
    arithmetic holds for every filter. Dropout uses inverted scaling and
    only fires when ``dropout_active`` and the configured rate is
    nonzero.
    """
    embedded = np.asarray(embedded, dtype=float)
    n, k = config.sequence_length, model.embedding.shape[1]
    if embedded.shape != (n, k):
        raise CnnError(f"embedded input must be {(n, k)}, got {embedded.shape}")
    d, f, p = config.window, config.filter_count, config.pool_window

    windows = np.lib.stride_tricks.sliding_window_view(embedded, (d, k)).reshape(-1, d, k)
    pre = np.einsum("pdk,fdk->pf", windows, model.filters) + model.filter_bias
    feature_rows = _activate(pre, config.activation)
    positions = windows.shape[0]
    column = np.zeros((n, f))
    column[:positions] = feature_rows

    q = config.pooled_rows
    pooled_matrix = np.empty((q, f))
    pool_rows = np.empty((q, f), dtype=np.int64)
    if config.pooling == MAX_OVER_TIME:
        pool_rows[0] = np.argmax(column, axis=0)
        pooled_matrix[0] = column[pool_rows[0], np.arange(f)]
    else:
        for c in range(q):
            lo, hi = c * p, min((c + 1) * p, n)
            segment = column[lo:hi]
            local = np.argmax(segment, axis=0)
            pool_rows[c] = lo + local
            pooled_matrix[c] = segment[local, np.arange(f)]
    pooled = pooled_matrix.reshape(-1)

    mask = None
    kept = pooled
    if dropout_active and config.dropout_rate > 0.0:
        gen = _as_rng(rng, config.rng_seed)
        mask = gen.random(pooled.shape) >= config.dropout_rate
        kept = pooled * mask / (1.0 - config.dropout_rate)

    logits = kept @ model.dense_w + model.dense_b
    cache = ForwardCache(
        windows=windows,
        pre=pre,
        pool_rows=pool_rows,
        pooled=pooled,
        mask=mask,
        kept=kept,
    )
    return logits, cache


@dataclass
class Gradients:
    """Per-tensor gradients for one example or an accumulated batch."""

    filters: np.ndarray
    filter_bias: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray
    embedded: np.ndarray  # (N, K) gradient of the embedded input


def backward(
    model: CnnModel,
    config: CnnConfig,
    cache: ForwardCache,
    dlogits: np.ndarray,
) -> Gradients:
    """Backpropagate a logit gradient through the cached forward pass.

    Pooling routes each pooled gradient to the row that won the max;
    zero-padded rows carry no parameters, so gradient landing there is
    dropped with them.
    """
    n = config.sequence_length
    f = config.filter_count
    d_dense_w = np.outer(cache.kept, dlogits)
    d_dense_b = dlogits.copy()
    d_kept = model.dense_w @ dlogits
    if cache.mask is not None:
        d_pooled = d_kept * cache.mask / (1.0 - config.dropout_rate)
    else:
        d_pooled = d_kept
    d_pool_matrix = d_pooled.reshape(-1, f)

    d_column = np.zeros((n, f))
    cols = np.broadcast_to(np.arange(f), cache.pool_rows.shape)
    np.add.at(d_column, (cache.pool_rows, cols), d_pool_matrix)

    positions = cache.windows.shape[0]
    d_pre = d_column[:positions] * _activation_grad(cache.pre, config.activation)
    d_filters = np.einsum("pf,pdk->fdk", d_pre, cache.windows)
    d_filter_bias = d_pre.sum(axis=0)

    d_windows = np.einsum("pf,fdk->pdk", d_pre, model.filters)
    d_embedded = np.zeros((n, model.embedding.shape[1]))
    for offset in range(config.window):
        d_embedded[offset : offset + positions] += d_windows[:, offset, :]

    return Gradients(
        filters=d_filters,
        filter_bias=d_filter_bias,
        dense_w=d_dense_w,
        dense_b=d_dense_b,
        embedded=d_embedded,
    )


def train_step(
    model: CnnModel,
    batch: Sequence[tuple[np.ndarray, int]],
    config: CnnConfig,
    penalty: PenaltyMatrix | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[CnnModel, float]:
    """One mini-batch gradient-descent update of all parameters.

    ``batch`` holds ``(token_indices, label_index)`` items; sequences
    are embedded from the model's current matrix so embedding rows can
    receive gradients when fine-tuning is enabled. Uses weighted cross
    entropy when a penalty matrix is given, plain cross entropy
    otherwise. A non-finite batch loss raises :class:`TrainingDiverged`.
    """
    if not batch:
        raise CnnError("batch must be non-empty")
    gen = _as_rng(rng, config.rng_seed)
    f, d, k = model.filters.shape
    acc_filters = np.zeros_like(model.filters)
    acc_filter_bias = np.zeros_like(model.filter_bias)
    acc_dense_w = np.zeros_like(model.dense_w)
    acc_dense_b = np.zeros_like(model.dense_b)
    acc_embedding = np.zeros_like(model.embedding) if config.finetune_embeddings else None

    total_loss = 0.0
    for indices, label_index in batch:
        indices = np.asarray(indices, dtype=np.int64)
        embedded = model.embedding[indices]
        logits, cache = forward(model, embedded, config, dropout_active=True, rng=gen)
        if not np.all(np.isfinite(logits)):
            raise TrainingDiverged("non-finite logits; lower the learning rate")
        y = one_hot(label_index)
        total_loss += label_loss(y, softmax(logits), penalty)
        dlogits = weighted_ce_grad_logits(y, logits, penalty)
        grads = backward(model, config, cache, dlogits)
        acc_filters += grads.filters
        acc_filter_bias += grads.filter_bias
        acc_dense_w += grads.dense_w
        acc_dense_b += grads.dense_b
        if acc_embedding is not None:
            np.add.at(acc_embedding, indices, grads.embedded)

    count = len(batch)
    mean_loss = total_loss / count
    if not np.isfinite(mean_loss):
        raise TrainingDiverged(f"non-finite training loss: {mean_loss}")

    lr = config.learning_rate
    embedding = model.embedding
    if acc_embedding is not None:
        acc_embedding[PAD_INDEX] = 0.0
        embedding = model.embedding - lr * (acc_embedding / count)
    updated = CnnModel(
        embedding=embedding,
        filters=model.filters - lr * (acc_filters / count),
        filter_bias=model.filter_bias - lr * (acc_filter_bias / count),
        dense_w=model.dense_w - lr * (acc_dense_w / count),
        dense_b=model.dense_b - lr * (acc_dense_b / count),
    )
    return updated, float(mean_loss)


def fit(
    model: CnnModel,
    dataset: Sequence[tuple[np.ndarray, int]],
    config: CnnConfig,
    penalty: PenaltyMatrix | None = None,
) -> tuple[CnnModel, list[float]]:
    """Epochs of shuffled mini-batch updates; returns per-epoch mean loss."""
    if not dataset:
        raise CnnError("dataset must be non-empty")
    rng = np.random.default_rng(config.rng_seed)
    history: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(dataset), config.batch_size):
            chosen = order[start : start + config.batch_size]
            batch = [dataset[i] for i in chosen]
            model, loss = train_step(model, batch, config, penalty, rng=rng)
            epoch_loss += loss
            batches += 1
        history.append(epoch_loss / batches)
    return model, history


def predict(
    model: CnnModel,
    tokens: Sequence[str],
    vocab: Vocab,
    config: CnnConfig,
) -> tuple[str, np.ndarray]:
    """Label and probability vector for a token sequence, dropout off.

    Argmax ties resolve to the lowest label index (positive, then
    negative, then neutral).
    """
    indices = sequence_indices(tokens, vocab, config.sequence_length)
    logits, _ = forward(model, model.embedding[indices], config, dropout_active=False)
    probs = softmax(logits)
    return LABELS[int(np.argmax(probs))], probs


# ----------------------------------------------------------------------
# Checkpoint format: an ASCII header line with a version, one JSON line
# holding the vocabulary, configuration, and tensor shapes, then the
# parameter tensors as row-major 64-bit little-endian floats in a fixed
# order (embedding, filters, filter bias, dense weights, dense bias).

_CHECKPOINT_MAGIC = b"sentiscore-cnn 1\n"
_TENSORS = tuple(f.name for f in fields(CnnModel))


def save_checkpoint(path, model: CnnModel, vocab: Vocab, config: CnnConfig) -> None:
    meta = {
        "vocab": list(vocab.terms),
        "config": asdict(config),
        "shapes": {name: list(getattr(model, name).shape) for name in _TENSORS},
    }
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
        for name in _TENSORS:
            fh.write(np.ascontiguousarray(getattr(model, name), dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[CnnModel, Vocab, CnnConfig]:
    """Read a checkpoint; every malformation is a :class:`CnnError` naming ``path``."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        header = fh.readline()
        payload = fh.read()
    if magic != _CHECKPOINT_MAGIC:
        raise CnnError(f"{path}: not a sentiscore checkpoint")
    try:
        meta = json.loads(header.decode("utf-8"))
        config = CnnConfig(**meta["config"])
        vocab = Vocab(tuple(meta["vocab"]))
        shapes = [tuple(meta["shapes"][name]) for name in _TENSORS]
    except KeyError as exc:
        raise CnnError(f"{path}: checkpoint header lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CnnError(f"{path}: bad checkpoint header: {exc}") from None
    if not all(isinstance(n, int) and n >= 0 for shape in shapes for n in shape):
        raise CnnError(f"{path}: tensor shapes must be non-negative integers")
    sizes = [math.prod(shape) for shape in shapes]
    if 8 * sum(sizes) != len(payload):
        raise CnnError(
            f"{path}: tensors hold {len(payload)} bytes, the shapes need {8 * sum(sizes)}"
        )
    parts = np.split(np.frombuffer(payload, dtype="<f8"), np.cumsum(sizes)[:-1])
    model = CnnModel(*(part.reshape(shape).astype(float) for part, shape in zip(parts, shapes)))
    try:
        model.check_shapes(config)
        if model.embedding.shape[0] != len(vocab):
            raise CnnError("embedding rows disagree with the vocabulary size")
    except CnnError as exc:
        raise CnnError(f"{path}: {exc}") from None
    return model, vocab, config
