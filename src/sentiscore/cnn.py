"""A small from-scratch CNN text classifier over word embeddings.

The forward pass works on a mini-batch: it embeds B token sequences
into a B x N x K tensor, convolves every sequence with f window filters
of height d as one im2col matrix product (one abstract feature per
filter per position), zero-pads the per-position feature columns back
to N rows, pools them either over disjoint chunks of p consecutive rows
(yielding ceil(N/p) pooled rows per filter) or with a single max over
all positions, applies inverted dropout to the pooled vectors during
training, and maps through a dense layer to three logits per sequence.
Backward passes are computed analytically for every parameter tensor,
including the embedding rows touched by the batch.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import islice
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sentiscore.lexicon import LABEL_INDEX, LABELS
from sentiscore.losses import PenaltyMatrix, loss_and_logit_grad, softmax
from sentiscore.vocab import PAD_INDEX, Vocab, build_vocab, sequence_indices

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
        if self.rng_seed < 0:
            raise CnnError("rng_seed must be >= 0")

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


def init_model(vocab_size: int, config: CnnConfig) -> CnnModel:
    """Uniform fan-in/fan-out init seeded by ``config.rng_seed``; the PAD
    embedding row starts at zero."""
    rng = np.random.default_rng(config.rng_seed)
    d, f, k = config.window, config.filter_count, config.embedding_dim
    emb = (rng.random((vocab_size, k)) - 0.5) / k
    emb[PAD_INDEX] = 0.0
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

    windows: np.ndarray  # (B * P, d * K) im2col rows of the input
    pre: np.ndarray  # (B, P, f) pre-activation features
    pool_rows: np.ndarray  # (B, q, f) row index feeding each pooled value
    pooled: np.ndarray  # (B, q * f) pooled vectors before dropout
    mask: np.ndarray | None  # dropout keep mask, None when inactive
    kept: np.ndarray  # (B, q * f) dense-layer input


def _activate(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(pre, 0.0)
    return np.tanh(pre)


def _activation_grad(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (pre > 0.0).astype(float)
    return 1.0 - np.tanh(pre) ** 2


def forward(
    model: CnnModel,
    embedded: np.ndarray,
    config: CnnConfig,
    dropout_active: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Logits (B, 3) for B embedded N x K sequences, plus the backward cache.

    Convolution covers the P = N - d + 1 valid window positions of every
    sequence as one ``(B*P, d*K) @ (d*K, f)`` product. The feature
    columns are zero-padded back to N rows, and chunked pooling pads
    them on to whole chunks with -inf rows that never win a max. Dropout
    uses inverted scaling and only fires, drawing from ``rng``, when
    ``dropout_active`` and the configured rate is nonzero; its one
    ``(B, q*f)`` draw takes the same numbers as B draws of ``q*f``.
    """
    embedded = np.asarray(embedded, dtype=float)
    n, k = config.sequence_length, model.embedding.shape[1]
    if embedded.ndim != 3 or embedded.shape[1:] != (n, k):
        raise CnnError(f"embedded input must be (B, {n}, {k}), got {embedded.shape}")
    b, d, f, q = embedded.shape[0], config.window, config.filter_count, config.pooled_rows
    positions = n - d + 1

    windows = sliding_window_view(embedded, (d, k), axis=(1, 2)).reshape(b * positions, d * k)
    pre = (windows @ model.filters.reshape(f, d * k).T + model.filter_bias).reshape(b, positions, f)
    span = n if config.pooling == MAX_OVER_TIME else config.pool_window
    column = np.full((b, q * span, f), -np.inf)
    column[:, :n] = 0.0
    column[:, :positions] = _activate(pre, config.activation)
    pool_rows = column.reshape(b, q, span, f).argmax(axis=2) + span * np.arange(q)[:, None]
    pooled = np.take_along_axis(column, pool_rows, axis=1).reshape(b, q * f)

    mask = None
    kept = pooled
    if dropout_active and config.dropout_rate > 0.0:
        mask = rng.random(pooled.shape) >= config.dropout_rate
        kept = pooled * mask / (1.0 - config.dropout_rate)

    logits = kept @ model.dense_w + model.dense_b
    return logits, ForwardCache(windows, pre, pool_rows, pooled, mask, kept)


@dataclass
class Gradients:
    """Parameter gradients summed over a batch, and per-sequence input gradients."""

    filters: np.ndarray
    filter_bias: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray
    embedded: np.ndarray  # (B, N, K) gradient of the embedded input


def backward(
    model: CnnModel,
    config: CnnConfig,
    cache: ForwardCache,
    dlogits: np.ndarray,
) -> Gradients:
    """Backpropagate a (B, 3) logit gradient through the cached forward pass.

    Pooling routes each pooled gradient to the row that won the max; a
    pooled cell has one winner and chunks do not overlap, so no two
    cells write the same row. Zero-padded rows carry no parameters, so
    gradient landing there is dropped with them.
    """
    n, f = config.sequence_length, config.filter_count
    b, positions, _ = cache.pre.shape
    d_dense_w = cache.kept.T @ dlogits
    d_dense_b = dlogits.sum(axis=0)
    d_kept = dlogits @ model.dense_w.T
    if cache.mask is not None:
        d_pooled = d_kept * cache.mask / (1.0 - config.dropout_rate)
    else:
        d_pooled = d_kept

    d_column = np.zeros((b, n, f))
    np.put_along_axis(d_column, cache.pool_rows, d_pooled.reshape(cache.pool_rows.shape), axis=1)
    d_pre = d_column[:, :positions] * _activation_grad(cache.pre, config.activation)
    d_pre = d_pre.reshape(-1, f)
    d_filters = (d_pre.T @ cache.windows).reshape(model.filters.shape)
    d_filter_bias = d_pre.sum(axis=0)

    d_embedded = np.zeros((b, n, model.embedding.shape[1]))
    for offset in range(config.window):
        d_rows = d_pre @ model.filters[:, offset]
        d_embedded[:, offset : offset + positions] += d_rows.reshape(b, positions, -1)

    return Gradients(d_filters, d_filter_bias, d_dense_w, d_dense_b, d_embedded)


def train_step(
    model: CnnModel,
    batch: Sequence[tuple[np.ndarray, int]],
    config: CnnConfig,
    penalty: PenaltyMatrix | None = None,
    *,
    rng: np.random.Generator,
) -> tuple[CnnModel, float]:
    """One mini-batch gradient-descent update of all parameters.

    ``batch`` holds ``(token_indices, label_index)`` items, run through
    one batched forward and backward pass. Sequences are embedded from
    the model's current matrix so embedding rows can receive gradients
    when fine-tuning is enabled. Dropout draws from ``rng``. Uses
    weighted cross entropy when a penalty matrix is given, plain cross
    entropy otherwise. A non-finite batch loss raises
    :class:`TrainingDiverged`.
    """
    if not batch:
        raise CnnError("batch must be non-empty")
    indices = np.stack([np.asarray(ix, dtype=np.int64) for ix, _ in batch])
    labels = np.array([label for _, label in batch], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= len(LABELS):
        raise CnnError(f"label indices must lie in [0, {len(LABELS)})")
    logits, cache = forward(model, model.embedding[indices], config, dropout_active=True, rng=rng)
    if not np.all(np.isfinite(logits)):
        raise TrainingDiverged("non-finite logits; lower the learning rate")
    losses, dlogits = loss_and_logit_grad(labels, softmax(logits), penalty)
    count = len(batch)
    mean_loss = float(losses.sum()) / count
    if not np.isfinite(mean_loss):
        raise TrainingDiverged(f"non-finite training loss: {mean_loss}")
    grads = backward(model, config, cache, dlogits)

    lr = config.learning_rate
    embedding = model.embedding
    if config.finetune_embeddings:
        # A scatter-add over (row, column) cells: bincount adds in the
        # same order as np.add.at, several times faster.
        rows, k = model.embedding.shape
        cells = (indices[..., None] * k + np.arange(k)).reshape(-1)
        d_embedding = np.bincount(cells, grads.embedded.reshape(-1), rows * k).reshape(rows, k)
        d_embedding[PAD_INDEX] = 0.0
        embedding = model.embedding - lr * (d_embedding / count)
    updated = CnnModel(
        embedding=embedding,
        filters=model.filters - lr * (grads.filters / count),
        filter_bias=model.filter_bias - lr * (grads.filter_bias / count),
        dense_w=model.dense_w - lr * (grads.dense_w / count),
        dense_b=model.dense_b - lr * (grads.dense_b / count),
    )
    return updated, mean_loss


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


def train_classifier(
    token_lists: Sequence[Sequence[str]],
    labels: Sequence[str],
    config: CnnConfig,
    vocab_size: int,
    penalty: PenaltyMatrix | None = None,
) -> tuple[CnnModel, Vocab, list[float]]:
    """Train a classifier from scratch on labeled token sequences.

    Builds a vocabulary of the ``vocab_size`` most frequent terms, turns
    every sequence into padded indices, initializes a model and fits it.
    Returns the model, its vocabulary and the per-epoch mean loss.
    """
    vocab = build_vocab(token_lists, vocab_size)
    dataset = [
        (sequence_indices(tokens, vocab, config.sequence_length), LABEL_INDEX[label])
        for tokens, label in zip(token_lists, labels)
    ]
    model, history = fit(init_model(len(vocab), config), dataset, config, penalty)
    return model, vocab, history


def predict(
    model: CnnModel,
    token_lists: Iterable[Sequence[str]],
    vocab: Vocab,
    config: CnnConfig,
) -> tuple[list[str], np.ndarray]:
    """Labels and (T, 3) probability rows for T token sequences, dropout off.

    Takes ``config.batch_size`` sequences at a time from ``token_lists``
    and runs one forward pass per chunk, so a lazy iterable of sequences
    keeps memory flat however long the input. Argmax ties resolve to
    the lowest label index (positive, then negative, then neutral).
    """
    labels: list[str] = []
    rows = [np.empty((0, len(LABELS)))]
    sequences = iter(token_lists)
    while chunk := list(islice(sequences, config.batch_size)):
        indices = np.stack([sequence_indices(t, vocab, config.sequence_length) for t in chunk])
        logits, _ = forward(model, model.embedding[indices], config)
        rows.append(softmax(logits))
        labels += [LABELS[i] for i in rows[-1].argmax(axis=1)]
    return labels, np.concatenate(rows)


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
