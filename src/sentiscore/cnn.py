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
from dataclasses import asdict, dataclass, fields, replace
from itertools import islice
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sentiscore.lexicon import LABEL_INDEX, LABELS
from sentiscore.losses import PenaltyMatrix, loss_and_logit_grad, softmax
from sentiscore.vocab import PAD_INDEX, Vocab, build_vocab, encode

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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise CnnError("learning_rate must be finite and > 0")
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


class _Workspace:
    """The state of a forward and backward pass over up to ``rows`` sequences.

    The arrays with a row per sequence position are made once; a batch
    of B <= ``rows`` sequences uses their leading slices, so repeated
    steps reuse the memory. The feature column's zero and -inf pad rows
    are written once here. ``forward`` also leaves the batch's
    ``indices``, ``pooled`` maxima, dropout ``mask`` (None when inactive)
    and dense input ``kept`` here, valid until the next ``forward``.
    """

    def __init__(self, config: CnnConfig, width: int, rows: int) -> None:
        n, d, f, q = config.sequence_length, config.window, config.filter_count, config.pooled_rows
        positions = n - d + 1
        self.span = n if config.pooling == MAX_OVER_TIME else config.pool_window
        self.embedded = np.empty((rows, n, width))
        self.frames = sliding_window_view(self.embedded, (d, width), axis=(1, 2))
        self.windows = np.empty((rows * positions, d * width))
        self.pre = np.empty((rows, positions, f))
        self.column = np.full((rows, q * self.span, f), -np.inf)
        self.column[:, :n] = 0.0
        self.d_column = np.empty_like(self.column)
        self.slope = np.empty((rows, positions, f))
        self.d_pre = np.empty((rows * positions, f))
        self.d_rows = np.empty((rows * positions, width))
        self.d_embedded = np.empty_like(self.embedded)
        self.cells = np.empty(self.embedded.shape, dtype=np.intp)


def _pool(column: np.ndarray, span: int) -> np.ndarray:
    """The (B, q * f) maxima of the ``span``-row chunks of (B, q * span, f)
    feature columns, by a running ``np.maximum``. It keeps a NaN, so a
    NaN feature reaches the logits and a diverging step is caught there."""
    b, _, f = column.shape
    chunks = column.reshape(b, -1, span, f)
    best = chunks[:, :, 0].copy()
    for s in range(1, span):
        np.maximum(best, chunks[:, :, s], out=best)
    return best.reshape(b, -1)


def _unpool(column: np.ndarray, span: int, pooled: np.ndarray, d_pooled: np.ndarray,
            out: np.ndarray) -> None:
    """Write each pooled gradient into ``out`` (shaped like ``column``) at
    the first row of its chunk that holds the max, the row ``argmax``
    picks, and zeros elsewhere. The column must be finite, as every one
    that reaches :func:`backward` is: :func:`train_step` raises on
    non-finite logits first."""
    b, _, f = column.shape
    chunks, d_chunks = column.reshape(b, -1, span, f), out.reshape(b, -1, span, f)
    pooled, left = pooled.reshape(b, -1, f), d_pooled.reshape(b, -1, f)
    for s in range(span - 1):
        won = chunks[:, :, s] == pooled
        d_chunks[:, :, s] = np.where(won, left, 0.0)
        left = np.where(won, 0.0, left)
    d_chunks[:, :, span - 1] = left


def forward(
    model: CnnModel,
    indices: np.ndarray,
    config: CnnConfig,
    dropout_active: bool = False,
    rng: np.random.Generator | None = None,
    *,
    workspace: _Workspace | None = None,
) -> tuple[np.ndarray, _Workspace]:
    """Logits (B, 3) for B sequences of N token indices, and the workspace.

    Convolution covers the P = N - d + 1 valid window positions of every
    embedded sequence as one ``(B*P, d*K) @ (d*K, f)`` product. The
    feature columns are zero-padded back to N rows, and chunked pooling
    pads them on to whole chunks with -inf rows that never win a max. Dropout
    uses inverted scaling and only fires, drawing from ``rng``, when
    ``dropout_active`` and the configured rate is nonzero; its one
    ``(B, q*f)`` draw takes the same numbers as B draws of ``q*f``.
    Intermediates go into ``workspace`` (made for this config and at least B
    rows; a fresh one when None), which is returned for :func:`backward`.
    """
    indices = np.asarray(indices)
    n, (vocab_rows, k) = config.sequence_length, model.embedding.shape
    if indices.ndim != 2 or indices.shape[1] != n:
        raise CnnError(f"token indices must be (B, {n}), got {indices.shape}")
    if indices.size and not 0 <= indices.min() <= indices.max() < vocab_rows:
        raise CnnError(f"token indices must lie in [0, {vocab_rows})")
    b, d, f = len(indices), config.window, config.filter_count
    positions = n - d + 1
    ws = _Workspace(config, k, b) if workspace is None else workspace

    # Checked above; the default mode="raise" would copy through a temporary.
    np.take(model.embedding, indices, axis=0, out=ws.embedded[:b], mode="clip")
    windows = ws.windows[: b * positions]
    np.copyto(windows.reshape(ws.frames[:b].shape), ws.frames[:b])
    pre = ws.pre[:b]
    np.matmul(windows, model.filters.reshape(f, d * k).T, out=pre.reshape(b * positions, f))
    pre += model.filter_bias
    active = ws.column[:b, :positions]
    if config.activation == "relu":
        np.maximum(pre, 0.0, out=active)
    else:
        np.tanh(pre, out=active)
    ws.indices = indices
    ws.pooled = _pool(ws.column[:b], ws.span)

    ws.mask, ws.kept = None, ws.pooled
    if dropout_active and config.dropout_rate > 0.0:
        ws.mask = rng.random(ws.pooled.shape) >= config.dropout_rate
        ws.kept = ws.pooled * ws.mask / (1.0 - config.dropout_rate)

    return ws.kept @ model.dense_w + model.dense_b, ws


def backward(
    model: CnnModel,
    config: CnnConfig,
    workspace: _Workspace,
    dlogits: np.ndarray,
) -> CnnModel:
    """Gradients of every parameter tensor, summed over the batch, as a :class:`CnnModel`.

    Backpropagates a (B, 3) logit gradient through the last forward pass
    that wrote ``workspace``. Pooling routes each pooled gradient to the
    first row of its chunk that holds the max (see :func:`_unpool`).
    Zero-padded rows carry no parameters, so gradient landing there is
    dropped with them. Each embedding row sums the gradient of every
    position that indexes it, PAD included.
    """
    ws = workspace
    b, positions = len(ws.indices), ws.pre.shape[1]
    d_dense_w = ws.kept.T @ dlogits
    d_dense_b = dlogits.sum(axis=0)
    d_pooled = dlogits @ model.dense_w.T
    if ws.mask is not None:
        d_pooled = d_pooled * ws.mask / (1.0 - config.dropout_rate)

    _unpool(ws.column[:b], ws.span, ws.pooled, d_pooled, ws.d_column[:b])
    slope = ws.slope[:b]
    if config.activation == "relu":
        np.greater(ws.pre[:b], 0.0, out=slope)
    else:  # 1 - tanh², from the activations the forward pass kept
        np.square(ws.column[:b, :positions], out=slope)
        np.subtract(1.0, slope, out=slope)
    d_pre = ws.d_pre[: b * positions]
    np.multiply(ws.d_column[:b, :positions], slope, out=d_pre.reshape(slope.shape))
    d_filters = (d_pre.T @ ws.windows[: b * positions]).reshape(model.filters.shape)
    d_filter_bias = d_pre.sum(axis=0)

    rows, k = model.embedding.shape
    d_embedded, d_rows = ws.d_embedded[:b], ws.d_rows[: b * positions]
    d_embedded.fill(0.0)
    for offset in range(config.window):
        np.matmul(d_pre, model.filters[:, offset], out=d_rows)
        d_embedded[:, offset : offset + positions] += d_rows.reshape(b, positions, k)
    # A scatter-add over (row, column) cells: bincount adds in the
    # same order as np.add.at, several times faster.
    cells = ws.cells[:b]
    np.add(ws.indices[..., None] * k, np.arange(k), out=cells)
    d_embedding = np.bincount(cells.reshape(-1), d_embedded.reshape(-1), rows * k).reshape(rows, k)
    return CnnModel(d_embedding, d_filters, d_filter_bias, d_dense_w, d_dense_b)


def train_step(
    model: CnnModel,
    indices: np.ndarray,
    labels: np.ndarray,
    config: CnnConfig,
    penalty: PenaltyMatrix | None = None,
    *,
    rng: np.random.Generator,
    workspace: _Workspace | None = None,
) -> tuple[CnnModel, float]:
    """One mini-batch gradient-descent update of all parameters.

    The batch is a (B, N) token-index matrix and its B label indices,
    run through one batched forward and backward pass in ``workspace``
    (see :func:`forward`). Every tensor steps by the batch-mean
    gradient; the PAD embedding row never moves, and the embedding only
    moves when fine-tuning is enabled. Dropout draws from ``rng``. Uses
    weighted cross entropy when a penalty matrix is given, plain cross
    entropy otherwise. A non-finite batch loss raises
    :class:`TrainingDiverged`; numpy's overflow and invalid-value
    warnings on the way there are silenced, so that error is the one
    report of a diverging run.
    """
    count = len(labels)
    if count == 0:
        raise CnnError("batch must be non-empty")
    if labels.min() < 0 or labels.max() >= len(LABELS):
        raise CnnError(f"label indices must lie in [0, {len(LABELS)})")
    with np.errstate(over="ignore", invalid="ignore"):
        logits, workspace = forward(
            model, indices, config, dropout_active=True, rng=rng, workspace=workspace
        )
        if not np.all(np.isfinite(logits)):
            raise TrainingDiverged("non-finite logits; lower the learning rate")
        losses, dlogits = loss_and_logit_grad(labels, softmax(logits), penalty)
        mean_loss = float(losses.sum()) / count
    if not np.isfinite(mean_loss):
        raise TrainingDiverged(f"non-finite training loss: {mean_loss}")
    grads = backward(model, config, workspace, dlogits)
    grads.embedding[PAD_INDEX] = 0.0
    lr = config.learning_rate
    updated = {
        name: getattr(model, name) - lr * (getattr(grads, name) / count)
        for name in _TENSORS
        if name != "embedding" or config.finetune_embeddings
    }
    return replace(model, **updated), mean_loss


def fit(
    model: CnnModel,
    indices: np.ndarray,
    config: CnnConfig,
    labels: np.ndarray,
    penalty: PenaltyMatrix | None = None,
) -> tuple[CnnModel, list[float]]:
    """Epochs of shuffled mini-batch updates on a (T, N) token-index
    matrix and its T label indices; returns per-epoch mean loss.

    Every step works in one workspace of ``min(batch_size, T)`` rows.
    """
    # perfbench's tracer reads the example count and config at positions 1 and 2.
    if not len(labels) or len(indices) != len(labels):
        raise CnnError(f"fit needs T >= 1 rows and T labels, got {len(indices)} and {len(labels)}")
    workspace = _Workspace(config, model.embedding.shape[1], min(config.batch_size, len(labels)))
    rng = np.random.default_rng(config.rng_seed)
    history: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(labels))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(labels), config.batch_size):
            chosen = order[start : start + config.batch_size]
            model, loss = train_step(
                model, indices[chosen], labels[chosen], config, penalty, rng=rng,
                workspace=workspace,
            )
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
    indices = encode(token_lists, vocab, config.sequence_length)
    label_ids = np.array([LABEL_INDEX[label] for label in labels], dtype=np.int64)
    model, history = fit(init_model(len(vocab), config), indices, config, label_ids, penalty)
    return model, vocab, history


def predict(
    model: CnnModel,
    token_lists: Iterable[Sequence[str]],
    vocab: Vocab,
    config: CnnConfig,
) -> tuple[list[str], np.ndarray]:
    """Labels and (T, 3) probability rows for T token sequences, dropout off.

    Takes ``config.batch_size`` sequences at a time from ``token_lists``
    and runs one forward pass per chunk, all in one workspace sized by
    the first chunk, so an empty input allocates none. A lazy iterable
    is read one chunk at a time, and only that chunk's token indices
    and intermediates are live; but the logits of every sequence are
    kept, so memory still grows with the input. One softmax and one
    argmax run over all rows at the end; both work row by row. Argmax
    ties resolve to the lowest label index (positive, then negative,
    then neutral).
    """
    logits = [np.empty((0, len(LABELS)))]
    sequences = iter(token_lists)
    workspace = None
    while chunk := list(islice(sequences, config.batch_size)):
        indices = encode(chunk, vocab, config.sequence_length)
        if workspace is None:
            workspace = _Workspace(config, model.embedding.shape[1], len(indices))
        logits.append(forward(model, indices, config, workspace=workspace)[0])
    probs = softmax(np.concatenate(logits))
    return [LABELS[i] for i in probs.argmax(axis=1)], probs


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
