"""Cross entropy and penalty-weighted cross entropy over three labels.

Labels are indexed (positive=0, negative=1, neutral=2) everywhere. The
weighted loss multiplies plain cross entropy by a penalty taken from a
3x3 matrix indexed [predicted][expected], where "predicted" is the
argmax of the model's probability vector. Misclassifying across the
positive/negative divide can thereby cost more than drifting into
neutral. Gradients treat the selected penalty as a constant of the
forward pass, since the argmax selection is discrete.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sentiscore.lexicon import LABELS

#: Default penalty weights, rows = predicted label, columns = expected label,
#: both in (positive, negative, neutral) order.
DEFAULT_PENALTIES = (
    (1.0, 4.0, 3.0),
    (4.0, 1.0, 3.0),
    (2.0, 2.0, 1.0),
)

#: Lower bound used when taking logs of predicted probabilities.
PROB_FLOOR = 1e-12


class LossError(ValueError):
    """Raised on malformed labels, distributions, or penalty matrices."""


@dataclass(frozen=True)
class PenaltyMatrix:
    """3x3 misclassification weights indexed [predicted][expected]."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (3, 3):
            raise LossError("penalty matrix must be 3x3")
        if np.any(weights < 1.0):
            raise LossError("penalty weights must all be >= 1")
        if not np.all(np.diag(weights) == 1.0):
            raise LossError("penalty matrix diagonal must be 1")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def default(cls) -> "PenaltyMatrix":
        return cls(np.array(DEFAULT_PENALTIES))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PenaltyMatrix):
            return NotImplemented
        return bool(np.array_equal(self.weights, other.weights))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def _one_hot_index(y: np.ndarray) -> int:
    y = np.asarray(y, dtype=float)
    if y.shape != (3,) or not np.all((y == 0.0) | (y == 1.0)) or y.sum() != 1.0:
        raise LossError(f"y must be a one-hot 3-vector, got {y!r}")
    return int(np.argmax(y))


def _check_distribution(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (3,):
        raise LossError("probability vector must have 3 entries")
    if np.any(probs < 0.0) or np.any(probs > 1.0) or abs(probs.sum() - 1.0) > 1e-9:
        raise LossError(f"not a probability distribution: {probs!r}")
    return probs


def loss_and_logit_grad(
    labels: np.ndarray, probs: np.ndarray, penalty: PenaltyMatrix | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row loss and its gradient with respect to the pre-softmax logits.

    ``labels`` holds B expected label indices and ``probs`` the (B, 3)
    softmax rows; neither is validated here. Probabilities are floored
    at ``PROB_FLOOR`` before the log so saturated predictions stay
    finite. With a penalty, each row's cross entropy and gradient are
    scaled by the weight for its (predicted, expected) pair, the
    predicted label being the argmax of its probabilities (ties resolve
    to the lowest index, i.e. positive before negative before neutral).
    The weight is a constant of the forward pass, since the argmax
    selection is discrete. ``penalty=None`` gives plain cross entropy.
    """
    rows = np.arange(len(labels))
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    loss = -np.log(np.maximum(probs[rows, labels], PROB_FLOOR))
    if penalty is None:
        return loss, grad
    weight = penalty.weights[probs.argmax(axis=1), labels]
    return weight * loss, weight[:, None] * grad


def _single_loss(y: np.ndarray, y_hat: np.ndarray, penalty: PenaltyMatrix | None) -> float:
    probs = _check_distribution(y_hat)
    loss, _ = loss_and_logit_grad(np.array([_one_hot_index(y)]), probs[None], penalty)
    return float(loss[0])


def cross_entropy(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Negative log probability of the true label, floored like the batch loss."""
    return _single_loss(y, y_hat, None)


def weighted_cross_entropy(
    y: np.ndarray, y_hat: np.ndarray, penalty: PenaltyMatrix
) -> float:
    """Cross entropy scaled by the penalty for this (predicted, expected) pair."""
    return _single_loss(y, y_hat, penalty)


def one_hot(index: int) -> np.ndarray:
    """One-hot vector over the global label order."""
    if not 0 <= index < len(LABELS):
        raise LossError(f"label index out of range: {index}")
    vec = np.zeros(len(LABELS))
    vec[index] = 1.0
    return vec
