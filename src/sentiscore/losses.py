"""Cross entropy and penalty-weighted cross entropy over three labels.

Labels are indexed (positive=0, negative=1, neutral=2) everywhere. The
weighted loss multiplies plain cross entropy by a penalty taken from a
3x3 matrix indexed [predicted][expected], where "predicted" is the
argmax of the model's probability vector. Misclassifying across the
positive/negative divide can thereby cost more than drifting into
neutral. Gradients treat the selected penalty as a constant of the
forward pass, since the argmax selection is discrete. Both losses are
``loss_and_logit_grad`` over a batch of rows; one example is a batch of
one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Raised on a malformed penalty matrix."""


@dataclass(frozen=True)
class PenaltyMatrix:
    """3x3 misclassification weights indexed [predicted][expected]."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (3, 3):
            raise LossError("penalty matrix must be 3x3")
        if not np.all(np.isfinite(weights)):
            raise LossError("penalty weights must be finite")
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
