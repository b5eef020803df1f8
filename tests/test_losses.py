from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from sentiscore.losses import (
    DEFAULT_PENALTIES,
    PROB_FLOOR,
    LossError,
    PenaltyMatrix,
    cross_entropy,
    loss_and_logit_grad,
    one_hot,
    softmax,
    weighted_cross_entropy,
)


def loss_and_grad(y: np.ndarray, logits: np.ndarray, penalty):
    """One example's loss and logit gradient through the batched training loss."""
    loss, grad = loss_and_logit_grad(np.array([int(np.argmax(y))]), softmax(logits)[None], penalty)
    return float(loss[0]), grad[0]


class TestPenaltyMatrix:
    def test_default_values(self):
        matrix = PenaltyMatrix.default()
        npt.assert_array_equal(matrix.weights, np.array(DEFAULT_PENALTIES))

    def test_diagonal_must_be_one(self):
        bad = np.array(DEFAULT_PENALTIES)
        bad[0, 0] = 2.0
        with pytest.raises(LossError):
            PenaltyMatrix(bad)

    def test_weights_below_one_rejected(self):
        bad = np.array(DEFAULT_PENALTIES)
        bad[0, 1] = 0.5
        with pytest.raises(LossError):
            PenaltyMatrix(bad)

    def test_shape_enforced(self):
        with pytest.raises(LossError):
            PenaltyMatrix(np.ones((2, 2)))

    def test_weight_lookup_is_predicted_then_expected(self):
        # The rows predict 0, 2, 1 against expected 1, 0, 1, so their losses
        # scale by weights[0, 1] = 4, weights[2, 0] = 2 and weights[1, 1] = 1.
        matrix = PenaltyMatrix.default()
        probs = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8], [0.1, 0.8, 0.1]])
        labels = np.array([1, 0, 1])
        plain, _ = loss_and_logit_grad(labels, probs, None)
        weighted, _ = loss_and_logit_grad(labels, probs, matrix)
        npt.assert_allclose(weighted / plain, [4.0, 2.0, 1.0], rtol=1e-15)


class TestSoftmax:
    def test_normalizes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(scale=5.0, size=3)
            probs = softmax(logits)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0)

    def test_shift_invariant(self):
        logits = np.array([0.2, -1.0, 3.0])
        npt.assert_allclose(softmax(logits), softmax(logits + 100.0), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        probs = softmax(np.array([1000.0, -1000.0, 0.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)


class TestCrossEntropy:
    def test_uniformish_golden(self):
        # -ln(0.3) and -ln(0.2): the reference values 1.204 and 1.609.
        assert cross_entropy(one_hot(0), np.array([0.3, 0.3, 0.4])) == pytest.approx(
            1.204, abs=1e-3
        )
        assert cross_entropy(one_hot(1), np.array([0.4, 0.2, 0.4])) == pytest.approx(
            1.609, abs=1e-3
        )

    def test_perfect_prediction_is_zero(self):
        assert cross_entropy(one_hot(2), np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_probability_clamped(self):
        loss = cross_entropy(one_hot(0), np.array([0.0, 0.5, 0.5]))
        assert loss == pytest.approx(-np.log(PROB_FLOOR))

    def test_rejects_non_distribution(self):
        with pytest.raises(LossError):
            cross_entropy(one_hot(0), np.array([0.5, 0.5, 0.5]))

    def test_rejects_bad_one_hot(self):
        with pytest.raises(LossError):
            cross_entropy(np.array([0.5, 0.5, 0.0]), np.array([0.3, 0.3, 0.4]))


class TestWeightedCrossEntropy:
    def test_penalty_scales_base_loss(self):
        penalty = PenaltyMatrix.default()
        y_hat = np.array([0.3, 0.3, 0.4])
        # predicted neutral, expected positive: weight 2.
        base = cross_entropy(one_hot(0), y_hat)
        assert weighted_cross_entropy(one_hot(0), y_hat, penalty) == pytest.approx(
            2.0 * base
        )

    def test_correct_prediction_weight_is_one(self):
        penalty = PenaltyMatrix.default()
        y_hat = np.array([0.7, 0.1, 0.2])
        assert weighted_cross_entropy(one_hot(0), y_hat, penalty) == pytest.approx(
            cross_entropy(one_hot(0), y_hat)
        )

    def test_argmax_tie_resolves_to_lowest_index(self):
        penalty = PenaltyMatrix.default()
        y_hat = np.array([0.4, 0.4, 0.2])
        # tie between positive and negative resolves to positive, so the
        # weight against an expected negative is 4.
        assert weighted_cross_entropy(one_hot(1), y_hat, penalty) == pytest.approx(
            4.0 * cross_entropy(one_hot(1), y_hat)
        )


class TestGradients:
    def test_plain_gradient_is_softmax_minus_target(self):
        logits = np.array([0.5, -0.2, 1.0])
        _, grad = loss_and_grad(one_hot(1), logits, None)
        npt.assert_allclose(grad, softmax(logits) - one_hot(1), atol=1e-12)

    def test_weighted_gradient_scales_plain_gradient(self):
        penalty = PenaltyMatrix.default()
        rng = np.random.default_rng(1)
        for _ in range(30):
            logits = rng.normal(scale=2.0, size=3)
            y = one_hot(int(rng.integers(3)))
            weight = penalty.weights[int(np.argmax(softmax(logits))), int(np.argmax(y))]
            npt.assert_allclose(
                loss_and_grad(y, logits, penalty)[1],
                weight * (softmax(logits) - y),
                atol=1e-12,
            )

    def test_none_penalty_recovers_plain_gradient(self):
        logits = np.array([0.1, 0.2, 0.3])
        npt.assert_array_equal(
            loss_and_grad(one_hot(2), logits, None)[1],
            softmax(logits) - one_hot(2),
        )

    def test_matches_finite_differences_where_argmax_stable(self):
        penalty = PenaltyMatrix.default()
        rng = np.random.default_rng(2)
        h = 1e-6
        checked = 0
        for _ in range(40):
            logits = rng.normal(scale=2.0, size=3)
            probs = np.sort(softmax(logits))
            if probs[-1] - probs[-2] < 1e-3:
                continue  # keep away from argmax switches
            y = one_hot(int(rng.integers(3)))
            _, grad = loss_and_grad(y, logits, penalty)
            for j in range(3):
                up = logits.copy()
                up[j] += h
                down = logits.copy()
                down[j] -= h
                fd = (
                    weighted_cross_entropy(y, softmax(up), penalty)
                    - weighted_cross_entropy(y, softmax(down), penalty)
                ) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-6)
            checked += 1
        assert checked >= 30

    def test_non_finite_logits_rejected(self):
        # The batched loss does not validate: a non-finite logit yields a
        # non-finite loss, which train_step rejects as TrainingDiverged.
        for penalty in (None, PenaltyMatrix.default()):
            loss, grad = loss_and_grad(one_hot(0), np.array([np.nan, 0.0, 0.0]), penalty)
            assert not np.isfinite(loss)
            assert not np.all(np.isfinite(grad))


class TestLossAndLogitGrad:
    def test_dispatches_on_penalty(self):
        y_hat = np.array([0.2, 0.5, 0.3])
        plain, _ = loss_and_logit_grad(np.array([0]), y_hat[None], None)
        assert plain[0] == pytest.approx(cross_entropy(one_hot(0), y_hat))
        penalty = PenaltyMatrix.default()
        weighted, _ = loss_and_logit_grad(np.array([0]), y_hat[None], penalty)
        assert weighted[0] == pytest.approx(weighted_cross_entropy(one_hot(0), y_hat, penalty))


class TestOneHot:
    def test_valid_indices(self):
        for i in range(3):
            vec = one_hot(i)
            assert vec[i] == 1.0
            assert vec.sum() == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(LossError):
            one_hot(3)
