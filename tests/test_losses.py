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
    label_loss,
    one_hot,
    softmax,
    weighted_ce_grad_logits,
    weighted_cross_entropy,
)


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
        matrix = PenaltyMatrix.default()
        assert matrix.weight(0, 1) == 4.0
        assert matrix.weight(2, 0) == 2.0
        assert matrix.weight(1, 1) == 1.0


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
        grad = weighted_ce_grad_logits(one_hot(1), logits, None)
        npt.assert_allclose(grad, softmax(logits) - one_hot(1), atol=1e-12)

    def test_weighted_gradient_scales_plain_gradient(self):
        penalty = PenaltyMatrix.default()
        rng = np.random.default_rng(1)
        for _ in range(30):
            logits = rng.normal(scale=2.0, size=3)
            y = one_hot(int(rng.integers(3)))
            weight = penalty.weight(int(np.argmax(softmax(logits))), int(np.argmax(y)))
            npt.assert_allclose(
                weighted_ce_grad_logits(y, logits, penalty),
                weight * (softmax(logits) - y),
                atol=1e-12,
            )

    def test_none_penalty_recovers_plain_gradient(self):
        logits = np.array([0.1, 0.2, 0.3])
        npt.assert_array_equal(
            weighted_ce_grad_logits(one_hot(2), logits, None),
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
            grad = weighted_ce_grad_logits(y, logits, penalty)
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
        with pytest.raises(LossError):
            weighted_ce_grad_logits(one_hot(0), np.array([np.nan, 0.0, 0.0]), None)


class TestLabelLoss:
    def test_dispatches_on_penalty(self):
        y_hat = np.array([0.2, 0.5, 0.3])
        assert label_loss(one_hot(0), y_hat, None) == pytest.approx(
            cross_entropy(one_hot(0), y_hat)
        )
        penalty = PenaltyMatrix.default()
        assert label_loss(one_hot(0), y_hat, penalty) == pytest.approx(
            weighted_cross_entropy(one_hot(0), y_hat, penalty)
        )


class TestOneHot:
    def test_valid_indices(self):
        for i in range(3):
            vec = one_hot(i)
            assert vec[i] == 1.0
            assert vec.sum() == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(LossError):
            one_hot(3)
