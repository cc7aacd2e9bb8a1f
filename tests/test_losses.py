"""Loss identities, brute-force contrastive oracle, temperature
clipping, and gradient checks."""

import math

import numpy as np
import pytest

from miniclap import losses
from miniclap.autodiff import Tensor
from miniclap.errors import InvalidInput
from miniclap.losses import LossWeights

from conftest import assert_grads_match


def oracle_ntxent(s: np.ndarray, tau: float) -> float:
    """Loop-based symmetric NT-Xent, no vectorization or max-shift."""
    b = s.shape[0]
    total = 0.0
    for i in range(b):
        num = math.exp(s[i][i] / tau)
        denom_col = sum(math.exp(s[j][i] / tau) for j in range(b))
        denom_row = sum(math.exp(s[i][j] / tau) for j in range(b))
        total += math.log(num / denom_col) + math.log(num / denom_row)
    return -total / (2.0 * b)


class TestM2dLoss:
    def test_parallel_orthogonal_antiparallel(self, rng):
        a = rng.standard_normal((5, 8))
        assert abs(losses.m2d_loss(a, a).item()) <= 1e-6
        assert abs(losses.m2d_loss(a, -a).item() - 4.0) <= 1e-6
        x = np.zeros((3, 4))
        y = np.zeros((3, 4))
        x[:, 0] = 1.0
        y[:, 1] = 1.0
        assert abs(losses.m2d_loss(x, y).item() - 2.0) <= 1e-6

    def test_row_rescaling_invariance(self, rng):
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((6, 5))
        base = losses.m2d_loss(a, b).item()
        scales = rng.uniform(0.1, 10.0, size=(6, 1))
        assert abs(losses.m2d_loss(a * scales, b).item() - base) <= 1e-9
        assert abs(losses.m2d_loss(a, b * scales).item() - base) <= 1e-9

    def test_bounds(self, rng):
        for _ in range(50):
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((4, 6))
            value = losses.m2d_loss(a, b).item()
            assert 0.0 <= value <= 4.0

    def test_zero_row_rejected(self, rng):
        a = rng.standard_normal((3, 4))
        b = a.copy()
        b[1] = 0
        with pytest.raises(InvalidInput):
            losses.m2d_loss(a, b)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInput):
            losses.m2d_loss(rng.standard_normal((3, 4)), rng.standard_normal((4, 4)))

    def test_gradient_check(self, rng):
        a = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        assert_grads_match(lambda: losses.m2d_loss(a, b), {"a": a, "b": b})


class TestSimilarityMatrix:
    def test_orthonormal_identity(self):
        s = losses.similarity_matrix(np.eye(4), np.eye(4)).data
        np.testing.assert_allclose(s, np.eye(4), atol=1e-12)

    def test_scale_invariance(self, rng):
        a = rng.standard_normal((4, 6))
        t = rng.standard_normal((4, 6))
        base = losses.similarity_matrix(a, t).data
        a2 = a.copy()
        a2[2] *= 7.5
        np.testing.assert_allclose(losses.similarity_matrix(a2, t).data, base, atol=1e-12)

    def test_direct_dot_norm_oracle(self, rng):
        a = rng.standard_normal((3, 4))
        t = rng.standard_normal((3, 4))
        s = losses.similarity_matrix(a, t).data
        for m in range(3):
            for n in range(3):
                want = a[m] @ t[n] / (np.linalg.norm(a[m]) * np.linalg.norm(t[n]))
                assert abs(s[m, n] - want) <= 1e-12
        assert (np.abs(s) <= 1.0 + 1e-12).all()

    def test_zero_row_rejected(self, rng):
        a = rng.standard_normal((3, 4))
        a[0] = 0
        with pytest.raises(InvalidInput):
            losses.similarity_matrix(a, rng.standard_normal((3, 4)))

    def test_gradient_check(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        t = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        r = rng.standard_normal((3, 3))
        fn = lambda: (losses.similarity_matrix(a, t) * r).sum()
        assert_grads_match(fn, {"a": a, "t": t})


class TestClapLoss:
    def test_single_sample_is_zero(self, rng):
        for _ in range(5):
            s = rng.standard_normal((1, 1))
            assert losses.clap_loss(s, rng.uniform(0.02, 2.0)).item() == 0.0

    def test_two_sample_identity_value(self):
        value = losses.clap_loss(np.eye(2), 1.0).item()
        assert abs(value - math.log(1.0 + math.exp(-1.0))) <= 1e-9
        assert abs(value - 0.313262) <= 1e-6

    def test_saturated_diagonal_near_zero(self):
        tau = 0.07
        s = np.eye(4) * 100.0 * tau
        assert losses.clap_loss(s, tau).item() < 1e-8

    def test_brute_force_oracle(self, rng):
        for _ in range(200):
            b = int(rng.integers(1, 9))
            s = rng.uniform(-1.0, 1.0, size=(b, b))
            tau = float(rng.uniform(0.1, 2.0))
            got = losses.clap_loss(s, tau).item()
            assert abs(got - oracle_ntxent(s, tau)) <= 1e-9

    def test_transpose_symmetry(self, rng):
        for _ in range(20):
            s = rng.uniform(-1.0, 1.0, size=(5, 5))
            a = losses.clap_loss(s, 0.3).item()
            b = losses.clap_loss(s.T, 0.3).item()
            assert abs(a - b) <= 1e-12

    def test_diagonal_monotonicity(self, rng):
        for trial in range(10):
            s = rng.uniform(-1.0, 1.0, size=(4, 4))
            base = losses.clap_loss(s, 0.5).item()
            i = trial % 4
            bumped = s.copy()
            bumped[i, i] += 0.25
            assert losses.clap_loss(bumped, 0.5).item() < base

    def test_nonnegative(self, rng):
        for _ in range(50):
            s = rng.uniform(-1.0, 1.0, size=(6, 6))
            assert losses.clap_loss(s, 0.2).item() >= 0.0

    def test_small_tau_rejected(self, rng):
        with pytest.raises(InvalidInput):
            losses.clap_loss(rng.standard_normal((3, 3)), 0.009)

    def test_non_square_rejected(self, rng):
        with pytest.raises(InvalidInput):
            losses.clap_loss(rng.standard_normal((3, 4)), 0.5)

    def test_stable_at_minimum_temperature(self, rng):
        s = rng.uniform(-1.0, 1.0, size=(6, 6))  # logits up to +/-100
        value = losses.clap_loss(s, 0.01).item()
        assert np.isfinite(value) and value >= 0.0

    def test_gradient_check_including_temperature(self, rng):
        s = Tensor(rng.uniform(-1.0, 1.0, size=(4, 4)), requires_grad=True)
        tau = Tensor(np.asarray(0.7), requires_grad=True)
        assert_grads_match(lambda: losses.clap_loss(s, tau), {"s": s, "tau": tau})


class TestClipTemperature:
    def test_default_init_untouched(self):
        assert losses.clip_temperature(0.07) == 0.07

    def test_small_value_floored(self):
        assert losses.clip_temperature(0.005) == 0.01

    def test_large_value_untouched(self):
        assert losses.clip_temperature(1.0) == 1.0

    def test_logit_scale_bounded(self, rng):
        for tau in rng.uniform(-5.0, 5.0, size=100):
            assert 1.0 / losses.clip_temperature(float(tau)) <= 100.0

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            losses.clip_temperature(float("nan"))


class TestCombinedLoss:
    def test_default_weights_example(self):
        w = LossWeights(1.0, 0.01)
        assert abs(losses.combined_loss(2.0, 0.5, w) - 2.005) <= 1e-12

    def test_zero_clap_weight_is_pure_first_term(self):
        w = LossWeights(1.0, 0.0)
        assert losses.combined_loss(1.7, 123.0, w) == 1.7

    def test_zero_m2d_weight(self):
        assert losses.combined_loss(9.0, 0.3, LossWeights(0.0, 1.0)) == 0.3

    def test_linear_in_each_term(self, rng):
        w = LossWeights(0.7, 0.3)
        a, b = 1.2, 3.4
        assert abs(losses.combined_loss(2 * a, b, w)
                   - (losses.combined_loss(a, b, w) + 0.7 * a)) <= 1e-12
        assert abs(losses.combined_loss(a, 2 * b, w)
                   - (losses.combined_loss(a, b, w) + 0.3 * b)) <= 1e-12

    def test_both_zero_weights_rejected(self):
        with pytest.raises(InvalidInput):
            LossWeights(0.0, 0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInput):
            LossWeights(-1.0, 0.5)
