"""Partition exactness, seeded determinism, uniformity, and the
predictor-input reassembly oracle."""

import numpy as np
import pytest

from miniclap import autodiff as ad, masking
from miniclap.autodiff import Tensor
from miniclap.errors import InvalidInput

from conftest import oracle_predictor_input


class TestSamplePartition:
    def test_reference_ratio_example(self):
        part = masking.sample_partition(190, 0.7, np.random.default_rng(0))
        assert len(part.masked_idx) == 133
        assert len(part.visible_idx) == 57

    def test_ratio_zero_and_one(self):
        rng = np.random.default_rng(0)
        part = masking.sample_partition(4, 0.0, rng)
        assert len(part.masked_idx) == 0 and len(part.visible_idx) == 4
        part = masking.sample_partition(10, 1.0, rng)
        assert len(part.masked_idx) == 10 and len(part.visible_idx) == 0

    @pytest.mark.parametrize("ratio", [0.0, 0.3, 0.7, 1.0])
    def test_counts_exact_for_sweep(self, ratio):
        rng = np.random.default_rng(7)
        for n in range(1, 201):
            part = masking.sample_partition(n, ratio, rng)
            expected = int(np.floor(ratio * n + 0.5))
            assert len(part.masked_idx) == expected, (n, ratio)
            combined = np.concatenate([part.visible_idx, part.masked_idx])
            assert np.array_equal(np.sort(combined), np.arange(n))

    def test_sorted_and_disjoint(self):
        part = masking.sample_partition(50, 0.5, np.random.default_rng(3))
        assert np.array_equal(part.visible_idx, np.sort(part.visible_idx))
        assert np.array_equal(part.masked_idx, np.sort(part.masked_idx))
        assert not set(part.visible_idx) & set(part.masked_idx)

    def test_deterministic_for_fixed_seed(self):
        a = masking.sample_partition(100, 0.7, np.random.default_rng(42))
        b = masking.sample_partition(100, 0.7, np.random.default_rng(42))
        assert np.array_equal(a.masked_idx, b.masked_idx)

    def test_inclusion_frequency_uniform(self):
        # each index should be masked about half the time at ratio 0.5
        n, draws, ratio = 20, 10_000, 0.5
        rng = np.random.default_rng(99)
        counts = np.zeros(n)
        for _ in range(draws):
            counts[masking.sample_partition(n, ratio, rng).masked_idx] += 1
        sigma = np.sqrt(draws * ratio * (1 - ratio))
        assert (np.abs(counts - draws * ratio) <= 3 * sigma).all()

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInput):
            masking.sample_partition(10, -0.1, rng)
        with pytest.raises(InvalidInput):
            masking.sample_partition(10, 1.5, rng)
        with pytest.raises(InvalidInput):
            masking.sample_partition(0, 0.5, rng)


class TestBatchPartitions:
    def test_rows_follow_sequential_draws(self):
        vis, msk = masking.batch_partitions(12, 0.7, 4, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for row in range(4):
            part = masking.sample_partition(12, 0.7, rng)
            np.testing.assert_array_equal(vis[row], part.visible_idx)
            np.testing.assert_array_equal(msk[row], part.masked_idx)
        assert vis.shape == (4, 4) and msk.shape == (4, 8)

    def test_no_masking_gives_empty_masked_rows(self):
        vis, msk = masking.batch_partitions(6, 0.0, 3, np.random.default_rng(0))
        assert vis.shape == (3, 6) and msk.shape == (3, 0)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInput):
            masking.batch_partitions(6, 0.5, 0, np.random.default_rng(0))


class TestAssemblePredictorInput:
    def test_all_visible_adds_positions_rowwise(self, rng):
        vis, msk = masking.batch_partitions(6, 0.0, 2, np.random.default_rng(0))
        z_v = rng.standard_normal((2, 6, 4))
        pe = rng.standard_normal((6, 4))
        out = masking.assemble_predictor_input(z_v, np.zeros(4), pe, vis, msk)
        np.testing.assert_allclose(out.data, z_v + pe, atol=1e-12)

    def test_all_masked_gives_token_everywhere(self, rng):
        vis, msk = masking.batch_partitions(5, 1.0, 2, np.random.default_rng(0))
        token = rng.standard_normal(3)
        pe = rng.standard_normal((5, 3))
        out = masking.assemble_predictor_input(np.zeros((2, 0, 3)), token, pe, vis, msk)
        np.testing.assert_allclose(out.data, np.broadcast_to(token + pe, (2, 5, 3)), atol=1e-12)

    def test_brute_force_index_oracle(self, rng):
        vis = np.array([[0, 2], [1, 3], [0, 1]])
        msk = np.array([[1, 3], [0, 2], [2, 3]])
        z_v = rng.standard_normal((3, 2, 3))
        token = rng.standard_normal(3)
        pe = rng.standard_normal((4, 3))
        out = masking.assemble_predictor_input(z_v, token, pe, vis, msk).data
        for row in range(3):
            expected = oracle_predictor_input(z_v[row], token, pe, vis[row])
            np.testing.assert_allclose(out[row], expected, atol=1e-12)

    def test_zero_token_zero_pe_masked_rows_are_zero(self, rng):
        vis, msk = masking.batch_partitions(8, 0.5, 3, np.random.default_rng(5))
        assert not (msk == msk[0]).all()
        z_v = rng.standard_normal((3, vis.shape[1], 4))
        out = masking.assemble_predictor_input(z_v, np.zeros(4), np.zeros((8, 4)), vis, msk)
        masked_rows = ad.gather_rows(out, msk).data
        assert (masked_rows == 0).all()

    def test_size_mismatch_rejected(self, rng):
        vis, msk = masking.batch_partitions(8, 0.5, 2, np.random.default_rng(5))
        with pytest.raises(InvalidInput):
            masking.assemble_predictor_input(
                rng.standard_normal((2, 2, 4)), np.zeros(4), np.zeros((8, 4)), vis, msk)

    def test_gradients_flow_to_visible_and_token(self, rng):
        vis, msk = masking.batch_partitions(6, 0.5, 2, np.random.default_rng(1))
        z_v = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        token = Tensor(rng.standard_normal(4), requires_grad=True)
        out = masking.assemble_predictor_input(z_v, token, np.zeros((6, 4)), vis, msk)
        out.sum().backward()
        np.testing.assert_array_equal(z_v.grad, np.ones((2, 3, 4)))
        np.testing.assert_array_equal(token.grad, 6 * np.ones(4))
