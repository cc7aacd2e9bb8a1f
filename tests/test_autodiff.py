"""Gradient and semantics checks for the autodiff engine."""

import numpy as np
import pytest

from miniclap import autodiff as ad
from miniclap.autodiff import Tensor
from miniclap.errors import InvalidInput

from conftest import assert_grads_match


def _param(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestPrimitives:
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_broadcast_grads(self, rng, op):
        a = _param(rng, 3, 4)
        b = _param(rng, 4)  # broadcast over rows
        if op == "div":
            b.data = b.data + 3.0  # keep away from zero
        r = rng.standard_normal((3, 4))
        fns = {
            "add": lambda: ((a + b) * r).sum(),
            "sub": lambda: ((a - b) * r).sum(),
            "mul": lambda: ((a * b) * r).sum(),
            "div": lambda: ((a / b) * r).sum(),
        }
        assert_grads_match(fns[op], {"a": a, "b": b})

    def test_matmul_grads_2d(self, rng):
        a = _param(rng, 3, 5)
        b = _param(rng, 5, 2)
        r = rng.standard_normal((3, 2))
        assert_grads_match(lambda: ((a @ b) * r).sum(), {"a": a, "b": b})

    def test_matmul_grads_batched_and_broadcast_weight(self, rng):
        a = _param(rng, 2, 3, 5)
        w = _param(rng, 5, 4)
        r = rng.standard_normal((2, 3, 4))
        assert_grads_match(lambda: ((a @ w) * r).sum(), {"a": a, "w": w})

    def test_reshape_transpose_grads(self, rng):
        a = _param(rng, 2, 3, 4)
        r = rng.standard_normal((4, 6))
        fn = lambda: ((a.transpose(2, 0, 1).reshape(4, 6)) * r).sum()
        assert_grads_match(fn, {"a": a})

    def test_reductions_and_elementwise(self, rng):
        a = _param(rng, 3, 4)
        a.data = np.abs(a.data) + 0.5  # keep log/sqrt in-domain
        r = rng.standard_normal(4)
        fn = lambda: ((a.log() + a.sqrt() + a.exp()).mean(axis=0) * r).sum()
        assert_grads_match(fn, {"a": a})

    def test_sum_axis_tuple(self, rng):
        a = _param(rng, 2, 3, 4)
        fn = lambda: (a.mean(axis=(-2, -1), keepdims=True)).sum()
        assert_grads_match(fn, {"a": a})

    def test_getitem_fancy_grads(self, rng):
        a = _param(rng, 5, 3)
        idx = np.array([0, 2, 2])  # repeated index must accumulate
        r = rng.standard_normal((3, 3))
        assert_grads_match(lambda: (a[idx] * r).sum(), {"a": a})

    def test_gather_rows_batched_grads(self, rng):
        a = _param(rng, 2, 5, 3)
        idx = np.array([[0, 4, 4], [1, 2, 3]])
        r = rng.standard_normal((2, 3, 3))
        assert_grads_match(lambda: (ad.gather_rows(a, idx) * r).sum(), {"a": a})

    def test_gather_rows_out_of_range(self, rng):
        a = _param(rng, 2, 5, 3)
        with pytest.raises(InvalidInput):
            ad.gather_rows(a, np.array([5]))

    def test_concat_expand_grads(self, rng):
        a = _param(rng, 2, 2, 3)
        token = _param(rng, 1, 1, 3)
        r = rng.standard_normal((2, 4, 3))
        fn = lambda: (ad.concat([a, token.expand((2, 2, 3))], axis=1) * r).sum()
        assert_grads_match(fn, {"a": a, "token": token})

    def test_softmax_log_softmax_gelu_grads(self, rng):
        a = _param(rng, 3, 6)
        r = rng.standard_normal((3, 6))
        assert_grads_match(lambda: (ad.softmax(a, axis=-1) * r).sum(), {"a": a})
        assert_grads_match(lambda: (ad.log_softmax(a, axis=0) * r).sum(), {"a": a})
        assert_grads_match(lambda: (ad.gelu(a) * r).sum(), {"a": a})

    def test_layer_norm_core_grads(self, rng):
        a = _param(rng, 4, 6)
        r = rng.standard_normal((4, 6))
        assert_grads_match(lambda: (ad.layer_norm_core(a, 1e-6) * r).sum(), {"a": a})

    def test_l2_normalize_grads_and_zero_check(self, rng):
        a = _param(rng, 3, 4)
        r = rng.standard_normal((3, 4))
        assert_grads_match(lambda: (ad.l2_normalize(a) * r).sum(), {"a": a})
        bad = Tensor(np.zeros((2, 3)))
        with pytest.raises(InvalidInput):
            ad.l2_normalize(bad)


class TestGraphSemantics:
    def test_grad_accumulates_over_reuse(self, rng):
        a = _param(rng, 3)
        loss = (a * a).sum() + a.sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 1.0)

    def test_sum_of_parameter_gives_ones(self, rng):
        a = _param(rng, 2, 3)
        a.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_detached_loss_raises(self, rng):
        with pytest.raises(InvalidInput):
            Tensor(rng.standard_normal(())).backward()

    def test_non_scalar_backward_raises(self, rng):
        a = _param(rng, 3)
        with pytest.raises(InvalidInput):
            (a * 2).backward()

    def test_detach_blocks_flow(self, rng):
        a = _param(rng, 3)
        b = _param(rng, 3)
        with ad.no_grad():
            a_const = a * 1.0
        loss = (a_const * b).sum()
        loss.backward()
        assert a.grad is None
        assert b.grad is not None

    def test_stop_gradient_branch_gets_none(self, rng):
        frozen = Tensor(rng.standard_normal(3), requires_grad=False)
        live = _param(rng, 3)
        loss = (frozen * live).sum()
        loss.backward()
        assert frozen.grad is None

    def test_diamond_graph_counts_paths_once_each(self, rng):
        a = Tensor(rng.standard_normal(), requires_grad=True)
        b = a * 3.0
        loss = b * b  # dL/da = 2 * 3a * 3 = 18a
        loss.backward()
        np.testing.assert_allclose(a.grad, 18.0 * a.data)

    def test_forward_determinism(self, rng):
        a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        out1 = ad.softmax(a @ a, axis=-1).data
        out2 = ad.softmax(a @ a, axis=-1).data
        assert np.array_equal(out1, out2)


class TestGatherRows:
    def test_full_range_is_identity(self, rng):
        seq = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(ad.gather_rows(seq, np.arange(5)).data, seq)

    def test_empty_index(self, rng):
        out = ad.gather_rows(rng.standard_normal((5, 3)), np.array([], dtype=int))
        assert out.data.shape == (0, 3)
        out = ad.gather_rows(rng.standard_normal((2, 5, 3)), np.zeros((2, 0), dtype=int))
        assert out.data.shape == (2, 0, 3)

    def test_order_respected(self, rng):
        seq = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(ad.gather_rows(seq, np.array([2, 0])).data, seq[[2, 0]])

    def test_out_of_range_rejected(self, rng):
        with pytest.raises(InvalidInput):
            ad.gather_rows(rng.standard_normal((4, 2)), np.array([4]))


class TestNoGrad:
    def test_ops_inside_record_no_parents(self, rng):
        a = _param(rng, 3, 4)
        with ad.no_grad():
            out = ad.softmax(a @ a.transpose(1, 0)).sum()
            with ad.no_grad():
                pass
            after_nested = a * 2.0
        assert not out.requires_grad and out._parents == ()
        assert not after_nested.requires_grad and after_nested._parents == ()
        assert (a * 2.0).requires_grad

    def test_flag_restored_after_exception(self, rng):
        a = _param(rng, 2)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("raised inside the block")
        out = a * 2.0
        assert out.requires_grad and out._parents
