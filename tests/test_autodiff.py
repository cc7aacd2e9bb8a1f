"""Gradient and semantics checks for the autodiff engine."""

import threading
import time
from concurrent import futures

import numpy as np
import pytest

from miniclap import autodiff as ad, network as net
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
        a = _param(rng, 2, 3, 6)
        gain, bias = _param(rng, 6), _param(rng, 6)
        r = rng.standard_normal((2, 3, 6))
        fn = lambda: (ad.layer_norm_core(a, gain, bias, 1e-6) * r).sum()
        assert_grads_match(fn, {"a": a, "gain": gain, "bias": bias})

    def test_l2_normalize_grads_and_zero_check(self, rng):
        a = _param(rng, 3, 4)
        r = rng.standard_normal((3, 4))
        assert_grads_match(lambda: (ad.l2_normalize(a) * r).sum(), {"a": a})
        bad = Tensor(np.zeros((2, 3)))
        with pytest.raises(InvalidInput):
            ad.l2_normalize(bad)


def _padded_key_bias(lengths, width):
    pad = np.arange(width)[None, :] >= np.asarray(lengths)[:, None]
    return np.where(pad, -1e9, 0.0)[:, None, None, :]


def _attention_oracle(q, k, v, n_heads, lengths=None):
    """Row by row and head by head, over each row's first `lengths` keys."""
    b, _, d = q.shape
    dh = d // n_heads
    out = np.zeros(q.shape)
    for row in range(b):
        keys = k.shape[1] if lengths is None else lengths[row]
        for head in range(n_heads):
            sl = slice(head * dh, (head + 1) * dh)
            logits = q[row, :, sl] @ k[row, :keys, sl].T / np.sqrt(dh)
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            out[row, :, sl] = weights @ v[row, :keys, sl]
    return out


class TestFusedOps:
    """The fused linear, attention and layer norm at B=2, two heads and
    distinct rows, with every input's gradient checked."""

    def test_linear_grads_batched(self, rng):
        x, w, b = _param(rng, 2, 3, 5), _param(rng, 5, 4), _param(rng, 4)
        r = rng.standard_normal((2, 3, 4))
        out = ad.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data, rtol=0, atol=1e-12)
        assert_grads_match(lambda: (ad.linear(x, w, b) * r).sum(), {"x": x, "w": w, "b": b})

    def test_linear_constant_input_gets_no_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5)))
        w, b = _param(rng, 5, 4), _param(rng, 4)
        ad.linear(x, w, b).sum().backward()
        assert x.grad is None and w.grad is not None and b.grad is not None

    def test_linear_shape_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInput):
            ad.linear(rng.standard_normal((2, 4)), _param(rng, 5, 3), _param(rng, 3))

    def test_attention_matches_oracle(self, rng):
        q, k, v = (rng.standard_normal((2, 5, 6)) for _ in range(3))
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), 2).data
        np.testing.assert_allclose(out, _attention_oracle(q, k, v, 2), rtol=0, atol=1e-12)

    def test_attention_grads_with_padded_keys(self, rng):
        q, k, v = _param(rng, 2, 5, 6), _param(rng, 2, 5, 6), _param(rng, 2, 5, 6)
        key_bias = _padded_key_bias([5, 3], 5)
        r = rng.standard_normal((2, 5, 6))
        fn = lambda: (ad.attention(q, k, v, 2, key_bias) * r).sum()
        assert_grads_match(fn, {"q": q, "k": k, "v": v})
        # padded keys and values of the second row receive no gradient
        fn().backward()
        assert not k.grad[1, 3:].any() and not v.grad[1, 3:].any()

    def test_attention_padding_equals_unpadded_prefix(self, rng):
        lengths = [5, 3]
        q, k, v = (rng.standard_normal((2, 5, 6)) for _ in range(3))
        k[1, 3:] = v[1, 3:] = 100.0  # whatever the padded positions hold
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), 2, _padded_key_bias(lengths, 5)).data
        for row, keys in enumerate(lengths):
            prefix = [Tensor(a[row:row + 1, :keys]) for a in (q, k, v)]
            np.testing.assert_allclose(out[row, :keys], ad.attention(*prefix, 2).data[0],
                                       rtol=0, atol=1e-12)

    def test_attention_rejects_mismatched_inputs(self, rng):
        q = Tensor(rng.standard_normal((2, 5, 6)))
        with pytest.raises(InvalidInput):
            ad.attention(q, Tensor(rng.standard_normal((2, 4, 6))), q, 2)
        with pytest.raises(InvalidInput):
            ad.attention(q, q, q, 4)

    @pytest.mark.parametrize("q_shape, kv_shape", [
        ((2, 2, 4), (2, 5, 6)),  # query width differs from the keys'
        ((3, 2, 6), (2, 5, 6)),  # batch differs
        ((2, 6), (2, 5, 6)),  # queries not batched
    ])
    def test_attention_rejects_queries_that_do_not_fit_the_keys(self, rng, q_shape, kv_shape):
        kv = Tensor(rng.standard_normal(kv_shape))
        with pytest.raises(InvalidInput):
            ad.attention(Tensor(rng.standard_normal(q_shape)), kv, kv, 2)

    def test_attention_fewer_queries_than_keys(self, rng):
        q, k, v = _param(rng, 2, 2, 6), _param(rng, 2, 5, 6), _param(rng, 2, 5, 6)
        lengths = [5, 3]
        key_bias = _padded_key_bias(lengths, 5)  # [B, 1, 1, N]
        out = ad.attention(q, k, v, 2, key_bias)
        assert out.shape == (2, 2, 6)
        want = _attention_oracle(q.data, k.data, v.data, 2, lengths)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        r = rng.standard_normal((2, 2, 6))
        fn = lambda: (ad.attention(q, k, v, 2, key_bias) * r).sum()
        assert_grads_match(fn, {"q": q, "k": k, "v": v})


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


@pytest.fixture(scope="module")
def pool():
    with futures.ThreadPoolExecutor(1) as executor:
        yield executor


class TestPooledBackward:
    """`backward(pool)` runs leaf-only gradients and GELU slopes on the pool;
    the result is the inline path's, byte for byte."""

    @staticmethod
    def _twice_used_leaves(rng):
        affine = net.init_affine(rng, 6, 6)
        affine.bias.data = rng.standard_normal(6)
        norm = net.init_layernorm(rng, 6)
        norm.gain.data, norm.bias.data = rng.standard_normal(6), rng.standard_normal(6)
        x = Tensor(rng.standard_normal((2, 5, 6)), requires_grad=True)
        r = rng.standard_normal((2, 5, 6))

        def loss():
            h = net.layer_norm(norm, ad.gelu(net.affine(affine, x)))
            h = net.layer_norm(norm, ad.gelu(net.affine(affine, h)))
            return (h * r).sum()

        return loss, [x, affine.weight, affine.bias, norm.gain, norm.bias]

    def test_leaf_used_twice_matches_inline(self, rng, pool):
        loss, leaves = self._twice_used_leaves(rng)

        def grads_after(executors):
            for leaf in leaves:
                leaf.grad = None
            for executor in executors:  # a second pass adds onto .grad
                loss().backward(executor)
            return [leaf.grad.tobytes() for leaf in leaves]

        assert grads_after([pool]) == grads_after([None])
        assert grads_after([pool, pool]) == grads_after([None, None])

    def test_root_leaf_gets_unit_grad(self, pool):
        a = Tensor(1.0, requires_grad=True)
        a.backward(pool)
        assert a.grad == 1.0

    @pytest.mark.parametrize("failing", ["weight", "factor"])
    def test_task_error_waits_for_every_task_and_touches_no_grad(self, rng, pool, failing):
        w, v = _param(rng, 3), _param(rng, 3)
        w.grad = np.full(3, 7.0)  # left from an earlier backward
        error = RuntimeError("task failed")
        finished = []

        def fail():
            raise error

        def slow():
            time.sleep(0.2)
            finished.append(True)
            return np.ones(3)

        def inner_vjp(g, factor=None):
            return ((v, slow),)

        def root_vjp(g, factor=None):  # v's first part arrives before w's failing one
            return ((v, np.ones(3)), (w, fail), (inner, np.ones(3)))

        if failing == "factor":  # the failing task is the first the walk needs
            root_vjp.factor, inner_vjp.factor = fail, slow
        inner = Tensor._make(np.zeros(3), (v,), inner_vjp)
        root = Tensor._make(np.array(0.0), (v, w, inner), root_vjp)
        with pytest.raises(RuntimeError) as caught:
            root.backward(pool)
        assert caught.value is error
        assert finished == [True]
        np.testing.assert_array_equal(w.grad, np.full(3, 7.0))
        assert v.grad is None

    def test_walk_error_waits_for_submitted_tasks(self, rng, pool):
        w = _param(rng, 3)
        finished = []

        def slow():
            time.sleep(0.2)
            finished.append(True)
            return np.ones(3)

        def failing_vjp(g):
            raise InvalidInput("walk failed")

        mid = Tensor._make(np.zeros(3), (w,), failing_vjp)
        root = Tensor._make(np.array(0.0), (mid, w), lambda g: ((w, slow), (mid, np.ones(3))))
        with pytest.raises(InvalidInput, match="walk failed"):
            root.backward(pool)
        assert finished == [True]
        assert w.grad is None


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

    @pytest.mark.parametrize("shape, idx", [
        ((2, 6, 3), np.array([[5, 0, 2], [1, 4, 3]])),  # distinct in each row
        ((2, 6, 3), np.array([[5, 0, 5], [1, 1, 1]])),  # repeated
        ((6, 3), np.array([4, 0, 1])),
        ((6, 3), np.array([4, 0, 4])),
    ])
    def test_backward_reproduces_add_at_bytes(self, rng, shape, idx):
        a = _param(rng, *shape)
        out = ad.gather_rows(a, idx)
        g = rng.standard_normal(out.shape)
        g[..., 0] = -0.0  # a zero-initialised add keeps 0.0, not -0.0
        (out * g).sum().backward()
        want = np.zeros(shape)
        key = (idx,) if len(shape) == 2 else (np.arange(shape[0])[:, None], idx)
        np.add.at(want, key, g)
        assert a.grad.tobytes() == want.tobytes()


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

    def test_mode_is_per_thread(self, rng):
        a = _param(rng, 2)
        entered, release = threading.Event(), threading.Event()
        inside = []

        def hold_no_grad():
            with ad.no_grad():
                inside.append((a * 2.0).requires_grad)
                entered.set()
                release.wait(timeout=30)

        other = threading.Thread(target=hold_no_grad)
        other.start()
        try:
            assert entered.wait(timeout=30)
            out = a * 2.0  # built while the other thread's block is open
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert inside == [False]
        assert out.requires_grad and out._parents
