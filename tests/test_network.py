"""Checks for the parametric components: straight-line forward oracles,
identity-block contracts, stop-gradient guarantees, gradient checks for
every block type, and checkpoint round trips."""

import dataclasses
import os
import struct
import threading
import time

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from miniclap import autodiff as ad, masking, network as net
from miniclap.autodiff import Tensor
from miniclap import config as C
from miniclap.config import N_FREQ_PATCHES, ModelConfig
from miniclap.errors import FormatError, InvalidInput
from miniclap.frontend import build_posenc

from conftest import (assert_grads_match, oracle_block, oracle_encoder, oracle_predictor_input,
                      param_digest)

TINY = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, predictor_depth=1,
                   predictor_heads=2, text_vocab=11, text_depth=1, text_heads=2,
                   text_maxlen=6, emb_dim=12)


@pytest.fixture
def state():
    return net.init_model_state(TINY, seed=5)


def _patches(rng, b=3, n_f=5, n_t=2):
    return rng.standard_normal((b, n_f * n_t, 256))


def _partitions(n, ratio, b=3, seed=0):
    vis, msk = masking.batch_partitions(n, ratio, b, np.random.default_rng(seed))
    if 0 < ratio < 1:
        assert not (vis == vis[0]).all(), "rows should draw different partitions"
    return vis, msk


def _zero_residuals(block):
    block.attn_out.weight.data[:] = 0
    block.attn_out.bias.data[:] = 0
    block.mlp_out.weight.data[:] = 0
    block.mlp_out.bias.data[:] = 0


class TestEncode:
    def test_all_visible_full_sequence(self, state, rng):
        patches = _patches(rng)
        vis, _ = _partitions(patches.shape[1], 0.0)
        out = net.encode_selected(state.online, patches, vis, state.online.posenc.table)
        assert out.shape == (3, patches.shape[1], TINY.dim)

    def test_deterministic(self, state, rng):
        patches = _patches(rng)
        vis, _ = _partitions(patches.shape[1], 0.7)
        pe = state.online.posenc.table
        a = net.encode_selected(state.online, patches, vis, pe).data
        b = net.encode_selected(state.online, patches, vis, pe).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("branch", ["visible", "masked"])
    def test_matches_straight_line_oracle(self, state, rng, branch):
        patches = _patches(rng)
        vis, msk = _partitions(patches.shape[1], 0.6, seed=2)
        idx = vis if branch == "visible" else msk
        pe = state.online.posenc.table
        got = net.encode_selected(state.online, patches, idx, pe).data
        for row in range(patches.shape[0]):
            want = oracle_encoder(state.online, patches[row][idx[row]], pe[idx[row]])
            np.testing.assert_allclose(got[row], want, atol=1e-10)

    def test_partition_size_mismatch(self, state, rng):
        patches = _patches(rng)
        pe = state.online.posenc.table
        vis, _ = _partitions(patches.shape[1] + 1, 0.0)
        with pytest.raises(InvalidInput):
            net.encode_selected(state.online, patches, vis, pe)
        vis, _ = _partitions(patches.shape[1], 0.0)
        with pytest.raises(InvalidInput):
            net.encode_selected(state.online, patches, vis, pe[:-1])

    def test_init_deterministic_under_seed(self):
        a = net.init_model_state(TINY, seed=9)
        b = net.init_model_state(TINY, seed=9)
        assert param_digest(a) == param_digest(b)

    def test_wider_grid_rejected(self, state):
        # every grid is padded or cropped to input_frames first, so a
        # grid of any other shape is an error that names both shapes
        with pytest.raises(InvalidInput, match="5x4 patches, encoder expects 5x2"):
            net.posenc_for(state.online, 5, 4)

    def test_wrong_frequency_patch_count_rejected(self, state):
        with pytest.raises(InvalidInput):
            net.posenc_for(state.online, 4, 2)

    def test_target_starts_as_online_copy(self, state):
        assert param_digest(state.online) == param_digest(state.target)


class TestTransferShared:
    def test_stage2_init_copies_stage1_and_keeps_text_encoder(self):
        # as pretrain-stage2: a seeded text-encoder state takes every stage-1 tensor
        stage1 = net.init_model_state(dataclasses.replace(TINY, text_vocab=0), seed=1)
        state = net.init_model_state(TINY, seed=2)
        seeded = net.init_model_state(TINY, seed=2)
        net.transfer_shared(stage1, state)
        got = net.named_params(state)
        for name, tensor in net.named_params(stage1).items():
            assert got[name].data.shape == tensor.data.shape, name
            assert got[name].data.tobytes() == tensor.data.tobytes(), name
            assert not np.shares_memory(got[name].data, tensor.data), name
        fresh = set(got) - set(net.named_params(stage1))
        assert fresh and all(name.startswith("textpath.encoder.") for name in fresh)
        assert param_digest(state.textpath.encoder) == param_digest(seeded.textpath.encoder)
        assert param_digest(state.online) != param_digest(seeded.online)


def _oracle_predict(pp, z_v, pe, vis, msk):
    """Row by row: assemble by position, run the straight-line blocks,
    keep the masked rows."""
    out = []
    for row in range(z_v.shape[0]):
        seq = oracle_predictor_input(z_v[row], pp.mask_token.data, pe, vis[row])
        for blk in pp.blocks:
            seq = oracle_block(seq, blk)
        out.append((seq @ pp.out.weight.data + pp.out.bias.data)[msk[row]])
    return np.stack(out)


class TestPredictMasked:
    def test_no_masked_patches_empty_output(self, state, rng):
        vis, msk = _partitions(6, 0.0, b=2)
        z_v = rng.standard_normal((2, 6, TINY.dim))
        pe = build_posenc(3, 2, TINY.dim).table
        out = net.predict_masked(state.predictor, z_v, pe, vis, msk)
        assert out.data.shape == (2, 0, TINY.dim)

    def test_identity_predictor_passes_assembled_rows(self, state, rng):
        for block in state.predictor.blocks:
            _zero_residuals(block)
        state.predictor.out.weight.data = np.eye(TINY.dim)
        state.predictor.out.bias.data[:] = 0
        vis, msk = _partitions(6, 0.5, seed=1)
        z_v = rng.standard_normal((3, vis.shape[1], TINY.dim))
        pe = build_posenc(3, 2, TINY.dim).table
        got = net.predict_masked(state.predictor, z_v, pe, vis, msk).data
        for row in range(3):
            assembled = oracle_predictor_input(
                z_v[row], state.predictor.mask_token.data, pe, vis[row])
            np.testing.assert_allclose(got[row], assembled[msk[row]], atol=1e-12)

    def test_matches_straight_line_oracle(self, state, rng):
        vis, msk = _partitions(6, 0.5, seed=3)
        z_v = rng.standard_normal((3, vis.shape[1], TINY.dim))
        pe = build_posenc(3, 2, TINY.dim).table
        got = net.predict_masked(state.predictor, z_v, pe, vis, msk).data
        want = _oracle_predict(state.predictor, z_v, pe, vis, msk)
        np.testing.assert_allclose(got, want, atol=1e-10)


def _predict_gather_after_stack(pp, z_v, pe, vis, msk):
    """The predictor as it ran before its last block took rows: every
    block and the output map on all n rows, then the masked rows kept."""
    x = masking.assemble_predictor_input(z_v, pp.mask_token, pe, vis, msk)
    for block in pp.blocks:
        x = net.block_forward(block, x)
    return ad.gather_rows(net.affine(pp.out, x), msk)


class TestKeptRows:
    """Each stack's last block computes only the rows its caller keeps."""

    def _block_input(self, rng):
        block = net.init_block(np.random.default_rng(0), 6, 2, 10)
        x = Tensor(rng.standard_normal((2, 5, 6)), requires_grad=True)
        key_bias = np.zeros((2, 1, 1, 5))
        key_bias[1, ..., 3:] = -1e9  # the second row pads its last two keys
        return block, x, key_bias, np.array([[4, 0], [2, 1]])

    def test_block_rows_equal_rows_of_full_block(self, rng):
        block, x, key_bias, rows = self._block_input(rng)
        full = net.block_forward(block, x, key_bias).data
        got = net.block_forward(block, x, key_bias, rows).data
        np.testing.assert_allclose(got, full[np.arange(2)[:, None], rows], rtol=0, atol=1e-12)

    def test_block_rows_gradcheck(self, rng):
        block, x, key_bias, rows = self._block_input(rng)
        r = rng.standard_normal((2, 2, 6))
        params = dict(net.named_params(block, "block"), x=x)
        assert_grads_match(lambda: (net.block_forward(block, x, key_bias, rows) * r).sum(),
                           params)

    def test_predict_masked_matches_gather_after_stack(self, rng):
        cfg = ModelConfig(dim=16, depth=1, heads=2, input_frames=32, predictor_depth=2,
                          predictor_heads=2)
        pp = net.init_model_state(cfg, seed=3).predictor
        vis, msk = _partitions(10, 0.7, b=4, seed=2)
        pe = build_posenc(5, 2, cfg.dim).table
        r = rng.standard_normal((4, msk.shape[1], cfg.dim))
        results = []
        for forward in (net.predict_masked, _predict_gather_after_stack):
            z_v = Tensor(np.random.default_rng(4).standard_normal((4, vis.shape[1], cfg.dim)),
                         requires_grad=True)
            for tensor in net.named_params(pp).values():
                tensor.grad = None
            out = forward(pp, z_v, pe, vis, msk)
            (out * r).sum().backward()
            grads = {name: t.grad for name, t in net.named_params(pp).items()}
            results.append((out.data, z_v.grad, grads))
        (out, z_grad, grads), (want_out, want_z_grad, want_grads) = results
        assert out.tobytes() == want_out.tobytes()
        assert z_grad.tobytes() == want_z_grad.tobytes()
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, want_grads[name], rtol=0, atol=1e-12, err_msg=name)

    def test_depth_zero_stacks_keep_outputs(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, predictor_depth=0,
                          projector_blocks=0, text_vocab=11, text_depth=0, text_maxlen=6)
        state = net.init_model_state(cfg, seed=0)
        vis, msk = _partitions(10, 0.5, b=2)
        z_v = rng.standard_normal((2, vis.shape[1], 8))
        pe = build_posenc(5, 2, 8).table
        pp = state.predictor
        np.testing.assert_array_equal(net.predict_masked(pp, z_v, pe, vis, msk).data,
                                      _predict_gather_after_stack(pp, z_v, pe, vis, msk).data)
        out = net.project_audio(state.projector, rng.standard_normal((2, 3, 8))).data
        np.testing.assert_array_equal(out, np.repeat(state.projector.cls_token.data[0], 2, 0))
        enc = state.textpath.encoder
        out = net.encode_text_batch(state.textpath, [[3, 4], [5]]).data
        np.testing.assert_array_equal(out, enc.tok_embed.data[[3, 5]] + enc.pos_embed.data[0])

    def test_last_blocks_see_only_kept_rows(self, state, rng, monkeypatch):
        """Regression guard: the MLP input of each stack's last block."""
        seen = []
        gelu = ad.gelu

        def recording_gelu(x):
            seen.append(x.shape)
            return gelu(x)

        monkeypatch.setattr(ad, "gelu", recording_gelu)
        net.project_audio(state.projector, rng.standard_normal((3, 7, TINY.dim)))
        assert seen[-1][:2] == (3, 1), seen
        net.encode_text_batch(state.textpath, [[3, 6, 2, 5], [4, 1], [7]])
        assert seen[-1][:2] == (3, 1), seen
        vis, msk = _partitions(10, 0.7, seed=1)
        z_v = rng.standard_normal((3, vis.shape[1], TINY.dim))
        net.predict_masked(state.predictor, z_v, build_posenc(5, 2, TINY.dim).table, vis, msk)
        assert seen[-1][:2] == (3, msk.shape[1]), seen


class TestStandardizeTargets:
    def test_already_standardized_unchanged(self, rng):
        z = rng.standard_normal((8, 6))
        z = (z - z.mean()) / z.std()
        out = net.standardize_targets(z).data
        np.testing.assert_allclose(out, z, atol=1e-3)

    def test_constant_input_gives_zeros(self):
        out = net.standardize_targets(np.full((4, 3), 2.5)).data
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_moments_after_standardization(self, rng):
        z = 3.0 + 2.0 * rng.standard_normal((4, 3))
        out = net.standardize_targets(z).data
        assert abs(out.mean()) <= 1e-6
        assert abs(out.var() - 1.0) <= 1e-4  # eps-floored variance

    def test_batched_per_sample_statistics(self, rng):
        z = rng.standard_normal((3, 4, 5)) * np.array([1.0, 5.0, 0.2])[:, None, None]
        out = net.standardize_targets(z).data
        for b in range(3):
            assert abs(out[b].mean()) <= 1e-8
            assert abs(out[b].var() - 1.0) <= 1e-4

    def test_single_entry_rejected(self):
        with pytest.raises(InvalidInput):
            net.standardize_targets(np.ones((1, 1)))


def _frozen_inputs(rng, b, n=10, visible=None):
    """b clips chosen from 20 of n patches, each row's sorted visible
    patches (None: all n), and an [n, 8] position table."""
    patches = rng.standard_normal((20, n, 256))
    clips = rng.permutation(20)[:b]
    vis = None
    if visible is not None:
        vis = np.stack([np.sort(rng.permutation(n)[:visible]) for _ in range(b)])
    return patches, clips, vis, rng.standard_normal((n, TINY.dim))


def _on_worker() -> bool:
    return threading.current_thread().name.startswith("miniclap-worker")


def _encode(params, patches, pe, clips, vis, summary=lambda z: z.data, pool=None):
    """The result of a `SharedEncode` of these arguments, shared with `pool` when given."""
    encode = net.SharedEncode(params, patches, pe, clips, vis, summary)
    return (encode if pool is None else encode.share(pool)).result()


def _one_call(params, patches, clips, vis, pe):
    with ad.no_grad():
        if vis is None:
            return net.encode_tokens(params, patches[clips], pe).data
        return net.encode_tokens(params, patches[clips[:, None], vis], pe[vis]).data


class TestEncodeFrozen:
    """Graph-free encodes of whole clips within a token budget, shared
    with a second thread when given one, byte-identical to one call."""

    @staticmethod
    def _record(monkeypatch) -> list:
        calls = []  # (thread, token rows) of each encoder call
        encode = net.encode_tokens

        def encode_tokens(params, patches, pe):
            calls.append((threading.get_ident(), patches.shape[0] * patches.shape[1]))
            return encode(params, patches, pe)

        monkeypatch.setattr(net, "encode_tokens", encode_tokens)
        return calls

    @pytest.mark.parametrize("pool", [False, True])
    @pytest.mark.parametrize("b, n, visible", [
        (1, 10, None), (3, 10, None), (11, 10, None), (4, 10, 3), (15, 10, 3),
        (5, 40, None), (6, 40, 5)])
    def test_calls_stay_within_budget(self, state, rng, monkeypatch, pool, b, n, visible):
        monkeypatch.setattr(net, "SHARED_TOKENS", 30)
        patches, clips, vis, pe = _frozen_inputs(rng, b, n, visible)
        calls = self._record(monkeypatch)
        _encode(state.online, patches, pe, clips, vis, pool=net.worker() if pool else None)
        k = n if visible is None else visible
        tokens = [t for _, t in calls]
        assert sum(tokens) == b * k
        # a clip of more rows than the budget is a call of its own
        assert all(min(net.MIN_ROWS, b * k) <= t <= max(30, k) for t in tokens), tokens

    @pytest.mark.parametrize("budget, b, visible, want", [
        (30, 5, 7, [35]),  # 14 + 21 rows would put a call under MIN_ROWS
        (10, 11, None, [20, 20, 20, 20, 30]),  # a lone clip has under MIN_ROWS rows
    ])
    def test_min_rows_takes_precedence_over_the_budget(self, state, rng, monkeypatch, budget,
                                                       b, visible, want):
        monkeypatch.setattr(net, "SHARED_TOKENS", budget)
        patches, clips, vis, pe = _frozen_inputs(rng, b, visible=visible)
        calls = self._record(monkeypatch)
        got = _encode(state.online, patches, pe, clips, vis)
        assert [t for _, t in calls] == want
        assert got.tobytes() == _one_call(state.online, patches, clips, vis, pe).tobytes()

    # 10 rows a clip: one clip a call is under MIN_ROWS, so 1 or 3 clips make one call
    @pytest.mark.parametrize("b, split", [(1, False), (3, False), (4, True), (11, True)])
    def test_pool_shares_only_from_two_calls(self, state, rng, monkeypatch, b, split):
        patches, clips, _, pe = _frozen_inputs(rng, b)
        calls = self._record(monkeypatch)
        shared, share = [], net.SharedEncode.share
        monkeypatch.setattr(net.SharedEncode, "share",
                            lambda job, pool: (shared.append(pool), share(job, pool))[1])
        net.encode_frozen(state.online, patches[clips], pe, pool=net.worker())
        assert shared == ([net.worker()] if split else [])
        assert len(calls) == (2 if split else 1)
        assert sum(tokens for _, tokens in calls) == b * 10

    @pytest.mark.parametrize("visible", [None, 4])
    @pytest.mark.parametrize("budget", [30, 512])
    def test_pool_and_no_pool_match_one_call(self, state, rng, monkeypatch, visible, budget):
        monkeypatch.setattr(net, "SHARED_TOKENS", budget)
        patches, clips, vis, pe = _frozen_inputs(rng, 13, visible=visible)
        want = _one_call(state.online, patches, clips, vis, pe)
        for pool in (None, net.worker()):
            got = _encode(state.online, patches, pe, clips, vis, pool=pool)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # each call's summary rows land in the clips' places
            means = _encode(state.online, patches, pe, clips, vis,
                            lambda z: z.data.mean(axis=1), pool)
            assert means.tobytes() == want.mean(axis=1).tobytes()
        # every clip, in order, when no clips are named
        got = _encode(state.online, patches[clips], pe, None, vis, pool=net.worker())
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_error_arrives_as_same_object_after_both_halves(self, state, rng, failing):
        """4 clips of 10 rows are two calls of 2 clips, the worker's from the
        front and the caller's from the back; one fails while the other runs."""
        patches, clips, _, pe = _frozen_inputs(rng, 4)
        error = RuntimeError(f"{failing} half failed")
        other_started, finished = threading.Event(), []

        def summary(z):
            if _on_worker() == (failing == "worker"):
                assert other_started.wait(5), "the other thread took no call"
                raise error
            other_started.set()
            time.sleep(0.2)  # the other half fails long before this one ends
            finished.append(len(z.data))
            return z.data

        with pytest.raises(RuntimeError) as caught:
            net.encode_frozen(state.online, patches[clips], pe, summary=summary,
                              pool=net.worker())
        assert caught.value is error
        assert finished == [2]

    def test_builds_no_graph(self, state, rng):
        patches, clips, _, pe = _frozen_inputs(rng, 4)
        seen = []
        net.encode_frozen(state.online, patches[clips], pe,
                          summary=lambda z: seen.append(z.requires_grad) or z.data,
                          pool=net.worker())
        assert seen == [False, False]


class TestProjectAudio:
    def test_identity_block_returns_class_token(self, state):
        _zero_residuals(state.projector.blocks[0])
        out = net.project_audio(state.projector, np.zeros((2, 1, TINY.dim))).data
        cls = state.projector.cls_token.data.reshape(1, -1)
        np.testing.assert_allclose(out, np.repeat(cls, 2, axis=0), atol=1e-12)

    def test_permutation_invariant_over_rows(self, state, rng):
        z = rng.standard_normal((2, 7, TINY.dim))
        base = net.project_audio(state.projector, z).data
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(7)
            out = net.project_audio(state.projector, z[:, perm]).data
            np.testing.assert_allclose(out, base, atol=1e-10)

    def test_matches_straight_line_oracle(self, state, rng):
        z = rng.standard_normal((3, 4, TINY.dim))
        got = net.project_audio(state.projector, z).data
        for row in range(3):
            x = np.concatenate([state.projector.cls_token.data.reshape(1, -1), z[row]], axis=0)
            for blk in state.projector.blocks:
                x = oracle_block(x, blk)
            np.testing.assert_allclose(got[row], x[0], atol=1e-10)

    def test_empty_input_rejected(self, state):
        with pytest.raises(InvalidInput):
            net.project_audio(state.projector, np.zeros((1, 0, TINY.dim)))

    def test_unbatched_input_rejected(self, state):
        with pytest.raises(InvalidInput, match=r"\[B, k>=1, dim\]"):
            net.project_audio(state.projector, np.zeros((4, TINY.dim)))

    def test_mlp_variant(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32,
                          projector_kind="mlp")
        state = net.init_model_state(cfg, seed=0)
        z = rng.standard_normal((2, 5, 8))
        out = net.project_audio(state.projector, z)
        assert out.data.shape == (2, 8)
        # mean-pooled: permutation leaves the output identical
        perm = np.random.default_rng(1).permutation(5)
        np.testing.assert_allclose(net.project_audio(state.projector, z[:, perm]).data,
                                   out.data, atol=1e-12)


class TestTextPath:
    def test_zero_map_gives_zero(self, state):
        state.textpath.llm_map.weight.data[:] = 0
        state.textpath.llm_map.bias.data[:] = 0
        out = net.map_text_embedding(state.textpath, np.ones((2, TINY.emb_dim))).data
        np.testing.assert_array_equal(out, np.zeros((2, TINY.dim)))

    def test_identity_prefix_copy(self, state):
        w = np.zeros((TINY.emb_dim, TINY.dim))
        w[:TINY.dim, :] = np.eye(TINY.dim)
        state.textpath.llm_map.weight.data = w
        state.textpath.llm_map.bias.data[:] = 0
        e = np.arange(2 * TINY.emb_dim, dtype=np.float64).reshape(2, TINY.emb_dim)
        out = net.map_text_embedding(state.textpath, e).data
        np.testing.assert_allclose(out, e[:, :TINY.dim], atol=1e-12)

    def test_matrix_vector_oracle(self, state, rng):
        e = rng.standard_normal((3, TINY.emb_dim))
        got = net.map_text_embedding(state.textpath, e).data
        for row in range(3):
            want = e[row] @ state.textpath.llm_map.weight.data + state.textpath.llm_map.bias.data
            np.testing.assert_allclose(got[row], want, atol=1e-12)

    def test_wrong_dim_rejected(self, state):
        with pytest.raises(InvalidInput):
            net.map_text_embedding(state.textpath, np.ones((1, TINY.emb_dim + 1)))
        with pytest.raises(InvalidInput):  # one unbatched embedding
            net.map_text_embedding(state.textpath, np.ones(TINY.emb_dim))

    def test_encode_text_deterministic(self, state):
        rows = [[3, 5, 7, 0]]
        a = net.encode_text_batch(state.textpath, rows).data
        b = net.encode_text_batch(state.textpath, rows).data
        assert np.array_equal(a, b)

    def test_single_token_identity_blocks_returns_embedding(self, state):
        for blk in state.textpath.encoder.blocks:
            _zero_residuals(blk)
        out = net.encode_text_batch(state.textpath, [[4]]).data
        # position table is zero-initialized, so the embedding passes through
        np.testing.assert_allclose(out[0], state.textpath.encoder.tok_embed.data[4], atol=1e-12)

    def test_matches_straight_line_oracle(self, state, rng):
        enc = state.textpath.encoder
        enc.pos_embed.data = rng.standard_normal(enc.pos_embed.data.shape) * 0.1
        tokens = [3, 9, 1, 0]
        got = net.encode_text_batch(state.textpath, [tokens]).data
        x = enc.tok_embed.data[tokens] + enc.pos_embed.data[:4]
        for blk in enc.blocks:
            x = oracle_block(x, blk)
        np.testing.assert_allclose(got[0], x[0], atol=1e-10)

    def test_empty_and_overlong_rejected(self, state):
        with pytest.raises(InvalidInput, match="empty text batch"):
            net.encode_text_batch(state.textpath, [])
        with pytest.raises(InvalidInput):
            net.encode_text_batch(state.textpath, [[]])
        with pytest.raises(InvalidInput):
            net.encode_text_batch(state.textpath, [list(range(TINY.text_maxlen + 1))])

    def test_batch_padding_matches_single(self, state, rng):
        enc = state.textpath.encoder
        enc.pos_embed.data = rng.standard_normal(enc.pos_embed.data.shape) * 0.1
        rows = [[3, 5, 7, 2, 0], [4, 0], [8, 6, 0]]
        batched = net.encode_text_batch(state.textpath, rows).data
        for i, row in enumerate(rows):
            single = net.encode_text_batch(state.textpath, [row]).data
            np.testing.assert_allclose(batched[i], single[0], atol=1e-10)

    def test_no_encoder_configured_rejected(self):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32)
        state = net.init_model_state(cfg, seed=0)
        with pytest.raises(InvalidInput):
            net.encode_text_batch(state.textpath, [[1, 2]])


class TestGradients:
    def test_block_gradcheck_all_parameters(self, rng):
        block = net.init_block(np.random.default_rng(0), 6, 2, 10)
        x = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        key_bias = np.zeros((2, 1, 1, 4))
        key_bias[1, ..., 3] = -1e9  # the second row pads its last key
        r = rng.standard_normal((2, 4, 6))
        params = dict(net.named_params(block, "block"), x=x)
        fn = lambda: (net.block_forward(block, x, key_bias) * r).sum()
        assert_grads_match(fn, params)

    def test_layernorm_gradcheck(self, rng):
        ln = net.init_layernorm(np.random.default_rng(0), 5)
        x = rng.standard_normal((3, 5))
        r = rng.standard_normal((3, 5))
        params = net.named_params(ln, "ln")
        assert_grads_match(lambda: (net.layer_norm(ln, x) * r).sum(), params)

    def test_projector_gradcheck(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32)
        state = net.init_model_state(cfg, seed=1)
        z = rng.standard_normal((2, 3, 8))
        r = rng.standard_normal((2, 8))
        params = net.named_params(state.projector, "projector")
        fn = lambda: (net.project_audio(state.projector, z) * r).sum()
        assert_grads_match(fn, params)

    def test_text_encoder_gradcheck(self, rng):
        state = net.init_model_state(TINY, seed=2)
        r = rng.standard_normal((2, TINY.dim))
        params = net.named_params(state.textpath.encoder, "text")
        fn = lambda: (net.encode_text_batch(state.textpath, [[3, 6, 2, 5], [4, 1]]) * r).sum()
        assert_grads_match(fn, params)

    def test_repeated_token_ids_accumulate(self, rng):
        state = net.init_model_state(TINY, seed=2)
        r = rng.standard_normal((2, TINY.dim))
        tok_embed = state.textpath.encoder.tok_embed
        fn = lambda: (net.encode_text_batch(state.textpath, [[3, 3, 5, 3], [5, 3]]) * r).sum()
        assert_grads_match(fn, {"tok_embed": tok_embed})

    def test_encoder_stack_gradcheck(self, state, rng):
        patches = _patches(rng, b=2)
        vis, _ = _partitions(patches.shape[1], 0.5, b=2, seed=1)
        r = rng.standard_normal((2, vis.shape[1], TINY.dim))
        params = net.named_params(state.online, "online")
        pe = state.online.posenc.table
        fn = lambda: (net.encode_selected(state.online, patches, vis, pe) * r).sum()
        assert_grads_match(fn, params)

    def test_predictor_gradcheck(self, state, rng):
        vis, msk = _partitions(6, 0.5, b=2, seed=1)
        z_v = rng.standard_normal((2, vis.shape[1], TINY.dim))
        pe = build_posenc(3, 2, TINY.dim).table
        r = rng.standard_normal((2, msk.shape[1], TINY.dim))
        params = net.named_params(state.predictor, "predictor")
        fn = lambda: (net.predict_masked(state.predictor, z_v, pe, vis, msk) * r).sum()
        assert_grads_match(fn, params)

    def test_target_encoder_never_receives_gradients(self, state, rng):
        patches = _patches(rng, b=2)
        _, msk = _partitions(patches.shape[1], 0.5, b=2, seed=1)
        out = net.encode_selected(state.target, patches, msk, state.target.posenc.table)
        assert not out.requires_grad
        with pytest.raises(InvalidInput):
            out.sum().backward()
        for tensor in net.named_params(state.target).values():
            assert tensor.grad is None


def _first_tensor_header(data: bytes) -> int:
    """Offset of the first tensor's header: past the magic, the version,
    the length-prefixed config, vocabulary and class sections, the 32-byte
    digest and the tensor count."""
    at = 8
    for _ in range(3):
        (length,) = struct.unpack_from("<I", data, at)
        at += 4 + length
    return at + 32 + 4


def _payload_spans(data: bytes) -> list[range]:
    """Byte ranges of the tensor values; every other byte is header."""
    spans, at = [], _first_tensor_header(data)
    while at < len(data):
        (name_len,) = struct.unpack_from("<H", data, at)
        at += 2 + name_len
        ndim = data[at]
        shape = struct.unpack_from(f"<{ndim}I", data, at + 1)
        at += 1 + 4 * ndim
        spans.append(range(at, at + 4 * int(np.prod(shape))))
        at = spans[-1].stop
    return spans


def _with_header(texts: list[bytes], data: bytes) -> bytes:
    """`data` with its config, vocabulary and class sections replaced by
    `texts` and a digest that matches them."""
    sections = b"".join(struct.pack("<I", len(text)) + text for text in texts)
    return data[:8] + sections + hashlib.sha256(sections).digest() + \
        data[_first_tensor_header(data) - 4:]


VOCAB = [f"w{i}" for i in range(TINY.text_vocab - 3)]
CLASSES = ["dog bark", "siren", "rain"]


def _headed(state):
    """`state` with a stage-1.1 head over CLASSES."""
    state.head = net.init_affine(np.random.default_rng(6), N_FREQ_PATCHES * TINY.dim, len(CLASSES))
    state.classes = list(CLASSES)
    return state


@pytest.fixture(scope="module")
def ckpt_bytes(tmp_path_factory):
    """A checkpoint with a vocabulary, a head and its classes, so every
    header section is non-empty."""
    state = _headed(net.init_model_state(TINY, seed=5))
    state.vocab = VOCAB
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    net.save_checkpoint(path, state)
    return path.read_bytes()


@pytest.fixture(scope="module")
def header_offsets(ckpt_bytes):
    payload = {i for span in _payload_spans(ckpt_bytes) for i in span}
    return [i for i in range(len(ckpt_bytes)) if i not in payload]


class TestCheckpoint:
    def test_round_trip_byte_exact(self, state, tmp_path):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        net.save_checkpoint(p1, state)
        loaded = net.load_checkpoint(p1, TINY)
        net.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive_at_f32_precision(self, state, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, state)
        loaded = net.load_checkpoint(path, TINY)
        for name, tensor in net.named_params(state).items():
            got = net.named_params(loaded)[name].data
            np.testing.assert_array_equal(got, tensor.data.astype(np.float32).astype(np.float64))

    def test_load_draws_no_random_model(self, state, tmp_path, monkeypatch):
        """Every tensor comes from the file, so loading initialises nothing."""
        path, again = tmp_path / "m.ckpt", tmp_path / "again.ckpt"
        net.save_checkpoint(path, state)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew a random initialisation")

        monkeypatch.setattr(net, "trunc_normal", no_draw)
        net.save_checkpoint(again, net.load_checkpoint(path, TINY, seed=123))
        assert again.read_bytes() == path.read_bytes()

    def test_bad_magic_rejected(self, state, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, state)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            net.load_checkpoint(path, TINY)

    def test_truncated_rejected(self, state, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, state)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            net.load_checkpoint(path, TINY)

    def test_repeated_tensor_name_rejected(self, state, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, state)
        data = path.read_bytes()
        q, k = b"online.blocks.0.attn_q.weight", b"online.blocks.0.attn_k.weight"
        assert data.count(q) == 1 and data.count(k) == 1
        path.write_bytes(data.replace(q, k))  # names attn_k twice, leaves out attn_q
        with pytest.raises(FormatError):
            net.load_checkpoint(path, TINY)

    @pytest.mark.parametrize("field", ["shape", "name"])
    def test_corrupt_first_tensor_header_rejected(self, state, tmp_path, field):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, state)
        data = bytearray(path.read_bytes())
        first = _first_tensor_header(data)
        (name_len,) = struct.unpack_from("<H", data, first)
        ndim_at = first + 2 + name_len
        assert data[first + 2:ndim_at] == b"online.patch_embed.weight"
        assert data[ndim_at] == 2
        if field == "shape":  # 2**64 - 2**33 + 1 entries: overflows an int64 product
            data[ndim_at + 1:ndim_at + 9] = struct.pack("<II", 2**32 - 1, 2**32 - 1)
        else:  # not UTF-8
            data[first + 2:ndim_at] = b"\xff" * name_len
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            net.load_checkpoint(path, TINY)

    def test_interrupted_save_keeps_previous_file(self, state, tmp_path):
        path = tmp_path / "final.ckpt"
        net.save_checkpoint(path, state)
        before = path.read_bytes()
        state.tau.data = np.asarray("not a number")  # tau is written last: fails mid-file
        with pytest.raises(ValueError):
            net.save_checkpoint(path, state)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["final.ckpt"]

    def test_config_digest_mismatch_rejected(self, state, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, state)
        other = ModelConfig(dim=8, depth=2, heads=2, input_frames=32)
        with pytest.raises(FormatError):
            net.load_checkpoint(path, other)

    def test_trainability_preserved_after_load(self, state, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, state)
        loaded = net.load_checkpoint(path, TINY)
        assert all(not t.requires_grad
                   for t in net.named_params(loaded.target).values())
        assert all(t.requires_grad
                   for t in net.named_params(loaded.online).values())

    def test_file_describes_its_model(self, ckpt_bytes, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(ckpt_bytes)
        loaded = net.load_checkpoint(path)
        assert loaded.config == TINY
        assert loaded.vocab == VOCAB and loaded.classes == CLASSES
        assert "vocab" not in " ".join(net.named_params(loaded))
        net.save_checkpoint(tmp_path / "again.ckpt", loaded)
        assert (tmp_path / "again.ckpt").read_bytes() == ckpt_bytes

    def test_stage1_file_has_empty_vocabulary(self, state, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, state)
        data = path.read_bytes()
        (config_len,) = struct.unpack_from("<I", data, 8)
        assert data[12:12 + config_len].decode("utf-8") == TINY.canonical()
        assert struct.unpack_from("<I", data, 12 + config_len) == (0,)
        assert net.load_checkpoint(path).vocab == []

    def test_stage1_file_has_empty_class_list(self, state, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, state)
        data = path.read_bytes()
        (config_len,) = struct.unpack_from("<I", data, 8)
        assert struct.unpack_from("<I", data, 16 + config_len) == (0,)  # past an empty vocabulary
        loaded = net.load_checkpoint(path)
        assert loaded.classes == [] and loaded.head is None
        assert not [name for name in net.named_params(loaded) if name.startswith("head")]

    def test_head_and_classes_round_trip(self, state, tmp_path):
        headed = _headed(state)
        path, again = tmp_path / "m.ckpt", tmp_path / "again.ckpt"
        net.save_checkpoint(path, headed)
        loaded = net.load_checkpoint(path, TINY)
        assert loaded.classes == CLASSES
        assert loaded.head.weight.shape == (N_FREQ_PATCHES * TINY.dim, len(CLASSES))
        for name, tensor in net.named_params(headed.head, "head").items():
            want = tensor.data.astype("<f4").astype(np.float64)
            assert net.named_params(loaded)[name].data.tobytes() == want.tobytes(), name
        net.save_checkpoint(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("version", [1, 2])
    def test_earlier_version_rejected(self, ckpt_bytes, tmp_path, version):
        path = tmp_path / "m.ckpt"
        path.write_bytes(ckpt_bytes[:4] + struct.pack("<I", version) + ckpt_bytes[8:])
        with pytest.raises(FormatError, match=f"unsupported checkpoint version {version}"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("config, message", [
        (b"dim = 8\ncolour = 3\n", "unknown model config keys: \\['colour'\\]"),
        (b"dim\n", "expected 'key = value'"),
        (b"dim = 7\n", "dim must be divisible by heads"),
        (b"\xff\n", "can't decode"),
    ])
    def test_malformed_config_text_rejected(self, ckpt_bytes, tmp_path, config, message):
        path = tmp_path / "m.ckpt"
        path.write_bytes(_with_header([config, b"", b""], ckpt_bytes))
        with pytest.raises(FormatError, match=message):
            net.load_checkpoint(path)

    def test_section_longer_than_file_never_sizes_a_read(self, ckpt_bytes, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "m.ckpt"
        path.write_bytes(ckpt_bytes[:8] + struct.pack("<I", 2**32 - 1) + ckpt_bytes[12:])
        sizes, read_exact = [], net._read_exact
        monkeypatch.setattr(net, "_read_exact", lambda fh, n: sizes.append(n) or read_exact(fh, n))
        with pytest.raises(FormatError, match="truncated"):
            net.load_checkpoint(path)
        assert sizes == [4, 4, 4]  # magic, version, the section's length

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncation_rejected(self, ckpt_bytes, tmp_path, data):
        path = tmp_path / "m.ckpt"
        path.write_bytes(ckpt_bytes[:data.draw(st.integers(0, len(ckpt_bytes) - 1))])
        with pytest.raises(FormatError):
            net.load_checkpoint(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_header_byte_change_rejected(self, ckpt_bytes, header_offsets, tmp_path, data):
        at = data.draw(st.sampled_from(header_offsets))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != ckpt_bytes[at]))
        path = tmp_path / "m.ckpt"
        path.write_bytes(ckpt_bytes[:at] + bytes([byte]) + ckpt_bytes[at + 1:])
        with pytest.raises(FormatError):
            net.load_checkpoint(path, TINY)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_payload_byte_change_loads(self, ckpt_bytes, tmp_path, data):
        span = data.draw(st.sampled_from(_payload_spans(ckpt_bytes)))
        at = data.draw(st.sampled_from(span))
        path = tmp_path / "m.ckpt"
        path.write_bytes(ckpt_bytes[:at] + bytes([ckpt_bytes[at] ^ 0x01]) + ckpt_bytes[at + 1:])
        assert net.load_checkpoint(path, TINY).vocab == VOCAB
