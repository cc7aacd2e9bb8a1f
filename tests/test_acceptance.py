"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

The end-to-end criteria (11, 12) train the desk-scale model on the
synthetic corpus; together with the determinism re-run they dominate
the suite's runtime (a few minutes on one CPU).
"""

import functools
import math

import numpy as np
import pytest

from miniclap import datakit as dk, evaluation as ev, losses, network as net, trainer
from miniclap.autodiff import Tensor
from miniclap.config import ModelConfig
from miniclap.evaluation import caption_from_label, retrieval_metrics, zero_shot_classify
from miniclap.frontend import Waveform, compute_logmel, pad_or_crop_to_grid, patchify, standardize, summarize_features
from miniclap.masking import sample_partition
from miniclap.trainer import AdamW, StageData, ema_decay_at, lr_at, stage1_step, stage_config_from

from conftest import assert_grads_match, param_digest
from test_eval import oracle_retrieval
from test_losses import oracle_ntxent

TINY = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, predictor_depth=1,
                   predictor_heads=2, text_vocab=11, text_depth=1, text_heads=2,
                   text_maxlen=8, emb_dim=12)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number:02d} ({name}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number:02d} ({name}): PASS")
        return wrapper
    return decorate


# -- the shared toy setup for criteria 11/12 ------------------------------------

TOY_MODEL = ModelConfig(dim=64, depth=3, heads=4, input_frames=208)
TOY_SEED = 7


@pytest.fixture(scope="module")
def toy_assets():
    waves, entries, embeddings = dk.synth_corpus(4, 50, 2.0, seed=TOY_SEED)
    grids = []
    for wave in waves:
        mel = standardize(compute_logmel(Waveform(wave)))
        grids.append(patchify(pad_or_crop_to_grid(mel, TOY_MODEL.input_frames)).patches)
    patches = np.stack(grids)
    class_ids = np.array([e.source["class_id"] for e in entries])
    held_out = np.array([int(e.id.split("-")[-1]) >= 40 for e in entries])
    return patches, class_ids, held_out, embeddings


def _toy_config(lambda_clap):
    return stage_config_from("1", dict(epochs=30, warmup_epochs=2, batch_size=32,
                                       base_lr=3e-4, lambda_clap=lambda_clap))


def _toy_train(toy_assets, lambda_clap, seed=0):
    patches, class_ids, held_out, embeddings = toy_assets
    data = StageData(patches[~held_out], 5, TOY_MODEL.n_time_patches,
                     embeddings=embeddings[class_ids[~held_out]])
    state = net.init_model_state(TOY_MODEL, seed=seed)
    state, rows = trainer.run_stage(_toy_config(lambda_clap), data, state, seed=seed)
    return state, rows


def _toy_zero_shot(state, toy_assets) -> float:
    patches, class_ids, held_out, embeddings = toy_assets
    pe = net.posenc_for(state.online, 5, TOY_MODEL.n_time_patches)
    z = net.encode_tokens(state.online, patches[held_out], pe)
    audio_semantic = net.project_audio(state.projector, z).data
    class_semantic = net.map_text_embedding(state.textpath, embeddings).data
    predictions = zero_shot_classify(audio_semantic, class_semantic)
    return float((predictions == class_ids[held_out]).mean())


@pytest.fixture(scope="module")
def toy_run(toy_assets):
    state, rows = _toy_train(toy_assets, lambda_clap=0.01)
    return state, rows, _toy_zero_shot(state, toy_assets)


@pytest.fixture(scope="module")
def toy_run_m2d_only(toy_assets):
    state, rows = _toy_train(toy_assets, lambda_clap=0.0)
    return state, rows, _toy_zero_shot(state, toy_assets)


# -- criteria --------------------------------------------------------------------


@criterion(1, "masked-prediction loss identities")
def test_criterion_01_loss_identities(rng):
    a = rng.standard_normal((6, 9))
    assert abs(losses.m2d_loss(a, a).item() - 0.0) <= 1e-6
    assert abs(losses.m2d_loss(a, -a).item() - 4.0) <= 1e-6
    x = np.zeros((4, 6))
    y = np.zeros((4, 6))
    x[:, 0] = 2.0
    y[:, 1] = 3.0
    assert abs(losses.m2d_loss(x, y).item() - 2.0) <= 1e-6


@criterion(2, "contrastive loss vs brute-force oracle")
def test_criterion_02_ntxent_oracle(rng):
    for _ in range(1000):
        b = int(rng.integers(1, 9))
        s = rng.uniform(-1.0, 1.0, size=(b, b))
        tau = float(rng.uniform(0.1, 2.0))
        got = losses.clap_loss(s, tau).item()
        assert abs(got - oracle_ntxent(s, tau)) <= 1e-9
        assert abs(got - losses.clap_loss(s.T, tau).item()) <= 1e-12
    for _ in range(10):
        s1 = rng.uniform(-1.0, 1.0, size=(1, 1))
        assert losses.clap_loss(s1, float(rng.uniform(0.02, 2.0))).item() == 0.0


@criterion(3, "gradients vs central finite differences")
def test_criterion_03_gradient_checks(rng):
    # attention + MLP + norms inside one block
    block = net.init_block(np.random.default_rng(0), 6, 2, 10)
    x = rng.standard_normal((1, 4, 6))
    r = rng.standard_normal((1, 4, 6))
    assert_grads_match(lambda: (net.block_forward(block, x) * r).sum(),
                       net.named_params(block, "block"))

    ln = net.init_layernorm(np.random.default_rng(1), 7)
    xn = rng.standard_normal((3, 7))
    rn = rng.standard_normal((3, 7))
    assert_grads_match(lambda: (net.layer_norm(ln, xn) * rn).sum(),
                       net.named_params(ln, "norm"))

    state = net.init_model_state(TINY, seed=2)
    z = rng.standard_normal((1, 3, TINY.dim))
    rp = rng.standard_normal((1, TINY.dim))
    assert_grads_match(lambda: (net.project_audio(state.projector, z) * rp).sum(),
                       net.named_params(state.projector, "projector"))

    text_params = dict(net.named_params(state.textpath.encoder, "text"))
    text_params.update(net.named_params(state.textpath.llm_map, "llm_map"))
    e = rng.standard_normal((1, TINY.emb_dim))
    fn = lambda: ((net.encode_text_batch(state.textpath, [[3, 6, 2]])
                   + net.map_text_embedding(state.textpath, e)) * rp).sum()
    assert_grads_match(fn, text_params)

    pred = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    target = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    assert_grads_match(lambda: losses.m2d_loss(pred, target),
                       {"pred": pred, "target": target})

    sim = Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
    tau = Tensor(np.asarray(0.4), requires_grad=True)
    assert_grads_match(lambda: losses.clap_loss(sim, tau), {"s": sim, "tau": tau})


@criterion(4, "masking exactness and uniformity")
def test_criterion_04_masking():
    gen = np.random.default_rng(0)
    for ratio in (0.0, 0.3, 0.7, 1.0):
        for n in range(1, 201):
            part = sample_partition(n, ratio, gen)
            assert len(part.masked_idx) == int(np.floor(ratio * n + 0.5))
            assert not set(part.visible_idx) & set(part.masked_idx)
            assert np.array_equal(
                np.sort(np.concatenate([part.visible_idx, part.masked_idx])),
                np.arange(n))
    n, draws, ratio = 20, 10_000, 0.5
    counts = np.zeros(n)
    for _ in range(draws):
        counts[sample_partition(n, ratio, gen).masked_idx] += 1
    sigma = math.sqrt(draws * ratio * (1 - ratio))
    assert (np.abs(counts - draws * ratio) <= 3 * sigma).all()


@criterion(5, "schedule endpoints and continuity")
def test_criterion_05_schedules():
    assert ema_decay_at(0, 12345, 0.99995, 0.99999) == 0.99995
    assert ema_decay_at(12345, 12345, 0.99995, 0.99999) == 0.99999
    base, warm, total = 3e-4, 10_000, 100_000
    assert abs(lr_at(warm, total, warm, base) - base) <= 1e-12 * base
    ramp_limit = lr_at(warm - 1, total, warm, base) * warm / (warm - 1)
    assert abs(ramp_limit - base) <= 1e-12 * base
    assert lr_at(0, total, warm, base) == 0.0
    assert lr_at(total, total, warm, base) <= 1e-12 * base


@criterion(6, "freeze and stop-gradient contracts")
def test_criterion_06_freeze_contracts(rng):
    # stage 2: the audio encoder stays byte-identical over 100 steps, each
    # on a freshly masked batch that the worker encodes one step ahead
    state = net.init_model_state(TINY, seed=3)
    tokens = [[3 + int(i % 7), 4, 0] for i in range(8)]
    data = StageData(rng.standard_normal((8, 10, 256)) * 0.3, 5, 2, token_rows=tokens)
    cfg = stage_config_from("2", dict(batch_size=8, base_lr=1e-3, epochs=100, warmup_epochs=0))
    digest = param_digest(state.online)
    state, rows = trainer.run_stage(cfg, data, state, seed=0)
    assert len(rows) == 100
    assert param_digest(state.online) == digest

    # stage 1: the EMA target receives no gradient
    state = net.init_model_state(TINY, seed=3)
    s1 = StageData(rng.standard_normal((4, 10, 256)) * 0.3, 5, 2,
                   embeddings=rng.standard_normal((4, TINY.emb_dim)))
    opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
    stage1_step(state, s1, stage_config_from("1", dict(batch_size=4)),
                np.random.default_rng(0), opt)
    assert all(t.grad is None for t in net.named_params(state.target).values())
    assert not any("target" in name for name in trainer.trainable_params(state, "1"))


@criterion(7, "temperature init and clipping")
def test_criterion_07_temperature():
    state = net.init_model_state(TINY, seed=0)
    assert float(state.tau.data) == 0.07
    opt = AdamW({"tau": state.tau}, lr=0.01, weight_decay=0.0)
    for _ in range(50):  # gradient of +1 drives tau toward -inf without the clip
        loss = state.tau * 1.0
        opt.zero_grad()
        loss.backward()
        opt.step()
        state.tau.data = np.asarray(losses.clip_temperature(float(state.tau.data)))
        assert float(state.tau.data) >= 0.01
        assert 1.0 / float(state.tau.data) <= 100.0


@criterion(8, "frame/clip feature shape law")
def test_criterion_08_feature_shapes(rng):
    z = rng.standard_normal((2, 5 * 38, 768))
    frames, clip = summarize_features(z, 5, 38)
    assert frames.shape == (2, 38, 5 * 768)
    assert clip.shape == (2, 3840)

    zs = rng.standard_normal((2, 5 * 4, 3))
    frames, clip = summarize_features(zs, 5, 4)
    for b in range(2):
        for t in range(4):
            want = np.concatenate([zs[b, i * 4 + t] for i in range(5)])
            np.testing.assert_array_equal(frames[b, t], want)
    np.testing.assert_allclose(clip, frames.mean(axis=1), atol=1e-12)


@criterion(9, "retrieval metrics vs exhaustive oracle")
def test_criterion_09_retrieval(rng):
    identity = retrieval_metrics(np.eye(16), np.arange(16))
    assert identity.r_at == {1: 1.0, 5: 1.0, 10: 1.0} and identity.map_at_10 == 1.0
    for trial in range(100):
        s = rng.standard_normal((32, 32))
        if trial % 4 == 0:
            s = np.round(s, 1)  # exercise tie-breaking
        gt = rng.integers(0, 32, size=32)
        got = retrieval_metrics(s, gt)
        want_r, want_map = oracle_retrieval(s, [{int(g)} for g in gt])
        assert got.r_at == want_r
        assert got.map_at_10 == want_map


@criterion(10, "zero-shot protocol and caption fixtures")
def test_criterion_10_zero_shot(rng):
    dim, n = 64, 400
    classes = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:10]
    truth = rng.integers(0, 10, size=n)
    noise = rng.standard_normal((n, dim))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    audio = classes[truth] + 0.1 * noise  # 20 dB SNR
    assert (zero_shot_classify(audio, classes) == truth).mean() == 1.0

    import json
    import os
    with open(os.path.join(os.path.dirname(__file__), "data", "caption_fixtures.json")) as fh:
        fixtures = json.load(fh)
    for row in fixtures:
        label = row.get("labels", row.get("label"))
        assert caption_from_label(row["task"], label) == row["caption"]


@criterion(11, "end-to-end toy pre-training run")
def test_criterion_11_toy_run(toy_assets, toy_run):
    state, rows, accuracy = toy_run
    epochs = np.array([int(r["epoch"]) for r in rows])
    totals = np.array([float(r["loss_total"]) for r in rows])
    first = totals[epochs == 0].mean()
    final = totals[epochs == epochs.max()].mean()
    reduction = 1.0 - final / first
    print(f"\n[acceptance] toy run: epoch-1 mean {first:.4f}, final mean {final:.4f}, "
          f"reduction {reduction * 100:.1f}%, zero-shot {accuracy:.3f}")
    assert reduction >= 0.30
    assert accuracy >= 0.90

    # deterministic under the seed: a fresh identical run reproduces the log
    _, rows_again = _toy_train(toy_assets, lambda_clap=0.01)
    assert rows_again == rows


@criterion(12, "contrastive-weight ablation lever")
def test_criterion_12_ablation(toy_run, toy_run_m2d_only):
    _, _, acc_clap = toy_run
    _, _, acc_m2d = toy_run_m2d_only
    table = ev.format_table([
        {"lambda_clap": "0.0", "zero_shot_accuracy": f"{acc_m2d:.3f}"},
        {"lambda_clap": "0.01", "zero_shot_accuracy": f"{acc_clap:.3f}"},
    ])
    print("\n[acceptance] contrastive-weight ablation:\n" + table)
    assert acc_m2d <= 0.40  # chance level without the contrastive branch
    assert acc_clap >= 0.90


@criterion(13, "binary formats round-trip byte-exactly")
def test_criterion_13_formats(rng, tmp_path):
    state = net.init_model_state(TINY, seed=1)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    net.save_checkpoint(p1, state)
    net.save_checkpoint(p2, net.load_checkpoint(p1, TINY))
    assert p1.read_bytes() == p2.read_bytes()

    empty = tmp_path / "empty.cache"
    dk.cache_write(empty, 4096, {})
    assert dk.cache_read(empty).rows == {}
    dk.cache_write(tmp_path / "empty2.cache", 4096, dk.cache_read(empty).rows)
    assert empty.read_bytes() == (tmp_path / "empty2.cache").read_bytes()

    big, big2 = tmp_path / "big.cache", tmp_path / "big2.cache"
    rows = {dk.caption_digest(f"caption {i}"): rng.standard_normal(64)
            for i in range(10_000)}
    dk.cache_write(big, 64, rows)
    cache = dk.cache_read(big)
    assert len(cache.rows) == 10_000
    dk.cache_write(big2, cache.dim, cache.rows)
    assert big.read_bytes() == big2.read_bytes()
