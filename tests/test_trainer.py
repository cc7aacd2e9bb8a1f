"""Schedules, optimizer behavior, stage-step contracts (freeze,
stop-gradient, EMA, temperature), and the stage runner."""

import ast
import copy
import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from miniclap import autodiff as ad, losses, network as net, trainer
from miniclap.autodiff import Tensor
from miniclap.config import ModelConfig
from miniclap.errors import InvalidConfig, InvalidInput
from miniclap.frontend import summarize_features
from miniclap.masking import batch_partitions
from miniclap.trainer import (AdamW, StageData, ema_decay_at, ema_update, lr_at,
                              run_stage, stage1_1_finetune, stage1_step, stage2_step,
                              stage_config_from)

from conftest import param_digest

TINY = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, predictor_depth=1,
                   predictor_heads=2, text_vocab=11, text_depth=1, text_heads=2,
                   text_maxlen=8, emb_dim=12)


def _state():
    return net.init_model_state(TINY, seed=3)


def _stage1_cfg(**kw):
    base = dict(epochs=2, warmup_epochs=1, batch_size=4, base_lr=1e-3)
    base.update(kw)
    return stage_config_from("1", base)


def _stage1_data(rng, n=12):
    return StageData(rng.standard_normal((n, 10, 256)) * 0.3, 5, 2,
                     embeddings=rng.standard_normal((n, TINY.emb_dim)))


def _stage2_data(rng, n=12):
    tokens = [[3 + int(i % 7), 4, 0] for i in range(n)]
    return StageData(rng.standard_normal((n, 10, 256)) * 0.3, 5, 2, token_rows=tokens)


def _labeled_data(rng, n=8):
    labels = np.zeros((n, 3))
    labels[np.arange(n), np.arange(n) % 3] = 1.0
    return StageData(rng.standard_normal((n, 10, 256)) * 0.3, 5, 2, labels=labels)


class TestSchedules:
    def test_ema_endpoints_exact(self):
        assert ema_decay_at(0, 1000, 0.99995, 0.99999) == 0.99995
        assert ema_decay_at(1000, 1000, 0.99995, 0.99999) == 0.99999

    def test_ema_midpoint(self):
        assert abs(ema_decay_at(500, 1000, 0.99995, 0.99999) - 0.99997) <= 1e-12

    def test_ema_monotone_nondecreasing(self):
        values = [ema_decay_at(s, 100, 0.99995, 0.99999) for s in range(101)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_ema_out_of_range(self):
        with pytest.raises(InvalidInput):
            ema_decay_at(-1, 10, 0.5, 0.9)
        with pytest.raises(InvalidInput):
            ema_decay_at(11, 10, 0.5, 0.9)
        with pytest.raises(InvalidInput):
            ema_decay_at(0, 0, 0.5, 0.9)

    def test_lr_ramp_and_endpoints(self):
        assert lr_at(0, 100, 10, 3e-4) == 0.0
        assert lr_at(10, 100, 10, 3e-4) == 3e-4
        assert lr_at(100, 100, 10, 3e-4) <= 1e-12 * 3e-4

    def test_lr_continuous_at_warmup_boundary(self):
        base = 3e-4
        just_before = lr_at(9999, 100000, 10000, base) * 10000 / 9999
        assert abs(lr_at(10000, 100000, 10000, base) - base) <= 1e-12
        assert abs(just_before - base) <= 1e-12

    def test_lr_no_warmup_starts_at_base(self):
        assert lr_at(0, 50, 0, 1e-3) == 1e-3

    def test_lr_bad_arguments(self):
        with pytest.raises(InvalidInput):
            lr_at(0, 10, 11, 1e-3)
        with pytest.raises(InvalidInput):
            lr_at(11, 10, 0, 1e-3)


class TestEmaUpdate:
    def test_alpha_one_keeps_target(self):
        state = _state()
        before = param_digest(state.target)
        state.online.patch_embed.weight.data += 1.0
        ema_update(state.target, state.online, 1.0)
        assert param_digest(state.target) == before

    def test_alpha_zero_copies_online(self):
        state = _state()
        state.online.patch_embed.weight.data += 1.0
        ema_update(state.target, state.online, 0.0)
        assert param_digest(state.target) == param_digest(state.online)

    def test_arithmetic(self):
        state = _state()
        for t in net.named_params(state.target).values():
            t.data = np.full_like(t.data, 2.0)
        for o in net.named_params(state.online).values():
            o.data = np.zeros_like(o.data)
        ema_update(state.target, state.online, 0.75)
        for t in net.named_params(state.target).values():
            np.testing.assert_allclose(t.data, 1.5)

    def test_shape_mismatch_rejected(self):
        state = _state()
        other = net.init_model_state(
            ModelConfig(dim=8, depth=2, heads=2, input_frames=32), seed=0)
        with pytest.raises(InvalidInput):
            ema_update(state.target, other.online, 0.5)

    def test_bad_alpha_rejected(self):
        state = _state()
        with pytest.raises(InvalidInput):
            ema_update(state.target, state.online, 1.5)


class TestAdamW:
    def test_minimizes_quadratic(self, rng):
        x = Tensor(rng.standard_normal(5) + 3.0, requires_grad=True)
        start = float((x.data ** 2).sum())
        opt = AdamW({"x": x}, lr=0.1, weight_decay=0.0)
        for _ in range(300):
            loss = (x * x).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        # fixed-lr Adam hovers near the optimum rather than converging exactly
        assert np.abs(x.data).max() < 0.05
        assert float((x.data ** 2).sum()) < 1e-4 * start

    def test_skips_parameters_without_gradients(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        y = Tensor(rng.standard_normal(4), requires_grad=True)
        before = y.data.copy()
        opt = AdamW({"x": x, "y": y}, lr=0.1)
        loss = (x * x).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        np.testing.assert_array_equal(y.data, before)

    def test_decay_filter(self):
        weight = Tensor(np.ones((3, 3)), requires_grad=True)
        bias = Tensor(np.ones(3), requires_grad=True)
        token = Tensor(np.ones((1, 1, 3)), requires_grad=True)
        assert AdamW._decays("block.mlp_in.weight", weight)
        assert not AdamW._decays("block.mlp_in.bias", bias)
        assert not AdamW._decays("predictor.mask_token", token)
        assert not AdamW._decays("text.pos_embed", Tensor(np.ones((4, 3)), requires_grad=True))


# the keys each stage reads, and the union of every stage key
READS = {
    "1": {"mask_ratio", "epochs", "warmup_epochs", "batch_size", "base_lr",
          "lambda_m2d", "lambda_clap", "ema_start", "ema_end"},
    "1.1": {"epochs", "batch_size", "base_lr", "freeze_audio_encoder"},
    "2": {"mask_ratio", "epochs", "warmup_epochs", "batch_size", "base_lr"},
    "2.1": {"epochs", "warmup_epochs", "batch_size", "base_lr"},
}
ALL_KEYS = ("mask_ratio", "epochs", "warmup_epochs", "batch_size", "base_lr", "lambda_m2d",
            "lambda_clap", "freeze_audio_encoder", "ema_start", "ema_end")
UNREAD = [(stage, key) for stage in READS for key in ALL_KEYS if key not in READS[stage]]


class TestStageConfig:
    def test_stage1_defaults_match_contract(self):
        cfg = stage_config_from("1", {})
        assert (cfg.mask_ratio, cfg.epochs, cfg.warmup_epochs) == (0.7, 300, 20)
        assert (cfg.batch_size, cfg.base_lr) == (2048, 3e-4)
        assert (cfg.weights.lambda_m2d, cfg.weights.lambda_clap) == (1.0, 0.01)
        assert (cfg.ema_start, cfg.ema_end) == (0.99995, 0.99999)

    def test_stage2_defaults_match_contract(self):
        cfg = stage_config_from("2", {})
        assert (cfg.mask_ratio, cfg.epochs, cfg.warmup_epochs) == (0.3, 30, 5)
        assert (cfg.batch_size, cfg.base_lr) == (2048, 3e-6)

    def test_stage21_has_no_masking(self):
        assert stage_config_from("2.1", {}).mask_ratio == 0.0
        with pytest.raises(InvalidConfig, match="stage 2.1 does not read mask_ratio"):
            stage_config_from("2.1", dict(mask_ratio=0.3))

    def test_settable_values(self):
        assert {stage: set(s.defaults) for stage, s in trainer.STAGES.items()} == READS
        assert sum(len(keys) for keys in READS.values()) == 22 and len(UNREAD) == 18

    @pytest.mark.parametrize("stage, key", UNREAD)
    def test_unread_key_rejected(self, stage, key):
        value = trainer.STAGES["1"].defaults.get(key, False)
        with pytest.raises(InvalidConfig, match=f"stage {stage} does not read {key}"):
            stage_config_from(stage, {key: value})

    def test_unfrozen_stage2_rejected(self):
        for stage in ("2", "2.1"):
            with pytest.raises(InvalidConfig, match="does not read freeze_audio_encoder"):
                stage_config_from(stage, dict(freeze_audio_encoder=False))

    def test_frozen_stage1_rejected(self):
        with pytest.raises(InvalidConfig, match="does not read freeze_audio_encoder"):
            stage_config_from("1", dict(freeze_audio_encoder=True))

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            stage_config_from("1", dict(leaning_rate=1.0))

    def test_unknown_stage_rejected(self):
        with pytest.raises(InvalidConfig, match="unknown stage id"):
            stage_config_from("3", {})
        with pytest.raises(InvalidConfig, match="unknown stage id"):
            trainer.trainable_params(_state(), "3")

    @pytest.mark.parametrize("stage", sorted(READS))
    @pytest.mark.parametrize("bad", [dict(epochs=-2), dict(batch_size=0)])
    def test_every_stage_validated_when_built(self, stage, bad):
        with pytest.raises(InvalidConfig, match=f"stage {stage}: "):
            stage_config_from(stage, bad)

    def test_value_types(self):
        # an int passes as a float and is stored as one; a bool is only a bool
        cfg = stage_config_from("1", dict(base_lr=1, lambda_clap=0))
        assert type(cfg.base_lr) is float and type(cfg.weights.lambda_clap) is float
        assert stage_config_from("1.1", dict(freeze_audio_encoder=True)).freeze_audio_encoder
        for stage, bad in [("1.1", dict(freeze_audio_encoder=1)), ("1.1", dict(epochs=True)),
                           ("2", dict(base_lr="3e-6")), ("1", dict(ema_start=None)),
                           ("1", dict(ema_end=None))]:
            with pytest.raises(InvalidConfig, match=f"{next(iter(bad))} must be"):
                stage_config_from(stage, bad)
        assert type(ModelConfig(mlp_ratio=4).mlp_ratio) is float
        with pytest.raises(InvalidConfig, match="model.text_vocab must be an integer"):
            ModelConfig(text_vocab=False)

    def test_trained_groups(self):
        state = _state()
        groups = {stage: {name.split(".")[0] for name in trainer.trainable_params(state, stage)}
                  for stage in READS}
        assert groups["1"] == {"online", "predictor", "projector", "textpath", "tau"}
        assert groups["1.1"] == {"online"}
        assert groups["2"] == groups["2.1"] == {"projector", "textpath", "tau"}
        assert not any(name.startswith("textpath.llm_map")
                       for name in trainer.trainable_params(state, "2"))
        assert not any(name.startswith("textpath.encoder")
                       for name in trainer.trainable_params(state, "1"))


class TestStage1Step:
    def test_total_is_weighted_sum_of_parts(self, rng):
        state = _state()
        data = _stage1_data(rng)
        cfg = _stage1_cfg()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        stats = stage1_step(state, data.take(np.arange(4)), cfg,
                            np.random.default_rng(0), opt)
        want = (cfg.weights.lambda_m2d * stats["loss_m2d"]
                + cfg.weights.lambda_clap * stats["loss_clap"])
        assert abs(stats["loss_total"] - want) <= 1e-7

    def test_ema_definition_holds_elementwise(self, rng):
        state = _state()
        data = _stage1_data(rng)
        cfg = _stage1_cfg()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        old_target = {k: v.data.copy() for k, v in net.named_params(state.target).items()}
        alpha = 0.875
        stage1_step(state, data.take(np.arange(4)), cfg,
                    np.random.default_rng(0), opt, ema_alpha=alpha)
        online = net.named_params(state.online)
        for name, tensor in net.named_params(state.target).items():
            want = alpha * old_target[name] + (1 - alpha) * online[name].data
            np.testing.assert_allclose(tensor.data, want, atol=1e-12)

    def test_target_receives_no_gradient(self, rng):
        state = _state()
        data = _stage1_data(rng)
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        stage1_step(state, data.take(np.arange(4)), _stage1_cfg(),
                    np.random.default_rng(0), opt)
        for tensor in net.named_params(state.target).values():
            assert tensor.grad is None

    def test_zero_clap_weight_decouples_clap_branch(self, rng):
        data = _stage1_data(rng)
        cfg = _stage1_cfg(lambda_clap=0.0)

        state_a = net.init_model_state(TINY, seed=3)
        state_b = net.init_model_state(TINY, seed=3)
        # perturb only the CLAP branch of the second model
        for tensor in net.named_params(state_b.projector).values():
            tensor.data = tensor.data + 0.5
        state_b.textpath.llm_map.weight.data += 1.0

        for state in (state_a, state_b):
            opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
            stats = stage1_step(state, data.take(np.arange(4)), cfg,
                                np.random.default_rng(0), opt)
            assert stats["loss_clap"] == 0.0
            assert stats["loss_total"] == stats["loss_m2d"]
        assert param_digest(state_a.online) == param_digest(state_b.online)
        assert param_digest(state_a.predictor) == param_digest(state_b.predictor)

    def test_zero_clap_weight_leaves_clap_branch_untouched(self, rng):
        state = _state()
        data = _stage1_data(rng)
        before_proj = param_digest(state.projector)
        before_tau = float(state.tau.data)
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        stage1_step(state, data.take(np.arange(4)), _stage1_cfg(lambda_clap=0.0),
                    np.random.default_rng(0), opt)
        assert param_digest(state.projector) == before_proj
        assert float(state.tau.data) == before_tau

    def test_temperature_stays_clipped(self, rng):
        state = _state()
        state.tau.data = np.asarray(0.0102)
        data = _stage1_data(rng)
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-2)
        for step in range(5):
            stage1_step(state, data.take(np.arange(4)),
                        _stage1_cfg(), np.random.default_rng(step), opt)
            assert float(state.tau.data) >= 0.01

    def test_non_finite_loss_stops_before_update(self, rng):
        state = _state()
        data = _stage1_data(rng).take(np.arange(4))
        data.patches[1] = np.nan
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        digest = param_digest(state)
        with pytest.raises(InvalidInput, match="non-finite loss_m2d"):
            stage1_step(state, data, _stage1_cfg(), np.random.default_rng(0), opt)
        assert param_digest(state) == digest
        assert opt.step_count == 0

    def test_wrong_stage_rejected(self, rng):
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        with pytest.raises(InvalidInput):
            stage1_step(state, _stage1_data(rng), stage_config_from("2", {}),
                        np.random.default_rng(0), opt)


def _serial_stage1_step(state, data, cfg, rng, opt, lr, ema_alpha):
    """Stage 1 as one thread runs it: the online forward, then the target
    branch, then the loss, update and EMA."""
    b, n, _ = data.patches.shape
    pe = net.posenc_for(state.online, data.n_f, data.n_t)
    vis, msk = batch_partitions(n, cfg.mask_ratio, b, rng)
    z_v = net.encode_selected(state.online, data.patches, vis, pe)
    predicted = net.predict_masked(state.predictor, z_v, pe, vis, msk)
    target = net.standardize_targets(net.encode_selected(state.target, data.patches, msk, pe))
    loss_m2d = losses.m2d_loss(predicted, target)
    s_a = net.project_audio(state.projector, z_v)
    s_t = net.map_text_embedding(state.textpath, data.embeddings)
    loss_clap = losses.clap_loss(losses.similarity_matrix(s_a, s_t), state.tau)
    total = losses.combined_loss(loss_m2d, loss_clap, cfg.weights)
    opt.zero_grad()
    total.backward()
    opt.step(lr)
    state.tau.data = np.asarray(losses.clip_temperature(float(state.tau.data)))
    ema_update(state.target, state.online, ema_alpha)
    return {"loss_total": total.item(), "loss_m2d": loss_m2d.item(),
            "loss_clap": loss_clap.item()}


class TargetFailed(Exception):
    pass


def _fail_for_target(monkeypatch, error, before=lambda: None):
    """Make `encode_selected` raise `error` for the EMA target, after
    calling `before`; the online encoder runs as usual."""
    encode = net.encode_selected

    def encode_selected(params, patches, idx, pe):
        if not params.patch_embed.weight.requires_grad:
            before()
            raise error
        return encode(params, patches, idx, pe)

    monkeypatch.setattr(net, "encode_selected", encode_selected)


class TestTargetOverlap:
    """Stage 1 runs its EMA-target branch on a worker thread while the
    online forward runs; the results are those of one thread."""

    def test_overlapped_steps_match_serial_oracle(self, rng):
        data = _stage1_data(rng, n=8)
        cfg = _stage1_cfg()
        runs = []
        for step_fn in (stage1_step, _serial_stage1_step):
            state = _state()
            opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
            gen = np.random.default_rng(7)
            stats = [step_fn(state, data.take(np.arange(4 * (i % 2), 4 * (i % 2) + 4)), cfg,
                             gen, opt, lr=1e-3 * (i + 1), ema_alpha=0.9 + 0.01 * i)
                     for i in range(3)]
            moments = [(name, m.tobytes(), opt._v[name].tobytes()) for name, m in opt._m.items()]
            runs.append((stats, param_digest(state.online), param_digest(state.target),
                         param_digest(state), moments))
        assert runs[0] == runs[1]

    def test_target_error_propagates_before_any_update(self, rng, monkeypatch):
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        digest = param_digest(state)
        error = TargetFailed("target branch failed")
        _fail_for_target(monkeypatch, error)
        with pytest.raises(TargetFailed) as caught:
            stage1_step(state, _stage1_data(rng, n=4), _stage1_cfg(),
                        np.random.default_rng(0), opt)
        assert caught.value is error
        assert param_digest(state) == digest
        assert opt.step_count == 0

    def test_online_error_waits_for_target_branch(self, rng, monkeypatch):
        finished = []
        _fail_for_target(monkeypatch, TargetFailed("target"),
                         before=lambda: (time.sleep(0.2), finished.append(True)))

        def failing_predict(*args):
            raise InvalidInput("online branch failed")

        monkeypatch.setattr(net, "predict_masked", failing_predict)
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        with pytest.raises(InvalidInput, match="online branch failed"):
            stage1_step(state, _stage1_data(rng, n=4), _stage1_cfg(),
                        np.random.default_rng(0), opt)
        assert finished == [True]  # the worker was done when the error left the step
        assert opt.step_count == 0


class TestSplitBackward:
    """Stage 1's backward hands weight gradients and GELU slopes to the
    worker; everything it produces is byte-identical to the inline path."""

    @staticmethod
    def _run(data, cfg):
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        gen = np.random.default_rng(11)
        record = []
        for i in range(3):
            stats = stage1_step(state, data.take(np.arange(4 * (i % 2), 4 * (i % 2) + 4)), cfg,
                                gen, opt, lr=1e-3 * (i + 1), ema_alpha=0.9 + 0.01 * i)
            record.append((stats, param_digest(state),
                           [(name, p.grad.tobytes()) for name, p in opt.params.items()]))
        moments = [(name, m.tobytes(), opt._v[name].tobytes()) for name, m in opt._m.items()]
        return record, moments

    def test_pooled_steps_match_inline_path(self, rng, monkeypatch):
        data = _stage1_data(rng, n=8)
        cfg = _stage1_cfg()
        pooled = self._run(data, cfg)
        backward = Tensor.backward
        monkeypatch.setattr(Tensor, "backward", lambda self, pool=None: backward(self))
        inline = self._run(data, cfg)
        assert pooled == inline


# Counts the threads alive after a short clip's log-mel, each of stages
# 1.1 (encoder trained, then frozen), 2.1 and 2, a long clip's log-mel,
# a three-window extraction and a stage-1 run.
THREAD_COUNT_RUN = """
import threading
import numpy as np
from miniclap import evaluation as ev, frontend as fe, network as net, trainer
from miniclap.config import ModelConfig
from miniclap.frontend import MelSpectrogram

cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, predictor_depth=1,
                  predictor_heads=2, text_vocab=11, text_depth=1, text_heads=2,
                  text_maxlen=8, emb_dim=12)
rng = np.random.default_rng(0)
patches = rng.standard_normal((6, 10, 256))
counts = [threading.active_count()]
fe.compute_logmel(fe.Waveform(rng.standard_normal((2 * fe.MIN_PART_FRAMES - 1) * 160)))
counts.append(threading.active_count())
labels = np.eye(3)[np.arange(6) % 3]
for frozen in (False, True):
    trainer.stage1_1_finetune(
        net.init_model_state(cfg, 0), trainer.StageData(patches, 5, 2, labels=labels),
        trainer.stage_config_from("1.1", dict(epochs=1, batch_size=4,
                                              freeze_audio_encoder=frozen)))
    counts.append(threading.active_count())
text = trainer.StageData(patches, 5, 2, token_rows=[[3 + i % 5, 4] for i in range(6)])
for stage in ("2.1", "2"):
    trainer.run_stage(trainer.stage_config_from(stage, dict(epochs=1, warmup_epochs=0,
                                                            batch_size=4)),
                      text, net.init_model_state(cfg, 0))
    counts.append(threading.active_count())
fe.compute_logmel(fe.Waveform(rng.standard_normal(2 * fe.MIN_PART_FRAMES * 160)))
counts.append(threading.active_count())
ev.clip_features(net.init_model_state(cfg, 0), [MelSpectrogram(rng.standard_normal((80, 70)))])
counts.append(threading.active_count())
trainer.run_stage(trainer.stage_config_from("1", dict(epochs=2, warmup_epochs=0, batch_size=4)),
                  trainer.StageData(patches, 5, 2, embeddings=rng.standard_normal((6, 12))),
                  net.init_model_state(cfg, 0))
counts.append(threading.active_count())
print(counts)
"""


def test_stage1_and_extraction_share_one_thread():
    src = os.path.dirname(os.path.dirname(trainer.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", THREAD_COUNT_RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    # a short clip's log-mel and a stage 1.1 that trains the encoder start
    # none; a frozen stage 1.1 starts the one shared worker for its encode,
    # and stages 2.1 and 2, a long clip's log-mel, extraction and stage 1
    # reuse it
    assert counts == [counts[0]] * 3 + [counts[0] + 1] * 6, counts


def _encoded(state, data, cfg, rng):
    """`data` as `run_stage` hands it to a stage-2 step: its partition
    drawn from `rng`, its visible patches encoded, no patches left."""
    b, n = data.n_samples, data.n_f * data.n_t
    vis, _ = batch_partitions(n, cfg.mask_ratio, b, rng)
    pe = net.posenc_for(state.online, data.n_f, data.n_t)
    features = net.encode_frozen(state.online, data.patches, pe, np.arange(b), vis)
    return dataclasses.replace(data, patches=None, features=features)


class TestStage2Step:
    def test_encoder_digest_unchanged_after_100_steps(self, rng):
        state = _state()
        data = _stage2_data(rng, n=8)
        cfg = stage_config_from("2", dict(batch_size=8, base_lr=1e-3, epochs=1))
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        digest = param_digest(state.online)
        gen = np.random.default_rng(0)
        for _ in range(100):
            stage2_step(state, _encoded(state, data, cfg, gen), cfg, opt)
        assert param_digest(state.online) == digest

    def test_projector_and_text_encoder_do_update(self, rng):
        state = _state()
        cfg = stage_config_from("2", dict(batch_size=8, base_lr=1e-3, epochs=1))
        data = _encoded(state, _stage2_data(rng, n=8), cfg, np.random.default_rng(0))
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        proj = param_digest(state.projector)
        text = param_digest(state.textpath.encoder)
        stage2_step(state, data, cfg, opt)
        assert param_digest(state.projector) != proj
        assert param_digest(state.textpath.encoder) != text

    def test_loss_matches_external_recomputation(self, rng):
        state = _state()
        data = _stage2_data(rng, n=2)
        # stage 2.1: no masking, so the forward is partition-independent
        cfg = stage_config_from("2.1", dict(batch_size=2, base_lr=1e-3, epochs=1))
        frozen = copy.deepcopy(state)
        opt = AdamW(trainer.trainable_params(state, "2.1"), lr=1e-3)
        stats = stage2_step(state, _encoded(state, data, cfg, np.random.default_rng(0)), cfg, opt)

        pe = net.posenc_for(frozen.online, data.n_f, data.n_t)
        z = net.encode_tokens(frozen.online, data.patches, pe)
        s_a = net.project_audio(frozen.projector, z)
        s_t = net.encode_text_batch(frozen.textpath, data.token_rows)
        want = losses.clap_loss(losses.similarity_matrix(s_a, s_t), frozen.tau).item()
        assert abs(stats["loss_clap"] - want) <= 1e-7

    def test_non_finite_loss_stops_before_update(self, rng):
        state = _state()
        data = _stage2_data(rng, n=4)
        data.patches[2] = np.nan
        cfg = stage_config_from("2", dict(batch_size=4, base_lr=1e-3, epochs=1))
        data = _encoded(state, data, cfg, np.random.default_rng(0))
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        digest = param_digest(state)
        with pytest.raises(InvalidInput, match="non-finite loss_clap"):
            stage2_step(state, data, cfg, opt)
        assert param_digest(state) == digest
        assert opt.step_count == 0

    def test_unfrozen_encoder_rejected(self):
        # no stage-2 config can unfreeze the encoder, and its optimizer never holds it
        with pytest.raises(InvalidConfig):
            stage_config_from("2", dict(freeze_audio_encoder=False))
        for stage in ("2", "2.1"):
            assert not any(name.startswith("online")
                           for name in trainer.trainable_params(_state(), stage))

    def test_wrong_stage_rejected(self, rng):
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        with pytest.raises(InvalidInput):
            stage2_step(state, _stage2_data(rng), stage_config_from("1", {}), opt)

    def test_batch_without_features_rejected(self, rng):
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        with pytest.raises(InvalidInput, match="encoded audio features"):
            stage2_step(state, _stage2_data(rng, n=4),
                        stage_config_from("2", dict(batch_size=4, epochs=1)), opt)
        assert opt.step_count == 0

    def test_precomputed_features_rejected_when_masking(self, rng):
        state = _state()
        data = _stage2_data(rng, n=4)
        data.features = net.encode_frozen(state.online, data.patches,
                                          net.posenc_for(state.online, data.n_f, data.n_t))
        cfg = stage_config_from("2", dict(batch_size=4, epochs=1))
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        with pytest.raises(InvalidInput, match="keeps 7 of 10 patches per clip; the features have 10"):
            stage2_step(state, data, cfg, opt)
        assert opt.step_count == 0


def _instrument_encoder(monkeypatch, slow_at=None, fail_at=None, error=None):
    """Count the encoder calls started and finished, by name and through
    `encode_selected` alike, and record each one's tokens; call `slow_at`
    sleeps 0.2 s first, and call `fail_at` raises `error`."""
    calls = {"started": 0, "finished": 0, "tokens": []}
    encode = net.encode_tokens

    def encode_tokens(params, patches, pe):
        call = calls["started"]
        calls["started"] += 1
        try:
            if call == slow_at:
                time.sleep(0.2)
            if call == fail_at:
                raise error
            calls["tokens"].append(patches.shape[0] * patches.shape[1])
            return encode(params, patches, pe)
        finally:
            calls["finished"] += 1

    monkeypatch.setattr(net, "encode_tokens", encode_tokens)
    monkeypatch.setattr(trainer, "encode_tokens", encode_tokens)
    return calls


def _oracle_run_stage2(cfg, data, state, seed):
    """Stage 2/2.1 as `run_stage` ran it when every step drew its own
    partition and encoded its batch inline: same draws, same updates,
    same log rows."""
    rng = np.random.default_rng(seed)
    steps_per_epoch = -(-data.n_samples // cfg.batch_size)
    total, warmup = cfg.epochs * steps_per_epoch, cfg.warmup_epochs * steps_per_epoch
    opt = AdamW(trainer.trainable_params(state, cfg.stage_id), lr=cfg.base_lr)
    pe = net.posenc_for(state.online, data.n_f, data.n_t)
    rows, step = [], 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(data.n_samples)
        for start in range(0, data.n_samples, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            lr = lr_at(step, total, warmup, cfg.base_lr)
            vis, _ = batch_partitions(data.patches.shape[1], cfg.mask_ratio, len(idx), rng)
            with ad.no_grad():
                z = net.encode_selected(state.online, data.patches[idx], vis, pe)
            s_a = net.project_audio(state.projector, z)
            s_t = net.encode_text_batch(state.textpath, [data.token_rows[i] for i in idx])
            loss = losses.clap_loss(losses.similarity_matrix(s_a, s_t), state.tau)
            opt.zero_grad()
            loss.backward()
            opt.step(lr)
            state.tau.data = np.asarray(losses.clip_temperature(float(state.tau.data)))
            rows.append({"epoch": epoch, "step": step, "loss_total": f"{loss.item():.8f}",
                         "loss_m2d": "", "loss_clap": f"{loss.item():.8f}",
                         "lr": f"{lr:.10g}", "ema": ""})
            step += 1
    return rows


def _assert_matches_oracle(cfg, data, tmp_path):
    """`run_stage` writes the oracle's loss log and ends in its state, byte for byte."""
    state, _ = run_stage(cfg, data, _state(), seed=5, out_dir=str(tmp_path))
    assert data.features is None  # the caller's data is left as it was
    oracle_state = _state()
    oracle = tmp_path / "oracle.csv"
    trainer.write_loss_log(oracle, _oracle_run_stage2(cfg, data, oracle_state, 5), header=True)
    assert (tmp_path / "losses.csv").read_bytes() == oracle.read_bytes()
    assert param_digest(state) == param_digest(oracle_state)


class TestEncodeOnce:
    """A frozen, unmasked grid is encoded once per run, and training on
    those features matches encoding every batch byte for byte."""

    UNMASKED = [("2.1", {}), ("2", dict(mask_ratio=0.0))]

    @pytest.mark.parametrize("stage, extra", UNMASKED)
    def test_unmasked_stage_matches_per_batch_encode(self, rng, tmp_path, stage, extra):
        _assert_matches_oracle(stage_config_from(stage, dict(epochs=3, warmup_epochs=1,
                                                             batch_size=4, base_lr=1e-3,
                                                             **extra)),
                               _stage2_data(rng, n=10), tmp_path)

    @pytest.mark.parametrize("stage, extra", UNMASKED)
    @pytest.mark.parametrize("epochs", [2, 3])
    def test_unmasked_stage_encodes_each_clip_once(self, rng, monkeypatch, stage, extra,
                                                   epochs):
        data = _stage2_data(rng, n=10)
        tokens = _instrument_encoder(monkeypatch)["tokens"]
        cfg = stage_config_from(stage, dict(epochs=epochs, warmup_epochs=0, batch_size=4,
                                            base_lr=1e-3, **extra))
        _, rows = run_stage(cfg, data, _state(), seed=0)
        assert len(rows) == 3 * epochs
        assert sum(tokens) == data.n_samples * data.patches.shape[1]

    @pytest.mark.parametrize("stage, extra", UNMASKED)
    def test_unmasked_batches_carry_no_patches(self, rng, monkeypatch, stage, extra):
        batches = []
        step = trainer.stage2_step

        def recording_step(state, batch, *args, **kwargs):
            batches.append(batch)
            return step(state, batch, *args, **kwargs)

        monkeypatch.setattr(trainer, "stage2_step", recording_step)
        data = _stage2_data(rng, n=10)
        cfg = stage_config_from(stage, dict(epochs=2, warmup_epochs=0, batch_size=4, **extra))
        run_stage(cfg, data, _state(), seed=0)
        assert [len(b.features) for b in batches] == [4, 4, 2] * 2
        assert all(b.patches is None for b in batches)  # the step reads only features

    def test_masked_stage2_encodes_every_step(self, rng, monkeypatch):
        data = _stage2_data(rng, n=10)
        tokens = _instrument_encoder(monkeypatch)["tokens"]
        cfg = stage_config_from("2", dict(epochs=2, warmup_epochs=0, batch_size=4, base_lr=1e-3))
        run_stage(cfg, data, _state(), seed=0)
        # every step encodes its rows' 7 visible patches of 10
        assert sum(tokens) == 2 * (4 + 4 + 2) * 7

    def test_frozen_features_calls_stay_within_budget(self, rng, monkeypatch):
        data = _stage2_data(rng, n=11)
        state = _state()
        pe = net.posenc_for(state.online, data.n_f, data.n_t)
        with ad.no_grad():
            want = [net.encode_tokens(state.online, data.patches[start:start + 4], pe).data
                    for start in range(0, 11, 4)]
        monkeypatch.setattr(net, "FROZEN_TOKENS", 30)
        tokens = _instrument_encoder(monkeypatch)["tokens"]
        got = net.encode_frozen(state.online, data.patches, pe)
        assert tokens == [20, 30, 30, 30]  # 11 clips of 10 patches: 2, 3, 3 and 3 a call
        assert got.tobytes() == np.concatenate(want).tobytes()
        tokens.clear()
        # as stage 2.1 calls it: 6 clips on this thread in calls of 3 and 3,
        # 5 on the worker in calls of 2 and 3
        got = net.encode_frozen(state.online, data.patches, pe, pool=net.worker())
        assert sorted(tokens) == [20, 30, 30, 30]
        assert got.tobytes() == np.concatenate(want).tobytes()
        tokens.clear()
        monkeypatch.setattr(net, "FROZEN_TOKENS", 10)  # one clip a call,
        net.encode_frozen(state.online, data.patches, pe)
        assert tokens == [20, 20, 20, 20, 30]  # except where a lone clip has under 16 rows

    def test_frozen_stage1_1_matches_per_batch_encode(self, rng):
        data = _labeled_data(rng)
        cfg = stage_config_from("1.1", dict(epochs=3, batch_size=3, base_lr=1e-2,
                                            freeze_audio_encoder=True))
        state = _state()
        result = stage1_1_finetune(state, data, cfg, seed=4)

        rng_oracle = np.random.default_rng(4)
        head = net.init_affine(rng_oracle, data.n_f * TINY.dim, data.labels.shape[1])
        opt = AdamW(net.named_params(head, "head"), lr=cfg.base_lr)
        pe = net.posenc_for(state.online, data.n_f, data.n_t)
        want = []
        for _ in range(cfg.epochs):
            order = rng_oracle.permutation(data.n_samples)
            for start in range(0, data.n_samples, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                with ad.no_grad():
                    z = net.encode_tokens(state.online, data.patches[idx], pe)
                _, clip = summarize_features(z, data.n_f, data.n_t)
                loss = trainer.bce_with_logits(net.affine(head, clip), data.labels[idx])
                opt.zero_grad()
                loss.backward()
                opt.step()
                want.append(loss.item())
        assert result.losses == want
        assert param_digest(result.head) == param_digest(head)

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_frozen_stage1_1_encodes_each_clip_once(self, rng, monkeypatch, epochs):
        data = _labeled_data(rng)
        tokens = _instrument_encoder(monkeypatch)["tokens"]
        cfg = stage_config_from("1.1", dict(epochs=epochs, batch_size=3,
                                            freeze_audio_encoder=True))
        result = stage1_1_finetune(_state(), data, cfg, seed=0)
        assert len(result.losses) == 3 * epochs
        assert sum(tokens) == data.n_samples * data.patches.shape[1]


def _count_updates(monkeypatch) -> list:
    updates = []
    step = AdamW.step

    def counting_step(self, lr=None):
        step(self, lr)
        updates.append(lr)

    monkeypatch.setattr(AdamW, "step", counting_step)
    return updates


class EncodeFailed(Exception):
    pass


class TestMaskedPrefetch:
    """A masked stage 2 encodes the next batch's visible patches on the
    worker while the step trains the text side; the results are those of
    encoding every batch inline."""

    # 10 clips in batches of 4: 3 steps an epoch, the last one partial;
    # each batch's 7 visible patches a clip go through one encoder call
    CFG = dict(epochs=3, warmup_epochs=1, batch_size=4, base_lr=1e-3)

    def test_matches_inline_oracle(self, rng, tmp_path):
        _assert_matches_oracle(stage_config_from("2", self.CFG), _stage2_data(rng, n=10),
                               tmp_path)

    @pytest.mark.parametrize("k", [0, 3, 8])
    def test_encode_error_reaches_caller_before_its_step_updates(self, rng, monkeypatch, k):
        error = EncodeFailed("encode failed")
        calls = _instrument_encoder(monkeypatch, slow_at=k + 1, fail_at=k, error=error)
        updates = _count_updates(monkeypatch)
        with pytest.raises(EncodeFailed) as caught:
            run_stage(stage_config_from("2", self.CFG), _stage2_data(rng, n=10), _state())
        assert caught.value is error
        assert len(updates) == k
        # batch k+1's encode was queued before step k, and the worker is idle
        assert calls["started"] == min(k + 2, 9)
        assert calls["finished"] == calls["started"]

    @pytest.mark.parametrize("k", [2, 5])
    def test_non_finite_loss_waits_for_the_next_encode(self, rng, monkeypatch, k):
        calls = _instrument_encoder(monkeypatch, slow_at=k + 1)
        updates = _count_updates(monkeypatch)
        clap = trainer.clap_loss
        seen = []

        def clap_loss(sim, tau):
            seen.append(True)
            loss = clap(sim, tau)
            return loss * np.nan if len(seen) == k + 1 else loss

        monkeypatch.setattr(trainer, "clap_loss", clap_loss)
        with pytest.raises(InvalidInput, match="non-finite loss_clap"):
            run_stage(stage_config_from("2", self.CFG), _stage2_data(rng, n=10), _state())
        assert len(updates) == k
        assert calls["started"] == calls["finished"] == k + 2

    @pytest.mark.parametrize("visible", [None, 3])
    def test_chunks_match_one_whole_batch_encode(self, rng, monkeypatch, visible):
        state = _state()
        patches = rng.standard_normal((20, 10, 256))
        b = 11 if visible is None else 15
        clips = rng.permutation(20)[:b]
        table = state.online.posenc.table
        if visible is None:
            vis, rows, pe = None, patches[clips], table
        else:
            vis = np.stack([np.sort(rng.permutation(10)[:visible]) for _ in range(b)])
            rows, pe = patches[clips[:, None], vis], table[vis]
        with ad.no_grad():
            want = net.encode_tokens(state.online, rows, pe).data
        monkeypatch.setattr(net, "FROZEN_TOKENS", 30)
        calls = _instrument_encoder(monkeypatch)
        got = net.encode_frozen(state.online, patches, table, clips, vis)
        # 11 x 10 rows in calls of 2, 3, 3 and 3 clips; 15 x 3 rows in calls
        # of 7 and 8 clips, so that no call has fewer than 16 rows
        assert calls["tokens"] == ([20, 30, 30, 30] if visible is None else [21, 24])
        assert got.tobytes() == want.tobytes()


class TestStage11Finetune:
    def test_one_batch_overfit(self, rng):
        state = _state()
        data = _labeled_data(rng)
        cfg = stage_config_from("1.1", dict(epochs=50, batch_size=8, base_lr=1e-2))
        result = stage1_1_finetune(state, data, cfg, seed=0)
        assert len(result.losses) == 50
        assert result.losses[-1] < 0.05

    def test_zero_epochs_leaves_state_unchanged(self, rng):
        state = _state()
        digest = param_digest(state)
        cfg = stage_config_from("1.1", dict(epochs=0))
        result = stage1_1_finetune(state, _labeled_data(rng), cfg, seed=0)
        assert result.losses == []
        assert param_digest(state) == digest

    def test_head_only_mode_freezes_encoder(self, rng):
        state = _state()
        digest = param_digest(state.online)
        cfg = stage_config_from("1.1", dict(epochs=5, batch_size=8,
                                            freeze_audio_encoder=True))
        stage1_1_finetune(state, _labeled_data(rng), cfg, seed=0)
        assert param_digest(state.online) == digest

    def test_full_mode_updates_encoder(self, rng):
        state = _state()
        digest = param_digest(state.online)
        cfg = stage_config_from("1.1", dict(epochs=2, batch_size=8))
        stage1_1_finetune(state, _labeled_data(rng), cfg, seed=0)
        assert param_digest(state.online) != digest

    def test_empty_dataset_rejected(self, rng):
        state = _state()
        with pytest.raises(InvalidInput):
            stage1_1_finetune(state, StageData(np.zeros((0, 10, 256)), 5, 2,
                                               labels=np.zeros((0, 3))),
                              stage_config_from("1.1", {}), seed=0)

    def test_non_finite_loss_stops_before_update(self, rng):
        state = _state()
        data = _labeled_data(rng)
        data.patches[3] = np.nan
        digest = param_digest(state)
        head = net.init_affine(np.random.default_rng(0), data.n_f * TINY.dim, 3)
        head_digest = param_digest(head)
        cfg = stage_config_from("1.1", dict(epochs=1, batch_size=8))
        with pytest.raises(InvalidInput, match="non-finite loss_bce"):
            stage1_1_finetune(state, data, cfg, seed=0, head=head)
        assert param_digest(state) == digest
        assert param_digest(head) == head_digest


class TestRunStage:
    def test_zero_epochs_no_log_no_change(self, rng):
        state = _state()
        digest = param_digest(state)
        cfg = _stage1_cfg(epochs=0)
        state, rows = run_stage(cfg, _stage1_data(rng), state, seed=0)
        assert rows == []
        assert param_digest(state) == digest

    def test_fixed_seed_reproduces_loss_log(self, rng):
        data = _stage1_data(rng)
        logs = []
        for _ in range(2):
            state = net.init_model_state(TINY, seed=3)
            _, rows = run_stage(_stage1_cfg(), data, state, seed=11)
            logs.append(rows)
        assert logs[0] == logs[1]

    def test_loss_log_columns_and_checkpoints(self, rng, tmp_path):
        state = _state()
        _, rows = run_stage(_stage1_cfg(epochs=1), _stage1_data(rng), state,
                            seed=0, out_dir=str(tmp_path))
        log = (tmp_path / "losses.csv").read_text().splitlines()
        assert log[0] == "epoch,step,loss_total,loss_m2d,loss_clap,lr,ema"
        assert len(log) == len(rows) + 1
        assert (tmp_path / "checkpoints" / "epoch-0000.ckpt").exists()
        assert (tmp_path / "checkpoints" / "final.ckpt").exists()

    def test_loss_log_rows_written_once(self, rng, tmp_path, monkeypatch):
        written = []
        write = trainer.write_loss_log

        def counting_write(path, rows, **kwargs):
            written.append(len(rows))
            write(path, rows, **kwargs)

        monkeypatch.setattr(trainer, "write_loss_log", counting_write)
        data = _stage1_data(rng)
        for _ in range(2):  # the rerun into the same directory replaces the log
            written.clear()
            _, rows = run_stage(_stage1_cfg(epochs=3), data, _state(), seed=0,
                                out_dir=str(tmp_path))
            assert len(written) == 4  # the header, then once per epoch
            assert sum(written) == len(rows) == 9
        full = tmp_path / "full.csv"
        write(full, rows, header=True)
        assert (tmp_path / "losses.csv").read_bytes() == full.read_bytes()
        assert len(list((tmp_path / "checkpoints").glob("epoch-*.ckpt"))) == 3

    def test_stage2_runs_and_logs(self, rng):
        state = _state()
        cfg = stage_config_from("2", dict(epochs=1, batch_size=4, base_lr=1e-3,
                                          warmup_epochs=0))
        _, rows = run_stage(cfg, _stage2_data(rng), state, seed=0)
        assert len(rows) == 3
        assert rows[0]["ema"] == ""

    def test_empty_dataset_rejected(self, rng):
        state = _state()
        with pytest.raises(InvalidInput):
            run_stage(_stage1_cfg(), StageData(np.zeros((0, 10, 256)), 5, 2,
                                               embeddings=np.zeros((0, 12))),
                      state, seed=0)

    def test_loss_decreases_over_short_run(self, rng):
        state = _state()
        data = _stage1_data(rng, n=16)
        cfg = _stage1_cfg(epochs=6, warmup_epochs=1, batch_size=8, base_lr=3e-3)
        _, rows = run_stage(cfg, data, state, seed=0)
        first = np.mean([float(r["loss_total"]) for r in rows[:2]])
        last = np.mean([float(r["loss_total"]) for r in rows[-2:]])
        assert last < first
