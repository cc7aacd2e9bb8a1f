"""Schedules, optimizer behavior, stage-step contracts (freeze,
stop-gradient, EMA, temperature), and the stage runner."""

import copy

import numpy as np
import pytest

from miniclap import losses, network as net, trainer
from miniclap.autodiff import Tensor
from miniclap.config import ModelConfig
from miniclap.errors import InvalidConfig, InvalidInput
from miniclap.trainer import (AdamW, StageData, ema_decay_at, ema_update, lr_at,
                              run_stage, stage1_1_finetune, stage1_step, stage2_step,
                              stage_config_from, stage_defaults)

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
        before = net.param_digest(state.target)
        state.online.patch_embed.weight.data += 1.0
        ema_update(state.target, state.online, 1.0)
        assert net.param_digest(state.target) == before

    def test_alpha_zero_copies_online(self):
        state = _state()
        state.online.patch_embed.weight.data += 1.0
        ema_update(state.target, state.online, 0.0)
        assert net.param_digest(state.target) == net.param_digest(state.online)

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


class TestStageConfig:
    def test_stage1_defaults_match_contract(self):
        cfg = stage_defaults("1")
        assert (cfg.mask_ratio, cfg.epochs, cfg.warmup_epochs) == (0.7, 300, 20)
        assert (cfg.batch_size, cfg.base_lr) == (2048, 3e-4)
        assert (cfg.weights.lambda_m2d, cfg.weights.lambda_clap) == (1.0, 0.01)
        assert cfg.freeze_audio_encoder is False
        assert (cfg.ema_start, cfg.ema_end) == (0.99995, 0.99999)

    def test_stage2_defaults_match_contract(self):
        cfg = stage_defaults("2")
        assert (cfg.mask_ratio, cfg.epochs, cfg.warmup_epochs) == (0.3, 30, 5)
        assert (cfg.batch_size, cfg.base_lr) == (2048, 3e-6)
        assert (cfg.weights.lambda_m2d, cfg.weights.lambda_clap) == (0.0, 1.0)
        assert cfg.freeze_audio_encoder is True

    def test_stage21_has_no_masking(self):
        cfg = stage_defaults("2.1")
        assert cfg.mask_ratio == 0.0
        cfg.validate()

    def test_unfrozen_stage2_rejected(self):
        cfg = stage_config_from("2", dict(freeze_audio_encoder=False))
        with pytest.raises(InvalidConfig):
            cfg.validate()

    def test_frozen_stage1_rejected(self):
        cfg = stage_config_from("1", dict(freeze_audio_encoder=True))
        with pytest.raises(InvalidConfig):
            cfg.validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            stage_config_from("1", dict(leaning_rate=1.0))


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
        assert net.param_digest(state_a.online) == net.param_digest(state_b.online)
        assert net.param_digest(state_a.predictor) == net.param_digest(state_b.predictor)

    def test_zero_clap_weight_leaves_clap_branch_untouched(self, rng):
        state = _state()
        data = _stage1_data(rng)
        before_proj = net.param_digest(state.projector)
        before_tau = float(state.tau.data)
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        stage1_step(state, data.take(np.arange(4)), _stage1_cfg(lambda_clap=0.0),
                    np.random.default_rng(0), opt)
        assert net.param_digest(state.projector) == before_proj
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
        digest = net.param_digest(state)
        with pytest.raises(InvalidInput, match="non-finite loss_m2d"):
            stage1_step(state, data, _stage1_cfg(), np.random.default_rng(0), opt)
        assert net.param_digest(state) == digest
        assert opt.step_count == 0

    def test_wrong_stage_rejected(self, rng):
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        with pytest.raises(InvalidInput):
            stage1_step(state, _stage1_data(rng), stage_defaults("2"),
                        np.random.default_rng(0), opt)


class TestStage2Step:
    def test_encoder_digest_unchanged_after_100_steps(self, rng):
        state = _state()
        data = _stage2_data(rng, n=8)
        cfg = stage_config_from("2", dict(batch_size=8, base_lr=1e-3, epochs=1))
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        digest = net.param_digest(state.online)
        gen = np.random.default_rng(0)
        for _ in range(100):
            stage2_step(state, data, cfg, gen, opt)
        assert net.param_digest(state.online) == digest

    def test_projector_and_text_encoder_do_update(self, rng):
        state = _state()
        data = _stage2_data(rng, n=8)
        cfg = stage_config_from("2", dict(batch_size=8, base_lr=1e-3, epochs=1))
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        proj = net.param_digest(state.projector)
        text = net.param_digest(state.textpath.encoder)
        stage2_step(state, data, cfg, np.random.default_rng(0), opt)
        assert net.param_digest(state.projector) != proj
        assert net.param_digest(state.textpath.encoder) != text

    def test_loss_matches_external_recomputation(self, rng):
        state = _state()
        data = _stage2_data(rng, n=2)
        # stage 2.1: no masking, so the forward is partition-independent
        cfg = stage_config_from("2.1", dict(batch_size=2, base_lr=1e-3, epochs=1))
        frozen = copy.deepcopy(state)
        opt = AdamW(trainer.trainable_params(state, "2.1"), lr=1e-3)
        stats = stage2_step(state, data, cfg, np.random.default_rng(0), opt)

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
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        digest = net.param_digest(state)
        with pytest.raises(InvalidInput, match="non-finite loss_clap"):
            stage2_step(state, data, cfg, np.random.default_rng(0), opt)
        assert net.param_digest(state) == digest
        assert opt.step_count == 0

    def test_unfrozen_encoder_rejected(self, rng):
        state = _state()
        cfg = stage_config_from("2", dict(freeze_audio_encoder=False))
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        with pytest.raises(InvalidConfig):
            stage2_step(state, _stage2_data(rng), cfg, np.random.default_rng(0), opt)


class TestStage11Finetune:
    def _labeled_data(self, rng, n=8):
        labels = np.zeros((n, 3))
        labels[np.arange(n), np.arange(n) % 3] = 1.0
        return StageData(rng.standard_normal((n, 10, 256)) * 0.3, 5, 2, labels=labels)

    def test_one_batch_overfit(self, rng):
        state = _state()
        data = self._labeled_data(rng)
        cfg = stage_config_from("1.1", dict(epochs=50, batch_size=8, base_lr=1e-2))
        result = stage1_1_finetune(state, data, cfg, seed=0)
        assert len(result.losses) == 50
        assert result.losses[-1] < 0.05

    def test_zero_epochs_leaves_state_unchanged(self, rng):
        state = _state()
        digest = net.param_digest(state)
        cfg = stage_config_from("1.1", dict(epochs=0))
        result = stage1_1_finetune(state, self._labeled_data(rng), cfg, seed=0)
        assert result.losses == []
        assert net.param_digest(state) == digest

    def test_head_only_mode_freezes_encoder(self, rng):
        state = _state()
        digest = net.param_digest(state.online)
        cfg = stage_config_from("1.1", dict(epochs=5, batch_size=8,
                                            freeze_audio_encoder=True))
        stage1_1_finetune(state, self._labeled_data(rng), cfg, seed=0)
        assert net.param_digest(state.online) == digest

    def test_full_mode_updates_encoder(self, rng):
        state = _state()
        digest = net.param_digest(state.online)
        cfg = stage_config_from("1.1", dict(epochs=2, batch_size=8))
        stage1_1_finetune(state, self._labeled_data(rng), cfg, seed=0)
        assert net.param_digest(state.online) != digest

    def test_empty_dataset_rejected(self, rng):
        state = _state()
        with pytest.raises(InvalidInput):
            stage1_1_finetune(state, StageData(np.zeros((0, 10, 256)), 5, 2,
                                               labels=np.zeros((0, 3))),
                              stage_defaults("1.1"), seed=0)


class TestRunStage:
    def test_zero_epochs_no_log_no_change(self, rng):
        state = _state()
        digest = net.param_digest(state)
        cfg = _stage1_cfg(epochs=0)
        state, rows = run_stage(cfg, _stage1_data(rng), state, seed=0)
        assert rows == []
        assert net.param_digest(state) == digest

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
