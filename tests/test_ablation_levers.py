"""Configuration levers used by the analysis protocols: projector
depth, MLP projector, text projector, and the README's full-size
encoder settings."""

import pathlib
import re

import numpy as np
import pytest

from miniclap import config as C, network as net, trainer
from miniclap.config import ModelConfig
from miniclap.masking import batch_partitions
from miniclap.trainer import AdamW, StageData, stage1_step, stage_config_from

from conftest import param_digest, stage_params


def _stage1_data(rng, n=4, emb_dim=12):
    return StageData(rng.standard_normal((n, 10, 256)) * 0.3, 5, 2,
                     embeddings=rng.standard_normal((n, emb_dim)))


def _one_step(cfg, rng, **stage_kw):
    state = net.init_model_state(cfg, seed=0)
    stage_cfg = stage_config_from("1", dict(batch_size=4, base_lr=1e-3, **stage_kw))
    opt = AdamW(stage_params(state, "1"))
    data = _stage1_data(rng, emb_dim=cfg.emb_dim)
    partition = batch_partitions(10, stage_cfg.mask_ratio, 4, np.random.default_rng(0))
    stats = stage1_step(state, data, stage_cfg, partition, opt, trainer.ema_target(state, opt),
                        lr=stage_cfg.base_lr, ema_alpha=stage_cfg.ema_start)
    return state, stats


class TestProjectorLevers:
    def test_two_block_projector_trains(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32,
                          projector_blocks=2, emb_dim=12)
        state, stats = _one_step(cfg, rng)
        assert len(state.projector.blocks) == 2
        assert np.isfinite(stats["loss_total"])

    def test_mlp_projector_trains(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32,
                          projector_kind="mlp", emb_dim=12)
        before = net.init_model_state(cfg, seed=0)
        digest = param_digest(before.projector)
        state, stats = _one_step(cfg, rng)
        assert state.projector.cls_token is None
        assert np.isfinite(stats["loss_clap"])
        assert param_digest(state.projector) != digest

    def test_unknown_projector_kind_rejected(self):
        with pytest.raises(Exception):
            ModelConfig(dim=8, depth=1, heads=2, input_frames=32,
                        projector_kind="conv")


class TestTextProjectorLever:
    def test_text_projector_participates_in_stage1(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32,
                          text_projector=True, emb_dim=12)
        before = net.init_model_state(cfg, seed=0)
        assert before.textpath.projector_in is not None
        digest = param_digest(before.textpath.projector_in)
        state, _ = _one_step(cfg, rng)
        assert param_digest(state.textpath.projector_in) != digest

    def test_text_projector_changes_mapped_embeddings(self, rng):
        base_cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, emb_dim=12)
        tp_cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32,
                             text_projector=True, emb_dim=12)
        base = net.init_model_state(base_cfg, seed=0)
        with_tp = net.init_model_state(tp_cfg, seed=0)
        e = rng.standard_normal((1, 12))
        plain = net.map_text_embedding(base.textpath, e).data
        projected = net.map_text_embedding(with_tp.textpath, e).data
        assert not np.allclose(plain, projected)


def _readme_full_size(*extra: str) -> ModelConfig:
    """The model of the `--set model.*` pairs the README's Configuration
    section gives for the full-size encoder, then `extra` pairs."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration")[1].split("\n## ")[0]
    pairs = re.findall(r"--set\s+(model\.\w+=\w+)", section)
    assert pairs, "the README's Configuration section gives no full-size settings"
    return C.model_config_from(C.apply_overrides({}, [*pairs, *extra]))


class TestFullScalePreset:
    def test_dimensions(self):
        cfg = _readme_full_size()
        assert (cfg.dim, cfg.depth, cfg.heads, cfg.predictor_heads) == (768, 12, 12, 12)
        assert cfg.input_frames == 608
        assert C.N_FREQ_PATCHES * cfg.n_time_patches == 190
        assert cfg.emb_dim == 4096

    def test_projector_matches_contract(self):
        # one block, one head, feed-forward latent equal to the model dim
        cfg = _readme_full_size()
        state = net.init_model_state(ModelConfig(
            dim=16, depth=1, heads=2, input_frames=32,
            projector_blocks=cfg.projector_blocks,
            projector_heads=cfg.projector_heads), seed=0)
        assert len(state.projector.blocks) == 1
        assert state.projector.n_heads == 1
        assert state.projector.blocks[0].mlp_in.weight.shape == (16, 16)

    def test_overrides_accepted(self):
        cfg = _readme_full_size("model.text_vocab=128")
        assert cfg.text_vocab == 128 and cfg.dim == 768
