"""Self-test of the benchmark's correctness checks.

Every check must accept the program's genuine output and reject a
deliberately corrupted copy of it. Uses a tiny model so it runs in
seconds:

    PYTHONPATH=src python3 benchmarks/checks_selftest.py
"""

from __future__ import annotations

import csv
import os
import tempfile
import unittest

import numpy as np

from miniclap import evaluation as ev
from miniclap import frontend as fe
from miniclap import network as net
from miniclap import trainer
from miniclap.config import ModelConfig

import checks
import reference as ref

TINY = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, predictor_depth=1,
                   predictor_heads=2, emb_dim=12)


def _stage1_log(tmp: str) -> tuple[list[dict], trainer.StageConfig, net.ModelState]:
    rng = np.random.default_rng(0)
    data = trainer.StageData(rng.standard_normal((8, 10, 256)), 5, 2,
                             embeddings=rng.standard_normal((8, 12)))
    cfg = trainer.stage_config_from("1", dict(epochs=3, warmup_epochs=1, batch_size=4,
                                              base_lr=1e-3, lambda_clap=0.5))
    state, _ = trainer.run_stage(cfg, data, net.init_model_state(TINY, 0), seed=0, out_dir=tmp)
    with open(os.path.join(tmp, "losses.csv"), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh)), cfg, state


class CheckTest(unittest.TestCase):
    def assertRejects(self, fn, *args):
        with self.assertRaises(checks.CheckFailed):
            fn(*args)


class TrainingChecks(CheckTest):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as tmp:
            cls.rows, cls.cfg, cls.state = _stage1_log(tmp)

    def schedule(self, rows):
        checks.schedule_columns(rows, 6, 2, self.cfg.base_lr, (self.cfg.ema_start, self.cfg.ema_end))

    def test_schedule_columns(self):
        self.schedule(self.rows)
        for column in ("lr", "ema"):
            shifted = [dict(r, **{column: n[column]}) for r, n in zip(self.rows, self.rows[1:])]
            self.assertRejects(self.schedule, shifted + self.rows[-1:])

    def test_loss_identity(self):
        w = self.cfg.weights
        checks.loss_identity(self.rows, w.lambda_m2d, w.lambda_clap)
        bad = [dict(r) for r in self.rows]
        bad[3]["loss_total"] = f"{float(bad[3]['loss_total']) + 1e-6:.8f}"
        self.assertRejects(checks.loss_identity, bad, w.lambda_m2d, w.lambda_clap)

    def test_loss_falls(self):
        rows = [{"epoch": e, "loss": 2.0 - e} for e in range(2)]
        checks.loss_falls(rows, "loss", 0.3)
        self.assertRejects(checks.loss_falls, [dict(r, loss=2.0) for r in rows], "loss", 0.3)

    def test_target_never_holds_gradient(self):
        params = net.named_params(self.state.target, "target")
        checks.no_gradient(params)
        tensor = next(iter(params.values()))
        tensor.grad = np.zeros_like(tensor.data)
        try:
            self.assertRejects(checks.no_gradient, params)
        finally:
            tensor.grad = None

    def test_frozen_digest(self):
        state = net.init_model_state(TINY, 1)
        before = ref.tree_digest(state.online)
        checks.digest_unchanged(before, ref.tree_digest(state.online), "encoder")
        state.online.blocks[0].mlp_out.weight.data[0, 0] += 1e-12
        self.assertRejects(checks.digest_unchanged, before, ref.tree_digest(state.online), "encoder")

    def test_accuracy_bar(self):
        checks.accuracy_at_least(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]), 0.9)
        self.assertRejects(checks.accuracy_at_least, np.array([0, 1, 2, 2]), np.array([0, 1, 2, 3]), 0.9)


class ExtractionChecks(CheckTest):
    @classmethod
    def setUpClass(cls):
        cls.state = net.init_model_state(TINY, 2)
        rng = np.random.default_rng(3)
        # 50 frames: one full 32-frame window and one padded one
        cls.mels = [fe.MelSpectrogram(rng.standard_normal((80, t))) for t in (20, 50)]

    def test_features_match_reference(self):
        clip = ev.clip_features(self.state, self.mels)
        semantic = ev.semantic_features(self.state, self.mels)
        for i, mel in enumerate(self.mels):
            want_clip, want_semantic = ref.clip_and_semantic(self.state, mel.values)
            checks.features_match(clip[i], want_clip, "clip")
            checks.features_match(semantic[i], want_semantic, "semantic")
            bumped = clip[i].copy()
            bumped[i] += 1e-6
            self.assertRejects(checks.features_match, bumped, want_clip, "clip")
            bumped = semantic[i].copy()
            bumped[-1] -= 1e-6
            self.assertRejects(checks.features_match, bumped, want_semantic, "semantic")

    def test_tone_peak(self):
        for freq in (130.0, 440.0, 1234.5, 3000.0, 7000.0):
            t = np.arange(16000) / 16000.0
            mel = fe.compute_logmel(fe.Waveform(0.5 * np.sin(2 * np.pi * freq * t))).values
            checks.tone_peak(mel, freq)
            self.assertRejects(checks.tone_peak, mel, freq * 1.5)

    def test_zero_shot_predictions(self):
        rng = np.random.default_rng(4)
        audio, classes = rng.standard_normal((20, 6)), rng.standard_normal((4, 6))
        predictions = ev.zero_shot_classify(audio, classes)
        checks.zero_shot_predictions(predictions, audio, classes)
        bad = predictions.copy()
        bad[7] = (bad[7] + 1) % 4
        self.assertRejects(checks.zero_shot_predictions, bad, audio, classes)

    def test_retrieval(self):
        rng = np.random.default_rng(5)
        sims = rng.standard_normal((30, 30)) + 2.0 * np.eye(30) * rng.uniform(0, 1, 30)
        result = ev.retrieval_metrics(sims, np.arange(30))
        checks.retrieval_matches(result, sims)
        result.r_at[5] += 1.0 / 30
        self.assertRejects(checks.retrieval_matches, result, sims)
        result = ev.retrieval_metrics(sims, np.arange(30))
        moved = sims.copy()
        moved[0, 0] = moved[0].max() + 1.0 if moved[0].argmax() else moved[0].min() - 1.0
        self.assertRejects(checks.retrieval_matches, result, moved)

    def test_probe_bookkeeping(self):
        rng = np.random.default_rng(6)
        parts = [ev.LabeledFeatureSet(rng.standard_normal((12, 5)), np.arange(12) % 3, s)
                 for s in ("train", "val", "test")]
        result = ev.linear_probe(*parts, lr=1e-2, max_epochs=30, patience=5)
        checks.probe_consistent(result, 30)
        result.val_history.append(1.0)
        self.assertRejects(checks.probe_consistent, result, 30)


class ReferenceFormulas(unittest.TestCase):
    def test_schedules_match_program(self):
        for step in range(0, 101, 7):
            self.assertAlmostEqual(ref.lr_schedule(step, 100, 10, 3e-4),
                                   trainer.lr_at(step, 100, 10, 3e-4), places=15)
            self.assertAlmostEqual(ref.ema_schedule(step, 100, 0.9, 0.99),
                                   trainer.ema_decay_at(step, 100, 0.9, 0.99), places=15)


if __name__ == "__main__":
    unittest.main()
