"""End-to-end CLI checks on a tiny corpus: artifacts on disk, exit
codes, determinism, and override snapshots."""

import argparse
import csv
import json
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

import miniclap
from miniclap import config as C, datakit as dk, evaluation as ev, losses, network as net
from miniclap.cli import _build_parser, _prepare_mels, _split_indices, main

from conftest import inject_inf, write_features

TINY_MODEL = [
    "--set", "model.dim=8", "--set", "model.depth=1", "--set", "model.heads=2",
    "--set", "model.input_frames=32", "--set", "model.predictor_depth=1",
    "--set", "model.predictor_heads=2", "--set", "model.text_depth=1",
    "--set", "model.text_heads=2",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(["synth-data", "--classes", "2", "--per-class", "3",
                 "--duration", "0.5", "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


def _stage1(corpus, out, extra=()):
    return main(["pretrain-stage1",
                 "--manifest", str(corpus / "manifest.jsonl"),
                 "--cache", str(corpus / "embeddings.cache"),
                 "--seed", "3", "--out", str(out), *TINY_MODEL,
                 "--set", "stage1.epochs=2", "--set", "stage1.warmup_epochs=1",
                 "--set", "stage1.batch_size=3", "--set", "stage1.base_lr=1e-3",
                 *extra])


class TestSynthData:
    def test_writes_manifest_wavs_and_cache(self, corpus):
        assert (corpus / "manifest.jsonl").exists()
        assert (corpus / "embeddings.cache").exists()
        assert (corpus / "config.txt").exists()
        wavs = sorted(os.listdir(corpus / "wavs"))
        assert len(wavs) == 6 and wavs[0].endswith(".wav")


class TestExitCodes:
    def test_stage2_without_checkpoint_is_exit_1(self, corpus, tmp_path, capsys):
        code = main(["pretrain-stage2", "--manifest", str(corpus / "manifest.jsonl"),
                     "--out", str(tmp_path), *TINY_MODEL])
        assert code == 1
        assert "stage-1 checkpoint" in capsys.readouterr().err

    def test_missing_checkpoint_path_is_exit_1(self, corpus, tmp_path, capsys):
        code = main(["pretrain-stage2", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(tmp_path / "nope.ckpt"),
                     "--out", str(tmp_path), *TINY_MODEL])
        assert code == 1
        assert "nope.ckpt" in capsys.readouterr().err

    def test_unknown_verb_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_manifest_is_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        code = main(["extract-features", "--manifest", str(missing),
                     "--init", str(tmp_path / "x.ckpt"), "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("duration", ['"abc"', "null", "NaN"])
    def test_mistyped_manifest_field_is_exit_1(self, corpus, tmp_path, capsys, duration):
        lines = (corpus / "manifest.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        lines[1] = json.dumps(record).replace(json.dumps(record["duration_s"]), duration, 1)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        code = main(["pretrain-stage1", "--manifest", str(manifest),
                     "--cache", str(corpus / "embeddings.cache"), "--out", str(tmp_path / "out"),
                     *TINY_MODEL])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 2: duration_s must be"), err
        assert not os.path.exists(tmp_path / "out" / "checkpoints")

    def test_mistyped_source_with_wav_dir_is_exit_1(self, corpus, stage1, tmp_path, capsys):
        lines = (corpus / "manifest.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        lines[1] = json.dumps({**record, "source": 5})
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        code = main(["extract-features", "--manifest", str(manifest), "--wav-dir", str(corpus),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: line 2: source must be a path or a synth spec, got 5"], err

    @pytest.mark.parametrize("taken", ["out", "config"])
    def test_unusable_path_is_exit_1(self, tmp_path, capsys, taken):
        file, folder = tmp_path / "file", tmp_path / "folder"
        file.write_text("")
        folder.mkdir()
        # --out naming a file raises FileExistsError, --config naming a
        # directory IsADirectoryError
        paths = {"out": ["--out", str(file)],
                 "config": ["--config", str(folder), "--out", str(tmp_path / "out")]}[taken]
        code = main(["synth-data", "--classes", "2", "--per-class", "1", "--duration", "0.5",
                     *paths])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize("kind", ["text", "truncated", "sample-cut"])
    def test_malformed_wav_is_exit_1(self, corpus, tmp_path, capsys, kind):
        bad = tmp_path / "bad.wav"
        wav = (corpus / "wavs" / "synth-00-0000.wav").read_bytes()
        bad.write_bytes({"text": b"not a wav file\n", "truncated": wav[:30],
                         "sample-cut": wav[:44 + 200]}[kind])  # 100 whole samples
        entries = dk.load_manifest(corpus / "manifest.jsonl")[:2]
        entries[1].source = str(bad)
        manifest = tmp_path / "manifest.jsonl"
        dk.save_manifest(manifest, entries)
        code = main(["pretrain-stage1", "--manifest", str(manifest),
                     "--cache", str(corpus / "embeddings.cache"),
                     "--out", str(tmp_path / "out"), *TINY_MODEL])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "bad.wav" in err[0], err

    def test_diverging_stage1_is_exit_1(self, corpus, tmp_path, capsys):
        code = _stage1(corpus, tmp_path, ["--set", "stage1.warmup_epochs=0",
                                          "--set", "stage1.base_lr=1e300"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite loss"), err
        assert os.listdir(tmp_path / "checkpoints") == []

    def test_diverging_stage1_prints_one_line_in_a_process(self, corpus, tmp_path):
        # capsys never sees numpy's floating-point warnings; a process's stderr does
        src = os.path.dirname(os.path.dirname(miniclap.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["pretrain-stage1", "--manifest", str(corpus / "manifest.jsonl"),
                "--cache", str(corpus / "embeddings.cache"), "--out", str(tmp_path), *TINY_MODEL,
                "--set", "stage1.epochs=2", "--set", "stage1.warmup_epochs=0",
                "--set", "stage1.batch_size=3", "--set", "stage1.base_lr=1e300"]
        proc = subprocess.run([sys.executable, "-m", "miniclap.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite loss"), err

    def test_non_finite_gradient_is_exit_1(self, corpus, tmp_path, capsys, monkeypatch):
        inject_inf(monkeypatch, "online.patch_embed.weight", at_step=1)  # epoch 0's last step
        assert _stage1(corpus, tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: non-finite gradient of online.patch_embed.weight; "
                       "stopped before the update"], err
        assert os.listdir(tmp_path / "checkpoints") == []

    def test_diverging_stage1_1_is_exit_1(self, corpus, stage1, tmp_path, capsys):
        code = main(["finetune-stage1.1", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(tmp_path), *TINY_MODEL, "--set", "stage1_1.epochs=3",
                     "--set", "stage1_1.batch_size=3", "--set", "stage1_1.base_lr=1e300"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite loss_bce"), err
        assert not list(tmp_path.rglob("*.ckpt"))

    @pytest.mark.parametrize("label", ["", "dog\nbark", "dog\rbark", "dog\u2028bark"],
                             ids=["empty", "newline", "return", "line-separator"])
    def test_label_a_checkpoint_cannot_hold_is_exit_1(self, corpus, stage1, tmp_path, capsys,
                                                       label):
        entries = dk.load_manifest(corpus / "manifest.jsonl")
        entries[2].labels.append(label)
        manifest = tmp_path / "manifest.jsonl"
        dk.save_manifest(manifest, entries)
        code = main(["finetune-stage1.1", "--manifest", str(manifest),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(tmp_path / "out"), *TINY_MODEL, "--set", "stage1_1.epochs=1"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: label {label!r} is empty or holds a line break"]
        assert os.listdir(tmp_path / "out") == ["config.txt"]

    @pytest.mark.parametrize("verb, setting, message", [
        ("pretrain-stage2", "stage2.lambda_m2d=7", "stage 2 does not read lambda_m2d"),
        ("pretrain-stage2", "stage2.ema_start=0.3", "stage 2 does not read ema_start"),
        ("refine-stage2.1", "stage2_1.mask_ratio=0.3", "stage 2.1 does not read mask_ratio"),
        ("finetune-stage1.1", "stage1_1.batch_size=0", "stage 1.1: "),
        ("finetune-stage1.1", "stage1_1.epochs=-2", "stage 1.1: "),
        ("finetune-stage1.1", "stage1_1.warmup_epochs=99", "stage 1.1 does not read warmup_epochs"),
        ("pretrain-stage1", "stage1.freeze_audio_encoder=true",
         "stage 1 does not read freeze_audio_encoder"),
    ])
    def test_bad_stage_setting_is_exit_1(self, corpus, stage1, tmp_path, capsys, verb, setting,
                                         message):
        inputs = {"pretrain-stage1": ["--cache", str(corpus / "embeddings.cache")]}.get(
            verb, ["--init", str(stage1 / "checkpoints" / "final.ckpt")])
        code = main([verb, "--manifest", str(corpus / "manifest.jsonl"), *inputs,
                     "--out", str(tmp_path), *TINY_MODEL, "--set", setting])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
        assert not os.path.exists(tmp_path / "checkpoints")

    # the tiny model's grid has 5 x 2 = 10 patches; 0.99 of them rounds to all 10
    @pytest.mark.parametrize("verb, setting, message", [
        ("pretrain-stage2", "stage2.mask_ratio=1.0",
         "stage 2 needs a visible patch, but mask_ratio=1.0 masks 10 of the 10"),
        ("pretrain-stage2", "stage2.mask_ratio=0.99",
         "stage 2 needs a visible patch, but mask_ratio=0.99 masks 10 of the 10"),
        ("pretrain-stage1", "stage1.mask_ratio=0.0",
         "stage 1 needs both visible and masked patches, but mask_ratio=0.0 masks 0 of the 10"),
        ("pretrain-stage1", "stage1.mask_ratio=1.0",
         "stage 1 needs both visible and masked patches, but mask_ratio=1.0 masks 10 of the 10"),
    ])
    def test_mask_ratio_leaving_no_patch_is_exit_1(self, corpus, stage1, tmp_path, capsys, verb,
                                                   setting, message):
        inputs = {"pretrain-stage1": ["--cache", str(corpus / "embeddings.cache")]}.get(
            verb, ["--init", str(stage1 / "checkpoints" / "final.ckpt")])
        code = main([verb, "--manifest", str(corpus / "manifest.jsonl"), *inputs,
                     "--out", str(tmp_path), *TINY_MODEL, "--set", setting])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
        assert sorted(os.listdir(tmp_path)) == ["config.txt"]  # no loss log, no checkpoints

    # _stage1 runs 2 epochs with 1 of warm-up
    @pytest.mark.parametrize("setting, message", [
        ("stage1.lambda_clap=nan", "loss weight lambda_clap must be finite and nonnegative, got nan"),
        ("stage1.base_lr=-1", "stage1.base_lr must be positive and finite, got -1.0"),
        ("stage1.base_lr=nan", "stage1.base_lr must be positive and finite, got nan"),
        ("stage1.ema_start=2", "stage1.ema_start must lie in [0, 1], got 2.0"),
        ("stage1.warmup_epochs=3", "stage1.warmup_epochs=3 exceeds epochs=2"),
    ])
    def test_out_of_range_stage_setting_is_exit_1_before_training(self, corpus, tmp_path, capsys,
                                                                  setting, message):
        code = _stage1(corpus, tmp_path, ["--set", setting])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]
        assert sorted(os.listdir(tmp_path)) == ["config.txt"]  # no loss log, no checkpoints

    @pytest.mark.parametrize("verb", ["pretrain-stage2", "refine-stage2.1"])
    def test_over_long_caption_is_exit_1_before_training(self, corpus, stage1, stage2, tmp_path,
                                                         capsys, verb):
        lines = (corpus / "manifest.jsonl").read_text().splitlines()
        record = json.loads(lines[4])
        record["caption"] = " ".join(["tone"] * 32)  # and the end token: 33 tokens of at most 32
        lines[4] = json.dumps(record)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        init = {"pretrain-stage2": stage1, "refine-stage2.1": stage2}[verb]
        code = main([verb, "--manifest", str(manifest),
                     "--init", str(init / "checkpoints" / "final.ckpt"),
                     "--out", str(tmp_path / "out"), *TINY_MODEL])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: caption of {record['id']} has 32 words; the text encoder takes "
                       "at most 31 (model.text_maxlen=32, less one for the end token)"]
        assert sorted(os.listdir(tmp_path / "out")) == ["config.txt"]

    @pytest.mark.parametrize("setting, message", [
        ("model.heads=0", "model.heads must be positive, got 0"),
        ("model.dim=-8", "model.dim must be positive, got -8"),
        ("model.depth=-1", "model.depth must be nonnegative, got -1"),
        ("model.text_vocab=-3", "model.text_vocab must be nonnegative, got -3"),
        ("model.mlp_ratio=0", "model.mlp_ratio must give the MLP at least one hidden unit, got 0.0"),
        ("model.mlp_ratio=nan", "model.mlp_ratio must give the MLP at least one hidden unit, got nan"),
    ])
    def test_bad_model_size_is_exit_1(self, corpus, tmp_path, capsys, setting, message):
        code = _stage1(corpus, tmp_path, ["--set", setting])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]
        assert not os.path.exists(tmp_path / "checkpoints")

    @pytest.mark.parametrize("setting, message", [
        ("stage1.epochs=2.5", "stage1.epochs must be an integer, got 2.5"),
        ("stage1.batch_size=abc", "stage1.batch_size must be an integer, got 'abc'"),
        ("stage1.mask_ratio=abc", "stage1.mask_ratio must be a number, got 'abc'"),
        ("stage1.lambda_clap=abc", "stage1.lambda_clap must be a number, got 'abc'"),
        ("model.depth=1.5", "model.depth must be an integer, got 1.5"),
        ("model.dim=abc", "model.dim must be an integer, got 'abc'"),
        ("model.text_projector=yes", "model.text_projector must be true or false, got 'yes'"),
    ])
    def test_wrongly_typed_setting_is_exit_1(self, corpus, tmp_path, capsys, setting, message):
        code = _stage1(corpus, tmp_path, ["--set", setting])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]
        assert not os.path.exists(tmp_path / "checkpoints")

    @pytest.mark.parametrize("verb", ["extract-features", "eval-zeroshot", "eval-retrieval",
                                      "pretrain-stage1", "pretrain-stage2"])
    def test_empty_manifest_is_exit_1(self, corpus, stage1, tmp_path, capsys, verb):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        init = ["--init", str(stage1 / "checkpoints" / "final.ckpt")]
        cache = ["--cache", str(corpus / "embeddings.cache")]
        extra = {"extract-features": init, "eval-zeroshot": init + cache,
                 "eval-retrieval": init + cache, "pretrain-stage1": cache,
                 "pretrain-stage2": init}[verb]
        code = main([verb, "--manifest", str(empty), "--out", str(tmp_path / "out"),
                     *extra, *TINY_MODEL])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err


    def test_unlabeled_entry_in_eval_linear_is_exit_1(self, corpus, tmp_path, capsys):
        entries = dk.load_manifest(str(corpus / "manifest.jsonl"))
        entries[2].labels = []
        manifest = tmp_path / "manifest.jsonl"
        dk.save_manifest(str(manifest), entries)
        features = tmp_path / "clip.feat"
        write_features(str(features), [e.id for e in entries], np.ones((len(entries), 4)))
        code = main(["eval-linear", "--features", str(features), "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and entries[2].id in err[0], err

    def test_non_finite_feature_row_is_exit_1(self, corpus, tmp_path, capsys):
        entries = dk.load_manifest(str(corpus / "manifest.jsonl"))
        feats = np.ones((len(entries), 4))
        feats[2, 1] = np.nan
        write_features(str(tmp_path / "clip.feat"), [e.id for e in entries], feats)
        code = main(["eval-linear", "--features", str(tmp_path / "clip.feat"),
                     "--manifest", str(corpus / "manifest.jsonl"), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: feature row {entries[2].id!r} has non-finite values"]

    def test_non_finite_checkpoint_tensor_is_exit_1(self, corpus, stage1, tmp_path, capsys):
        state = net.load_checkpoint(stage1 / "checkpoints" / "final.ckpt")
        state.online.blocks[0].mlp_in.weight.data[3, 5] = np.nan
        net.save_checkpoint(tmp_path / "nan.ckpt", state)  # the header digest still holds
        code = main(["extract-features", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(tmp_path / "nan.ckpt"), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: tensor 'online.blocks.0.mlp_in.weight' in checkpoint has non-finite values"]
        assert os.listdir(tmp_path / "out") == ["config.txt"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--duration", "nan", "duration must be a positive number of seconds, got nan"),
        ("--duration", "inf", "duration must be a positive number of seconds, got inf"),
        ("--duration", "-1", "duration must be a positive number of seconds, got -1.0"),
        ("--duration", "0", "duration must be a positive number of seconds, got 0.0"),
        # each fails before an array is made: no test asks numpy for gigabytes
        ("--duration", "1e-9", "a synthesized clip lasts from one sample to 600 s, got 1e-09 s"),
        ("--duration", "1e300", "a synthesized clip lasts from one sample to 600 s, got 1e+300 s"),
        ("--per-class", "0", "need at least one clip per class, got 0"),
        ("--per-class", "-3", "need at least one clip per class, got -3"),
        ("--classes", "4097",
         "need 2 to 4096 classes (one orthonormal 4096-d embedding each), got 4097"),
        ("--val-frac", "nan", "--val-frac must be at least 0 and below 1, got nan"),
        ("--val-frac", "inf", "--val-frac must be at least 0 and below 1, got inf"),
        ("--val-frac", "-0.5", "--val-frac must be at least 0 and below 1, got -0.5"),
        ("--test-frac", "nan", "--test-frac must be at least 0 and below 1, got nan"),
    ])
    def test_bad_numeric_flag_is_exit_1(self, corpus, tmp_path, capsys, flag, value, message):
        if flag in ("--duration", "--per-class", "--classes"):
            argv = ["synth-data", "--classes", "2", "--per-class", "1"]
        else:
            entries = dk.load_manifest(corpus / "manifest.jsonl")
            write_features(str(tmp_path / "clip.feat"), [e.id for e in entries],
                           np.ones((len(entries), 4)))
            argv = ["eval-linear", "--features", str(tmp_path / "clip.feat"),
                    "--manifest", str(corpus / "manifest.jsonl")]
        code = main([*argv, f"{flag}={value}", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert os.listdir(tmp_path / "out") == ["config.txt"]

    def test_synth_source_too_long_is_exit_1(self, corpus, stage1, tmp_path, capsys):
        entries = dk.load_manifest(corpus / "manifest.jsonl")
        entries[1].duration_s = 1e300
        manifest = tmp_path / "manifest.jsonl"
        dk.save_manifest(manifest, entries)
        code = main(["extract-features", "--manifest", str(manifest),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: a synthesized clip lasts from one sample to 600 s, got 1e+300 s"]
        assert os.listdir(tmp_path / "out") == ["config.txt"]

    @pytest.mark.parametrize("verb", ["extract-features", "pretrain-stage2", "finetune-stage1.1"])
    @pytest.mark.parametrize("setting, message", [
        ("model.dim=16", "model.dim=16 disagrees with the checkpoint's 8"),
        ("model.colour=3", "unknown model config keys: ['colour']"),
    ])
    def test_model_setting_must_agree_with_checkpoint(self, corpus, stage1, tmp_path, capsys,
                                                      verb, setting, message):
        code = main([verb, "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(tmp_path), *TINY_MODEL, "--set", setting])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert os.listdir(tmp_path) == ["config.txt"]

    def test_stage2_1_needs_stage2_checkpoint(self, corpus, stage1, tmp_path, capsys):
        ckpt = stage1 / "checkpoints" / "final.ckpt"
        code = main(["refine-stage2.1", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(ckpt), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt} has no tokenizer vocabulary: pass a stage-2 checkpoint"]
        assert not os.path.exists(tmp_path / "checkpoints")

    @pytest.mark.parametrize("verb", ["eval-zeroshot", "eval-retrieval"])
    def test_caption_scoring_refuses_text_encoder(self, corpus, stage2, tmp_path, capsys, verb):
        code = main([verb, "--manifest", str(corpus / "manifest.jsonl"),
                     "--cache", str(corpus / "embeddings.cache"),
                     "--init", str(stage2 / "checkpoints" / "final.ckpt"), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {verb} scores captions through stage 1's llm_map, which stages 2 and 2.1 "
            "do not train: pass a stage-1 checkpoint"]
        assert not os.path.exists(tmp_path / "metrics.csv")


def test_failed_config_snapshot_keeps_previous_file(tmp_path, monkeypatch):
    (tmp_path / "config.txt").write_text("previous = snapshot\n")

    def fail(cfg):  # called while the snapshot file is open
        raise RuntimeError("render failed")

    monkeypatch.setattr(C, "render_config", fail)
    with pytest.raises(RuntimeError):
        main(["synth-data", "--classes", "2", "--per-class", "1", "--out", str(tmp_path)])
    assert (tmp_path / "config.txt").read_text() == "previous = snapshot\n"
    assert os.listdir(tmp_path) == ["config.txt"]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("verb", sorted(_subparsers()))
def test_every_verb_snapshots_its_config(verb, tmp_path):
    out = tmp_path / "out"
    argv = [verb, "--out", str(out), "--set", "note=snapshot"]
    if verb == "synth-data":
        argv += ["--classes", "2", "--per-class", "1", "--duration", "0.5"]
    else:  # every required input names a file that does not exist
        argv += [arg for action in _subparsers()[verb]._actions if action.required
                 for arg in (action.option_strings[0], str(tmp_path / "missing"))]
    assert main(argv) == (0 if verb == "synth-data" else 1)
    assert "note = snapshot" in (out / "config.txt").read_text()


@pytest.fixture(scope="module")
def stage1(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("stage1")
    assert _stage1(corpus, out) == 0
    return out


@pytest.fixture(scope="module")
def stage2(corpus, stage1, tmp_path_factory):
    out = tmp_path_factory.mktemp("stage2")
    code = main(["pretrain-stage2", "--manifest", str(corpus / "manifest.jsonl"),
                 "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                 "--out", str(out), *TINY_MODEL,
                 "--set", "stage2.epochs=1", "--set", "stage2.warmup_epochs=0",
                 "--set", "stage2.batch_size=3", "--set", "stage2.base_lr=1e-3"])
    assert code == 0
    return out


class TestPipeline:
    def test_stage1_artifacts(self, stage1):
        assert (stage1 / "losses.csv").exists()
        assert (stage1 / "checkpoints" / "final.ckpt").exists()
        assert (stage1 / "config.txt").exists()

    def test_stage1_deterministic_loss_log(self, corpus, stage1, tmp_path_factory):
        rerun = tmp_path_factory.mktemp("stage1-rerun")
        assert _stage1(corpus, rerun) == 0
        assert (rerun / "losses.csv").read_text() == (stage1 / "losses.csv").read_text()

    def test_config_snapshot_contains_overrides(self, stage1):
        text = (stage1 / "config.txt").read_text()
        assert "stage1.epochs = 2" in text
        assert "model.dim = 8" in text

    def test_extract_and_linear_eval(self, corpus, stage1, tmp_path_factory):
        out = tmp_path_factory.mktemp("features")
        code = main(["extract-features", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(out), *TINY_MODEL])
        assert code == 0
        assert (out / "clip.feat").exists() and (out / "clip.feat.ids").exists()

        eval_out = tmp_path_factory.mktemp("eval-linear")
        code = main(["eval-linear", "--features", str(out / "clip.feat"),
                     "--manifest", str(corpus / "manifest.jsonl"),
                     "--val-frac", "0.2", "--test-frac", "0.2",
                     "--out", str(eval_out), *TINY_MODEL])
        assert code == 0
        assert (eval_out / "metrics.csv").exists()

    def test_extract_features_writes_both_kinds_from_one_encode(self, corpus, stage1, tmp_path,
                                                                monkeypatch):
        manifest, ckpt = corpus / "manifest.jsonl", stage1 / "checkpoints" / "final.ckpt"
        tokens = []
        encode_tokens = net.encode_tokens

        def counted(params, patch_vectors, pe_rows):
            tokens.append(patch_vectors.shape[0] * patch_vectors.shape[1])
            return encode_tokens(params, patch_vectors, pe_rows)

        monkeypatch.setattr(net, "encode_tokens", counted)
        assert main(["extract-features", "--manifest", str(manifest), "--init", str(ckpt),
                     "--out", str(tmp_path / "out")]) == 0
        extracted, tokens[:] = sum(tokens), []

        entries = dk.load_manifest(manifest)
        state, mels = net.load_checkpoint(ckpt), _prepare_mels(entries, None)
        clip = ev.clip_features(state, mels)
        assert extracted == sum(tokens) > 0  # every window went through the encoder once
        for kind, feats in (("clip", clip), ("semantic", ev.semantic_features(state, mels))):
            write_features(tmp_path / f"{kind}.feat", [e.id for e in entries], feats)
            for name in (f"{kind}.feat", f"{kind}.feat.ids"):
                assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_failed_extract_write_keeps_both_previous_pairs(self, corpus, stage1, tmp_path,
                                                            monkeypatch):
        init = ["--init", str(stage1 / "checkpoints" / "final.ckpt"), "--out", str(tmp_path / "out")]
        assert main(["extract-features", "--manifest", str(corpus / "manifest.jsonl"), *init]) == 0
        names = ["clip.feat", "clip.feat.ids", "config.txt", "semantic.feat", "semantic.feat.ids"]
        before = {name: (tmp_path / "out" / name).read_bytes() for name in names[:2] + names[3:]}
        fewer = tmp_path / "fewer.jsonl"  # other ids and rows, so a replaced file would differ
        dk.save_manifest(fewer, dk.load_manifest(corpus / "manifest.jsonl")[:4])
        write, calls = ev.write_features, []

        def fail_second(*args):
            write(*args)  # written whole into its temporary files
            calls.append(args[0])
            if len(calls) == 2:
                raise RuntimeError("second write failed")

        monkeypatch.setattr(ev, "write_features", fail_second)
        with pytest.raises(RuntimeError, match="second write failed"):
            main(["extract-features", "--manifest", str(fewer), *init])
        assert sorted(os.listdir(tmp_path / "out")) == names  # no temporary file is left
        assert {name: (tmp_path / "out" / name).read_bytes() for name in before} == before

    def test_eval_zeroshot(self, corpus, stage1, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("zeroshot")
        code = main(["eval-zeroshot", "--manifest", str(corpus / "manifest.jsonl"),
                     "--cache", str(corpus / "embeddings.cache"),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(out), *TINY_MODEL])
        assert code == 0
        assert "zero_shot_accuracy" in capsys.readouterr().out
        assert (out / "metrics.csv").exists()

    def test_eval_retrieval(self, corpus, stage1, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("retrieval")
        code = main(["eval-retrieval", "--manifest", str(corpus / "manifest.jsonl"),
                     "--cache", str(corpus / "embeddings.cache"),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(out), *TINY_MODEL])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "text-to-audio" in stdout and "audio-to-text" in stdout

    def test_export_attention_writes_pgm(self, corpus, stage1, tmp_path_factory):
        out = tmp_path_factory.mktemp("attention")
        code = main(["export-attention", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--entry", "synth-00-0000", "--out", str(out), *TINY_MODEL])
        assert code == 0
        pgm = out / "attention-synth-00-0000.pgm"
        assert pgm.exists()
        assert pgm.read_bytes().startswith(b"P5\n")

    def test_finetune_stage1_1(self, corpus, stage1, tmp_path_factory):
        out = tmp_path_factory.mktemp("stage11")
        code = main(["finetune-stage1.1", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(out), *TINY_MODEL,
                     "--set", "stage1_1.epochs=2", "--set", "stage1_1.batch_size=6"])
        assert code == 0
        assert sorted(os.listdir(out)) == ["checkpoints", "config.txt", "losses.csv"]
        state = net.load_checkpoint(out / "checkpoints" / "final.ckpt")
        entries = dk.load_manifest(corpus / "manifest.jsonl")
        assert state.classes == sorted({label for e in entries for label in e.labels})
        assert state.head.weight.shape == (5 * 8, 2)
        with open(out / "losses.csv", newline="") as fh:
            losses = [float(row["loss_total"]) for row in csv.DictReader(fh)]
        assert len(losses) == 2 and losses[1] < losses[0]

    def test_stage2_artifacts(self, corpus, stage2):
        assert sorted(os.listdir(stage2)) == ["checkpoints", "config.txt", "losses.csv"]
        captions = [e.caption for e in dk.load_manifest(corpus / "manifest.jsonl")]
        state = net.load_checkpoint(stage2 / "checkpoints" / "final.ckpt")
        assert state.vocab == dk.Tokenizer.fit(captions).vocab
        assert state.config.text_vocab == dk.Tokenizer.fit(captions).size

    def test_refine_stage2_1(self, corpus, stage2, tmp_path_factory):
        out = tmp_path_factory.mktemp("stage21")
        code = main(["refine-stage2.1", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(stage2 / "checkpoints" / "final.ckpt"),
                     "--out", str(out), *TINY_MODEL,
                     "--set", "stage2_1.epochs=1", "--set", "stage2_1.warmup_epochs=0",
                     "--set", "stage2_1.batch_size=3", "--set", "stage2_1.base_lr=1e-3"])
        assert code == 0
        assert (out / "checkpoints" / "final.ckpt").exists()


@pytest.mark.parametrize("verb, section", [("pretrain-stage2", "stage2"),
                                           ("refine-stage2.1", "stage2_1")])
def test_text_stage_starts_from_a_temperature_at_its_floor(corpus, stage1, stage2, tmp_path,
                                                           verb, section):
    """A checkpoint holds float32, so a temperature at TAU_MIN reads back just
    below it; the next stage floors it before its first step and trains."""
    init = {"pretrain-stage2": stage1, "refine-stage2.1": stage2}[verb]
    state = net.load_checkpoint(init / "checkpoints" / "final.ckpt")
    state.tau.data[...] = losses.TAU_MIN
    net.save_checkpoint(tmp_path / "floor.ckpt", state)
    assert float(net.load_checkpoint(tmp_path / "floor.ckpt").tau.data) < losses.TAU_MIN
    code = main([verb, "--manifest", str(corpus / "manifest.jsonl"),
                 "--init", str(tmp_path / "floor.ckpt"), "--out", str(tmp_path / "out"),
                 *TINY_MODEL, "--set", f"{section}.epochs=1", "--set", f"{section}.warmup_epochs=0",
                 "--set", f"{section}.batch_size=3"])
    assert code == 0
    assert (tmp_path / "out" / "checkpoints" / "final.ckpt").exists()


def test_eval_linear_scores_multi_label_manifest_by_map(tmp_path):
    # one clip with two labels makes the whole manifest multi-label
    entries = [dk.ManifestEntry(f"c{i:02d}", "a tone", 1.0, f"c{i:02d}.wav",
                                [f"class-{i % 3}"] + (["loud"] if i % 2 else []))
               for i in range(24)]
    dk.save_manifest(tmp_path / "manifest.jsonl", entries)
    classes = ["class-0", "class-1", "class-2", "loud"]
    labels = np.array([[float(c in e.labels) for c in classes] for e in entries])
    noise = np.random.default_rng(0).standard_normal((24, 6))
    write_features(str(tmp_path / "clip.feat"), [e.id for e in entries],
                   np.hstack([labels, np.zeros((24, 2))]) + noise)
    code = main(["eval-linear", "--features", str(tmp_path / "clip.feat"),
                 "--manifest", str(tmp_path / "manifest.jsonl"), "--val-frac", "0.25",
                 "--test-frac", "0.25", "--seed", "2", "--out", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    _, feats = ev.read_features(str(tmp_path / "clip.feat"))
    tr, va, te = _split_indices(24, 0.25, 0.25, 2)
    result = ev.linear_probe(ev.LabeledFeatureSet(feats[tr], labels[tr], "train"),
                             ev.LabeledFeatureSet(feats[va], labels[va], "val"),
                             ev.LabeledFeatureSet(feats[te], labels[te], "test"), seed=2)
    assert rows == [{"metric": "mAP", "value": f"{result.test_metric:.4f}",
                     "best_epoch": str(result.best_epoch), "epochs_run": str(result.epochs_run)}]


def _after_stage1(corpus, stage1, out, model):
    """Stages 2 and 2.1, extraction, attention export and stage 1.1 from
    `stage1`'s checkpoint, each verb given the `model` settings; every
    output file but the config snapshots, by path."""
    ckpt1 = str(stage1 / "checkpoints" / "final.ckpt")
    ckpt21 = str(out / "stage21" / "checkpoints" / "final.ckpt")
    verbs = {
        "stage2": ["pretrain-stage2", "--init", ckpt1, "--set", "stage2.epochs=2",
                   "--set", "stage2.warmup_epochs=1", "--set", "stage2.batch_size=3",
                   "--set", "stage2.base_lr=1e-3"],
        "stage21": ["refine-stage2.1", "--init", str(out / "stage2" / "checkpoints" / "final.ckpt"),
                    "--set", "stage2_1.epochs=2", "--set", "stage2_1.warmup_epochs=0",
                    "--set", "stage2_1.batch_size=3", "--set", "stage2_1.base_lr=1e-3"],
        "features": ["extract-features", "--init", ckpt21],
        "attention": ["export-attention", "--init", ckpt21, "--entry", "synth-01-0002"],
        "stage11": ["finetune-stage1.1", "--init", ckpt1, "--set", "stage1_1.epochs=2",
                    "--set", "stage1_1.batch_size=3"],
    }
    for name, argv in verbs.items():
        assert main([*argv, "--manifest", str(corpus / "manifest.jsonl"),
                     "--out", str(out / name), "--seed", "4", *model]) == 0
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "config.txt"}


def test_checkpoints_carry_the_model(corpus, stage1, tmp_path):
    bare = _after_stage1(corpus, stage1, tmp_path / "bare", [])
    tiny = _after_stage1(corpus, stage1, tmp_path / "tiny", TINY_MODEL)
    for name in ("stage2/losses.csv", "stage21/losses.csv", "features/semantic.feat",
                "attention/attention-synth-01-0002.pgm", "stage11/checkpoints/final.ckpt"):
        assert name in bare
    assert bare == tiny


def test_readme_walkthrough_parses():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough")[1].split("```sh\n")[1].split("```")[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("miniclap ")]
    assert len(commands) == 10
    parser = _build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])  # a stale flag exits with a usage error
        if args.verb != "pretrain-stage1":
            assert not [s for s in args.set if s.startswith("model.")], argv


class TestOutDirEnv:
    def test_env_var_sets_output_root(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("M2DC_OUT", str(tmp_path / "envroot"))
        code = main(["synth-data", "--classes", "2", "--per-class", "1",
                     "--duration", "0.5", "--seed", "1"])
        assert code == 0
        assert (tmp_path / "envroot" / "synth-data" / "manifest.jsonl").exists()
