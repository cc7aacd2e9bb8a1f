"""End-to-end CLI checks on a tiny corpus: artifacts on disk, exit
codes, determinism, and override snapshots."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import miniclap
from miniclap import config as C, datakit as dk
from miniclap.cli import _build_parser, main
from miniclap.evaluation import write_features

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

    def test_diverging_stage1_1_is_exit_1(self, corpus, stage1, tmp_path, capsys):
        code = main(["finetune-stage1.1", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                     "--out", str(tmp_path), *TINY_MODEL, "--set", "stage1_1.epochs=3",
                     "--set", "stage1_1.batch_size=3", "--set", "stage1_1.base_lr=1e300"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite loss_bce"), err
        assert not (tmp_path / "finetuned.ckpt").exists()
        assert not (tmp_path / "head.npz").exists()

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
                     "--out", str(out), "--kind", "clip", *TINY_MODEL])
        assert code == 0
        assert (out / "clip.feat").exists() and (out / "clip.feat.ids").exists()

        eval_out = tmp_path_factory.mktemp("eval-linear")
        code = main(["eval-linear", "--features", str(out / "clip.feat"),
                     "--manifest", str(corpus / "manifest.jsonl"),
                     "--val-frac", "0.2", "--test-frac", "0.2",
                     "--out", str(eval_out), *TINY_MODEL])
        assert code == 0
        assert (eval_out / "metrics.csv").exists()

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
        assert (out / "finetuned.ckpt").exists()
        head = np.load(out / "head.npz")
        assert head["weight"].shape == (5 * 8, 2)

    def test_failed_head_write_keeps_previous_file(self, corpus, stage1, tmp_path, monkeypatch):
        (tmp_path / "head.npz").write_bytes(b"previous head")

        def fail(fh, **arrays):
            fh.write(b"partial")
            raise RuntimeError("write failed")

        monkeypatch.setattr(np, "savez", fail)
        with pytest.raises(RuntimeError):
            main(["finetune-stage1.1", "--manifest", str(corpus / "manifest.jsonl"),
                  "--init", str(stage1 / "checkpoints" / "final.ckpt"),
                  "--out", str(tmp_path), *TINY_MODEL,
                  "--set", "stage1_1.epochs=1", "--set", "stage1_1.batch_size=6"])
        assert (tmp_path / "head.npz").read_bytes() == b"previous head"
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_stage2_artifacts(self, stage2):
        assert (stage2 / "vocab.txt").exists()
        assert (stage2 / "checkpoints" / "final.ckpt").exists()

    def test_refine_stage2_1(self, corpus, stage2, tmp_path_factory):
        out = tmp_path_factory.mktemp("stage21")
        code = main(["refine-stage2.1", "--manifest", str(corpus / "manifest.jsonl"),
                     "--init", str(stage2 / "checkpoints" / "final.ckpt"),
                     "--vocab", str(stage2 / "vocab.txt"),
                     "--out", str(out), *TINY_MODEL,
                     "--set", "stage2_1.epochs=1", "--set", "stage2_1.warmup_epochs=0",
                     "--set", "stage2_1.batch_size=3", "--set", "stage2_1.base_lr=1e-3"])
        assert code == 0
        assert (out / "checkpoints" / "final.ckpt").exists()


class TestOutDirEnv:
    def test_env_var_sets_output_root(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("M2DC_OUT", str(tmp_path / "envroot"))
        code = main(["synth-data", "--classes", "2", "--per-class", "1",
                     "--duration", "0.5", "--seed", "1"])
        assert code == 0
        assert (tmp_path / "envroot" / "synth-data" / "manifest.jsonl").exists()
