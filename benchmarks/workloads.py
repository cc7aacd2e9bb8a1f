"""One benchmark workload in one process: set-up, timed rounds, checks.

Run through `run.py`, which sets the BLAS thread count and PYTHONPATH
before this process imports numpy. Prints one JSON object as its last
line: correct / attempted / failed, the end-to-end metrics, and with
--trace 1 the per-layer metrics and the stage-1 step split.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from miniclap import cli
from miniclap import datakit as dk
from miniclap import evaluation as ev
from miniclap import frontend as fe
from miniclap import losses
from miniclap import network as net
from miniclap import trainer
from miniclap.config import ModelConfig

import checks
import reference as ref
from tracer import Tracer

SETUPS = 7  # set-up runs per process; setup_s is their median
MODEL = ModelConfig(dim=64, depth=3, heads=4, input_frames=208)
N_F, N_T = 5, MODEL.n_time_patches


def _patches(wave: np.ndarray) -> np.ndarray:
    mel = fe.standardize(fe.compute_logmel(fe.Waveform(wave)))
    return fe.patchify(fe.pad_or_crop_to_grid(mel, MODEL.input_frames)).patches


def _read_log(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class StepTimer:
    """Wall time of every stage step, taken where run_stage looks the step up."""

    NAMES = ("stage1_step", "stage2_step")

    def __init__(self):
        self.ms: list[float] = []
        self._saved = {}

    def install(self) -> None:
        for name in self.NAMES:
            original = self._saved[name] = getattr(trainer, name)

            def timed(*args, _fn=original, **kwargs):
                start = time.perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    self.ms.append((time.perf_counter() - start) * 1e3)

            setattr(trainer, name, timed)

    def uninstall(self) -> None:
        for name, original in self._saved.items():
            setattr(trainer, name, original)


class Workload:
    """setup() builds inputs and state; round() runs the timed work once and
    returns the operations it attempted; check() validates the last round."""

    def __init__(self, seed: int, workdir: str, steps: StepTimer):
        self.seed = seed
        self.workdir = workdir
        self.steps = steps
        self.busy_s = 0.0  # wall time of the work that audio_s_per_s counts
        self.audio_s = 0.0  # seconds of audio that work consumed

    def _train(self, cfg, data, state, out_dir):
        start = time.perf_counter()
        state, rows = trainer.run_stage(cfg, data, state, seed=self.seed, out_dir=out_dir)
        self.busy_s += time.perf_counter() - start
        self.audio_s += cfg.epochs * data.n_samples * self.clip_s
        return state, rows


class Stage1Toy(Workload):
    """Criterion-11 configuration: 4 tone classes x 50 clips of 2 s, the first
    40 of each class train, the last 10 are held out for zero-shot."""

    PER_CLASS, TRAIN_PER_CLASS, CLASSES = 50, 40, 4
    STAGE = dict(epochs=30, warmup_epochs=2, batch_size=32, base_lr=3e-4, lambda_clap=0.01)
    clip_s = 2.0

    def setup(self):
        waves, entries, embeddings = dk.synth_corpus(self.CLASSES, self.PER_CLASS, self.clip_s,
                                                     seed=self.seed)
        patches = np.stack([_patches(w) for w in waves])
        classes = np.array([e.source["class_id"] for e in entries])
        held = np.array([int(e.id.split("-")[-1]) >= self.TRAIN_PER_CLASS for e in entries])
        self.data = trainer.StageData(patches[~held], N_F, N_T,
                                      embeddings=embeddings[classes[~held]])
        self.cfg = trainer.stage_config_from("1", self.STAGE)
        self.state0 = net.init_model_state(MODEL, self.seed)
        self.held_waves = [w for w, h in zip(waves, held) if h]
        self.held_classes = classes[held]
        self.class_embeddings = embeddings

    def round(self, index: int) -> int:
        out = os.path.join(self.workdir, f"stage1-{index}")
        self.state, rows = self._train(self.cfg, self.data, copy.deepcopy(self.state0), out)
        self.rows = _read_log(os.path.join(out, "losses.csv"))
        self.checkpoints = sorted(os.listdir(os.path.join(out, "checkpoints")))
        shutil.rmtree(out)
        return len(rows)

    def check(self) -> dict:
        steps_per_epoch = -(-self.data.n_samples // self.cfg.batch_size)
        total = self.cfg.epochs * steps_per_epoch
        want = [f"epoch-{e:04d}.ckpt" for e in range(self.cfg.epochs)] + ["final.ckpt"]
        if self.checkpoints != want:
            raise checks.CheckFailed(f"run directory holds {self.checkpoints}")
        checks.schedule_columns(self.rows, total, self.cfg.warmup_epochs * steps_per_epoch,
                                self.cfg.base_lr, (self.cfg.ema_start, self.cfg.ema_end))
        checks.loss_identity(self.rows, self.cfg.weights.lambda_m2d, self.cfg.weights.lambda_clap)
        reduction = checks.loss_falls(self.rows, "loss_total", 0.30)
        checks.no_gradient(net.named_params(self.state.target, "target"))
        audio = []
        for wave in self.held_waves:
            mel = fe.standardize(fe.compute_logmel(fe.Waveform(wave))).values
            audio.append(ref.clip_and_semantic(self.state, mel)[1])
        classes = ref.map_text(self.state.textpath.llm_map, self.class_embeddings)
        accuracy = checks.accuracy_at_least(ref.zero_shot(np.array(audio), classes),
                                            self.held_classes, 0.90)
        return {"loss_reduction": round(reduction, 4), "held_out_zero_shot": accuracy}


CAPTION_TEMPLATES = (  # several lengths, so text batches carry padded keys
    "class-{c} tone",
    "a class-{c} tone",
    "the sound of class-{c} tone",
    "the sound of a class-{c} tone can be heard",
    "a musical instrument and the sound of class-{c} tone can be heard",
)


class TextStages(Workload):
    """Stage 2 then stage 2.1 from one stage-1 checkpoint, audio encoder frozen."""

    CLASSES, PER_CLASS = 4, 16
    # enough steps for the text path to get past chance-level loss from a
    # randomly initialised audio encoder
    STAGE2 = dict(epochs=20, warmup_epochs=1, batch_size=32, base_lr=1e-3)
    STAGE2_1 = dict(epochs=10, warmup_epochs=0, batch_size=32, base_lr=1e-3)
    clip_s = 2.0

    def setup(self):
        waves, entries, _ = dk.synth_corpus(self.CLASSES, self.PER_CLASS, self.clip_s,
                                            seed=self.seed)
        rng = np.random.default_rng([self.seed, 2])
        captions = [CAPTION_TEMPLATES[i % len(CAPTION_TEMPLATES)].format(c=e.source["class_id"])
                    for i, e in zip(rng.permutation(len(entries)), entries)]
        self.tokenizer = dk.Tokenizer.fit(captions)
        self.data = trainer.StageData(np.stack([_patches(w) for w in waves]), N_F, N_T,
                                      token_rows=[self.tokenizer.encode(c) for c in captions])
        self.text_cfg = dataclasses.replace(MODEL, text_vocab=self.tokenizer.size)
        self.cfg2 = trainer.stage_config_from("2", self.STAGE2)
        self.cfg2_1 = trainer.stage_config_from("2.1", self.STAGE2_1)
        self.stage1_ckpt = os.path.join(self.workdir, "stage1.ckpt")
        net.save_checkpoint(self.stage1_ckpt, net.init_model_state(MODEL, self.seed))

    def round(self, index: int) -> int:
        out = os.path.join(self.workdir, f"text-{index}")
        # as pretrain-stage2: fresh text state, shared parameters from stage 1
        state = net.init_model_state(self.text_cfg, self.seed)
        cli.transfer_shared(net.load_checkpoint(self.stage1_ckpt, MODEL, seed=self.seed), state)
        self.digests = [ref.tree_digest(state.online)]
        state, rows2 = self._train(self.cfg2, self.data, state, os.path.join(out, "stage2"))
        self.digests.append(ref.tree_digest(state.online))
        # as refine-stage2.1: resume from stage 2's final checkpoint
        ckpt = os.path.join(out, "stage2", "checkpoints", "final.ckpt")
        state = net.load_checkpoint(ckpt, self.text_cfg, seed=self.seed)
        state, rows2_1 = self._train(self.cfg2_1, self.data, state, os.path.join(out, "stage2.1"))
        self.digests.append(ref.tree_digest(state.online))
        self.logs = [_read_log(os.path.join(out, s, "losses.csv")) for s in ("stage2", "stage2.1")]
        shutil.rmtree(out)
        return len(rows2) + len(rows2_1)

    def check(self) -> dict:
        steps_per_epoch = -(-self.data.n_samples // self.cfg2.batch_size)
        for cfg, rows in zip((self.cfg2, self.cfg2_1), self.logs):
            checks.schedule_columns(rows, cfg.epochs * steps_per_epoch,
                                    cfg.warmup_epochs * steps_per_epoch, cfg.base_lr, None)
        for digest in self.digests[1:]:
            checks.digest_unchanged(self.digests[0], digest, "frozen audio encoder")
        # across both stages: first epoch of stage 2 against the last of stage 2.1
        last_epoch = self.cfg2.epochs
        joined = self.logs[0] + [dict(r, epoch=last_epoch + int(r["epoch"])) for r in self.logs[1]]
        reduction = checks.loss_falls(joined, "loss_clap", 0.05)
        return {"contrastive_loss_reduction": round(reduction, 4)}


class ExtractEval(Workload):
    """Feature extraction and evaluation over a manifest of WAV clips.

    Every batch of the manifest holds one clip of each length in DURATIONS,
    from under one 208-frame window to five windows, so every batch does the
    same encoder work whatever the seed.
    """

    DURATIONS = (0.6, 1.5, 2.5, 4.0, 6.5, 9.0)
    BATCHES, CLASSES = 8, 4
    # patience = max epochs: the probe never stops early, so its work does
    # not depend on the seed
    PROBE_EPOCHS = 200

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        gauss = rng.standard_normal((4096, self.CLASSES))
        class_embeddings = np.linalg.qr(gauss)[0].T
        wav_dir = os.path.join(self.workdir, "wavs")
        os.makedirs(wav_dir, exist_ok=True)
        entries, rows, self.freqs = [], {}, {}
        n = self.BATCHES * len(self.DURATIONS)
        classes = rng.permutation(np.arange(n) % self.CLASSES)
        for i in range(n):
            c = int(classes[i])
            duration = self.DURATIONS[i % len(self.DURATIONS)]
            f0 = 300.0 * (c + 1) * rng.uniform(0.9, 1.1)
            spec = dk.SynthSpec(class_id=c, carrier="sine", f0=f0,
                                seed=int(rng.integers(2 ** 31)))
            clip_id = f"clip-{i:03d}"
            dk.write_wav(os.path.join(wav_dir, clip_id + ".wav"), dk.synth_waveform(spec, duration))
            caption = f"{dk.synth_caption(c)} take {i}"
            noise = rng.standard_normal(4096)
            rows[dk.caption_digest(caption)] = class_embeddings[c] + 0.5 * noise / np.linalg.norm(noise)
            entries.append(dk.ManifestEntry(id=clip_id, caption=caption, duration_s=duration,
                                            source=clip_id + ".wav", labels=[f"class-{c} tone"]))
            self.freqs[clip_id] = f0
        for c in range(self.CLASSES):
            rows[dk.caption_digest(dk.synth_caption(c))] = class_embeddings[c]
        self.wav_dir = wav_dir
        self.manifest = os.path.join(self.workdir, "manifest.jsonl")
        self.cache = os.path.join(self.workdir, "embeddings.cache")
        dk.save_manifest(self.manifest, entries)
        dk.cache_write(self.cache, 4096, rows)
        ckpt = os.path.join(self.workdir, "model.ckpt")
        net.save_checkpoint(ckpt, net.init_model_state(MODEL, self.seed))
        self.state = net.load_checkpoint(ckpt, MODEL, seed=self.seed)
        # train / val / test split of the linear probe
        order = np.random.default_rng([self.seed, 4]).permutation(n)
        self.splits = (order[n // 2:], order[n // 4:n // 2], order[:n // 4])

    def round(self, index: int) -> int:
        start = time.perf_counter()
        entries = dk.load_manifest(self.manifest)
        cache = dk.cache_read(self.cache)
        width = len(self.DURATIONS)
        mels, clip, semantic = [], [], []
        for b in range(0, len(entries), width):  # one extraction step per batch
            step_start = time.perf_counter()
            batch = [fe.standardize(fe.compute_logmel(fe.Waveform(dk.load_entry_audio(e, self.wav_dir))))
                     for e in entries[b:b + width]]
            clip.append(ev.clip_features(self.state, batch))
            semantic.append(ev.semantic_features(self.state, batch))
            mels.extend(batch)
            self.steps.ms.append((time.perf_counter() - step_start) * 1e3)
        clip, semantic = np.concatenate(clip), np.concatenate(semantic)

        class_embeddings = np.stack([cache.lookup(dk.synth_caption(c)) for c in range(self.CLASSES)])
        class_semantic = net.map_text_embedding(self.state.textpath, class_embeddings).data
        predictions = ev.zero_shot_classify(semantic, class_semantic)
        text = net.map_text_embedding(
            self.state.textpath, np.stack([cache.lookup(e.caption) for e in entries])).data
        sims = losses.similarity_matrix(semantic, text).data
        truth = np.arange(len(entries))
        retrieval = (ev.retrieval_metrics(sims, truth, direction="audio-to-text"),
                     ev.retrieval_metrics(sims.T, truth, direction="text-to-audio"))
        index = {label: i for i, label in enumerate(sorted({e.labels[0] for e in entries}))}
        labels = np.array([index[e.labels[0]] for e in entries])
        parts = [ev.LabeledFeatureSet(clip[idx], labels[idx], split)
                 for idx, split in zip(self.splits, ("train", "val", "test"))]
        probe = ev.linear_probe(*parts, max_epochs=self.PROBE_EPOCHS,
                                patience=self.PROBE_EPOCHS, seed=self.seed)
        self.busy_s += time.perf_counter() - start
        self.audio_s += sum(e.duration_s for e in entries)
        self.out = dict(entries=entries, mels=mels, clip=clip, semantic=semantic, text=text,
                        class_semantic=class_semantic, predictions=predictions,
                        retrieval=retrieval, probe=probe)
        return len(entries)

    def check(self) -> dict:
        out = self.out
        pick = np.random.default_rng([self.seed, 5]).choice(len(out["entries"]), 5, replace=False)
        longest = max(range(len(out["entries"])), key=lambda i: out["mels"][i].n_frames)
        for i in sorted(set(pick.tolist()) | {longest}):
            clip_id = out["entries"][i].id
            want_clip, want_semantic = ref.clip_and_semantic(self.state, out["mels"][i].values)
            checks.features_match(out["clip"][i], want_clip, f"{clip_id} clip feature")
            checks.features_match(out["semantic"][i], want_semantic, f"{clip_id} semantic feature")
            checks.tone_peak(out["mels"][i].values, self.freqs[clip_id])
        checks.zero_shot_predictions(out["predictions"], out["semantic"], out["class_semantic"])
        sims = ref.cosine_matrix(out["semantic"], out["text"])
        checks.retrieval_matches(out["retrieval"][0], sims)
        checks.retrieval_matches(out["retrieval"][1], sims.T)
        checks.probe_consistent(out["probe"], self.PROBE_EPOCHS)
        return {"t2a_r@10": out["retrieval"][1].r_at[10], "probe_accuracy": out["probe"].test_metric,
                "probe_epochs": out["probe"].epochs_run}


WORKLOADS = {"stage1-toy": Stage1Toy, "text-stages": TextStages, "extract-eval": ExtractEval}


def end_to_end(workload: Workload, setup_times: list[float]) -> dict:
    steps = workload.steps.ms
    p50, p90 = np.percentile(steps, [50, 90])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "audio_s_per_s": {"value": workload.audio_s / workload.busy_s, "unit": "s/s"},
        "step_ms_p50": {"value": float(p50), "unit": "ms"},
        "step_ms_p90": {"value": float(p90), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_layer(tracer: Tracer, setup_counts: dict, setups: int, rounds: int) -> dict:
    """Self seconds and counts for one set-up plus one round.

    Set-up and rounds repeat identical work, so the set-up share is divided
    by the number of set-ups and the rest by the number of rounds; counts
    then repeat exactly whatever the run length.
    """
    in_setup = tracer.under("workload.setup")
    self_s: dict[str, float] = {}
    for (name, *_), ns, setup in zip(tracer.spans, tracer.self_ns(), in_setup):
        self_s[name] = self_s.get(name, 0.0) + ns * 1e-9 / (setups if setup else rounds)
    counts = {key: setup_counts.get(key, 0) / setups
              + (value - setup_counts.get(key, 0)) / rounds
              for key, value in tracer.counts.items()}
    metrics = {}
    for name in PER_LAYER_TIMES:
        metrics[f"{name}.s"] = {"value": self_s.get(name, 0.0), "unit": "s"}
    for name, unit in PER_LAYER_COUNTS.items():
        value = counts.get(name.replace("fwd_gflop", "fwd_flop"), 0)
        if name.endswith("gflop"):
            value = value / 1e9
        metrics[name] = {"value": value, "unit": unit}
    return metrics


PER_LAYER_TIMES = (
    "autodiff.backward", "autodiff.gelu", "autodiff.softmax", "autodiff.layer_norm_core",
    "network.encode_tokens.online", "network.encode_tokens.target", "network.predictor_forward",
    "network.project_audio", "network.encode_text_batch", "network.map_text_embedding",
    "network.save_checkpoint", "network.load_checkpoint",
    "frontend.compute_logmel", "frontend.patchify",
    "datakit.read_wav", "datakit.load_manifest", "datakit.synth_corpus",
    "masking.sample_partition",
    "losses.m2d_loss", "losses.clap_loss", "losses.similarity_matrix",
    "trainer.stage1_step", "trainer.stage2_step", "trainer.AdamW.step", "trainer.ema_update",
    "trainer.write_loss_log",
    "evaluation.clip_features", "evaluation.semantic_features", "evaluation.zero_shot_classify",
    "evaluation.retrieval_metrics", "evaluation.linear_probe",
)
PER_LAYER_COUNTS = {
    "autodiff.graph_nodes": "count", "autodiff.matmul.calls": "count",
    "autodiff.matmul.fwd_gflop": "GFLOP", "network.encode_tokens.tokens": "count",
    "network.encode_tokens.calls": "count", "network.block_forward.calls": "count",
    "frontend.compute_logmel.calls": "count", "masking.sample_partition.calls": "count",
    "evaluation.linear_probe.epochs": "count",
}


STEP_SPLIT = ("autodiff.backward", "network.encode_tokens.online", "network.encode_tokens.target",
              "network.predictor_forward", "trainer.AdamW.step", "trainer.ema_update")


def step_split(tracer: Tracer) -> dict:
    """Share of stage-1 step time inside each component (inclusive times)."""
    total: dict[str, int] = {}
    inside = tracer.under("trainer.stage1_step")
    for (name, _parent, start, end), flag in zip(tracer.spans, inside):
        if flag and (name in STEP_SPLIT or name == "trainer.stage1_step"):
            total[name] = total.get(name, 0) + end - start
    step = total.get("trainer.stage1_step", 0)
    if not step:
        return {}
    return {name: round(total.get(name, 0) / step, 4) for name in STEP_SPLIT}


def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    parser.add_argument("--trace-file", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    steps = StepTimer()
    workload = WORKLOADS[args.workload](args.seed, args.workdir, steps)
    tracer = Tracer() if args.trace else None
    region = tracer.region if tracer else (lambda _name: contextlib.nullcontext())
    os.makedirs(args.workdir, exist_ok=True)
    try:
        if tracer:
            tracer.install()
        steps.install()
        setup_times = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            with region("workload.setup"):
                workload.setup()
            setup_times.append(time.perf_counter() - start)
        setup_counts = dict(tracer.counts) if tracer else {}

        attempted = failed = rounds = ops = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            try:
                with region("workload.round"):
                    ops = workload.round(rounds)
            except Exception:
                if rounds == 0:
                    raise
                # every round repeats the same operations, so a failed round
                # counts as many failed operations as the first one attempted
                traceback.print_exc()
                failed += ops
            attempted += ops
            rounds += 1
    finally:
        steps.uninstall()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(args.workdir, ignore_errors=True)

    try:
        extra = workload.check()
        correct = True
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        extra, correct = {"check_failed": str(exc)}, False
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": end_to_end(workload, setup_times),
              "rounds": rounds, "checks": extra, "provenance": provenance()}
    if tracer:
        result["per_layer"] = per_layer(tracer, setup_counts, SETUPS, rounds)
        result["step_split"] = step_split(tracer)
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
