"""Command-line entry point: one subcommand per pipeline stage.

Every run writes into a run directory containing a frozen copy of the
effective config (after overrides), plus the stage's loss log,
checkpoints, or metrics. `main` creates the directory and writes that
copy before it calls the verb with `(args, out, cfg)`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import config as C
from . import datakit as dk
from . import evaluation as ev
from . import network as net
from . import trainer
from .config import N_FREQ_PATCHES
from .errors import FormatError, InvalidConfig, InvalidInput, ParseError, Unsupported
from .frontend import MelSpectrogram, Waveform, compute_logmel, pad_or_crop_to_grid, patchify, standardize
from .losses import similarity_matrix
from .network import transfer_shared  # by name: the benchmark calls `cli.transfer_shared`
from .trainer import StageData

OUT_ENV = "M2DC_OUT"


class MissingInput(RuntimeError):
    pass


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = args.out or os.path.join(os.environ.get(OUT_ENV, "runs"), args.verb)
        os.makedirs(out, exist_ok=True)
        cfg = C.apply_overrides(C.load_config_file(args.config) if args.config else {}, args.set)
        with dk.atomic_open(os.path.join(out, "config.txt"), "w", encoding="utf-8") as fh:
            fh.write(C.render_config(cfg))
        return args.func(args, out, cfg)
    except (InvalidInput, InvalidConfig, ParseError, FormatError, Unsupported,
            MissingInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miniclap",
        description="Masked-spectrogram pretraining with audio-text alignment.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help=f"run directory (default ${OUT_ENV}/<verb> or runs/<verb>)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override, repeatable, last wins")
        return p

    p = common(sub.add_parser("synth-data", help="generate the synthetic corpus"))
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--duration", type=float, default=2.0)
    p.set_defaults(func=cmd_synth_data)

    for verb, func in (("pretrain-stage1", cmd_pretrain_stage1),
                       ("finetune-stage1.1", cmd_finetune_stage1_1)):
        p = common(sub.add_parser(verb))
        p.add_argument("--manifest", required=True)
        p.add_argument("--wav-dir")
        if verb == "pretrain-stage1":
            p.add_argument("--cache", required=True, help="text-embedding cache")
        else:
            p.add_argument("--init", help="stage-1 checkpoint to fine-tune")
        p.set_defaults(func=func)

    for verb in ("pretrain-stage2", "refine-stage2.1"):
        p = common(sub.add_parser(verb))
        p.add_argument("--manifest", required=True)
        p.add_argument("--wav-dir")
        p.add_argument("--init", help="checkpoint from the previous stage")
        p.set_defaults(func=cmd_pretrain_stage2, stage_id="2" if verb == "pretrain-stage2" else "2.1")

    p = common(sub.add_parser("extract-features"))
    p.add_argument("--init", help="checkpoint to encode with")
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-dir")
    p.add_argument("--kind", choices=("clip", "semantic"), default="clip")
    p.set_defaults(func=cmd_extract_features)

    p = common(sub.add_parser("eval-linear"))
    p.add_argument("--features", required=True, help="feature file from extract-features")
    p.add_argument("--manifest", required=True, help="labels for the feature ids")
    p.add_argument("--val-frac", type=float, default=0.15)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.set_defaults(func=cmd_eval_linear)

    p = common(sub.add_parser("eval-zeroshot"))
    p.add_argument("--init", help="checkpoint to encode with")
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-dir")
    p.add_argument("--cache", required=True, help="class-caption embedding cache")
    p.set_defaults(func=cmd_eval_zeroshot)

    p = common(sub.add_parser("eval-retrieval"))
    p.add_argument("--init", help="checkpoint to encode with")
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-dir")
    p.add_argument("--cache", required=True, help="caption embedding cache")
    p.set_defaults(func=cmd_eval_retrieval)

    p = common(sub.add_parser("export-attention"))
    p.add_argument("--init", help="checkpoint to encode with")
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-dir")
    p.add_argument("--entry", help="manifest id to export (default: every entry)")
    p.set_defaults(func=cmd_export_attention)

    return parser


# -- shared plumbing -----------------------------------------------------------


def _require_file(path, what: str):
    if not path:
        raise MissingInput(f"missing {what}: pass --init")
    if not os.path.exists(path):
        raise MissingInput(f"missing {what}: {path}")
    return path


def _stage_config(cfg: dict, stage_id: str) -> trainer.StageConfig:
    return trainer.stage_config_from(stage_id, C.section(cfg, trainer.config_section(stage_id)))


def _prepare_mels(entries, wav_dir) -> list[MelSpectrogram]:
    if not entries:
        raise InvalidInput("manifest has no entries")
    mels = []
    for entry in entries:
        audio = dk.load_entry_audio(entry, wav_dir)
        mels.append(standardize(compute_logmel(Waveform(audio))))
    return mels


def _prepare_grids(entries, wav_dir, input_frames: int, rng) -> tuple[np.ndarray, int, int]:
    """Standardized, padded/cropped patch grids for a whole manifest.

    Long clips get one random crop (training-time convention); short
    clips are zero-padded on the right.
    """
    stacks = []
    n_f = n_t = None
    for mel in _prepare_mels(entries, wav_dir):
        slack = mel.n_frames - input_frames
        offset = int(rng.integers(0, slack + 1)) if slack > 0 else 0
        grid = patchify(pad_or_crop_to_grid(mel, input_frames, offset))
        stacks.append(grid.patches)
        n_f, n_t = grid.n_f, grid.n_t
    return np.stack(stacks), n_f, n_t


def _multi_hot(label_lists: list[list[str]], classes: list[str]) -> np.ndarray:
    """[n, len(classes)] with a 1 where row i has that class among its labels."""
    index = {label: i for i, label in enumerate(classes)}
    out = np.zeros((len(label_lists), len(classes)))
    for row, labels in enumerate(label_lists):
        out[row, [index[label] for label in labels]] = 1.0
    return out


def _load_state(args, cfg: dict, what: str) -> net.ModelState:
    """The `--init` checkpoint, built from its own model config. A
    ``model.*`` setting must agree with that config."""
    path = _require_file(args.init, what)
    state = net.load_checkpoint(path, seed=args.seed)
    wanted = C.model_config_from(cfg, base=state.config)
    for key in C.section(cfg, "model"):
        if getattr(wanted, key) != getattr(state.config, key):
            raise InvalidConfig(f"model.{key}={getattr(wanted, key)} disagrees with the "
                                f"checkpoint's {getattr(state.config, key)}")
    return state


def _load_caption_scorer(args, cfg: dict) -> net.ModelState:
    """The checkpoint of a verb that scores captions through stage 1's
    `llm_map`, which stages 2 and 2.1 never train."""
    state = _load_state(args, cfg, "checkpoint")
    if state.textpath.encoder is not None:
        raise Unsupported(f"{args.verb} scores captions through stage 1's llm_map, which "
                          "stages 2 and 2.1 do not train: pass a stage-1 checkpoint")
    return state


# -- commands ------------------------------------------------------------------


def cmd_synth_data(args, out: str, cfg: dict) -> int:
    waves, entries, embeddings = dk.synth_corpus(
        args.classes, args.per_class, args.duration, args.seed)
    wav_dir = os.path.join(out, "wavs")
    os.makedirs(wav_dir, exist_ok=True)
    for wave_data, entry in zip(waves, entries):
        dk.write_wav(os.path.join(wav_dir, entry.id + ".wav"), wave_data)
    dk.save_manifest(os.path.join(out, "manifest.jsonl"), entries)
    rows = {dk.caption_digest(dk.synth_caption(c)): embeddings[c]
            for c in range(args.classes)}
    dk.cache_write(os.path.join(out, "embeddings.cache"), embeddings.shape[1], rows)
    print(f"wrote {len(entries)} clips, manifest, and embedding cache to {out}")
    return 0


def cmd_pretrain_stage1(args, out: str, cfg: dict) -> int:
    stage_cfg = _stage_config(cfg, "1")
    model_cfg = C.model_config_from(cfg)
    entries = dk.load_manifest(args.manifest)
    cache = dk.cache_read(args.cache)

    rng = np.random.default_rng([args.seed, 0])
    patches, n_f, n_t = _prepare_grids(entries, args.wav_dir, model_cfg.input_frames, rng)
    embeddings = np.stack([cache.lookup(e.caption) for e in entries])
    data = StageData(patches, n_f, n_t, embeddings=embeddings)

    state = net.init_model_state(model_cfg, args.seed)
    state, rows = trainer.run_stage(stage_cfg, data, state, seed=args.seed, out_dir=out)
    if rows:
        print(f"stage 1 done: {len(rows)} steps, final loss {rows[-1]['loss_total']}")
    print(f"checkpoint: {os.path.join(out, 'checkpoints', 'final.ckpt')}")
    return 0


def cmd_finetune_stage1_1(args, out: str, cfg: dict) -> int:
    stage_cfg = _stage_config(cfg, "1.1")
    entries = dk.load_manifest(args.manifest)
    state = _load_state(args, cfg, "stage-1 checkpoint")

    classes = sorted({label for e in entries for label in e.labels})
    if not classes:
        raise InvalidInput("manifest has no labels to fine-tune on")
    labels = _multi_hot([e.labels for e in entries], classes)

    rng = np.random.default_rng([args.seed, 0])
    patches, n_f, n_t = _prepare_grids(entries, args.wav_dir, state.config.input_frames, rng)
    data = StageData(patches, n_f, n_t, labels=labels)
    result = trainer.stage1_1_finetune(state, data, stage_cfg, seed=args.seed)

    net.save_checkpoint(os.path.join(out, "finetuned.ckpt"), state)
    with dk.atomic_open(os.path.join(out, "head.npz")) as fh:
        np.savez(fh, weight=result.head.weight.data, bias=result.head.bias.data,
                 classes=np.array(classes))
    if result.losses:
        print(f"stage 1.1 done: {len(result.losses)} steps, final BCE {result.losses[-1]:.6f}")
    return 0


def cmd_pretrain_stage2(args, out: str, cfg: dict) -> int:
    stage_id = args.stage_id
    stage_cfg = _stage_config(cfg, stage_id)
    entries = dk.load_manifest(args.manifest)
    state = _load_state(args, cfg, "stage-1 checkpoint" if stage_id == "2" else "stage-2 checkpoint")

    if stage_id == "2":
        tokenizer = dk.Tokenizer.fit([e.caption for e in entries])
        stage1_state = state
        state = net.init_model_state(
            dataclasses.replace(stage1_state.config, text_vocab=tokenizer.size), args.seed)
        state.vocab = tokenizer.vocab
        transfer_shared(stage1_state, state)
    elif not state.vocab:
        raise InvalidInput(f"{args.init} has no tokenizer vocabulary: pass a stage-2 checkpoint")
    else:
        tokenizer = dk.Tokenizer(state.vocab)

    rng = np.random.default_rng([args.seed, 0])
    patches, n_f, n_t = _prepare_grids(entries, args.wav_dir, state.config.input_frames, rng)
    tokens = [tokenizer.encode(e.caption) for e in entries]
    data = StageData(patches, n_f, n_t, token_rows=tokens)

    state, rows = trainer.run_stage(stage_cfg, data, state, seed=args.seed, out_dir=out)
    if rows:
        print(f"stage {stage_id} done: {len(rows)} steps, final loss {rows[-1]['loss_clap']}")
    print(f"checkpoint: {os.path.join(out, 'checkpoints', 'final.ckpt')}")
    return 0


def cmd_extract_features(args, out: str, cfg: dict) -> int:
    state = _load_state(args, cfg, "checkpoint")
    entries = dk.load_manifest(args.manifest)
    mels = _prepare_mels(entries, args.wav_dir)
    if args.kind == "clip":
        feats = ev.clip_features(state, mels)
    else:
        feats = ev.semantic_features(state, mels)
    path = os.path.join(out, f"{args.kind}.feat")
    ev.write_features(path, [e.id for e in entries], feats)
    print(f"wrote {feats.shape[0]} x {feats.shape[1]} features to {path}")
    return 0


def _split_indices(n: int, val_frac: float, test_frac: float, seed: int):
    for flag, frac in (("--val-frac", val_frac), ("--test-frac", test_frac)):
        if not 0 <= frac < 1:
            raise InvalidInput(f"{flag} must be at least 0 and below 1, got {frac}")
    order = np.random.default_rng([seed, 1]).permutation(n)
    n_test = max(1, int(round(n * test_frac)))
    n_val = max(1, int(round(n * val_frac)))
    if n_test + n_val >= n:
        raise InvalidInput("splits leave no training data")
    return order[n_test + n_val:], order[n_test:n_test + n_val], order[:n_test]


def cmd_eval_linear(args, out: str, cfg: dict) -> int:
    ids, feats = ev.read_features(args.features)
    entries = {e.id: e for e in dk.load_manifest(args.manifest)}
    missing = [i for i in ids if i not in entries]
    if missing:
        raise InvalidInput(f"feature ids missing from manifest: {missing[:3]}")
    unlabeled = [i for i in ids if not entries[i].labels]
    if unlabeled:
        raise InvalidInput(f"manifest entry {unlabeled[0]!r} has no label")
    classes = sorted({label for e in entries.values() for label in e.labels})
    # a manifest with a multi-label clip is scored as multi-label, by mAP
    if any(len(e.labels) > 1 for e in entries.values()):
        metric, labels = "mAP", _multi_hot([entries[i].labels for i in ids], classes)
    else:
        index = {label: i for i, label in enumerate(classes)}
        metric, labels = "accuracy", np.array([index[entries[i].labels[0]] for i in ids])

    tr, va, te = _split_indices(len(ids), args.val_frac, args.test_frac, args.seed)
    result = ev.linear_probe(
        ev.LabeledFeatureSet(feats[tr], labels[tr], "train"),
        ev.LabeledFeatureSet(feats[va], labels[va], "val"),
        ev.LabeledFeatureSet(feats[te], labels[te], "test"),
        seed=args.seed,
    )
    rows = [{"metric": metric, "value": f"{result.test_metric:.4f}",
             "best_epoch": result.best_epoch, "epochs_run": result.epochs_run}]
    ev.write_metrics_csv(os.path.join(out, "metrics.csv"), rows)
    print(ev.format_table(rows), end="")
    return 0


def cmd_eval_zeroshot(args, out: str, cfg: dict) -> int:
    state = _load_caption_scorer(args, cfg)
    entries = dk.load_manifest(args.manifest)
    cache = dk.cache_read(args.cache)

    mels = _prepare_mels(entries, args.wav_dir)
    captions = sorted({e.caption for e in entries})
    class_of = {caption: i for i, caption in enumerate(captions)}
    class_embeddings = np.stack([cache.lookup(c) for c in captions])
    class_semantic = net.map_text_embedding(state.textpath, class_embeddings).data

    audio_semantic = ev.semantic_features(state, mels)
    predictions = ev.zero_shot_classify(audio_semantic, class_semantic)
    truth = np.array([class_of[e.caption] for e in entries])
    accuracy = float((predictions == truth).mean())

    rows = [{"metric": "zero_shot_accuracy", "value": f"{accuracy:.4f}",
             "classes": len(captions), "samples": len(entries)}]
    ev.write_metrics_csv(os.path.join(out, "metrics.csv"), rows)
    print(ev.format_table(rows), end="")
    return 0


def cmd_eval_retrieval(args, out: str, cfg: dict) -> int:
    state = _load_caption_scorer(args, cfg)
    entries = dk.load_manifest(args.manifest)
    cache = dk.cache_read(args.cache)

    mels = _prepare_mels(entries, args.wav_dir)
    text_embeddings = np.stack([cache.lookup(e.caption) for e in entries])
    s_t = net.map_text_embedding(state.textpath, text_embeddings).data
    s_a = ev.semantic_features(state, mels)

    sims = similarity_matrix(s_a, s_t).data
    gt = np.arange(len(entries))
    a2t = ev.retrieval_metrics(sims, gt, direction="audio-to-text")
    t2a = ev.retrieval_metrics(sims.T, gt, direction="text-to-audio")
    rows = [
        {"direction": r.direction, "r@1": f"{r.r_at[1]:.4f}", "r@5": f"{r.r_at[5]:.4f}",
         "r@10": f"{r.r_at[10]:.4f}", "map@10": f"{r.map_at_10:.4f}"}
        for r in (t2a, a2t)
    ]
    ev.write_metrics_csv(os.path.join(out, "metrics.csv"), rows)
    print(ev.format_table(rows), end="")
    return 0


def cmd_export_attention(args, out: str, cfg: dict) -> int:
    state = _load_state(args, cfg, "checkpoint")
    entries = dk.load_manifest(args.manifest)
    if args.entry:
        entries = [e for e in entries if e.id == args.entry]
        if not entries:
            raise InvalidInput(f"manifest has no entry {args.entry!r}")

    window = state.config.input_frames
    for entry in entries:
        mel = _prepare_mels([entry], args.wav_dir)[0]
        z, _ = ev.encode_windows(state, [MelSpectrogram(mel.values[:, :window])])
        weights = ev.attention_map(state.projector, z[0])
        path = os.path.join(out, f"attention-{entry.id}.pgm")
        ev.write_pgm(path, weights, N_FREQ_PATCHES, state.config.n_time_patches)
    print(f"wrote {len(entries)} attention map(s) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
