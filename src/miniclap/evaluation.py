"""Evaluation protocols: linear probe, zero-shot classification with
caption templates, audio-text retrieval metrics, and projector
attention export."""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import network as net
from .autodiff import log_softmax
from .config import N_FREQ_PATCHES
from .datakit import atomic_open
from .errors import FormatError, InvalidInput, Unsupported
from .frontend import MelSpectrogram, pad_or_crop_to_grid, patchify, summarize_features
from .losses import similarity_matrix
from .network import AudioProjectorParams, ModelState, affine, named_params
from .trainer import AdamW, bce_with_logits


# -- linear probe -------------------------------------------------------------


@dataclass
class LabeledFeatureSet:
    features: np.ndarray  # [n, dim]
    labels: np.ndarray  # [n] int class ids, or [n, c] multi-hot
    split: str = "train"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise InvalidInput("features must be [n, dim]")
        if self.labels.shape[0] != self.features.shape[0]:
            raise InvalidInput("labels and features disagree on the sample count")

    @property
    def multilabel(self) -> bool:
        return self.labels.ndim == 2


@dataclass
class ProbeResult:
    test_metric: float
    best_epoch: int
    epochs_run: int
    val_history: list[float] = field(default_factory=list)


def _probe_metric(weight, bias, data: LabeledFeatureSet) -> float:
    logits = data.features @ weight + bias
    if data.multilabel:
        return mean_average_precision(logits, data.labels)
    return float((logits.argmax(axis=1) == data.labels).mean())


def mean_average_precision(scores: np.ndarray, multi_hot: np.ndarray) -> float:
    """Mean over classes of average precision (classes with positives)."""
    aps = []
    for c in range(scores.shape[1]):
        positives = multi_hot[:, c] > 0
        if not positives.any():
            continue
        order = np.argsort(-scores[:, c], kind="stable")
        hits = positives[order]
        ranks = np.flatnonzero(hits) + 1
        precisions = np.arange(1, ranks.size + 1) / ranks
        aps.append(precisions.mean())
    if not aps:
        raise InvalidInput("no class has a positive sample")
    return float(np.mean(aps))


def linear_probe(train: LabeledFeatureSet, val: LabeledFeatureSet, test: LabeledFeatureSet,
                 lr: float = 3e-5, max_epochs: int = 200, patience: int = 20,
                 seed: int = 0) -> ProbeResult:
    """Train one linear layer on frozen features with early stopping."""
    for part in (train, val, test):
        if part.features.shape[0] == 0:
            raise InvalidInput(f"empty {part.split} split")
    if train.multilabel:
        n_out = train.labels.shape[1]
    else:
        n_out = int(max(train.labels.max(), val.labels.max(), test.labels.max())) + 1

    rng = np.random.default_rng(seed)
    head = net.init_affine(rng, train.features.shape[1], n_out)
    opt = AdamW(named_params(head, "head"), lr=lr, betas=(0.9, 0.999), weight_decay=0.0)

    best = (-np.inf, 0, None, None)  # metric, epoch, weight, bias
    history: list[float] = []
    epochs_run = 0
    for epoch in range(max_epochs):
        logits = affine(head, train.features)
        if train.multilabel:
            loss = bce_with_logits(logits, train.labels)
        else:
            picks = log_softmax(logits, axis=1)[np.arange(train.labels.shape[0]), train.labels]
            loss = -picks.mean()
        opt.zero_grad()
        loss.backward()
        opt.step()
        epochs_run = epoch + 1

        metric = _probe_metric(head.weight.data, head.bias.data, val)
        history.append(metric)
        if metric > best[0]:
            best = (metric, epoch, head.weight.data.copy(), head.bias.data.copy())
        elif epoch - best[1] >= patience:
            break

    weight = best[2] if best[2] is not None else head.weight.data
    bias = best[3] if best[3] is not None else head.bias.data
    return ProbeResult(
        test_metric=_probe_metric(weight, bias, test),
        best_epoch=best[1],
        epochs_run=epochs_run,
        val_history=history,
    )


# -- zero-shot classification ---------------------------------------------------

# CREMA-D's six fixed caption phrases, keyed by canonical class name.
CREMAD_PHRASES = {
    "anger": "angry person talking",
    "disgust": "someone talking in disgust",
    "fear": "someone talking with a sense of fear",
    "happy": "someone talking happily and joyfully",
    "neutral": "someone talking calmly",
    "sad": "someone talking sadly",
}

_SUFFIX = " can be heard"


def caption_from_label(task_id: str, label) -> str:
    """Render the caption for one class of a registered task.

    Multi-label tasks take a list of labels joined with ", "."""
    task = task_id.lower()
    if task in ("audioset", "fsd50k"):
        labels = [label] if isinstance(label, str) else list(label)
        return ", ".join(labels) + _SUFFIX
    if not isinstance(label, str):
        raise InvalidInput(f"task {task_id!r} takes a single label string")
    if task in ("esc50", "us8k"):
        return label + _SUFFIX
    if task == "cremad":
        if label not in CREMAD_PHRASES:
            raise InvalidInput(f"unknown emotion class {label!r}")
        return CREMAD_PHRASES[label] + _SUFFIX
    if task == "gtzan":
        return label + " music" + _SUFFIX
    if task == "nsynth":
        return "the musical instrument sound of " + label + _SUFFIX
    raise InvalidInput(f"no caption template registered for task {task_id!r}")


def zero_shot_classify(audio_semantic: np.ndarray, class_semantic: np.ndarray) -> np.ndarray:
    """Nearest class by cosine similarity; ties go to the lowest index."""
    return similarity_matrix(audio_semantic, class_semantic).data.argmax(axis=1)


# -- retrieval ------------------------------------------------------------------


@dataclass
class RetrievalResult:
    r_at: dict[int, float]
    map_at_10: float
    direction: str

    def __post_init__(self):
        if not self.r_at[1] <= self.r_at[5] <= self.r_at[10]:
            raise InvalidInput("recall must be nondecreasing in k")


def _relevant_sets(ground_truth, n_queries: int, n_gallery: int) -> list[set[int]]:
    items = list(ground_truth)
    if len(items) != n_queries:
        raise InvalidInput("ground truth must cover every query")
    sets: list[set[int]] = []
    for q, rel in enumerate(items):
        if rel is None:
            raise InvalidInput(f"query {q} has no ground truth")
        rel_set = {int(rel)} if np.ndim(rel) == 0 else {int(r) for r in rel}
        if not rel_set:
            raise InvalidInput(f"query {q} has no relevant gallery item")
        if any(r < 0 or r >= n_gallery for r in rel_set):
            raise InvalidInput(f"query {q} references a gallery index out of range")
        sets.append(rel_set)
    return sets


def retrieval_metrics(similarity: np.ndarray, ground_truth,
                      direction: str = "text-to-audio") -> RetrievalResult:
    """R@{1,5,10} and mAP@10 under descending-score ranking;
    `ground_truth` holds each query's gallery index or list of indices.

    Ties are broken by ascending gallery index. mAP@10 is average
    precision truncated at rank 10, normalized by min(#relevant, 10);
    for single-relevant queries this reduces to 1/rank.
    """
    s = np.asarray(similarity, dtype=np.float64)
    if s.ndim != 2:
        raise InvalidInput("similarity must be a [n_queries, n_gallery] matrix")
    n_q, n_g = s.shape
    relevant = _relevant_sets(ground_truth, n_q, n_g)

    ks = (1, 5, 10)
    hits = {k: 0 for k in ks}
    ap_sum = 0.0
    gallery_order = np.arange(n_g)
    for q in range(n_q):
        order = np.lexsort((gallery_order, -s[q]))
        rel = relevant[q]
        best_rank = None
        found = 0
        ap = 0.0
        for rank, g in enumerate(order[:max(ks)], start=1):
            if int(g) in rel:
                found += 1
                ap += found / rank
                if best_rank is None:
                    best_rank = rank
        for k in ks:
            if best_rank is not None and best_rank <= k:
                hits[k] += 1
        ap_sum += ap / min(len(rel), 10)
    return RetrievalResult(
        r_at={k: hits[k] / n_q for k in ks},
        map_at_10=ap_sum / n_q,
        direction=direction,
    )


# -- projector attention ---------------------------------------------------------


def attention_map(ap: AudioProjectorParams, z: np.ndarray) -> np.ndarray:
    """Class-token attention weights over the k input patch features.

    Softmax is taken over the patch keys of the projector block only
    (the class-token key is excluded), so the weights are a length-k
    probability vector.
    """
    if ap.kind != "transformer":
        raise Unsupported("attention export needs the transformer projector")
    if len(ap.blocks) != 1 or ap.n_heads != 1:
        raise Unsupported("attention export needs a single-block, single-head projector")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise InvalidInput("expected a [k, dim] feature array")
    block = ap.blocks[0]
    d = z.shape[1]
    x = np.concatenate([ap.cls_token.data.reshape(1, d), z], axis=0)
    h = net.layer_norm(block.norm1, x).data
    q = h[0] @ block.attn_q.weight.data + block.attn_q.bias.data
    keys = h[1:] @ block.attn_k.weight.data + block.attn_k.bias.data
    logits = keys @ q / np.sqrt(d)
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


# -- whole-clip feature extraction ------------------------------------------------


def encode_windows(state: ModelState, mels: list[MelSpectrogram],
                   summary=lambda z: z.data) -> tuple[np.ndarray, np.ndarray]:
    """Encode every window of every clip with the online encoder, without
    building a graph, through `net.encode_frozen` on this thread and
    `net.worker()`.

    A clip is split into consecutive windows of `input_frames` frames;
    the last one is zero-padded to the full width. `summary` maps each
    encoder call's [w, n_f*n_t, dim] patch features to per-window rows,
    so only the summaries of all windows are held at once; by default it
    keeps the patch features. Returns the stacked summaries, in window
    order, and each window's clip index.
    """
    if not mels:
        raise InvalidInput("no clips to encode")
    width = state.config.input_frames
    windows = [(clip, MelSpectrogram(mel.values[:, start:start + width]))
               for clip, mel in enumerate(mels)
               for start in range(0, max(1, mel.n_frames), width)]
    patches = np.stack([patchify(pad_or_crop_to_grid(w, width)).patches for _, w in windows])
    # every window has the configured width
    feats = net.encode_frozen(state.online, patches, state.online.posenc.table,
                              summary=summary, pool=net.worker())
    return feats, np.array([clip for clip, _ in windows])


def _mean_per_clip(feats: np.ndarray, owner: np.ndarray, n_clips: int) -> np.ndarray:
    """Each clip's mean row. `owner` is sorted, because `encode_windows`
    emits windows in clip order, so each clip's rows are one slice."""
    bounds = np.searchsorted(owner, np.arange(n_clips + 1))
    return np.stack([feats[a:b].mean(axis=0) for a, b in zip(bounds[:-1], bounds[1:])])


def clip_features(state: ModelState, mels: list[MelSpectrogram]) -> np.ndarray:
    """Frozen clip-level features: encode full windows, average the
    time-mean concatenated frame features over windows. [n, n_f*dim]."""
    n_t = state.config.n_time_patches
    feats, owner = encode_windows(
        state, mels, lambda z: summarize_features(z, N_FREQ_PATCHES, n_t)[1].data)
    return _mean_per_clip(feats, owner, len(mels))


def semantic_features(state: ModelState, mels: list[MelSpectrogram]) -> np.ndarray:
    """Projector audio features (mean over windows for long clips). [n, dim]."""
    feats, owner = encode_windows(state, mels, lambda z: net.project_audio(state.projector, z).data)
    return _mean_per_clip(feats, owner, len(mels))


# -- reports and file formats -----------------------------------------------------

FEATURE_MAGIC = b"MCFE"
FEATURE_VERSION = 1


def write_features(path, ids: list[str], features: np.ndarray) -> None:
    """Write the feature file and its `.ids` sidecar. Each file is written
    atomically, and neither is replaced unless both were written whole;
    the sidecar is replaced first, just before the feature file."""
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim != 2 or len(ids) != arr.shape[0]:
        raise InvalidInput("need one id per feature row")
    with atomic_open(path) as fh, atomic_open(str(path) + ".ids", "w", encoding="utf-8") as sidecar:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<I", FEATURE_VERSION))
        fh.write(struct.pack("<I", arr.shape[1]))
        fh.write(struct.pack("<Q", arr.shape[0]))
        fh.write(arr.tobytes())
        sidecar.writelines(i + "\n" for i in ids)


def read_features(path) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        if fh.read(4) != FEATURE_MAGIC:
            raise FormatError("bad feature-file magic")
        header = fh.read(16)
        if len(header) != 16:
            raise FormatError("truncated feature file header")
        version, dim = struct.unpack("<II", header[:8])
        (count,) = struct.unpack("<Q", header[8:])
        if version != FEATURE_VERSION:
            raise FormatError(f"unsupported feature-file version {version}")
        # the header's sizes are checked against the file before the read
        if 4 * dim * count != os.fstat(fh.fileno()).st_size - fh.tell():
            raise FormatError("feature payload size mismatch")
        payload = fh.read(4 * dim * count)
    arr = np.frombuffer(payload, dtype="<f4").reshape(count, dim).astype(np.float64)
    with open(str(path) + ".ids", "r", encoding="utf-8") as fh:
        ids = [line.rstrip("\n") for line in fh]
    if len(ids) != count:
        raise FormatError("sidecar id count does not match the feature file")
    return ids, arr


def write_metrics_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise InvalidInput("no metric rows to write")
    fieldnames = list(rows[0].keys())
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)\n"
    cols = list(rows[0].keys())
    cells = [[str(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in cells)
    return "\n".join(lines) + "\n"


def write_pgm(path, weights: np.ndarray, n_f: int, n_t: int) -> None:
    """Attention weights as a binary PGM, one pixel per patch.

    The max weight maps to 255; row 0 of the image is the highest
    frequency band so the plot reads like a spectrogram.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(n_f, n_t)
    if w.min() < 0:
        raise InvalidInput("attention weights must be nonnegative")
    peak = w.max()
    scaled = np.zeros_like(w) if peak == 0 else w / peak
    pixels = np.flipud(np.round(scaled * 255).astype(np.uint8))
    with atomic_open(path) as fh:
        fh.write(f"P5\n{n_t} {n_f}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
