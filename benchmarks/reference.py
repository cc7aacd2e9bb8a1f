"""Independent reference computations for the benchmark's checks.

Nothing here calls into miniclap: the encoder, projector, schedules,
ranking metrics and zero-shot rule are re-derived from their
definitions with plain numpy loops. Model parameters are read straight
off the parameter objects' `.data` arrays.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

PATCH = 16
N_MELS = 80
LN_EPS = 1e-6
GELU_C = math.sqrt(2.0 / math.pi)


# -- schedules -------------------------------------------------------------------


def lr_schedule(step: int, total: int, warmup: int, base_lr: float) -> float:
    """Linear warm-up to base_lr, then cosine annealing to zero."""
    if step < warmup:
        return base_lr * step / warmup
    if total == warmup:
        return base_lr
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * (step - warmup) / (total - warmup)))


def ema_schedule(step: int, total: int, start: float, end: float) -> float:
    """EMA decay interpolated linearly from start (step 0) to end (step total)."""
    return start + (end - start) * step / total


# -- front-end geometry ----------------------------------------------------------


def hz_to_mel(f: float) -> float:
    """Slaney mel scale: 3 mels per 200 Hz below 1 kHz, log-spaced above."""
    if f < 1000.0:
        return 3.0 * f / 200.0
    return 15.0 + 27.0 * math.log(f / 1000.0) / math.log(6.4)


def mel_to_hz(m: float) -> float:
    if m < 15.0:
        return 200.0 * m / 3.0
    return 1000.0 * math.exp(math.log(6.4) * (m - 15.0) / 27.0)


def mel_bands_containing(freq: float, n_mels: int = N_MELS,
                         fmin: float = 50.0, fmax: float = 8000.0) -> list[int]:
    """Indices of the triangular mel bands whose support holds `freq`."""
    lo, hi = hz_to_mel(fmin), hz_to_mel(fmax)
    corners = [mel_to_hz(lo + (hi - lo) * i / (n_mels + 1)) for i in range(n_mels + 2)]
    return [m for m in range(n_mels) if corners[m] < freq < corners[m + 2]]


# -- encoder and projector, one window at a time -----------------------------------


def windows(mel: np.ndarray, frames: int) -> list[np.ndarray]:
    """Consecutive `frames`-wide windows; the last is zero-padded on the right."""
    count = max(1, -(-mel.shape[1] // frames))
    out = []
    for w in range(count):
        win = np.zeros((mel.shape[0], frames))
        chunk = mel[:, w * frames:(w + 1) * frames]
        win[:, :chunk.shape[1]] = chunk
        out.append(win)
    return out


def patches_of(window: np.ndarray) -> np.ndarray:
    """16x16 patches in frequency-major order: row f * n_t + t."""
    n_f, n_t = window.shape[0] // PATCH, window.shape[1] // PATCH
    rows = []
    for f in range(n_f):
        for t in range(n_t):
            rows.append(window[f * PATCH:(f + 1) * PATCH, t * PATCH:(t + 1) * PATCH].reshape(-1))
    return np.array(rows)


def _sincos(pos: int, channels: int) -> list[float]:
    quarter = channels // 2
    angles = [pos / 10000.0 ** (i / quarter) for i in range(quarter)]
    return [math.sin(a) for a in angles] + [math.cos(a) for a in angles]


def position_table(n_f: int, n_t: int, dim: int) -> np.ndarray:
    """2-D sinusoidal table: first half encodes the frequency index, second half time."""
    half = dim // 2
    return np.array([_sincos(f, half) + _sincos(t, half)
                     for f in range(n_f) for t in range(n_t)])


def layer_norm(x: np.ndarray, norm) -> np.ndarray:
    out = np.empty_like(x)
    for i, row in enumerate(x):
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = (row - mu) / math.sqrt(var + LN_EPS) * norm.gain.data + norm.bias.data
    return out


def _affine(x: np.ndarray, p) -> np.ndarray:
    return x @ p.weight.data + p.bias.data


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * x ** 3)))


def block(x: np.ndarray, blk) -> np.ndarray:
    """Pre-norm transformer block on [n, d], looping over heads and queries."""
    n, d = x.shape
    dh = d // blk.n_heads
    h = layer_norm(x, blk.norm1)
    q, k, v = _affine(h, blk.attn_q), _affine(h, blk.attn_k), _affine(h, blk.attn_v)
    ctx = np.zeros((n, d))
    for head in range(blk.n_heads):
        cols = slice(head * dh, (head + 1) * dh)
        for i in range(n):
            logits = k[:, cols] @ q[i, cols] / math.sqrt(dh)
            weights = np.exp(logits - logits.max())
            ctx[i, cols] = (weights / weights.sum()) @ v[:, cols]
    x = x + _affine(ctx, blk.attn_out)
    return x + _affine(gelu(_affine(layer_norm(x, blk.norm2), blk.mlp_in)), blk.mlp_out)


def encode_window(enc, window: np.ndarray) -> np.ndarray:
    """Patch embedding, position rows, blocks and final norm: [n_f * n_t, dim]."""
    n_f, n_t = window.shape[0] // PATCH, window.shape[1] // PATCH
    x = _affine(patches_of(window), enc.patch_embed)
    x = x + position_table(n_f, n_t, x.shape[1])
    for blk in enc.blocks:
        x = block(x, blk)
    return layer_norm(x, enc.final_norm)


def clip_feature_of(z: np.ndarray, n_f: int) -> np.ndarray:
    """Time mean of frame features; frame t concatenates the n_f patches of column t."""
    n_t = z.shape[0] // n_f
    frames = [np.concatenate([z[f * n_t + t] for f in range(n_f)]) for t in range(n_t)]
    return np.mean(frames, axis=0)


def project(proj, z: np.ndarray) -> np.ndarray:
    """Transformer audio projector: the class-token row after its blocks."""
    x = np.concatenate([proj.cls_token.data.reshape(1, -1), z], axis=0)
    for blk in proj.blocks:
        x = block(x, blk)
    return x[0]


def clip_and_semantic(state, mel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Window-averaged clip feature and projector feature of one standardized mel."""
    frames = state.config.input_frames
    clips, semantics = [], []
    for window in windows(mel, frames):
        z = encode_window(state.online, window)
        clips.append(clip_feature_of(z, window.shape[0] // PATCH))
        semantics.append(project(state.projector, z))
    return np.mean(clips, axis=0), np.mean(semantics, axis=0)


def map_text(llm_map, embeddings: np.ndarray) -> np.ndarray:
    return np.array([e @ llm_map.weight.data + llm_map.bias.data for e in embeddings])


# -- evaluation rules ------------------------------------------------------------


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty((a.shape[0], b.shape[0]))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i, j] = (u @ v) / (math.sqrt(u @ u) * math.sqrt(v @ v))
    return out


def zero_shot(audio: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Class with the highest cosine similarity; the lowest index wins a tie."""
    sims = cosine_matrix(audio, classes)
    preds = []
    for row in sims:
        best = 0
        for c in range(1, len(row)):
            if row[c] > row[best]:
                best = c
        preds.append(best)
    return np.array(preds)


def retrieval(sims: np.ndarray) -> dict[str, float]:
    """R@1/5/10 and mAP@10 when query q's only relevant item is gallery item q.

    The rank of the relevant item is one plus the number of gallery items
    that score higher, or score the same with a lower index.
    """
    n_q = sims.shape[0]
    ranks = []
    for q in range(n_q):
        ahead = sum(1 for g in range(sims.shape[1])
                    if sims[q, g] > sims[q, q] or (sims[q, g] == sims[q, q] and g < q))
        ranks.append(ahead + 1)
    out = {f"r@{k}": sum(r <= k for r in ranks) / n_q for k in (1, 5, 10)}
    out["map@10"] = sum(1.0 / r for r in ranks if r <= 10) / n_q
    return out


# -- parameter digests -----------------------------------------------------------


def tree_digest(obj) -> str:
    """sha256 over every ndarray reachable through attributes and lists, in order."""
    h = hashlib.sha256()

    def walk(node, path):
        data = getattr(node, "data", None)
        if isinstance(data, np.ndarray) and hasattr(node, "requires_grad"):
            h.update(path.encode())
            h.update(np.ascontiguousarray(data).tobytes())
        elif isinstance(node, (list, tuple)):
            for i, item in enumerate(node):
                walk(item, f"{path}.{i}")
        elif hasattr(node, "__dataclass_fields__"):
            for name in node.__dataclass_fields__:
                walk(getattr(node, name), f"{path}.{name}")

    walk(obj, "")
    return h.hexdigest()
