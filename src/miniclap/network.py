"""Parametric components: patch encoders, predictor, audio projector,
text path, plus checkpoint serialization.

All components are dataclasses of `Tensor` leaves; forwards are free
functions building an autodiff graph from the fused ops `ad.linear`,
`ad.attention`, `ad.layer_norm_core` and `ad.gelu`. The target
encoder's tensors are created with `requires_grad=False`, so no
gradient can ever reach it.

Forwards are batched: patches are [B, n, 256], encoder and predictor
features [B, k, dim], and per-row patch selections [B, k] index arrays.
A single sample is a batch of one, and every grid has the encoder's
configured shape.
Text is padded with the tokenizer's `datakit.PAD_ID`. The projector's
attention weights are computed by `evaluation.attention_map`.
`worker` is `threads.worker`, the one thread besides the caller's; it
runs forwards (the second half of `encode_frozen`'s clips and masked
stage 2's one-ahead encodes among them), stage 1's weight-gradient
tasks and front-end halves. `encode_frozen` is the one graph-free
frozen-encode path: extraction, stages 2 and 2.1 and a frozen stage 1.1
all encode through it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
import threading
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import masking
from .autodiff import Tensor
from .config import ModelConfig, N_FREQ_PATCHES, PATCH_SIZE, parse_model_config
from .datakit import PAD_ID, atomic_open
from .errors import FormatError, InvalidInput
from .frontend import PositionalEncoding, build_posenc
from .threads import worker  # re-exported: stage 1 and the frozen encodes call `net.worker()`

LN_EPS = 1e-6
_NEG_BIAS = -1e9


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, 0.02) truncated to +/-2 std by resampling."""
    std = 0.02
    x = rng.standard_normal(shape) * std
    while True:
        bad = np.abs(x) > 2.0 * std
        if not bad.any():
            return x
        x[bad] = rng.standard_normal(int(bad.sum())) * std


# -- building blocks -----------------------------------------------------------


@dataclass
class Affine:
    weight: Tensor  # [d_in, d_out]
    bias: Tensor  # [d_out]


def init_affine(rng, d_in: int, d_out: int, trainable: bool = True) -> Affine:
    return Affine(
        Tensor(trunc_normal(rng, (d_in, d_out)), requires_grad=trainable),
        Tensor(np.zeros(d_out), requires_grad=trainable),
    )


def affine(p: Affine, x) -> Tensor:
    return ad.linear(x, p.weight, p.bias)


@dataclass
class LayerNorm:
    gain: Tensor
    bias: Tensor


def init_layernorm(rng, dim: int, trainable: bool = True) -> LayerNorm:
    return LayerNorm(
        Tensor(np.ones(dim), requires_grad=trainable),
        Tensor(np.zeros(dim), requires_grad=trainable),
    )


def layer_norm(p: LayerNorm, x) -> Tensor:
    return ad.layer_norm_core(x, p.gain, p.bias, LN_EPS)


@dataclass
class Block:
    """Pre-norm transformer block: x + attn(LN(x)), x + mlp(LN(x))."""

    norm1: LayerNorm
    attn_q: Affine
    attn_k: Affine
    attn_v: Affine
    attn_out: Affine
    norm2: LayerNorm
    mlp_in: Affine
    mlp_out: Affine
    n_heads: int


def init_block(rng, dim: int, n_heads: int, mlp_hidden: int, trainable: bool = True) -> Block:
    if dim % n_heads != 0:
        raise InvalidInput("dim must be divisible by the head count")
    return Block(
        norm1=init_layernorm(rng, dim, trainable),
        attn_q=init_affine(rng, dim, dim, trainable),
        attn_k=init_affine(rng, dim, dim, trainable),
        attn_v=init_affine(rng, dim, dim, trainable),
        attn_out=init_affine(rng, dim, dim, trainable),
        norm2=init_layernorm(rng, dim, trainable),
        mlp_in=init_affine(rng, dim, mlp_hidden, trainable),
        mlp_out=init_affine(rng, mlp_hidden, dim, trainable),
        n_heads=n_heads,
    )


def block_forward(p: Block, x, key_bias: np.ndarray | None = None,
                  rows: np.ndarray | None = None) -> Tensor:
    """x is [B, N, d]. key_bias, if given, is broadcastable to the
    attention logits [B, H, R, N]; padded key columns carry a large
    negative value. rows, if given, is a [B, R] index array: every row
    still serves as a key and value, but only the selected rows are
    queried and carried through the residuals and the MLP, and the output
    is [B, R, d], the same rows of the full block's output."""
    x = Tensor.wrap(x)
    h = layer_norm(p.norm1, x)
    h_q = h
    if rows is not None:
        x, h_q = ad.gather_rows(x, rows), ad.gather_rows(h, rows)
    ctx = ad.attention(affine(p.attn_q, h_q), affine(p.attn_k, h), affine(p.attn_v, h),
                       p.n_heads, key_bias)
    x = x + affine(p.attn_out, ctx)
    h2 = layer_norm(p.norm2, x)
    return x + affine(p.mlp_out, ad.gelu(affine(p.mlp_in, h2)))


def stack_rows(blocks: list[Block], x: Tensor, rows: np.ndarray,
               key_bias: np.ndarray | None = None) -> Tensor:
    """Run a block stack on [B, N, d] and return the [B, R] `rows` of its
    output; the last block computes only those rows."""
    if not blocks:
        return ad.gather_rows(x, rows)
    for block in blocks[:-1]:
        x = block_forward(block, x, key_bias)
    return block_forward(blocks[-1], x, key_bias, rows)


# -- components ------------------------------------------------------------


@dataclass
class EncoderParams:
    patch_embed: Affine  # 256 -> dim
    posenc: PositionalEncoding
    blocks: list[Block]
    final_norm: LayerNorm


@dataclass
class PredictorParams:
    blocks: list[Block]
    out: Affine  # dim -> dim
    mask_token: Tensor  # [1, 1, dim]


@dataclass
class AudioProjectorParams:
    kind: str  # "transformer" or "mlp"
    cls_token: Tensor | None
    blocks: list[Block]
    mlp_in: Affine | None
    mlp_out: Affine | None
    n_heads: int


@dataclass
class TextEncoderParams:
    tok_embed: Tensor  # [vocab, dim]
    pos_embed: Tensor  # [max_len, dim]
    blocks: list[Block]
    max_len: int


@dataclass
class TextPathParams:
    llm_map: Affine  # stage-1: emb_dim -> dim
    encoder: TextEncoderParams | None  # stage-2/2.1
    projector_in: Affine | None  # optional text-projector ablation
    projector_out: Affine | None


@dataclass
class ModelState:
    online: EncoderParams
    target: EncoderParams
    predictor: PredictorParams
    projector: AudioProjectorParams
    textpath: TextPathParams
    tau: Tensor
    config: ModelConfig
    vocab: list[str] = dataclasses.field(default_factory=list)  # the tokenizer's, from stage 2 on


def _init_encoder(rng, cfg: ModelConfig, trainable: bool) -> EncoderParams:
    mlp_hidden = int(cfg.dim * cfg.mlp_ratio)
    return EncoderParams(
        patch_embed=init_affine(rng, PATCH_SIZE * PATCH_SIZE, cfg.dim, trainable),
        posenc=build_posenc(N_FREQ_PATCHES, cfg.n_time_patches, cfg.dim),
        blocks=[init_block(rng, cfg.dim, cfg.heads, mlp_hidden, trainable)
                for _ in range(cfg.depth)],
        final_norm=init_layernorm(rng, cfg.dim, trainable),
    )


def _init_projector(rng, cfg: ModelConfig) -> AudioProjectorParams:
    if cfg.projector_kind == "mlp":
        return AudioProjectorParams(
            kind="mlp", cls_token=None, blocks=[],
            mlp_in=init_affine(rng, cfg.dim, cfg.dim),
            mlp_out=init_affine(rng, cfg.dim, cfg.dim),
            n_heads=1,
        )
    # feed-forward latent matches the model dim (not the 4x encoder ratio)
    return AudioProjectorParams(
        kind="transformer",
        cls_token=Tensor(trunc_normal(rng, (1, 1, cfg.dim)), requires_grad=True),
        blocks=[init_block(rng, cfg.dim, cfg.projector_heads, cfg.dim)
                for _ in range(cfg.projector_blocks)],
        mlp_in=None, mlp_out=None,
        n_heads=cfg.projector_heads,
    )


def _init_textpath(rng, cfg: ModelConfig) -> TextPathParams:
    encoder = None
    if cfg.text_vocab > 0:
        encoder = TextEncoderParams(
            tok_embed=Tensor(trunc_normal(rng, (cfg.text_vocab, cfg.dim)), requires_grad=True),
            pos_embed=Tensor(np.zeros((cfg.text_maxlen, cfg.dim)), requires_grad=True),
            blocks=[init_block(rng, cfg.dim, cfg.text_heads, int(cfg.dim * cfg.mlp_ratio))
                    for _ in range(cfg.text_depth)],
            max_len=cfg.text_maxlen,
        )
    projector_in = projector_out = None
    if cfg.text_projector:
        projector_in = init_affine(rng, cfg.dim, cfg.dim)
        projector_out = init_affine(rng, cfg.dim, cfg.dim)
    return TextPathParams(
        llm_map=init_affine(rng, cfg.emb_dim, cfg.dim),
        encoder=encoder,
        projector_in=projector_in,
        projector_out=projector_out,
    )


def init_model_state(cfg: ModelConfig, seed: int) -> ModelState:
    rng = np.random.default_rng(seed)
    online = _init_encoder(rng, cfg, trainable=True)
    mlp_hidden = int(cfg.dim * cfg.mlp_ratio)
    predictor = PredictorParams(
        blocks=[init_block(rng, cfg.dim, cfg.predictor_heads, mlp_hidden)
                for _ in range(cfg.predictor_depth)],
        out=init_affine(rng, cfg.dim, cfg.dim),
        mask_token=Tensor(trunc_normal(rng, (1, 1, cfg.dim)), requires_grad=True),
    )
    projector = _init_projector(rng, cfg)
    textpath = _init_textpath(rng, cfg)
    state = ModelState(
        online=online,
        target=_init_encoder(rng, cfg, trainable=False),
        predictor=predictor,
        projector=projector,
        textpath=textpath,
        tau=Tensor(np.float64(0.07), requires_grad=True),
        config=cfg,
    )
    # the target starts as an exact copy of the online encoder
    transfer_shared(state.online, state.target)
    return state


def transfer_shared(src, dst) -> None:
    """Copy into `dst` every parameter of `src` with the same name and shape."""
    src_params = named_params(src)
    for name, tensor in named_params(dst).items():
        if name in src_params and src_params[name].data.shape == tensor.data.shape:
            tensor.data = src_params[name].data.copy()


def named_params(obj, prefix: str = "") -> dict[str, Tensor]:
    """Deterministically ordered {name: Tensor} over a component tree."""
    out: dict[str, Tensor] = {}
    _walk(obj, prefix, out)
    return out


def _walk(obj, prefix, out):
    if isinstance(obj, Tensor):
        out[prefix] = obj
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _walk(item, f"{prefix}.{i}", out)
    elif isinstance(obj, ModelState):
        for f in dataclasses.fields(obj):
            if f.name in ("config", "vocab"):
                continue
            _walk(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name, out)
    elif isinstance(obj, PositionalEncoding):
        return  # fixed buffer, derived from the config
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _walk(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name, out)


# -- forward passes ---------------------------------------------------------


def posenc_for(params: EncoderParams, n_f: int, n_t: int) -> np.ndarray:
    pe = params.posenc
    if (n_f, n_t) != (pe.n_f, pe.n_t):
        raise InvalidInput(f"grid is {n_f}x{n_t} patches, encoder expects {pe.n_f}x{pe.n_t}")
    return pe.table


def encode_tokens(params: EncoderParams, patch_vectors, pe_rows) -> Tensor:
    """Batched core: [B, k, 256] patches plus their [B|1, k, dim] position rows."""
    x = affine(params.patch_embed, patch_vectors) + pe_rows
    for block in params.blocks:
        x = block_forward(block, x)
    return layer_norm(params.final_norm, x)


# Token rows per frozen encoder call (see `encode_frozen`). Larger calls
# hold more memory at once but make fewer calls: against 512, a budget of
# 256 took extract-eval's step p50 15% and text-stages' 7% higher, for
# 3-5% less peak memory (README, Performance).
FROZEN_TOKENS = 512
# OpenBLAS computes a product of fewer than 16 rows with another kernel,
# whose bytes differ from those of a larger product (see
# `frontend.BLOCK_FRAMES`), so no frozen encoder call has fewer.
MIN_ROWS = 16


def encode_frozen(params: EncoderParams, patches: np.ndarray, pe: np.ndarray,
                  clips: np.ndarray | None = None, vis: np.ndarray | None = None,
                  summary=lambda z: z.data, pool=None) -> np.ndarray:
    """Encode through a frozen encoder, without a graph, each row's
    patches `vis` [b, V] (all n when None) of the clips `patches[clips]`
    (every clip, in order, when None); `patches` is [n_samples, n, 256]
    and `pe` the [n, dim] position table. `summary` maps each call's
    [c, V, dim] output to the rows kept, which are written into one
    array, byte-identical to one call over all the clips.

    Given a `pool` (an executor other than the one this runs on), the
    clips are split into two halves when each keeps at least MIN_ROWS
    rows: this thread encodes the first, the pool the second. Each half
    runs in calls of whole clips, gathered just before the call: at most
    FROZEN_TOKENS token rows, or one clip when a clip alone is larger,
    but never fewer than MIN_ROWS rows unless the half has fewer; its
    clips are spread evenly over its calls. The call returns only when
    both halves are done, and an error from either reaches the caller as
    the same object. Each half enters its own `no_grad` and error state,
    which are per thread."""
    clips = np.arange(len(patches)) if clips is None else clips
    b = len(clips)
    k = max(patches.shape[1] if vis is None else vis.shape[1], 1)
    out = None
    made = threading.Lock()

    def encode(lo: int, hi: int) -> None:
        nonlocal out
        n = hi - lo
        calls = max(1, min(-(-n // max(1, FROZEN_TOKENS // k)), n // -(-MIN_ROWS // k)))
        bounds = [lo + n * i // calls for i in range(calls + 1)]
        with np.errstate(all="ignore"), ad.no_grad():
            for start, end in zip(bounds[:-1], bounds[1:]):
                part = clips[start:end]
                if vis is None:
                    z = encode_tokens(params, patches[part], pe)
                else:
                    z = encode_tokens(params, patches[part[:, None], vis[start:end]],
                                      pe[vis[start:end]])
                rows = summary(z)
                with made:
                    if out is None:
                        out = np.empty((b, *rows.shape[1:]))
                out[start:end] = rows

    if pool is None or b // 2 * k < MIN_ROWS:
        encode(0, b)
    else:
        mid = (b + 1) // 2
        pending = pool.submit(encode, mid, b)
        try:
            encode(0, mid)
        finally:
            futures.wait((pending,))
        pending.result()
    return out


def encode_selected(params: EncoderParams, patches: np.ndarray, idx: np.ndarray,
                    pe: np.ndarray) -> Tensor:
    """Encode the patches each row selects: patches [B, n, 256], idx
    [B, k], pe the [n, dim] position table; output [B, k, dim]."""
    b, n, _ = patches.shape
    if pe.shape[0] != n:
        raise InvalidInput(f"position table has {pe.shape[0]} rows for {n} patches")
    if idx.shape[0] != b or (idx.size and (idx.min() < 0 or idx.max() >= n)):
        raise InvalidInput(f"patch indices {idx.shape} do not select from {patches.shape[:2]}")
    return encode_tokens(params, patches[np.arange(b)[:, None], idx], pe[idx])


def predictor_forward(pp: PredictorParams, seq, rows: np.ndarray) -> Tensor:
    """The predictor's output at the [B, R] `rows` of its [B, n, dim] input."""
    return affine(pp.out, stack_rows(pp.blocks, seq, rows))


def predict_masked(pp: PredictorParams, z_v, pe: np.ndarray, vis: np.ndarray,
                   msk: np.ndarray) -> Tensor:
    """Predict each row's masked features from its [B, V, dim] visible
    features; output [B, M, dim]."""
    seq = masking.assemble_predictor_input(z_v, pp.mask_token, pe, vis, msk)
    return predictor_forward(pp, seq, msk)


def standardize_targets(z_m) -> Tensor:
    """Zero-mean unit-variance over all entries (per sample when batched)."""
    z = Tensor.wrap(z_m)
    count = z.shape[-1] * z.shape[-2]
    if count < 2:
        raise InvalidInput("need at least two target entries to standardize")
    mu = z.mean(axis=(-2, -1), keepdims=True)
    centered = z - mu
    var = (centered * centered).mean(axis=(-2, -1), keepdims=True)
    return centered / (var + 1e-6).sqrt()


def project_audio(ap: AudioProjectorParams, z) -> Tensor:
    """Summarize each row's [k, dim] patch features into one semantic
    audio feature: z is [B, k, dim], output [B, dim]."""
    z = Tensor.wrap(z)
    if z.ndim != 3 or z.shape[1] < 1:
        raise InvalidInput(f"audio projector needs [B, k>=1, dim] features, got shape {z.shape}")
    if ap.kind == "mlp":
        return affine(ap.mlp_out, ad.gelu(affine(ap.mlp_in, z.mean(axis=1))))
    b, _, d = z.shape
    x = ad.concat([ap.cls_token.expand((b, 1, d)), z], axis=1)
    return stack_rows(ap.blocks, x, np.zeros((b, 1), dtype=int)).reshape(b, d)


def map_text_embedding(tp: TextPathParams, e) -> Tensor:
    """Affine map from cached [B, emb_dim] sentence embeddings to the
    semantic dim."""
    e = Tensor.wrap(e)
    want = tp.llm_map.weight.shape[0]
    if e.ndim != 2 or e.shape[1] != want:
        raise InvalidInput(f"expected [B, {want}] embeddings, got shape {e.shape}")
    return _apply_text_projector(tp, affine(tp.llm_map, e))


def _apply_text_projector(tp: TextPathParams, s_t: Tensor) -> Tensor:
    if tp.projector_in is None:
        return s_t
    return affine(tp.projector_out, ad.gelu(affine(tp.projector_in, s_t)))


def encode_text_batch(tp: TextPathParams, token_rows: list[list[int]]) -> Tensor:
    """Token-id rows -> each row's pooled first-token feature, [B, dim]."""
    enc = tp.encoder
    if enc is None:
        raise InvalidInput("text path has no text encoder (stage-2 configuration required)")
    if not token_rows:
        raise InvalidInput("empty text batch")
    lengths = [len(row) for row in token_rows]
    if min(lengths) < 1:
        raise InvalidInput("empty token sequence")
    if max(lengths) > enc.max_len:
        raise InvalidInput(f"sequence longer than max_len={enc.max_len}")
    width = max(lengths)
    b = len(token_rows)
    ids = np.full((b, width), PAD_ID, dtype=int)
    for i, row in enumerate(token_rows):
        ids[i, :len(row)] = row
    if ids.max() >= enc.tok_embed.shape[0]:
        raise InvalidInput("token id outside the vocabulary")

    flat = ad.gather_rows(enc.tok_embed, ids.reshape(-1))
    x = flat.reshape(b, width, enc.tok_embed.shape[1])
    x = x + ad.gather_rows(enc.pos_embed, np.arange(width))
    key_bias = None
    if width > min(lengths):
        pad = np.arange(width)[None, :] >= np.asarray(lengths)[:, None]
        key_bias = np.where(pad, _NEG_BIAS, 0.0)[:, None, None, :]
    pooled = stack_rows(enc.blocks, x, np.zeros((b, 1), dtype=int), key_bias)
    return _apply_text_projector(tp, pooled.reshape(b, x.shape[2]))


# -- checkpoints ------------------------------------------------------------

CKPT_MAGIC = b"MCKP"
CKPT_VERSION = 2


def save_checkpoint(path, state: ModelState) -> None:
    """Write the checkpoint atomically: `path` holds either the previous
    file or the whole new one."""
    params = named_params(state)
    header = b"".join(struct.pack("<I", len(text)) + text for text in (
        state.config.canonical().encode("utf-8"),
        "".join(word + "\n" for word in state.vocab).encode("utf-8")))
    with atomic_open(path) as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(header)
        fh.write(hashlib.sha256(header).digest())
        fh.write(struct.pack("<I", len(params)))
        for name, tensor in params.items():
            encoded = name.encode("utf-8")
            arr = np.asarray(tensor.data).astype("<f4")  # astype keeps 0-d shape
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError("truncated checkpoint file")
    return data


def _read_section(fh, size: int) -> bytes:
    """A <I length and that many bytes, returned together; the length is
    checked against the `size`-byte file before it sizes a read."""
    length = _read_exact(fh, 4)
    (n,) = struct.unpack("<I", length)
    if n > size - fh.tell():
        raise FormatError("truncated checkpoint file")
    return length + _read_exact(fh, n)


def load_checkpoint(path, cfg: ModelConfig | None = None, seed: int = 0) -> ModelState:
    """The ModelState the file describes; a `cfg` that is given must equal its config."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4) != CKPT_MAGIC:
            raise FormatError("bad checkpoint magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        sections = [_read_section(fh, size) for _ in range(2)]
        if _read_exact(fh, 32) != hashlib.sha256(b"".join(sections)).digest():
            raise FormatError("checkpoint header does not match its digest")
        try:
            config_text, vocab_text = (section[4:].decode("utf-8") for section in sections)
            file_cfg = parse_model_config(config_text)
        except ValueError as exc:
            raise FormatError(f"bad checkpoint header: {exc}") from exc
        if cfg is not None and cfg != file_cfg:
            raise FormatError("checkpoint was written with a different model config")
        state = init_model_state(file_cfg, seed)
        state.vocab = vocab_text.splitlines()
        params = named_params(state)
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        if count != len(params):
            raise FormatError(f"expected {len(params)} tensors, file has {count}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode("utf-8", "replace")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
            # name and shape are checked against the model before the
            # payload is read, so a corrupt header never sizes a read
            if name not in params:  # each name is popped once it is read
                raise FormatError(f"unknown or repeated tensor {name!r} in checkpoint")
            tensor = params.pop(name)
            if tuple(tensor.data.shape) != shape:
                raise FormatError(f"shape mismatch for {name!r}")
            payload = _read_exact(fh, 4 * tensor.data.size)
            tensor.data = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)
        if fh.read(1):
            raise FormatError("trailing bytes after checkpoint payload")
    return state
