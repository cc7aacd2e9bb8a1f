"""Parametric components: patch encoders, predictor, audio projector,
text path, plus checkpoint serialization.

All components are dataclasses of `Tensor` leaves, named in field order
by `named_params` (a config, vocabulary or position table holds none);
forwards are free functions building an autodiff graph from the fused ops
`ad.linear`, `ad.attention`, `ad.layer_norm_core` and `ad.gelu`. The target
encoder is a copy of the online encoder with `requires_grad=False`, so
no gradient can ever reach it.

Forwards are batched: patches are [B, n, 256], encoder and predictor
features [B, k, dim], and per-row patch selections [B, k] index arrays.
A single sample is a batch of one, and every grid has the encoder's
configured shape.
Text is padded with the tokenizer's `datakit.PAD_ID`. The projector's
attention weights are computed by `evaluation.attention_map`.
`worker` is `threads.worker`, the one thread besides the caller's.
`SharedEncode` is the one graph-free frozen encode, a `threads.SharedCalls`
of the calls `frozen_calls` plans, always shared with the worker: extraction
(one encode for both feature kinds), stage 1's EMA target, stage 2's
batches, and the once-per-run encode of stage 2.1, an unmasked stage 2 and
a frozen stage 1.1.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import masking
from .autodiff import Tensor
from .config import ModelConfig, N_FREQ_PATCHES, PATCH_SIZE, parse_model_config
from .datakit import PAD_ID, atomic_open
from .errors import FormatError, InvalidInput
from .frontend import PositionalEncoding, build_posenc
from .threads import SharedCalls, worker  # `worker` re-exported: callers use `net.worker()`

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


def _weights(rng: np.random.Generator | None, shape) -> np.ndarray:
    """`trunc_normal` draws, or (`rng` None) unset values that `load_checkpoint` overwrites."""
    return np.empty(shape) if rng is None else trunc_normal(rng, shape)


# -- building blocks -----------------------------------------------------------


@dataclass
class Affine:
    weight: Tensor  # [d_in, d_out]
    bias: Tensor  # [d_out]


def init_affine(rng, d_in: int, d_out: int) -> Affine:
    return Affine(
        Tensor(_weights(rng, (d_in, d_out)), requires_grad=True),
        Tensor(np.zeros(d_out), requires_grad=True),
    )


def affine(p: Affine, x) -> Tensor:
    return ad.linear(x, p.weight, p.bias)


@dataclass
class LayerNorm:
    gain: Tensor
    bias: Tensor


def init_layernorm(rng, dim: int) -> LayerNorm:
    return LayerNorm(
        Tensor(np.ones(dim), requires_grad=True),
        Tensor(np.zeros(dim), requires_grad=True),
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


def init_block(rng, dim: int, n_heads: int, mlp_hidden: int) -> Block:
    if dim % n_heads != 0:
        raise InvalidInput("dim must be divisible by the head count")
    return Block(
        norm1=init_layernorm(rng, dim),
        attn_q=init_affine(rng, dim, dim),
        attn_k=init_affine(rng, dim, dim),
        attn_v=init_affine(rng, dim, dim),
        attn_out=init_affine(rng, dim, dim),
        norm2=init_layernorm(rng, dim),
        mlp_in=init_affine(rng, dim, mlp_hidden),
        mlp_out=init_affine(rng, mlp_hidden, dim),
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
    head: Affine | None = None  # stage 1.1's classifier, N_FREQ_PATCHES*dim -> len(classes)
    vocab: list[str] = dataclasses.field(default_factory=list)  # the tokenizer's, from stage 2 on
    classes: list[str] = dataclasses.field(default_factory=list)  # the head's labels, in order


def _init_encoder(rng, cfg: ModelConfig) -> EncoderParams:
    mlp_hidden = int(cfg.dim * cfg.mlp_ratio)
    return EncoderParams(
        patch_embed=init_affine(rng, PATCH_SIZE * PATCH_SIZE, cfg.dim),
        posenc=build_posenc(N_FREQ_PATCHES, cfg.n_time_patches, cfg.dim),
        blocks=[init_block(rng, cfg.dim, cfg.heads, mlp_hidden) for _ in range(cfg.depth)],
        final_norm=init_layernorm(rng, cfg.dim),
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
        cls_token=Tensor(_weights(rng, (1, 1, cfg.dim)), requires_grad=True),
        blocks=[init_block(rng, cfg.dim, cfg.projector_heads, cfg.dim)
                for _ in range(cfg.projector_blocks)],
        mlp_in=None, mlp_out=None,
        n_heads=cfg.projector_heads,
    )


def _init_textpath(rng, cfg: ModelConfig) -> TextPathParams:
    encoder = None
    if cfg.text_vocab > 0:
        encoder = TextEncoderParams(
            tok_embed=Tensor(_weights(rng, (cfg.text_vocab, cfg.dim)), requires_grad=True),
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
    return _model_state(cfg, np.random.default_rng(seed))


def _model_state(cfg: ModelConfig, rng: np.random.Generator | None) -> ModelState:
    online = _init_encoder(rng, cfg)
    mlp_hidden = int(cfg.dim * cfg.mlp_ratio)
    predictor = PredictorParams(
        blocks=[init_block(rng, cfg.dim, cfg.predictor_heads, mlp_hidden)
                for _ in range(cfg.predictor_depth)],
        out=init_affine(rng, cfg.dim, cfg.dim),
        mask_token=Tensor(_weights(rng, (1, 1, cfg.dim)), requires_grad=True),
    )
    target = copy.deepcopy(online)  # the EMA target starts as an exact copy, with no gradient
    for tensor in named_params(target).values():
        tensor.requires_grad = False
    return ModelState(
        online=online,
        target=target,
        predictor=predictor,
        projector=_init_projector(rng, cfg),
        textpath=_init_textpath(rng, cfg),
        tau=Tensor(np.float64(0.07), requires_grad=True),
        config=cfg,
    )


def transfer_shared(src, dst) -> None:
    """Copy into `dst` every parameter of `src` with the same name and shape."""
    src_params = named_params(src)
    for name, tensor in named_params(dst).items():
        if name in src_params and src_params[name].data.shape == tensor.data.shape:
            tensor.data[...] = src_params[name].data


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


# Fewest token rows a frozen encoder call holds. With OpenBLAS 0.3.31 a
# product's row rounds like the same row of a larger product from two
# rows on for every encoder, predictor and projector shape; narrow
# outputs over a wide inner dimension, such as `llm_map`'s (4,096, 64),
# differ at more (README, Performance). 16 is more than these shapes
# need; it stays because the byte tests and the plans they pin use it.
MIN_ROWS = 16
# Token rows per frozen encoder call. The two threads split an encode
# only at call boundaries, so the calls must be small enough for the
# split to balance: 512 rows gives text-stages' 32-clip batches of 46
# visible patches three calls, so one thread could wait up to a third of
# the encode on the other. With one BLAS thread on 2 vCPU, alternating
# masked stage-2 runs at that size in one process (12 each) gave a step
# p50/p90 of 34.2/41.8 ms at 184 rows (4 clips a call), 33.0/40.4 at 288
# (6), 32.6/40.7 at 368 (8) and 36.9/45.3 at 512 (11). 288 is as fast as
# 368 and holds fewer rows at once. For extraction and the once-per-run
# encodes it measured level with fixed halves of 512-row calls (README,
# Performance).
SHARED_TOKENS = 288


def frozen_calls(n: int, k: int) -> list[tuple[int, int]]:
    """The (start, end) calls of a frozen encode of n clips of k token rows
    each: whole clips per call, at most SHARED_TOKENS rows (or one clip,
    when a clip alone is larger) and at least two calls, but never fewer
    than MIN_ROWS rows a call unless the clips have fewer; the clips are
    spread evenly over the calls."""
    calls = max(1, min(max(2, -(-n // max(1, SHARED_TOKENS // k))), n // -(-MIN_ROWS // k)))
    bounds = [n * i // calls for i in range(calls + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


class SharedEncode(SharedCalls):
    """A frozen encode, without a graph, of each row's patches `vis`
    [b, V] (all n when None) of the clips `patches[clips]` (every clip, in
    order, when None); `patches` is [n_samples, n, 256] and `pe` the
    [n, dim] position table. Its calls are the `frozen_calls` of the
    clips; each maps its [c, V, dim] output through `summary` and writes
    the rows kept into one array, which `result` returns.

    Any thread may run any call, and the token rows, or a summary computed
    from each clip's rows alone, are byte-identical to one call over all
    the clips. A summary whose products mix a call's clips need not be:
    the projector's class-token products have one row per clip, so a
    call of one clip rounds them differently (`MIN_ROWS`)."""

    def __init__(self, params: EncoderParams, patches: np.ndarray, pe: np.ndarray,
                 clips: np.ndarray | None = None, vis: np.ndarray | None = None,
                 summary=lambda z: z.data):
        self.params, self.patches, self.pe = params, patches, pe
        self.vis, self.summary = vis, summary
        self.clips = np.arange(len(patches)) if clips is None else clips
        k = max(patches.shape[1] if vis is None else vis.shape[1], 1)  # token rows a clip
        self.plan = frozen_calls(len(self.clips), k)
        self.out = None
        self._made = threading.Lock()
        super().__init__(functools.partial(self.run, *call) for call in self.plan)

    def __len__(self) -> int:
        return len(self.clips)

    def run(self, start: int, end: int) -> None:
        """Encode clips start..end, gathered just before the call, in this
        thread's own `no_grad` and error state, which are per thread."""
        part = self.clips[start:end]
        with np.errstate(all="ignore"), ad.no_grad():
            if self.vis is None:
                z = encode_tokens(self.params, self.patches[part], self.pe)
            else:
                z = encode_tokens(self.params, self.patches[part[:, None], self.vis[start:end]],
                                  self.pe[self.vis[start:end]])
            rows = self.summary(z)
        with self._made:
            if self.out is None:
                self.out = np.empty((len(self.clips), *rows.shape[1:]))
        self.out[start:end] = rows

    def result(self) -> np.ndarray:
        super().result()
        return self.out


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
CKPT_VERSION = 3


def save_checkpoint(path, state: ModelState) -> None:
    """Write the checkpoint atomically: `path` holds either the previous
    file or the whole new one. Its header holds the config, the vocabulary
    and the class list, one word or label per line, under one SHA-256."""
    params = named_params(state)
    header = b"".join(struct.pack("<I", len(text)) + text for text in (
        state.config.canonical().encode("utf-8"),
        *("".join(line + "\n" for line in lines).encode("utf-8")
          for lines in (state.vocab, state.classes))))
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
    """The ModelState the file describes, read into a skeleton built with no random
    draw, so `seed` has no effect; a file that lists classes gets a head for them.
    A `cfg` that is given must equal its config."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4) != CKPT_MAGIC:
            raise FormatError("bad checkpoint magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        sections = [_read_section(fh, size) for _ in range(3)]
        if _read_exact(fh, 32) != hashlib.sha256(b"".join(sections)).digest():
            raise FormatError("checkpoint header does not match its digest")
        try:
            config_text, *lists = (section[4:].decode("utf-8") for section in sections)
            file_cfg = parse_model_config(config_text)
        except ValueError as exc:
            raise FormatError(f"bad checkpoint header: {exc}") from exc
        if cfg is not None and cfg != file_cfg:
            raise FormatError("checkpoint was written with a different model config")
        state = _model_state(file_cfg, None)
        state.vocab, state.classes = (text.splitlines() for text in lists)
        if state.classes:
            state.head = init_affine(None, N_FREQ_PATCHES * file_cfg.dim, len(state.classes))
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
            values = np.frombuffer(_read_exact(fh, 4 * tensor.data.size), dtype="<f4")
            if not np.isfinite(values).all():
                raise FormatError(f"tensor {name!r} in checkpoint has non-finite values")
            tensor.data[...] = values.reshape(shape)
        if fh.read(1):
            raise FormatError("trailing bytes after checkpoint payload")
    return state
