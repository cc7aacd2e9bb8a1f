"""Shared test utilities: finite-difference gradient checking, a
straight-line (loop-based) transformer forward oracle that is
independent of the autodiff engine, a parameter digest, and a disk that
fills up mid-write."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from miniclap import datakit as dk
from miniclap.autodiff import Tensor
from miniclap.network import named_params


def param_digest(obj) -> str:
    """sha256 hex over the names and raw bytes of all parameters, in name order."""
    h = hashlib.sha256()
    for name, tensor in named_params(obj).items():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(tensor.data).tobytes())
    return h.hexdigest()


def numerical_grad(fn, param: Tensor, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of the scalar fn() w.r.t. param."""
    num = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    out = num.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        up = float(fn().data)
        flat[i] = saved - h
        down = float(fn().data)
        flat[i] = saved
        out[i] = (up - down) / (2.0 * h)
    return num


def assert_grads_match(fn, params: dict[str, Tensor], h: float = 1e-4,
                       rtol: float = 1e-4) -> None:
    """Backprop fn() and compare every parameter gradient against
    central finite differences at relative error <= rtol (unit floor
    for near-zero gradients)."""
    for p in params.values():
        p.grad = None
    loss = fn()
    loss.backward()
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numerical_grad(fn, p, h=h)
        denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1.0)
        rel = np.abs(numeric - analytic) / denom
        assert rel.max() <= rtol, f"gradient mismatch for {name}: rel err {rel.max():.3e}"


# -- straight-line transformer oracle (independent of the engine) ---------------


def oracle_layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-6) -> np.ndarray:
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = (row - mu) / np.sqrt(var + eps) * gain + bias
    return out


def oracle_gelu(x: np.ndarray) -> np.ndarray:
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def _oracle_softmax_row(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def oracle_block(x: np.ndarray, blk) -> np.ndarray:
    """One pre-norm block on [n, d], loops over heads and queries."""
    n, d = x.shape
    heads = blk.n_heads
    dh = d // heads
    h = oracle_layernorm(x, blk.norm1.gain.data, blk.norm1.bias.data)
    q = h @ blk.attn_q.weight.data + blk.attn_q.bias.data
    k = h @ blk.attn_k.weight.data + blk.attn_k.bias.data
    v = h @ blk.attn_v.weight.data + blk.attn_v.bias.data
    ctx = np.zeros((n, d))
    for head in range(heads):
        sl = slice(head * dh, (head + 1) * dh)
        for i in range(n):
            logits = np.array([q[i, sl] @ k[j, sl] for j in range(n)]) / np.sqrt(dh)
            weights = _oracle_softmax_row(logits)
            ctx[i, sl] = sum(weights[j] * v[j, sl] for j in range(n))
    x = x + ctx @ blk.attn_out.weight.data + blk.attn_out.bias.data
    h2 = oracle_layernorm(x, blk.norm2.gain.data, blk.norm2.bias.data)
    hidden = oracle_gelu(h2 @ blk.mlp_in.weight.data + blk.mlp_in.bias.data)
    return x + hidden @ blk.mlp_out.weight.data + blk.mlp_out.bias.data


def oracle_encoder(enc, patch_vectors: np.ndarray, pe_rows: np.ndarray) -> np.ndarray:
    """Hand-stepped embed -> +pe -> blocks -> final norm on [k, 256]."""
    x = patch_vectors @ enc.patch_embed.weight.data + enc.patch_embed.bias.data
    x = x + pe_rows
    for blk in enc.blocks:
        x = oracle_block(x, blk)
    return oracle_layernorm(x, enc.final_norm.gain.data, enc.final_norm.bias.data)


def oracle_predictor_input(z_v: np.ndarray, token: np.ndarray, pe: np.ndarray,
                           visible) -> np.ndarray:
    """One row of the predictor input, position by position: a visible
    position takes the z_v row of its rank among the visible positions,
    a masked one the mask token, and every position adds its table row."""
    visible = list(visible)
    out = np.empty((pe.shape[0], pe.shape[1]))
    for i in range(pe.shape[0]):
        row = z_v[visible.index(i)] if i in visible else np.reshape(token, -1)
        out[i] = row + pe[i]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class _FullDisk:
    """A file whose second write raises, as on a disk that fills up."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Every file `datakit.atomic_open` opens fails on its second write."""
    monkeypatch.setattr(dk, "open", lambda *a, **kw: _FullDisk(open(*a, **kw)), raising=False)
