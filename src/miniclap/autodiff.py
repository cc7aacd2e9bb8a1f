"""Reverse-mode automatic differentiation over numpy arrays.

A `Tensor` wraps an ndarray and records the closure needed to push its
output gradient back to its parents. Calling `backward()` on a scalar
loss topologically sorts the graph and accumulates `.grad` arrays on
every tensor with `requires_grad=True`. Tensors with
`requires_grad=False` never build graph edges, which is how frozen
parameters (the EMA target encoder) are kept out of the gradient flow by
construction. Inside a `no_grad()` block no op records a graph edge at
all. It is the only stop-gradient: stage 1.1 with a frozen encoder,
stages 2 and 2.1 and feature extraction run the trainable encoder
inside it. `gather_rows` is checked indexing, and `l2_normalize` is the
one place that rejects a zero-norm feature row.

The network's layers are four fused float64 ops, each one graph node
with a hand-written VJP that keeps only what its backward needs:
`linear`, `attention`, `layer_norm_core` and `gelu`.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import InvalidInput


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


_grad_enabled = True  # False only inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Within the block, every op returns a constant with no parents."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def wrap(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ---------------------------------------------------

    @staticmethod
    def _make(data, parents, vjp) -> "Tensor":
        if not (_grad_enabled and any(p.requires_grad for p in parents)):
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor."""
        if not self.requires_grad:
            raise InvalidInput("loss is detached from all trainable parameters")
        if self.data.size != 1:
            raise InvalidInput("backward requires a scalar loss")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is not None:
                for parent, pg in node._vjp(g):
                    if not parent.requires_grad:
                        continue
                    acc = grads.get(id(parent))
                    grads[id(parent)] = pg if acc is None else acc + pg
            else:
                node.grad = g if node.grad is None else node.grad + g

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = Tensor.wrap(other)
        a, b = self, other

        def vjp(g):
            return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

        return Tensor._make(a.data + b.data, (a, b), vjp)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor.wrap(other)
        a, b = self, other

        def vjp(g):
            return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

        return Tensor._make(a.data - b.data, (a, b), vjp)

    def __rsub__(self, other):
        return Tensor.wrap(other) - self

    def __neg__(self):
        a = self

        def vjp(g):
            return ((a, -g),)

        return Tensor._make(-a.data, (a,), vjp)

    def __mul__(self, other):
        other = Tensor.wrap(other)
        a, b = self, other
        ad, bd = a.data, b.data

        def vjp(g):
            return ((a, _unbroadcast(g * bd, a.shape)), (b, _unbroadcast(g * ad, b.shape)))

        return Tensor._make(ad * bd, (a, b), vjp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor.wrap(other)
        a, b = self, other
        ad, bd = a.data, b.data

        def vjp(g):
            return (
                (a, _unbroadcast(g / bd, a.shape)),
                (b, _unbroadcast(-g * ad / (bd * bd), b.shape)),
            )

        return Tensor._make(ad / bd, (a, b), vjp)

    def __rtruediv__(self, other):
        return Tensor.wrap(other) / self

    def __matmul__(self, other):
        other = Tensor.wrap(other)
        a, b = self, other
        ad, bd = a.data, b.data
        if ad.ndim < 2 or bd.ndim < 2:
            raise InvalidInput("matmul operands must be at least 2-D")

        def vjp(g):
            ga = g @ bd.swapaxes(-1, -2)
            gb = ad.swapaxes(-1, -2) @ g
            return ((a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape)))

        return Tensor._make(ad @ bd, (a, b), vjp)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape

        def vjp(g):
            return ((a, g.reshape(old)),)

        return Tensor._make(a.data.reshape(shape), (a,), vjp)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inverse = tuple(np.argsort(axes))

        def vjp(g):
            return ((a, g.transpose(inverse)),)

        return Tensor._make(a.data.transpose(axes), (a,), vjp)

    def expand(self, shape):
        """Broadcast to `shape` (no copy of data semantics; grad sums back)."""
        a = self

        def vjp(g):
            return ((a, _unbroadcast(g, a.shape)),)

        return Tensor._make(np.broadcast_to(a.data, shape), (a,), vjp)

    def __getitem__(self, key):
        a = self

        def vjp(g):
            out = np.zeros_like(a.data)
            np.add.at(out, key, g)
            return ((a, out),)

        return Tensor._make(a.data[key], (a,), vjp)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def vjp(g):
            if axis is None:
                return ((a, np.broadcast_to(g, a.shape).copy()),)
            gx = g if keepdims else np.expand_dims(g, axis)
            return ((a, np.broadcast_to(gx, a.shape).copy()),)

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[ax] for ax in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise ----------------------------------------------------------

    def exp(self):
        a = self
        out = np.exp(a.data)

        def vjp(g):
            return ((a, g * out),)

        return Tensor._make(out, (a,), vjp)

    def log(self):
        a = self
        ad = a.data

        def vjp(g):
            return ((a, g / ad),)

        return Tensor._make(np.log(ad), (a,), vjp)

    def sqrt(self):
        a = self
        out = np.sqrt(a.data)

        def vjp(g):
            return ((a, g * 0.5 / out),)

        return Tensor._make(out, (a,), vjp)


# -- free functions ------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    tensors = [Tensor.wrap(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(zip(tensors, pieces))

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows along the second-to-last axis.

    For x of shape [N, D] idx is [K]; for x of shape [B, N, D] idx is
    [B, K] (per-batch row selection). Out-of-range indices raise.
    """
    x = Tensor.wrap(x)
    idx = np.asarray(idx)
    n = x.shape[-2]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidInput(f"index out of range for axis of length {n}")
    if x.ndim == 2:
        key = (idx,)
    elif x.ndim == 3:
        if idx.ndim == 1:
            idx = np.broadcast_to(idx, (x.shape[0], idx.shape[0]))
        key = (np.arange(x.shape[0])[:, None], idx)
    else:
        raise InvalidInput("gather_rows supports 2-D or 3-D inputs")
    return x[key]


def _softmax_inplace(z: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax of `z` along `axis`, computed in z's own buffer."""
    z -= z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def _softmax_vjp(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Gradient at the logits of softmax probabilities `p` given `g` at p."""
    dot = (g * p).sum(axis=axis, keepdims=True)
    return p * (g - dot)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax (fused forward and backward)."""
    x = Tensor.wrap(x)
    out = _softmax_inplace(x.data.copy(), axis)

    def vjp(g):
        return ((x, _softmax_vjp(out, g, axis)),)

    return Tensor._make(out, (x,), vjp)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = Tensor.wrap(x)
    shifted = x - x.data.max(axis=axis, keepdims=True)  # constant shift
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def linear(x, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x (fused).

    The leading axes of x are flattened, so each direction is one 2-D
    GEMM: the weight gradient of [B, N, d] @ [d, h] is one [d, BN] @
    [BN, h] product, with no [B, d, h] intermediate to sum.
    """
    x = Tensor.wrap(x)
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.ndim < 1 or xd.shape[-1] != wd.shape[0]:  # reshape would regroup
        raise InvalidInput(f"linear maps {wd.shape} cannot take input {xd.shape}")
    x2 = xd.reshape(-1, wd.shape[0])
    out = x2 @ wd
    out += b.data

    def vjp(g):
        g2 = g.reshape(-1, wd.shape[1])
        grads = []
        if x.requires_grad:
            grads.append((x, (g2 @ wd.T).reshape(xd.shape)))
        if w.requires_grad:
            grads.append((w, x2.T @ g2))
        if b.requires_grad:
            grads.append((b, g2.sum(axis=0)))
        return grads

    return Tensor._make(out.reshape(*xd.shape[:-1], wd.shape[1]), (x, w, b), vjp)


def attention(q, k, v, n_heads: int, key_bias: np.ndarray | None = None) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(dh) + key_bias) v (fused).

    q, k and v are [B, N, d] with the heads side by side along d; the
    output is [B, N, d] in the same layout. key_bias, if given, is a
    constant broadcastable to the [B, H, N, N] logits; padded key columns
    carry a large negative value. The backward keeps only the
    probabilities and head views of q, k and v.
    """
    q, k, v = Tensor.wrap(q), Tensor.wrap(k), Tensor.wrap(v)
    b, n, d = q.shape
    if k.shape != q.shape or v.shape != q.shape or d % n_heads:
        raise InvalidInput(f"attention needs equal [B, N, d] inputs with d divisible by "
                           f"{n_heads} heads, got {q.shape}, {k.shape}, {v.shape}")
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(a: np.ndarray) -> np.ndarray:  # [B, N, d] -> [B, H, N, dh], a view
        return a.reshape(b, n, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray) -> np.ndarray:  # [B, H, N, dh] -> [B, N, d]
        return a.transpose(0, 2, 1, 3).reshape(b, n, d)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    logits = qh @ kh.transpose(0, 1, 3, 2)
    logits *= scale
    if key_bias is not None:
        logits += key_bias
    p = _softmax_inplace(logits, -1)

    def vjp(g):
        gh = heads(g)
        gv = p.transpose(0, 1, 3, 2) @ gh
        gs = _softmax_vjp(p, gh @ vh.transpose(0, 1, 3, 2), -1)
        gs *= scale
        gq = gs @ kh
        gk = (qh.transpose(0, 1, 3, 2) @ gs).transpose(0, 1, 3, 2)
        return ((q, merge(gq)), (k, merge(gk)), (v, merge(gv)))

    return Tensor._make(merge(p @ vh), (q, k, v), vjp)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU (fused forward and backward)."""
    x = Tensor.wrap(x)
    xd = x.data
    x2 = xd * xd
    t = x2 * xd  # t holds the tanh argument, then the tanh itself
    t *= _GELU_A
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= xd
    out *= 0.5

    def vjp(g):
        # slope = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        slope *= xd
        slope *= 0.5 * _GELU_C
        tmp = x2 * (3 * _GELU_A)
        tmp += 1.0
        slope *= tmp
        np.add(t, 1.0, out=tmp)
        tmp *= 0.5
        slope += tmp
        slope *= g
        return ((x, slope),)

    return Tensor._make(out, (x,), vjp)


def layer_norm_core(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale
    by `gain` and shift by `bias` (fused)."""
    x = Tensor.wrap(x)
    mu = x.data.mean(axis=-1, keepdims=True)
    y = x.data - mu
    sigma = np.sqrt((y * y).mean(axis=-1, keepdims=True) + eps)
    y /= sigma
    out = y * gain.data
    out += bias.data

    def vjp(g):
        gy = g * gain.data
        gm = gy.mean(axis=-1, keepdims=True)
        gyy = (gy * y).mean(axis=-1, keepdims=True)
        gx = gy - gm
        gx -= y * gyy
        gx /= sigma
        return ((x, gx), (gain, _unbroadcast(g * y, gain.shape)),
                (bias, _unbroadcast(g, bias.shape)))

    return Tensor._make(out, (x, gain, bias), vjp)


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Scale every slice along `axis` to unit length; a zero slice is rejected."""
    x = Tensor.wrap(x)
    squared = (x * x).sum(axis=axis, keepdims=True)
    if (squared.data == 0).any():
        raise InvalidInput("zero-norm feature row")
    return x / squared.sqrt()
