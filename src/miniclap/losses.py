"""Training objectives: masked-prediction loss, contrastive loss,
temperature handling, and their weighted combination.

`similarity_matrix` is the one cosine similarity between audio and text
features: the contrastive loss, zero-shot classification and retrieval
all use it. Zero-norm rows are rejected by `autodiff.l2_normalize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInput

TAU_MIN = 0.01  # logit scale 1/tau capped at 100


@dataclass
class LossWeights:
    lambda_m2d: float = 1.0
    lambda_clap: float = 0.01

    def __post_init__(self):
        for key in ("lambda_m2d", "lambda_clap"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidInput(f"loss weight {key} must be finite and nonnegative, got {value}")
        if self.lambda_m2d == 0 and self.lambda_clap == 0:
            raise InvalidInput("at least one loss weight must be positive")


def m2d_loss(predicted, target) -> Tensor:
    """Mean over rows of the normalized-MSE 2 - 2*cos(pred, target).

    Accepts [M, D] or [B, M, D]; the mean runs over all rows.
    """
    p = Tensor.wrap(predicted)
    t = Tensor.wrap(target)
    if p.shape != t.shape:
        raise InvalidInput(f"shape mismatch {p.shape} vs {t.shape}")
    if p.shape[-2] < 1:
        raise InvalidInput("need at least one row")
    pn = ad.l2_normalize(p, axis=-1)
    tn = ad.l2_normalize(t, axis=-1)
    cos = (pn * tn).sum(axis=-1)
    return (2.0 - 2.0 * cos).mean()


def similarity_matrix(s_a, s_t) -> Tensor:
    """Pairwise cosine similarities; S[m, n] = cos(s_a[m], s_t[n])."""
    a, t = Tensor.wrap(s_a), Tensor.wrap(s_t)
    if a.ndim != 2 or t.ndim != 2 or a.shape[1] != t.shape[1]:
        raise InvalidInput("semantic features must be [B, D] with matching D")
    return ad.l2_normalize(a) @ ad.l2_normalize(t).transpose(1, 0)


def clap_loss(s, tau) -> Tensor:
    """Symmetric NT-Xent over a [B, B] similarity matrix.

    Averages the cross-entropy of the diagonal under a softmax along
    the audio axis and along the caption axis, with logits S/tau.
    """
    s = Tensor.wrap(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInput("similarity matrix must be square")
    tau_value = float(tau.data) if isinstance(tau, Tensor) else float(tau)
    if tau_value < TAU_MIN:
        raise InvalidInput(f"temperature {tau_value} below {TAU_MIN}; clip before calling")
    b = s.shape[0]
    logits = s * (1.0 / Tensor.wrap(tau))
    diag = np.arange(b)
    per_row = ad.log_softmax(logits, axis=1)[diag, diag]
    per_col = ad.log_softmax(logits, axis=0)[diag, diag]
    return -(per_row.sum() + per_col.sum()) * (1.0 / (2.0 * b))


def clip_temperature(tau: float) -> float:
    """Floor the temperature so logits are scaled by at most 100."""
    if not np.isfinite(tau):
        raise InvalidInput("temperature must be finite")
    return max(float(tau), TAU_MIN)


def combined_loss(l_m2d, l_clap, w: LossWeights):
    """Weighted sum of the two stage-1 objectives."""
    return w.lambda_m2d * l_m2d + w.lambda_clap * l_clap
