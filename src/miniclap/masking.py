"""Random visible/masked partitions of the patch sequence.

Batched contract: a batch of B samples over n patches has a [B, V]
array of visible indices and a [B, M] array of masked indices, one
sorted partition per row, drawn row by row with `sample_partition`; the
predictor input is [B, n, d]. A single sample is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInput


@dataclass
class MaskPartition:
    visible_idx: np.ndarray  # sorted
    masked_idx: np.ndarray  # sorted


def masked_count(n: int, ratio: float) -> int:
    # round half away from zero; plain round() would round 0.5 to even
    return int(np.floor(ratio * n + 0.5))


def sample_partition(n: int, ratio: float, rng: np.random.Generator) -> MaskPartition:
    if n < 1:
        raise InvalidInput("n must be at least 1")
    if not 0.0 <= ratio <= 1.0:
        raise InvalidInput(f"masking ratio {ratio} outside [0, 1]")
    n_masked = masked_count(n, ratio)
    order = rng.permutation(n)
    masked = np.sort(order[:n_masked])
    visible = np.sort(order[n_masked:])
    return MaskPartition(visible, masked)


def batch_partitions(n: int, ratio: float, batch: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One partition per row, drawn in row order: [B, V] visible and
    [B, M] masked indices."""
    if batch < 1:
        raise InvalidInput("a batch needs at least one sample")
    parts = [sample_partition(n, ratio, rng) for _ in range(batch)]
    return (np.stack([p.visible_idx for p in parts]),
            np.stack([p.masked_idx for p in parts]))


def assemble_predictor_input(z_v, mask_token, pe_table, vis: np.ndarray,
                             msk: np.ndarray) -> Tensor:
    """Restore grid order in every row: visible rows from z_v, the mask
    token elsewhere, plus the positional-encoding row of every position.

    z_v is [B, V, d]; vis [B, V] and msk [B, M] partition each row's n
    positions; pe_table is the [n, d] table. Output [B, n, d].
    """
    z_v = Tensor.wrap(z_v)
    b, n_visible, d = z_v.shape
    n_masked = msk.shape[1]
    if vis.shape != (b, n_visible) or msk.shape[0] != b:
        raise InvalidInput(f"index arrays {vis.shape} and {msk.shape} do not match "
                           f"visible features {z_v.shape}")
    # position i of row r comes from stacked row order[r, i]
    order = np.empty((b, n_visible + n_masked), dtype=int)
    np.put_along_axis(order, vis, np.arange(n_visible)[None, :], axis=1)
    np.put_along_axis(order, msk, n_visible + np.arange(n_masked)[None, :], axis=1)
    tokens = Tensor.wrap(mask_token).expand((b, n_masked, d))
    stacked = ad.concat([z_v, tokens], axis=1)
    return ad.gather_rows(stacked, order) + pe_table
