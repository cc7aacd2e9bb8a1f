"""Audio front-end: waveforms to standardized log-mel patch grids.

Also hosts the fixed 2-D sinusoidal positional encoding and the
patch-feature summarization used to produce frame- and clip-level
features from encoder outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config as C
from .errors import InvalidInput


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int = C.SAMPLE_RATE


@dataclass
class MelSpectrogram:
    """Log-scaled mel spectrogram, [80 mel bins x T frames]."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != C.N_MELS:
            raise InvalidInput(f"expected [{C.N_MELS} x T] array, got {self.values.shape}")

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass
class PatchGrid:
    """Flattened 16x16 patches in frequency-major grid order."""

    patches: np.ndarray  # [n_f * n_t, 256]
    n_f: int
    n_t: int

    def __post_init__(self):
        if self.patches.shape != (self.n_f * self.n_t, C.PATCH_SIZE * C.PATCH_SIZE):
            raise InvalidInput("patch array does not match grid dimensions")


@dataclass
class PositionalEncoding:
    table: np.ndarray  # [n_f * n_t, dim]
    n_f: int
    n_t: int


def _hz_to_mel(f):
    """Slaney scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    mel = 3.0 * f / 200.0
    log_region = f >= 1000.0
    mel = np.where(log_region, 15.0 + 27.0 * np.log(np.maximum(f, 1e-12) / 1000.0) / np.log(6.4), mel)
    return mel


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    hz = 200.0 * m / 3.0
    log_region = m >= 15.0
    hz = np.where(log_region, 1000.0 * np.exp(np.log(6.4) * (m - 15.0) / 27.0), hz)
    return hz


def mel_filterbank(n_mels: int = C.N_MELS, n_fft: int = C.N_FFT,
                   sample_rate: int = C.SAMPLE_RATE,
                   fmin: float = C.FMIN_HZ, fmax: float = C.FMAX_HZ) -> np.ndarray:
    """Triangular area-normalized filterbank, [n_mels, n_fft//2 + 1]."""
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    corners = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2))
    fb = np.zeros((n_mels, bin_freqs.size))
    for m in range(n_mels):
        lo, center, hi = corners[m], corners[m + 1], corners[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
        fb[m] *= 2.0 / (hi - lo)  # equal-area normalization
    return fb


_FILTERBANK: np.ndarray | None = None


def _filterbank() -> np.ndarray:
    global _FILTERBANK
    if _FILTERBANK is None:
        _FILTERBANK = mel_filterbank()
    return _FILTERBANK


def compute_logmel(w: Waveform) -> MelSpectrogram:
    """Log mel spectrogram with ceil(len/hop) centered frames.

    Frame t is centered at sample t*hop; the signal is padded by
    win//2 on both sides (reflect when the signal is long enough,
    zeros otherwise, since reflection needs pad < length).
    """
    samples = np.asarray(w.samples, dtype=np.float64).reshape(-1)
    if samples.size < 1:
        raise InvalidInput("empty waveform")
    if w.sample_rate != C.SAMPLE_RATE:
        raise InvalidInput(f"expected {C.SAMPLE_RATE} Hz audio, got {w.sample_rate}")

    half = C.WIN_LENGTH // 2
    mode = "reflect" if samples.size > half else "constant"
    padded = np.pad(samples, half, mode=mode)

    n_frames = -(-samples.size // C.HOP_LENGTH)  # ceil
    starts = np.arange(n_frames) * C.HOP_LENGTH
    frames = padded[starts[:, None] + np.arange(C.WIN_LENGTH)[None, :]]
    window = np.hanning(C.WIN_LENGTH)
    spectrum = np.fft.rfft(frames * window, n=C.N_FFT, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    mel_power = power @ _filterbank().T  # [T, n_mels]
    return MelSpectrogram(np.log(mel_power.T + C.LOG_FLOOR))


def standardize(m: MelSpectrogram, mean: float = C.MEL_MEAN, std: float = C.MEL_STD) -> MelSpectrogram:
    if std <= 0:
        raise InvalidInput("std must be positive")
    return MelSpectrogram((m.values - mean) / std)


def pad_or_crop_to_grid(m: MelSpectrogram, target_frames: int, crop_offset: int = 0) -> MelSpectrogram:
    """Pad with zeros on the right or crop at `crop_offset` to the target width.

    Zero padding happens in the standardized domain, so callers pad
    after `standardize`.
    """
    if target_frames <= 0 or target_frames % C.PATCH_SIZE != 0:
        raise InvalidInput(f"target_frames must be a positive multiple of {C.PATCH_SIZE}")
    t = m.n_frames
    if t == target_frames and crop_offset == 0:
        return MelSpectrogram(m.values.copy())
    if t < target_frames:
        out = np.zeros((C.N_MELS, target_frames))
        out[:, :t] = m.values
        return MelSpectrogram(out)
    if crop_offset < 0 or crop_offset + target_frames > t:
        raise InvalidInput("crop offset out of range")
    return MelSpectrogram(m.values[:, crop_offset:crop_offset + target_frames].copy())


def patchify(m: MelSpectrogram) -> PatchGrid:
    """Split a spectrogram into patches."""
    if m.n_frames % C.PATCH_SIZE != 0:
        raise InvalidInput("spectrogram width must be divisible by the patch size")
    n_f, n_t = C.N_FREQ_PATCHES, m.n_frames // C.PATCH_SIZE
    blocks = m.values.reshape(n_f, C.PATCH_SIZE, n_t, C.PATCH_SIZE)
    patches = blocks.transpose(0, 2, 1, 3).reshape(n_f * n_t, C.PATCH_SIZE * C.PATCH_SIZE)
    return PatchGrid(patches, n_f, n_t)


def unpatchify(grid: PatchGrid) -> np.ndarray:
    """Exact inverse of patchify, as a raw 2-D array."""
    blocks = grid.patches.reshape(grid.n_f, grid.n_t, C.PATCH_SIZE, C.PATCH_SIZE)
    return blocks.transpose(0, 2, 1, 3).reshape(
        grid.n_f * C.PATCH_SIZE, grid.n_t * C.PATCH_SIZE)


def summarize_features(z, n_f: int, n_t: int):
    """Patch features -> (frame features, clip feature).

    z is [B, n_f*n_t, D] (ndarray or autodiff Tensor). Frame feature t
    concatenates the n_f frequency-patch features of time column t,
    giving [B, n_t, n_f*D]; the clip feature is its mean over time.
    """
    b, n, d = z.shape
    if n != n_f * n_t:
        raise InvalidInput(f"expected {n_f * n_t} patch features, got {n}")
    frames = z.reshape(b, n_f, n_t, d).transpose(0, 2, 1, 3).reshape(b, n_t, n_f * d)
    clip = frames.mean(axis=1)
    return frames, clip


def build_posenc(n_f: int, n_t: int, dim: int) -> PositionalEncoding:
    """Fixed 2-D sinusoidal table: half the channels encode the
    frequency index, half the time index; rows follow grid order."""
    if dim % 4 != 0:
        raise InvalidInput("positional encoding needs dim divisible by 4")
    half = dim // 2
    fi, ti = np.meshgrid(np.arange(n_f), np.arange(n_t), indexing="ij")
    table = np.concatenate(
        [_sincos_1d(fi.reshape(-1), half), _sincos_1d(ti.reshape(-1), half)], axis=1)
    return PositionalEncoding(table, n_f, n_t)


def _sincos_1d(pos: np.ndarray, dim: int) -> np.ndarray:
    omega = 1.0 / (10000.0 ** (np.arange(dim // 2) / (dim / 2.0)))
    angles = pos[:, None] * omega[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
