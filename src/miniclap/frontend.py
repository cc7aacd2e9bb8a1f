"""Audio front-end: waveforms to standardized log-mel patch grids.

`compute_logmel` frames the padded signal as strided views, with the
Hann window and mel filterbank built once at import. A long clip's
frame blocks are shared between the calling thread and
`threads.worker()`, byte-identical to computing them on one thread.

Also hosts the fixed 2-D sinusoidal positional encoding and the
patch-feature summarization used to produce frame- and clip-level
features from encoder outputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import config as C
from .errors import InvalidInput
from .threads import SharedCalls, worker


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


def mel_filterbank() -> np.ndarray:
    """Triangular area-normalized filterbank, [N_MELS, N_FFT//2 + 1]."""
    bin_freqs = np.arange(C.N_FFT // 2 + 1) * (C.SAMPLE_RATE / C.N_FFT)
    corners = _mel_to_hz(np.linspace(_hz_to_mel(C.FMIN_HZ), _hz_to_mel(C.FMAX_HZ), C.N_MELS + 2))
    fb = np.zeros((C.N_MELS, bin_freqs.size))
    for m in range(C.N_MELS):
        lo, center, hi = corners[m], corners[m + 1], corners[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
        fb[m] *= 2.0 / (hi - lo)  # equal-area normalization
    return fb


# built once, at import, and read-only: both threads read them
_WINDOW = np.hanning(C.WIN_LENGTH)
_FILTERBANK = mel_filterbank()
_WINDOW.flags.writeable = _FILTERBANK.flags.writeable = False

# A clip's frames are computed in blocks of this many (the last block
# takes the remainder, up to 2*BLOCK_FRAMES-1). A block's temporaries stay
# under 0.6 MB, which malloc reuses from call to call; a 9 s clip's whole
# halves were mapped and faulted in afresh on every call (1,994 against
# 672 minor faults a call). OpenBLAS computes a product of fewer than 16
# rows with another kernel, whose bytes differ from the whole product's,
# so a block must keep 16 rows or more.
BLOCK_FRAMES = 64
# A clip's blocks are shared with the worker only from this many (256
# frames, 2.56 s). On an idle 2-vCPU machine a split wins from about 44
# frames, but when the second core is busy the log-mels of 64 two-second
# clips took 123-160 ms split into 100-frame halves against 96 ms on one
# thread, while 200-frame halves still won (0.6x). So clips under 2.56 s,
# such as the 2 s training clips, stay on the calling thread.
MIN_SHARED_BLOCKS = 4


def _mel_power(frames: np.ndarray, out: np.ndarray) -> None:
    """Window, rfft, power and mel projection of `frames` [t, win] into
    `out` [t, n_mels]."""
    spectrum = np.fft.rfft(frames * _WINDOW, n=C.N_FFT, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    np.matmul(power, _FILTERBANK.T, out=out)


def compute_logmel(w: Waveform) -> MelSpectrogram:
    """Log mel spectrogram with ceil(len/hop) centered frames.

    Frame t is centered at sample t*hop; the signal is padded by
    win//2 on both sides (reflect when the signal is long enough,
    zeros otherwise, since reflection needs pad < length). Frames are
    strided views of the padded signal, whose mel power is computed in
    blocks of BLOCK_FRAMES, as a `threads.SharedCalls` shared with
    `threads.worker()` from MIN_SHARED_BLOCKS blocks. The result is
    byte-identical to computing every frame in one block on one thread.
    Never call this from the worker, which would then wait on its own
    queue.
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
    frames = sliding_window_view(padded, C.WIN_LENGTH)[:n_frames * C.HOP_LENGTH:C.HOP_LENGTH]
    mel_power = np.empty((n_frames, C.N_MELS))
    starts = range(0, max(1, n_frames // BLOCK_FRAMES) * BLOCK_FRAMES, BLOCK_FRAMES)
    blocks = SharedCalls(functools.partial(_mel_power, frames[start:end], mel_power[start:end])
                         for start, end in zip(starts, [*starts[1:], n_frames]))
    if len(starts) >= MIN_SHARED_BLOCKS:
        blocks.share(worker())
    blocks.result()
    values = mel_power.T + C.LOG_FLOOR
    return MelSpectrogram(np.log(values, out=values))


def standardize(m: MelSpectrogram) -> MelSpectrogram:
    return MelSpectrogram((m.values - C.MEL_MEAN) / C.MEL_STD)


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
