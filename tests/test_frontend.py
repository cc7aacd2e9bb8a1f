"""Front-end checks: framing/shape laws, oracle STFT comparison, the
two-thread split against the one-thread gather, patchify round trips,
feature summarization, positional encoding."""

import threading
import time

import numpy as np
import pytest

from miniclap import config as C
from miniclap import frontend as fe
from miniclap.errors import InvalidInput


def _wave(samples):
    return fe.Waveform(np.asarray(samples, dtype=np.float64))


def oracle_logmel(samples: np.ndarray) -> np.ndarray:
    """Loop-based DFT reference for the log-mel front-end."""
    win, hop, nfft = C.WIN_LENGTH, C.HOP_LENGTH, C.N_FFT
    half = win // 2
    mode = "reflect" if samples.size > half else "constant"
    padded = np.pad(samples, half, mode=mode)
    n_frames = int(np.ceil(samples.size / hop))
    window = np.hanning(win)
    k = np.arange(nfft // 2 + 1)
    n = np.arange(nfft)
    dft = np.exp(-2j * np.pi * k[:, None] * n[None, :] / nfft)
    fb = fe.mel_filterbank()
    out = np.empty((C.N_MELS, n_frames))
    for t in range(n_frames):
        frame = np.zeros(nfft)
        frame[:win] = padded[t * hop:t * hop + win] * window
        spectrum = dft @ frame
        power = np.abs(spectrum) ** 2
        out[:, t] = np.log(fb @ power + C.LOG_FLOOR)
    return out


class TestComputeLogmel:
    def test_six_seconds_gives_600_frames(self):
        mel = fe.compute_logmel(_wave(np.zeros(96000)))
        assert mel.values.shape == (80, 600)

    def test_single_hop_gives_one_frame(self):
        mel = fe.compute_logmel(_wave(np.zeros(160)))
        assert mel.values.shape == (80, 1)

    def test_empty_waveform_rejected(self):
        with pytest.raises(InvalidInput):
            fe.compute_logmel(_wave(np.zeros(0)))

    def test_wrong_sample_rate_rejected(self):
        with pytest.raises(InvalidInput):
            fe.compute_logmel(fe.Waveform(np.zeros(100), sample_rate=8000))

    @pytest.mark.parametrize("n_samples", [160, 800, 1234])
    def test_frame_count_formula(self, n_samples, rng):
        mel = fe.compute_logmel(_wave(rng.standard_normal(n_samples)))
        assert mel.values.shape == (80, int(np.ceil(n_samples / 160)))

    def test_matches_loop_dft_oracle(self, rng):
        samples = rng.standard_normal(1300)  # 9 frames
        got = fe.compute_logmel(_wave(samples)).values
        want = oracle_logmel(samples)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_deterministic_bit_identical(self, rng):
        samples = rng.standard_normal(2000)
        a = fe.compute_logmel(_wave(samples)).values
        b = fe.compute_logmel(_wave(samples)).values
        assert np.array_equal(a, b)


def gather_logmel(samples: np.ndarray) -> np.ndarray:
    """`compute_logmel` before strided framing and the split: every frame
    gathered by fancy indexing, all on the calling thread."""
    half = C.WIN_LENGTH // 2
    mode = "reflect" if samples.size > half else "constant"
    padded = np.pad(samples, half, mode=mode)
    n_frames = -(-samples.size // C.HOP_LENGTH)
    starts = np.arange(n_frames) * C.HOP_LENGTH
    frames = padded[starts[:, None] + np.arange(C.WIN_LENGTH)[None, :]]
    spectrum = np.fft.rfft(frames * np.hanning(C.WIN_LENGTH), n=C.N_FFT, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    return np.log((power @ fe.mel_filterbank().T).T + C.LOG_FLOOR)


MIN = fe.MIN_PART_FRAMES
BLOCK = fe.BLOCK_FRAMES
HOP = C.HOP_LENGTH
# a long clip: each half holds at least MIN frames
LONG = 2 * MIN * HOP


class TestTwoThreadLogmel:
    @pytest.mark.parametrize("n_samples", [
        1, 160, 161, 199, 200,
        2 * MIN * HOP,  # halves of exactly MIN frames
        2 * MIN * HOP - HOP + 1,  # the same frame count, the last frame short
        (2 * MIN - 1) * HOP,  # one frame under: no split
        (2 * MIN + 1) * HOP - 37,  # an odd frame count: the worker's half is longer
        (2 * BLOCK - 1) * HOP,  # one block, on one thread
        2 * BLOCK * HOP,  # two blocks, on one thread
        (4 * BLOCK - 2) * HOP + 1,  # one thread's blocks: two of BLOCK, one of 2 * BLOCK - 1
        9 * C.SAMPLE_RATE,
    ])
    def test_byte_identical_to_gather(self, n_samples):
        samples = np.random.default_rng(n_samples).standard_normal(n_samples)
        assert np.array_equal(fe.compute_logmel(_wave(samples)).values, gather_logmel(samples))

    def _record_parts(self, monkeypatch):
        parts, original = [], fe._mel_power

        def record(frames, out):
            parts.append((threading.current_thread() is threading.main_thread(), len(frames)))
            original(frames, out)

        monkeypatch.setattr(fe, "_mel_power", record)
        return parts

    def test_split_only_when_each_half_keeps_the_minimum(self, monkeypatch):
        parts = self._record_parts(monkeypatch)
        fe.compute_logmel(_wave(np.ones((2 * MIN - 1) * HOP)))
        assert parts == [(True, 2 * MIN - 1)]
        parts.clear()
        fe.compute_logmel(_wave(np.ones((2 * MIN + 1) * HOP)))
        # the caller takes the first half, the worker the longer second one
        assert sorted(parts) == [(False, MIN + 1), (True, MIN)]

    def test_worker_error_reaches_caller_as_same_object(self, monkeypatch):
        error, original = RuntimeError("worker half failed"), fe._mel_power

        def fail_on_worker(frames, out):
            if threading.current_thread() is not threading.main_thread():
                raise error
            original(frames, out)

        monkeypatch.setattr(fe, "_mel_power", fail_on_worker)
        with pytest.raises(RuntimeError) as info:
            fe.compute_logmel(_wave(np.ones(LONG)))
        assert info.value is error

    def test_caller_error_returns_after_worker_half(self, monkeypatch):
        finished = threading.Event()

        def fail_on_caller(frames, out):
            if threading.current_thread() is threading.main_thread():
                raise ValueError("caller half failed")
            time.sleep(0.2)
            finished.set()

        monkeypatch.setattr(fe, "_mel_power", fail_on_caller)
        with pytest.raises(ValueError, match="caller half failed"):
            fe.compute_logmel(_wave(np.ones(LONG)))
        assert finished.is_set()


class TestFilterbank:
    def test_shape_and_range(self):
        fb = fe.mel_filterbank()
        assert fb.shape == (80, 257)
        assert (fb >= 0).all()
        bin_freqs = np.arange(257) * (16000 / 512)
        assert fb[:, bin_freqs < 45].sum() == 0  # nothing below fmin
        assert (fb.sum(axis=1) > 0).all()  # every filter covers some bin

    def test_centers_monotone(self):
        fb = fe.mel_filterbank()
        centers = fb.argmax(axis=1)
        assert (np.diff(centers) >= 0).all()


class TestStandardize:
    def test_mean_maps_to_zero(self):
        mel = fe.MelSpectrogram(np.full((80, 4), -7.26))
        out = fe.standardize(mel)
        np.testing.assert_allclose(out.values, 0.0)

    def test_mean_plus_std_maps_to_one(self):
        mel = fe.MelSpectrogram(np.full((80, 4), -2.91))
        out = fe.standardize(mel)
        np.testing.assert_allclose(out.values, 1.0)


class TestPadOrCrop:
    def test_pad_600_to_608(self, rng):
        mel = fe.MelSpectrogram(rng.standard_normal((80, 600)))
        out = fe.pad_or_crop_to_grid(mel, 608)
        assert out.values.shape == (80, 608)
        np.testing.assert_array_equal(out.values[:, :600], mel.values)
        assert (out.values[:, 600:] == 0).all()

    def test_exact_width_unchanged(self, rng):
        mel = fe.MelSpectrogram(rng.standard_normal((80, 608)))
        np.testing.assert_array_equal(fe.pad_or_crop_to_grid(mel, 608).values, mel.values)

    def test_crop_long_input_at_offset_zero(self, rng):
        mel = fe.MelSpectrogram(rng.standard_normal((80, 700)))
        out = fe.pad_or_crop_to_grid(mel, 608, crop_offset=0)
        np.testing.assert_array_equal(out.values, mel.values[:, :608])

    def test_crop_offset_respected(self, rng):
        mel = fe.MelSpectrogram(rng.standard_normal((80, 700)))
        out = fe.pad_or_crop_to_grid(mel, 608, crop_offset=50)
        np.testing.assert_array_equal(out.values, mel.values[:, 50:658])

    def test_bad_target_rejected(self, rng):
        mel = fe.MelSpectrogram(rng.standard_normal((80, 600)))
        with pytest.raises(InvalidInput):
            fe.pad_or_crop_to_grid(mel, 600)  # not a multiple of 16

    def test_offset_out_of_range(self, rng):
        mel = fe.MelSpectrogram(rng.standard_normal((80, 700)))
        with pytest.raises(InvalidInput):
            fe.pad_or_crop_to_grid(mel, 608, crop_offset=100)


def _unpatchify(grid: fe.PatchGrid) -> np.ndarray:
    """The spectrogram a grid was cut from, patch by patch: patch
    i * n_t + j is the 16x16 block of frequency band i and time column j."""
    out = np.empty((grid.n_f * 16, grid.n_t * 16))
    for i in range(grid.n_f):
        for j in range(grid.n_t):
            block = grid.patches[i * grid.n_t + j].reshape(16, 16)
            out[16 * i:16 * (i + 1), 16 * j:16 * (j + 1)] = block
    return out


class TestPatchify:
    def test_reference_grid_dimensions(self, rng):
        grid = fe.patchify(fe.MelSpectrogram(rng.standard_normal((80, 608))))
        assert (grid.n_f, grid.n_t, grid.patches.shape[0]) == (5, 38, 190)

    def test_single_patch(self, rng):
        # one patch per frequency band: each is its band's 16x16 block
        mel = fe.MelSpectrogram(rng.standard_normal((80, 16)))
        grid = fe.patchify(mel)
        assert (grid.n_f, grid.n_t) == (5, 1)
        for band in range(5):
            np.testing.assert_array_equal(grid.patches[band].reshape(16, 16),
                                          mel.values[16 * band:16 * (band + 1)])

    def test_round_trip_bit_identical(self, rng):
        mel = fe.MelSpectrogram(rng.standard_normal((80, 96)))
        assert np.array_equal(_unpatchify(fe.patchify(mel)), mel.values)

    @pytest.mark.parametrize("shape", [(80, 16), (80, 48), (80, 608)])
    def test_round_trip_other_shapes(self, shape, rng):
        mel = fe.MelSpectrogram(rng.standard_normal(shape))
        assert np.array_equal(_unpatchify(fe.patchify(mel)), mel.values)

    def test_grid_order_frequency_major(self, rng):
        mel = fe.MelSpectrogram(rng.standard_normal((80, 32)))
        grid = fe.patchify(mel)
        # patch (i, j) lives at index i * n_t + j
        block = mel.values[16:32, 16:32]
        np.testing.assert_array_equal(grid.patches[1 * grid.n_t + 1].reshape(16, 16), block)

    def test_non_divisible_rejected(self, rng):
        mel = fe.MelSpectrogram(rng.standard_normal((80, 600)))
        with pytest.raises(InvalidInput):
            fe.patchify(mel)


class TestSummarizeFeatures:
    def test_reference_dimensions(self, rng):
        z = rng.standard_normal((1, 5 * 38, 768))
        frames, clip = fe.summarize_features(z, 5, 38)
        assert frames.shape == (1, 38, 3840)
        assert clip.shape == (1, 3840)

    def test_single_column_equals_clip(self, rng):
        z = rng.standard_normal((2, 5, 16))
        frames, clip = fe.summarize_features(z, 5, 1)
        np.testing.assert_array_equal(clip, frames[:, 0, :])

    def test_constant_preserved(self):
        z = np.full((2, 20, 3), 1.25)
        frames, clip = fe.summarize_features(z, 5, 4)
        assert (frames == 1.25).all() and (clip == 1.25).all()

    def test_brute_force_index_oracle(self, rng):
        b, n_f, n_t, d = 2, 5, 4, 3
        z = rng.standard_normal((b, n_f * n_t, d))
        frames, clip = fe.summarize_features(z, n_f, n_t)
        for bi in range(b):
            for t in range(n_t):
                want = np.concatenate([z[bi, i * n_t + t] for i in range(n_f)])
                np.testing.assert_array_equal(frames[bi, t], want)
        np.testing.assert_allclose(clip, frames.mean(axis=1), atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInput):
            fe.summarize_features(rng.standard_normal((1, 19, 4)), 5, 4)


class TestPositionalEncoding:
    def test_bounded_and_deterministic(self):
        a = fe.build_posenc(5, 38, 64)
        b = fe.build_posenc(5, 38, 64)
        assert np.array_equal(a.table, b.table)
        assert a.table.shape == (190, 64)
        assert (np.abs(a.table) <= 1.0).all()

    def test_rows_distinguish_grid_positions(self):
        table = fe.build_posenc(5, 38, 64).table
        assert np.unique(table.round(9), axis=0).shape[0] == 190

    def test_dim_not_divisible_rejected(self):
        with pytest.raises(InvalidInput):
            fe.build_posenc(5, 38, 30)
