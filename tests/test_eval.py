"""Evaluation protocol checks: probe behavior, caption fixtures,
zero-shot and retrieval oracles, attention maps, file formats."""

import json
import os
import struct
import sys
import threading
import time

import numpy as np
import pytest

from miniclap import autodiff as ad, evaluation as ev, network as net
from miniclap.autodiff import Tensor
from miniclap.config import N_FREQ_PATCHES, ModelConfig
from miniclap.errors import FormatError, InvalidInput, Unsupported
from miniclap.evaluation import LabeledFeatureSet, attention_map, caption_from_label, \
    linear_probe, retrieval_metrics, zero_shot_classify
from miniclap.frontend import MelSpectrogram, pad_or_crop_to_grid, patchify, summarize_features

FIXTURES = os.path.join(os.path.dirname(__file__), "data", "caption_fixtures.json")


def _blobs(rng, n_per, dim=6, sep=4.0):
    a = rng.standard_normal((n_per, dim)) + sep
    b = rng.standard_normal((n_per, dim)) - sep
    feats = np.concatenate([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    perm = rng.permutation(2 * n_per)
    return feats[perm], labels[perm]


class TestLinearProbe:
    def test_separable_blobs_reach_perfect_accuracy(self, rng):
        feats, labels = _blobs(rng, 30)
        result = linear_probe(
            LabeledFeatureSet(feats[:40], labels[:40], "train"),
            LabeledFeatureSet(feats[40:50], labels[40:50], "val"),
            LabeledFeatureSet(feats[50:], labels[50:], "test"),
        )
        assert result.test_metric == 1.0

    def test_shuffled_labels_hit_chance_level(self):
        accs = []
        for seed in range(5):
            gen = np.random.default_rng(seed)
            feats = gen.standard_normal((120, 8))
            labels = np.array([0, 1] * 60)
            gen.shuffle(labels)
            result = linear_probe(
                LabeledFeatureSet(feats[:80], labels[:80], "train"),
                LabeledFeatureSet(feats[80:100], labels[80:100], "val"),
                LabeledFeatureSet(feats[100:], labels[100:], "test"),
                seed=seed,
            )
            accs.append(result.test_metric)
        assert abs(np.mean(accs) - 0.5) <= 0.1

    def test_patience_bounds_training_length(self, rng):
        # random tiny val split: the best epoch comes early, then patience trips
        feats = rng.standard_normal((40, 4))
        labels = np.array([0, 1] * 20)
        result = linear_probe(
            LabeledFeatureSet(feats[:20], labels[:20], "train"),
            LabeledFeatureSet(feats[20:30], labels[20:30], "val"),
            LabeledFeatureSet(feats[30:], labels[30:], "test"),
            patience=20,
        )
        assert result.epochs_run - result.best_epoch <= 20 + 1

    def test_multilabel_uses_mean_average_precision(self, rng):
        feats = rng.standard_normal((120, 5))
        labels = (feats[:, :3] > 0).astype(float)  # 3 learnable binary targets
        result = linear_probe(
            LabeledFeatureSet(feats[:80], labels[:80], "train"),
            LabeledFeatureSet(feats[80:100], labels[80:100], "val"),
            LabeledFeatureSet(feats[100:], labels[100:], "test"),
            lr=1e-2, max_epochs=200,
        )
        assert 0.75 <= result.test_metric <= 1.0  # far above the ~0.5 chance level

    def test_mean_average_precision_values(self):
        scores = np.array([[0.9], [0.8], [0.7], [0.6]])
        perfect = np.array([[1.0], [1.0], [0.0], [0.0]])
        assert ev.mean_average_precision(scores, perfect) == 1.0
        # positives at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        mixed = np.array([[1.0], [0.0], [1.0], [0.0]])
        assert abs(ev.mean_average_precision(scores, mixed) - (1 + 2 / 3) / 2) <= 1e-12

    def test_empty_split_rejected(self, rng):
        feats, labels = _blobs(rng, 5)
        full = LabeledFeatureSet(feats, labels, "train")
        empty = LabeledFeatureSet(np.zeros((0, 6)), np.zeros(0, dtype=int), "val")
        with pytest.raises(InvalidInput):
            linear_probe(full, empty, full)


class TestCaptionTemplates:
    def test_fixtures_byte_exact(self):
        with open(FIXTURES, "r", encoding="utf-8") as fh:
            fixtures = json.load(fh)
        assert len(fixtures) >= 15
        for row in fixtures:
            label = row.get("labels", row.get("label"))
            got = caption_from_label(row["task"], label)
            assert got == row["caption"], (row, got)

    def test_multilabel_join(self):
        got = caption_from_label("audioset", ["dog", "rain", "thunder"])
        assert got == "dog, rain, thunder can be heard"

    def test_unknown_task_rejected(self):
        with pytest.raises(InvalidInput):
            caption_from_label("speech-commands", "yes")

    def test_unknown_emotion_rejected(self):
        with pytest.raises(InvalidInput):
            caption_from_label("cremad", "bored")


class TestZeroShot:
    def test_exact_class_rows_classified_perfectly(self, rng):
        classes = np.linalg.qr(rng.standard_normal((16, 16)))[0][:5]
        audio = classes[np.array([0, 1, 2, 3, 4, 0, 2])]
        preds = zero_shot_classify(audio, classes)
        np.testing.assert_array_equal(preds, [0, 1, 2, 3, 4, 0, 2])

    def test_noisy_copies_at_20db_snr(self, rng):
        dim, n = 64, 200
        classes = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:8]
        truth = rng.integers(0, 8, size=n)
        noise = rng.standard_normal((n, dim))
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        audio = classes[truth] + 0.1 * noise  # unit signal, -20 dB noise
        preds = zero_shot_classify(audio, classes)
        assert (preds == truth).mean() == 1.0

    def test_positive_rescaling_invariance(self, rng):
        classes = rng.standard_normal((4, 8))
        audio = rng.standard_normal((10, 8))
        base = zero_shot_classify(audio, classes)
        scales = rng.uniform(0.5, 20.0, size=(10, 1))
        np.testing.assert_array_equal(zero_shot_classify(audio * scales, classes), base)
        cscales = rng.uniform(0.5, 20.0, size=(4, 1))
        np.testing.assert_array_equal(zero_shot_classify(audio, classes * cscales), base)

    def test_brute_force_similarity_oracle(self, rng):
        audio = rng.standard_normal((5, 7))
        classes = rng.standard_normal((3, 7))
        preds = zero_shot_classify(audio, classes)
        for i in range(5):
            sims = [audio[i] @ classes[c] / (np.linalg.norm(audio[i]) * np.linalg.norm(classes[c]))
                    for c in range(3)]
            assert preds[i] == int(np.argmax(sims))

    def test_tie_broken_by_lowest_class_index(self):
        classes = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        preds = zero_shot_classify(np.array([[2.0, 0.0]]), classes)
        assert preds[0] == 0

    def test_zero_row_rejected(self, rng):
        with pytest.raises(InvalidInput):
            zero_shot_classify(np.zeros((2, 4)), rng.standard_normal((3, 4)))


def oracle_retrieval(s: np.ndarray, relevant: list[set[int]]):
    """Exhaustive sort-based reference for R@k and truncated AP."""
    n_q, n_g = s.shape
    r_at = {1: 0, 5: 0, 10: 0}
    ap_sum = 0.0
    for q in range(n_q):
        ranking = sorted(range(n_g), key=lambda g: (-s[q, g], g))
        best = min(ranking.index(g) + 1 for g in relevant[q])
        for k in r_at:
            r_at[k] += int(best <= k)
        hits, ap = 0, 0.0
        for rank, g in enumerate(ranking[:10], start=1):
            if g in relevant[q]:
                hits += 1
                ap += hits / rank
        ap_sum += ap / min(len(relevant[q]), 10)
    return {k: v / n_q for k, v in r_at.items()}, ap_sum / n_q


class TestRetrievalMetrics:
    def test_identity_matrix_perfect(self):
        result = retrieval_metrics(np.eye(8), np.arange(8))
        assert result.r_at == {1: 1.0, 5: 1.0, 10: 1.0}
        assert result.map_at_10 == 1.0

    def test_rank_two_example(self, rng):
        s = np.zeros((1, 12))
        s[0, 3] = 0.9  # a distractor outranks the relevant item
        s[0, 7] = 0.5
        result = retrieval_metrics(s, [7])
        assert result.r_at[1] == 0.0
        assert result.r_at[5] == 1.0
        assert result.map_at_10 == 0.5

    def test_random_matrices_match_exhaustive_oracle(self, rng):
        for trial in range(30):
            s = rng.standard_normal((32, 32))
            if trial % 3 == 0:
                s = np.round(s, 1)  # force score ties
            gt = rng.integers(0, 32, size=32)
            result = retrieval_metrics(s, gt)
            want_r, want_map = oracle_retrieval(s, [{int(g)} for g in gt])
            assert result.r_at == want_r
            assert result.map_at_10 == want_map

    def test_multi_relevant_matches_oracle(self, rng):
        s = rng.standard_normal((10, 24))
        relevant = [set(map(int, rng.choice(24, size=3, replace=False))) for _ in range(10)]
        result = retrieval_metrics(s, [sorted(r) for r in relevant])
        want_r, want_map = oracle_retrieval(s, relevant)
        assert result.r_at == want_r
        assert result.map_at_10 == want_map

    def test_monotone_in_relevant_score(self, rng):
        s = rng.standard_normal((6, 20))
        gt = rng.integers(0, 20, size=6)
        base = retrieval_metrics(s, gt)
        boosted = s.copy()
        boosted[np.arange(6), gt] += 1.0
        better = retrieval_metrics(boosted, gt)
        assert all(better.r_at[k] >= base.r_at[k] for k in (1, 5, 10))
        assert better.map_at_10 >= base.map_at_10

    def test_recall_ordering_invariant(self, rng):
        result = retrieval_metrics(rng.standard_normal((16, 16)),
                                   rng.integers(0, 16, size=16))
        assert result.r_at[1] <= result.r_at[5] <= result.r_at[10]

    def test_missing_ground_truth_rejected(self, rng):
        with pytest.raises(InvalidInput):
            retrieval_metrics(rng.standard_normal((3, 4)), [0, None, 2])
        with pytest.raises(InvalidInput):
            retrieval_metrics(rng.standard_normal((3, 4)), [0, 1])
        with pytest.raises(InvalidInput):
            retrieval_metrics(rng.standard_normal((3, 4)), [0, 1, []])


class TestAttentionMap:
    @pytest.fixture
    def projector(self):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32)
        return net.init_model_state(cfg, seed=4).projector

    def test_single_patch_gets_full_weight(self, projector, rng):
        weights = attention_map(projector, rng.standard_normal((1, 8)))
        np.testing.assert_allclose(weights, [1.0], atol=1e-12)

    def test_identical_keys_uniform(self, projector):
        z = np.tile(np.linspace(-1, 1, 8), (6, 1))
        weights = attention_map(projector, z)
        np.testing.assert_allclose(weights, np.full(6, 1 / 6), atol=1e-9)

    def test_probability_vector(self, projector, rng):
        weights = attention_map(projector, rng.standard_normal((9, 8)))
        assert (weights >= 0).all()
        assert abs(weights.sum() - 1.0) <= 1e-6

    def test_direct_softmax_oracle(self, projector, rng):
        z = rng.standard_normal((4, 8))
        got = attention_map(projector, z)
        blk = projector.blocks[0]
        x = np.concatenate([projector.cls_token.data.reshape(1, 8), z])
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        h = (x - mu) / np.sqrt(var + 1e-6) * blk.norm1.gain.data + blk.norm1.bias.data
        q = h[0] @ blk.attn_q.weight.data + blk.attn_q.bias.data
        keys = h[1:] @ blk.attn_k.weight.data + blk.attn_k.bias.data
        logits = keys @ q / np.sqrt(8)
        want = np.exp(logits - logits.max())
        want /= want.sum()
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_multi_head_unsupported(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, projector_heads=2)
        state = net.init_model_state(cfg, seed=0)
        with pytest.raises(Unsupported):
            attention_map(state.projector, rng.standard_normal((3, 8)))

    def test_mlp_projector_unsupported(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, projector_kind="mlp")
        state = net.init_model_state(cfg, seed=0)
        with pytest.raises(Unsupported):
            attention_map(state.projector, rng.standard_normal((3, 8)))


class TestFeatureFiles:
    def test_round_trip_byte_exact(self, rng, tmp_path):
        path = tmp_path / "x.feat"
        feats = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        ids = [f"clip-{i}" for i in range(7)]
        ev.write_features(path, ids, feats)
        got_ids, got = ev.read_features(path)
        assert got_ids == ids
        np.testing.assert_array_equal(got, feats)
        first = path.read_bytes()
        ev.write_features(path, got_ids, got)
        assert path.read_bytes() == first

    def test_failed_write_keeps_previous_pair(self, rng, tmp_path):
        path = tmp_path / "x.feat"
        feats = rng.standard_normal((4, 5)).astype(np.float32).astype(np.float64)
        ids = [f"clip-{i}" for i in range(4)]
        ev.write_features(path, ids, feats)
        before = path.read_bytes(), (tmp_path / "x.feat.ids").read_bytes()
        # the feature file is written whole; the sidecar fails at its third line
        with pytest.raises(TypeError):
            ev.write_features(path, ["a", "b", None, "d", "e"], rng.standard_normal((5, 3)))
        assert (path.read_bytes(), (tmp_path / "x.feat.ids").read_bytes()) == before
        assert sorted(os.listdir(tmp_path)) == ["x.feat", "x.feat.ids"]
        got_ids, got = ev.read_features(path)
        assert got_ids == ids
        np.testing.assert_array_equal(got, feats)

    def test_truncated_rejected(self, rng, tmp_path):
        path = tmp_path / "x.feat"
        ev.write_features(path, ["a", "b"], rng.standard_normal((2, 3)))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            ev.read_features(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            ev.read_features(path)

    @pytest.mark.parametrize("dim, count", [(2**32 - 1, 2**40), (2**32 - 1, 2), (3, 2**40)])
    def test_corrupt_size_fields_rejected(self, rng, tmp_path, dim, count):
        path = tmp_path / "x.feat"
        ev.write_features(path, ["a", "b"], rng.standard_normal((2, 3)))
        data = bytearray(path.read_bytes())
        data[8:20] = struct.pack("<IQ", dim, count)  # after magic and version
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            ev.read_features(path)


class TestReportsAndPgm:
    def test_pgm_layout(self, tmp_path):
        path = tmp_path / "a.pgm"
        weights = np.array([0.0, 0.25, 0.5, 1.0, 0.0, 0.5])
        ev.write_pgm(path, weights, n_f=2, n_t=3)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        pixels = np.frombuffer(data[len(b"P5\n3 2\n255\n"):], dtype=np.uint8).reshape(2, 3)
        # top image row is the higher frequency band (flipped)
        np.testing.assert_array_equal(pixels[1], [0, 64, 128])
        np.testing.assert_array_equal(pixels[0], [255, 0, 128])

    def test_failed_pgm_write_keeps_previous_file(self, tmp_path, full_disk):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"previous")
        with pytest.raises(OSError):
            ev.write_pgm(path, np.ones(6), n_f=2, n_t=3)
        assert path.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["a.pgm"]

    def test_format_table_alignment(self):
        rows = [{"metric": "acc", "value": "0.95"}, {"metric": "r@1", "value": "1.0"}]
        table = ev.format_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("metric")
        assert len(lines) == 4

    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        ev.write_metrics_csv(path, [{"metric": "acc", "value": 0.5}])
        assert path.read_text().splitlines()[0] == "metric,value"

    def test_failed_metrics_csv_keeps_previous_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        ev.write_metrics_csv(path, [{"metric": "acc", "value": 0.5}])
        before = path.read_bytes()
        # the header and first row are written, then the second row's key is refused
        with pytest.raises(ValueError):
            ev.write_metrics_csv(path, [{"metric": "r@1", "value": 1.0}, {"other": 2}])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["metrics.csv"]


class TestChunkedFeatures:
    def test_repeated_window_averages_to_single_window(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32)
        state = net.init_model_state(cfg, seed=6)
        window = rng.standard_normal((80, 32))
        single = MelSpectrogram(window)
        double = MelSpectrogram(np.concatenate([window, window], axis=1))
        one = ev.clip_features(state, [single])
        two = ev.clip_features(state, [double])
        np.testing.assert_allclose(one, two, atol=1e-10)
        s_one = ev.semantic_features(state, [single])
        s_two = ev.semantic_features(state, [double])
        np.testing.assert_allclose(s_one, s_two, atol=1e-10)

    def test_short_clip_zero_padded(self, rng):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32)
        state = net.init_model_state(cfg, seed=6)
        short = MelSpectrogram(rng.standard_normal((80, 20)))
        feats = ev.clip_features(state, [short])
        assert feats.shape == (1, 5 * 8)
        assert np.isfinite(feats).all()

    def test_one_call_matches_per_clip_calls(self, rng, monkeypatch):
        cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32)
        state = net.init_model_state(cfg, seed=6)
        # one window, several windows, and more than one encoder call per
        # thread: 6 windows of 10 patches a call
        monkeypatch.setattr(net, "FROZEN_TOKENS", 60)
        frames = (20, 32, 100, 33, 40 * 32 + 5)
        assert sum(-(-t // 32) for t in frames) > 2 * 6
        mels = [MelSpectrogram(rng.standard_normal((80, t))) for t in frames]
        for features in (ev.clip_features, ev.semantic_features):
            together = features(state, mels)
            for i, mel in enumerate(mels):
                np.testing.assert_allclose(together[i], features(state, [mel])[0], atol=1e-10)

    def test_empty_clip_list_rejected(self):
        state = net.init_model_state(ModelConfig(dim=8, depth=1, heads=2, input_frames=32), seed=6)
        for features in (ev.encode_windows, ev.clip_features, ev.semantic_features):
            with pytest.raises(InvalidInput):
                features(state, [])


def _serial_features(state, mels, kind):
    """Oracle: every window encoded in one call on this thread, then a
    masked mean per clip."""
    width = state.config.input_frames
    windows, owner = [], []
    for clip, mel in enumerate(mels):
        for start in range(0, max(1, mel.n_frames), width):
            window = MelSpectrogram(mel.values[:, start:start + width])
            windows.append(patchify(pad_or_crop_to_grid(window, width)).patches)
            owner.append(clip)
    with ad.no_grad():
        z = net.encode_tokens(state.online, np.stack(windows), state.online.posenc.table)
    if kind == "clip":
        rows = summarize_features(z, N_FREQ_PATCHES, state.config.n_time_patches)[1].data
    else:
        rows = net.project_audio(state.projector, z).data
    owner = np.array(owner)
    return np.stack([rows[owner == clip].mean(axis=0) for clip in range(len(mels))])


class TestTwoThreadExtraction:
    CFG = ModelConfig(dim=8, depth=1, heads=2, input_frames=32)

    # 1, 2 and 3 windows in all, too few to split between the threads at
    # 10 patches a window, and 44 windows, 22 on each thread
    @pytest.mark.parametrize("frames, n_windows", [
        ((20,), 1), ((32, 5), 2), ((20, 64), 3), ((20, 40 * 32 + 5, 33), 44)])
    def test_matches_serial_oracle(self, rng, frames, n_windows):
        assert sum(-(-t // 32) for t in frames) == n_windows
        state = net.init_model_state(self.CFG, seed=6)
        mels = [MelSpectrogram(rng.standard_normal((80, t))) for t in frames]
        got = {"clip": ev.clip_features(state, mels), "semantic": ev.semantic_features(state, mels)}
        for kind, features in got.items():
            want = _serial_features(state, mels, kind)
            assert features.dtype == want.dtype and features.tobytes() == want.tobytes(), kind

    def test_worker_error_reaches_caller_after_its_own_chunk(self, rng):
        state = net.init_model_state(self.CFG, seed=6)
        caller = threading.get_ident()
        error = RuntimeError("worker half failed")
        finished = []

        def summary(z):
            if threading.get_ident() != caller:
                raise error
            time.sleep(0.2)  # the worker's half fails long before this one ends
            finished.append(len(z.data))
            return z.data

        # 4 windows: 2 on each thread, the fewest that split
        with pytest.raises(RuntimeError) as caught:
            ev.encode_windows(state, [MelSpectrogram(rng.standard_normal((80, 128)))], summary)
        assert caught.value is error
        assert finished == [2]

    def test_caller_error_waits_for_worker_chunks(self, rng):
        state = net.init_model_state(self.CFG, seed=6)
        caller = threading.get_ident()
        finished = []

        def summary(z):
            if threading.get_ident() == caller:
                raise RuntimeError("caller half failed")
            time.sleep(0.1)
            finished.append(len(z.data))
            return z.data

        # 4 windows: 2 on each thread
        with pytest.raises(RuntimeError, match="caller half failed"):
            ev.encode_windows(state, [MelSpectrogram(rng.standard_normal((80, 128)))], summary)
        assert finished == [2]

    def test_concurrent_extractions_stay_identical(self, rng):
        state = net.init_model_state(self.CFG, seed=6)
        mels = [MelSpectrogram(rng.standard_normal((80, t))) for t in (20, 100, 33, 300)]
        first = ev.semantic_features(state, mels).tobytes()
        results, errors = [], []

        def extract(n):
            try:
                for _ in range(n):
                    results.append(ev.semantic_features(state, mels).tobytes())
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # two callers and the shared worker: more threads than cores
            callers = [threading.Thread(target=extract, args=(10,)) for _ in range(2)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []
        assert len(results) == 20 and all(r == first for r in results)
        a = Tensor(np.ones(2), requires_grad=True)
        assert (a * 2.0).requires_grad  # grad mode is still on in this thread
