"""Manifest parsing, cache format round trips, tokenizer behavior, and
the deterministic synthetic corpus."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from miniclap import datakit as dk
from miniclap.errors import FormatError, InvalidInput, ParseError


class TestManifest:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert dk.load_manifest(path) == []

    def test_round_trip(self, tmp_path):
        entries = [
            dk.ManifestEntry("a", "dog can be heard", 2.0, "a.wav", ["dog"]),
            dk.ManifestEntry("b", "rain can be heard", 3.5, {"class_id": 1, "carrier": "sine", "f0": 400.0, "seed": 3}, ["rain"]),
        ]
        path = tmp_path / "m.jsonl"
        dk.save_manifest(path, entries)
        assert dk.load_manifest(path) == entries

    def test_caption_autofilled_from_labels(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "x", "source": "x.wav", "duration_s": 1.0, "labels": ["dog", "rain"]}\n')
        entry = dk.load_manifest(path)[0]
        assert entry.caption == "The sound of dog, rain"

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        line = '{"id": "x", "source": "x.wav", "duration_s": 1.0, "caption": "c"}\n'
        path.write_text(line + line)
        with pytest.raises(InvalidInput):
            dk.load_manifest(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "x", "source": "s", "duration_s": 1, "caption": "c"}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            dk.load_manifest(path)

    def test_zero_duration_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "x", "source": "s", "duration_s": 0, "caption": "c"}\n')
        with pytest.raises(ParseError):
            dk.load_manifest(path)

    @pytest.mark.parametrize("fields, message", [
        ('"duration_s": "abc", "caption": "c"', "duration_s must be a positive number, got 'abc'"),
        ('"duration_s": null, "caption": "c"', "duration_s must be a positive number, got None"),
        ('"duration_s": "2.0", "caption": "c"', "duration_s must be a positive number, got '2.0'"),
        ('"duration_s": NaN, "caption": "c"', "duration_s must be a positive number, got nan"),
        ('"duration_s": Infinity, "caption": "c"', "duration_s must be a positive number, got inf"),
        ('"duration_s": 1e999, "caption": "c"', "duration_s must be a positive number, got inf"),
        pytest.param('"duration_s": 1' + '0' * 400 + ', "caption": "c"',
                     "duration_s must be a positive number", id="integer-over-float-range"),
        ('"duration_s": true, "caption": "c"', "duration_s must be a positive number, got True"),
        ('"duration_s": -1.5, "caption": "c"', "duration_s must be a positive number, got -1.5"),
        ('"duration_s": 1.0, "labels": "dog"', "labels must be a list of strings, got 'dog'"),
        ('"duration_s": 1.0, "labels": ["dog", 3]', "labels must be a list of strings"),
        ('"duration_s": 1.0, "labels": null', "labels must be a list of strings, got None"),
        ('"duration_s": 1.0, "caption": 5', "caption must be a string, got 5"),
        ('"duration_s": 1.0, "caption": ["c"], "labels": ["dog"]', "caption must be a string"),
    ])
    def test_mistyped_field_reports_line_number(self, tmp_path, fields, message):
        path = tmp_path / "m.jsonl"
        good = '{"id": "a", "source": "a.wav", "duration_s": 2, "caption": "c"}\n'
        path.write_text(good + '{"id": "x", "source": "s", ' + fields + '}\n')
        with pytest.raises(ParseError) as caught:
            dk.load_manifest(path)
        assert str(caught.value).startswith(f"line 2: {message}"), caught.value
        assert caught.value.line == 2

    @pytest.mark.parametrize("source", ["5", "null", "[1]"])
    def test_mistyped_source_reports_line_number(self, tmp_path, source):
        path = tmp_path / "m.jsonl"
        good = '{"id": "a", "source": "a.wav", "duration_s": 2, "caption": "c"}\n'
        path.write_text(good + '{"id": "x", "source": ' + source + ', "duration_s": 1.0, '
                        '"caption": "c"}\n')
        with pytest.raises(ParseError) as caught:
            dk.load_manifest(path)
        want = f"line 2: source must be a path or a synth spec, got {json.loads(source)!r}"
        assert str(caught.value) == want
        assert caught.value.line == 2

    def test_integer_duration_read_as_float(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "x", "source": "s", "duration_s": 2, "caption": "c"}\n')
        duration = dk.load_manifest(path)[0].duration_s
        assert type(duration) is float and duration == 2.0

    def test_missing_caption_and_labels_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "x", "source": "s", "duration_s": 1.0}\n')
        with pytest.raises(ParseError):
            dk.load_manifest(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        dk.save_manifest(path, [dk.ManifestEntry("z", "rain can be heard", 1.0, "z.wav")])
        before = path.read_bytes()
        entries = [dk.ManifestEntry("a", "dog can be heard", 2.0, "a.wav", ["dog"]),
                   dk.ManifestEntry("b", "c", 1.0, {"f0": {1.0}})]
        with pytest.raises(TypeError):  # the first line is written, then the set is refused
            dk.save_manifest(path, entries)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.jsonl"]


class TestEmbeddingCache:
    def test_round_trip_bit_identical_rows(self, rng, tmp_path):
        path = tmp_path / "e.cache"
        rows = {}
        for caption in ("a", "b", "c"):
            vec = rng.standard_normal(4096).astype(np.float32).astype(np.float64)
            rows[dk.caption_digest(caption)] = vec
        dk.cache_write(path, 4096, rows)
        cache = dk.cache_read(path)
        assert cache.dim == 4096
        for caption in ("a", "b", "c"):
            np.testing.assert_array_equal(cache.lookup(caption),
                                          rows[dk.caption_digest(caption)])

    def test_file_level_round_trip_byte_exact(self, rng, tmp_path):
        p1, p2 = tmp_path / "a.cache", tmp_path / "b.cache"
        rows = {dk.caption_digest(str(i)): rng.standard_normal(16) for i in range(5)}
        dk.cache_write(p1, 16, rows)
        cache = dk.cache_read(p1)
        dk.cache_write(p2, cache.dim, cache.rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_cache_round_trips(self, tmp_path):
        path = tmp_path / "e.cache"
        dk.cache_write(path, 64, {})
        cache = dk.cache_read(path)
        assert cache.dim == 64 and cache.rows == {}

    def test_truncated_rejected(self, rng, tmp_path):
        path = tmp_path / "e.cache"
        dk.cache_write(path, 8, {dk.caption_digest("x"): rng.standard_normal(8)})
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            dk.cache_read(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "e.cache"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(FormatError):
            dk.cache_read(path)

    @pytest.mark.parametrize("dim, count", [(2**32 - 1, 1), (8, 2**60), (9, 1)])
    def test_corrupt_size_fields_rejected(self, rng, tmp_path, dim, count):
        path = tmp_path / "e.cache"
        dk.cache_write(path, 8, {dk.caption_digest("x"): rng.standard_normal(8)})
        data = bytearray(path.read_bytes())
        data[8:20] = struct.pack("<IQ", dim, count)  # after magic and version
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            dk.cache_read(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "e.cache"
        dk.cache_write(path, 8, {dk.caption_digest("x"): rng.standard_normal(8)})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            dk.cache_read(path)

    def test_dim_mismatch_rejected(self, rng, tmp_path):
        with pytest.raises(InvalidInput):
            dk.cache_write(tmp_path / "e.cache", 8,
                           {dk.caption_digest("x"): rng.standard_normal(9)})

    def test_failed_write_keeps_previous_file(self, rng, tmp_path):
        path = tmp_path / "e.cache"
        dk.cache_write(path, 8, {dk.caption_digest("x"): rng.standard_normal(8)})
        before = path.read_bytes()
        rows = {dk.caption_digest("y"): rng.standard_normal(8), b"short": rng.standard_normal(8)}
        with pytest.raises(InvalidInput):  # the first row is written, then the key is refused
            dk.cache_write(path, 8, rows)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["e.cache"]
        assert dk.cache_read(path).dim == 8

    def test_lookup_missing_caption(self, tmp_path):
        path = tmp_path / "e.cache"
        dk.cache_write(path, 4, {})
        with pytest.raises(InvalidInput):
            dk.cache_read(path).lookup("absent")


@pytest.fixture
def tokenizer():
    return dk.Tokenizer.fit([dk.synth_caption(c) for c in range(4)] + ["a dog barks"])


class TestTokenizer:
    def test_casefold_and_punctuation(self, tokenizer):
        assert tokenizer.encode("Dog barks.") == tokenizer.encode("dog barks")
        assert dk.OOV_ID not in tokenizer.encode("Dog barks.")

    def test_empty_string_is_end_token(self, tokenizer):
        assert tokenizer.encode("") == [dk.END_ID]

    def test_ends_with_end_token(self, tokenizer):
        assert tokenizer.encode("the sound")[-1] == dk.END_ID

    def test_round_trip_for_in_vocab_text(self, tokenizer):
        text = "the sound of class 3 tone can be heard"
        ids = tokenizer.encode(text)
        assert dk.OOV_ID not in ids
        inverse = {tokenizer.encode(word)[0]: word for word in tokenizer.vocab}
        assert len(inverse) == len(tokenizer.vocab)  # one id per word
        assert " ".join(inverse[i] for i in ids[:-1]) == text

    def test_out_of_vocab_maps_to_oov(self, tokenizer):
        ids = tokenizer.encode("zyzzyva")
        assert ids == [dk.OOV_ID, dk.END_ID]

    def test_fit_orders_by_frequency_then_alphabetically(self):
        tok = dk.Tokenizer.fit(["b b b a a c", "a"])
        assert tok.vocab == ["a", "b", "c"]

    def test_fit_deterministic_and_bounded(self):
        captions = [f"word{i} common" for i in range(50)]
        a = dk.Tokenizer.fit(captions, max_vocab=10)
        b = dk.Tokenizer.fit(captions, max_vocab=10)
        assert a.vocab == b.vocab
        assert len(a.vocab) == 10
        assert a.vocab[0] == "common"



class TestWav:
    def test_round_trip_within_quantization(self, rng, tmp_path):
        samples = np.clip(rng.standard_normal(1600) * 0.3, -1, 1)
        path = tmp_path / "x.wav"
        dk.write_wav(path, samples)
        back = dk.read_wav(path)
        assert back.shape == samples.shape
        assert np.abs(back - samples).max() <= 1.0 / 32767 + 1e-9

    @pytest.mark.parametrize("kind", ["text", "truncated", "half-sample", "chunk-size"])
    def test_malformed_file_is_format_error(self, tmp_path, kind):
        path = tmp_path / "x.wav"
        dk.write_wav(path, np.zeros(1600))
        data = path.read_bytes()
        path.write_bytes({
            "text": b"not a wav file\n",
            "truncated": data[:30],  # ends inside the fmt chunk
            "half-sample": data[:45],  # the 44-byte header and one byte of a sample
            "chunk-size": data[:16] + struct.pack("<I", 2**31 - 1) + data[20:],  # fmt size
        }[kind])
        with pytest.raises(FormatError, match="x.wav"):
            dk.read_wav(path)

    def test_cut_at_sample_boundary_is_format_error(self, tmp_path):
        path = tmp_path / "x.wav"
        dk.write_wav(path, np.zeros(100))
        data = path.read_bytes()
        assert len(data) == 244  # a 44-byte header and 100 two-byte samples
        for size in range(44, 244, 2):
            path.write_bytes(data[:size])
            with pytest.raises(FormatError, match="x.wav"):
                dk.read_wav(path)


    def test_failed_write_keeps_previous_file(self, tmp_path, full_disk):
        path = tmp_path / "x.wav"
        path.write_bytes(b"previous")
        with pytest.raises(OSError):
            dk.write_wav(path, np.zeros(100))
        assert path.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["x.wav"]


class TestSynthCorpus:
    def test_counts_and_distinct_captions(self):
        waves, entries, emb = dk.synth_corpus(4, 50, 2.0, seed=7)
        assert len(waves) == 200 and len(entries) == 200
        assert len({e.caption for e in entries}) == 4
        assert emb.shape == (4, 4096)
        assert len({e.id for e in entries}) == 200

    def test_deterministic_under_seed(self):
        def corpus_hash(seed):
            waves, entries, emb = dk.synth_corpus(3, 5, 1.0, seed=seed)
            h = hashlib.sha256()
            for w in waves:
                h.update(w.tobytes())
            h.update(emb.tobytes())
            h.update("".join(e.to_json() for e in entries).encode())
            return h.hexdigest()

        assert corpus_hash(9) == corpus_hash(9)
        assert corpus_hash(9) != corpus_hash(10)

    @pytest.mark.parametrize("n_classes", [2, 8, 16])
    def test_class_embeddings_near_orthonormal(self, n_classes):
        _, _, emb = dk.synth_corpus(n_classes, 1, 0.5, seed=3)
        norms = np.linalg.norm(emb, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        gram = emb @ emb.T
        off_diag = gram - np.diag(np.diag(gram))
        assert np.abs(off_diag).max() <= 0.05

    def test_carrier_frequencies_scale_with_class(self):
        waves, entries, _ = dk.synth_corpus(3, 1, 1.0, seed=0)
        for c, entry in enumerate(entries):
            assert entry.source["f0"] == 200.0 * (c + 1)
            spectrum = np.abs(np.fft.rfft(waves[c]))
            peak_hz = spectrum.argmax() * 16000 / len(waves[c])
            assert abs(peak_hz - 200.0 * (c + 1)) < 10.0

    def test_too_few_classes_rejected(self):
        with pytest.raises(InvalidInput):
            dk.synth_corpus(1, 5, 1.0, seed=0)

    def test_synth_waveform_carriers(self):
        spec = dk.SynthSpec(0, "sine", 300.0, seed=5)
        a = dk.synth_waveform(spec, 0.5)
        b = dk.synth_waveform(spec, 0.5)
        assert a.shape == (8000,)
        np.testing.assert_array_equal(a, b)
        for carrier in ("noise", "chirp", "square"):
            with pytest.raises(InvalidInput, match=f"unknown carrier '{carrier}'"):
                dk.synth_waveform(dk.SynthSpec(0, carrier, 300.0, seed=5), 0.5)

    def test_load_entry_audio_synth_and_file(self, tmp_path, rng):
        _, entries, _ = dk.synth_corpus(2, 1, 0.5, seed=1)
        synth_audio = dk.load_entry_audio(entries[0])
        expected = dk.synth_waveform(dk.synth_spec_from(entries[0].source), 0.5)
        np.testing.assert_array_equal(synth_audio, expected)

        samples = np.clip(rng.standard_normal(800) * 0.2, -1, 1)
        dk.write_wav(tmp_path / "a.wav", samples)
        entry = dk.ManifestEntry("f", "c", 0.05, "a.wav")
        got = dk.load_entry_audio(entry, wav_dir=str(tmp_path))
        assert got.shape == samples.shape
