"""Dataset manifests, the text-embedding cache format, tokenization,
WAV I/O, atomic file writes, and the deterministic synthetic
audio-caption corpus."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import sys
import wave
from dataclasses import dataclass, field

import numpy as np

from .config import SAMPLE_RATE
from .errors import FormatError, InvalidInput, ParseError

MISSING_CAPTION_TEMPLATE = "The sound of {labels}"


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside `path` for writing, and move it into
    place when the block ends without error, so `path` holds either the
    previous file or the whole new one. On error the temporary file goes."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass
class ManifestEntry:
    id: str
    caption: str
    duration_s: float
    source: str | dict  # wav path, or a synth spec mapping
    labels: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "id": self.id, "source": self.source, "caption": self.caption,
            "labels": self.labels, "duration_s": self.duration_s,
        }, sort_keys=True)


def _entry_from_record(record: dict, line: int) -> ManifestEntry:
    if not isinstance(record, dict):
        raise ParseError("manifest line is not a JSON object", line=line)
    for key in ("id", "source", "duration_s"):
        if key not in record:
            raise ParseError(f"missing required field {key!r}", line=line)
    labels = record.get("labels", [])
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise ParseError(f"labels must be a list of strings, got {labels!r}", line=line)
    caption = record.get("caption", "")
    if not isinstance(caption, str):
        raise ParseError(f"caption must be a string, got {caption!r}", line=line)
    if not caption:
        if not labels:
            raise ParseError("entry needs a caption or labels to derive one", line=line)
        caption = MISSING_CAPTION_TEMPLATE.format(labels=", ".join(labels))
    duration = record["duration_s"]
    # a positive finite number; NaN fails the comparison
    if isinstance(duration, bool) or not isinstance(duration, (int, float)) \
            or not 0 < duration <= sys.float_info.max:
        raise ParseError(f"duration_s must be a positive number, got {duration!r}", line=line)
    return ManifestEntry(
        id=str(record["id"]), caption=caption, duration_s=float(duration),
        source=record["source"], labels=labels,
    )


def load_manifest(path) -> list[ManifestEntry]:
    """Read a JSON-Lines manifest; rejects duplicates and bad records."""
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from exc
            entry = _entry_from_record(record, lineno)
            if entry.id in seen:
                raise InvalidInput(f"duplicate manifest id {entry.id!r}")
            seen.add(entry.id)
            entries.append(entry)
    return entries


def save_manifest(path, entries: list[ManifestEntry]) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.writelines(entry.to_json() + "\n" for entry in entries)


# -- embedding cache -------------------------------------------------------------

CACHE_MAGIC = b"M2DC"
CACHE_VERSION = 1
DIGEST_BYTES = 32


def caption_digest(caption: str) -> bytes:
    return hashlib.sha256(caption.encode("utf-8")).digest()


@dataclass
class EmbeddingCache:
    dim: int
    rows: dict[bytes, np.ndarray]

    def lookup(self, caption: str) -> np.ndarray:
        digest = caption_digest(caption)
        if digest not in self.rows:
            raise InvalidInput(f"caption not in cache: {caption!r}")
        return self.rows[digest]


def cache_write(path, dim: int, rows: dict[bytes, np.ndarray]) -> None:
    if dim < 1:
        raise InvalidInput("cache dim must be positive")
    with atomic_open(path) as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<IIQ", CACHE_VERSION, dim, len(rows)))
        for digest, vector in rows.items():
            if len(digest) != DIGEST_BYTES:
                raise InvalidInput("cache keys must be 32-byte digests")
            arr = np.ascontiguousarray(vector, dtype="<f4")
            if arr.shape != (dim,):
                raise InvalidInput(f"vector shape {arr.shape} does not match dim {dim}")
            fh.write(digest)
            fh.write(arr.tobytes())


def cache_read(path) -> EmbeddingCache:
    with open(path, "rb") as fh:
        if fh.read(4) != CACHE_MAGIC:
            raise FormatError("bad cache magic")
        header = fh.read(16)
        if len(header) != 16:
            raise FormatError("truncated cache header")
        version, dim, count = struct.unpack("<IIQ", header)
        if version != CACHE_VERSION:
            raise FormatError(f"unsupported cache version {version}")
        record = DIGEST_BYTES + 4 * dim
        # the header's sizes are checked against the file before any read
        if count * record != os.fstat(fh.fileno()).st_size - fh.tell():
            raise FormatError("cache file is truncated or has trailing bytes")
        rows: dict[bytes, np.ndarray] = {}
        for _ in range(count):
            chunk = fh.read(record)
            rows[chunk[:DIGEST_BYTES]] = np.frombuffer(
                chunk[DIGEST_BYTES:], dtype="<f4").astype(np.float64)
    return EmbeddingCache(dim=dim, rows=rows)


# -- tokenizer --------------------------------------------------------------------

END_ID = 0
PAD_ID = 1
OOV_ID = 2
_SPECIALS = 3


class Tokenizer:
    """Lowercase word tokenizer over a fixed vocabulary with an OOV id."""

    def __init__(self, vocab: list[str]):
        self.vocab = list(vocab)
        self._ids = {word: _SPECIALS + i for i, word in enumerate(self.vocab)}

    @property
    def size(self) -> int:
        return _SPECIALS + len(self.vocab)

    @staticmethod
    def words(text: str) -> list[str]:
        out, current = [], []
        for ch in text.lower():
            if ch.isalnum():
                current.append(ch)
            elif current:
                out.append("".join(current))
                current = []
        if current:
            out.append("".join(current))
        return out

    @classmethod
    def fit(cls, captions: list[str], max_vocab: int = 4096) -> "Tokenizer":
        counts: dict[str, int] = {}
        for caption in captions:
            for word in cls.words(caption):
                counts[word] = counts.get(word, 0) + 1
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        return cls(ranked[:max_vocab])

    def encode(self, text: str) -> list[int]:
        return [self._ids.get(w, OOV_ID) for w in self.words(text)] + [END_ID]


# -- WAV I/O ---------------------------------------------------------------------


def write_wav(path, samples: np.ndarray) -> None:
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with atomic_open(path) as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE)
        wav.writeframes(pcm.tobytes())


def read_wav(path) -> np.ndarray:
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
                raise FormatError(f"{path}: expected 16-bit mono PCM")
            if fh.getframerate() != SAMPLE_RATE:
                raise InvalidInput(f"{path}: expected {SAMPLE_RATE} Hz audio")
            n_frames = fh.getnframes()
            raw = fh.readframes(n_frames)
    # `wave` raises RuntimeError when a chunk size points past the file
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise FormatError(f"{path}: not a readable WAV file ({exc or 'truncated'})") from exc
    if len(raw) != n_frames * 2:
        raise FormatError(f"{path}: truncated WAV sample data "
                          f"({len(raw)} of {n_frames * 2} bytes)")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0


# -- synthetic corpus --------------------------------------------------------------


# A synthesized clip is built whole in memory, with a few float64
# temporaries of its length: 600 s is 9.6 M samples, 77 MB an array, far
# above the 2 s training clips and the 10 s of an AudioSet clip.
MAX_SYNTH_SECONDS = 600.0
SYNTH_EMBED_DIM = 4096  # the class embeddings are orthonormal rows: at most this many classes


@dataclass
class SynthSpec:
    class_id: int
    carrier: str  # sine, the only carrier
    f0: float
    seed: int


def synth_waveform(spec: SynthSpec, duration_s: float) -> np.ndarray:
    """Deterministic clip: a sine at f0 plus a small seeded noise floor,
    from one sample to MAX_SYNTH_SECONDS long."""
    if spec.carrier != "sine":
        raise InvalidInput(f"unknown carrier {spec.carrier!r}")
    if not 0 < duration_s <= sys.float_info.max:  # NaN fails the comparison
        raise InvalidInput(f"duration must be a positive number of seconds, got {duration_s}")
    n = round(duration_s * SAMPLE_RATE)
    if not 1 <= n <= MAX_SYNTH_SECONDS * SAMPLE_RATE:
        raise InvalidInput(f"a synthesized clip lasts from one sample to {MAX_SYNTH_SECONDS:g} s, "
                           f"got {duration_s} s")
    rng = np.random.default_rng(spec.seed)
    t = np.arange(n) / SAMPLE_RATE
    phase = rng.uniform(0.0, 2.0 * np.pi)
    tone = np.sin(2.0 * np.pi * spec.f0 * t + phase)
    return 0.5 * tone + 0.01 * rng.standard_normal(n)


def synth_spec_from(source: dict) -> SynthSpec:
    try:
        return SynthSpec(
            class_id=int(source["class_id"]), carrier=str(source["carrier"]),
            f0=float(source["f0"]), seed=int(source["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad synth source spec: {source!r}") from exc


def synth_caption(class_id: int) -> str:
    return f"the sound of class-{class_id} tone can be heard"


def synth_corpus(n_classes: int, per_class: int, duration_s: float,
                 seed: int) -> tuple[list[np.ndarray], list[ManifestEntry], np.ndarray]:
    """Seeded tone corpus plus mutually orthogonal class embeddings.

    Class c is a sine at 200*(c+1) Hz; the 4096-d class embeddings are
    orthonormal by construction, so contrastive targets are separable.
    `synth_waveform` checks the duration.
    """
    if not 2 <= n_classes <= SYNTH_EMBED_DIM:
        raise InvalidInput(f"need 2 to {SYNTH_EMBED_DIM} classes (one orthonormal "
                           f"{SYNTH_EMBED_DIM}-d embedding each), got {n_classes}")
    if per_class < 1:
        raise InvalidInput(f"need at least one clip per class, got {per_class}")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((SYNTH_EMBED_DIM, n_classes))
    q, _ = np.linalg.qr(gauss)
    embeddings = q.T.copy()  # [n_classes, 4096], orthonormal rows

    waveforms: list[np.ndarray] = []
    entries: list[ManifestEntry] = []
    for c in range(n_classes):
        for i in range(per_class):
            spec = SynthSpec(class_id=c, carrier="sine", f0=200.0 * (c + 1),
                             seed=seed * 1_000_000 + c * 10_000 + i)
            waveforms.append(synth_waveform(spec, duration_s))
            entries.append(ManifestEntry(
                id=f"synth-{c:02d}-{i:04d}",
                caption=synth_caption(c),
                duration_s=duration_s,
                source={"class_id": c, "carrier": spec.carrier,
                        "f0": spec.f0, "seed": spec.seed},
                labels=[f"class-{c} tone"],
            ))
    return waveforms, entries, embeddings


def load_entry_audio(entry: ManifestEntry, wav_dir=None) -> np.ndarray:
    """Waveform for a manifest entry: synthesized or read from disk."""
    if isinstance(entry.source, dict):
        return synth_waveform(synth_spec_from(entry.source), entry.duration_s)
    path = entry.source
    if wav_dir is not None and not os.path.isabs(path):
        path = os.path.join(wav_dir, path)
    return read_wav(path)
