"""Model configuration, config-file parsing, and override handling.

Config files are flat ``key = value`` text with dotted keys grouping
sections (``model.dim``, ``stage1.mask_ratio``, ``data.manifest``).
CLI ``--set KEY=VALUE`` overrides are applied after parsing, last wins.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

from .errors import InvalidConfig, ParseError

# Mel front-end constants. The 16 kHz / 25 ms / 10 ms / 80-bin front-end
# and the standardization statistics are fixed for every stage.
SAMPLE_RATE = 16000
WIN_LENGTH = 400  # 25 ms
HOP_LENGTH = 160  # 10 ms
N_FFT = 512
N_MELS = 80
FMIN_HZ = 50.0
FMAX_HZ = 8000.0
LOG_FLOOR = 1e-7
MEL_MEAN = -7.26
MEL_STD = 4.35
PATCH_SIZE = 16
N_FREQ_PATCHES = N_MELS // PATCH_SIZE  # 5


# ModelConfig fields that must be at least 1, and those that may be 0
_SIZES = ("dim", "heads", "input_frames", "predictor_heads", "projector_heads", "emb_dim",
          "text_heads", "text_maxlen")
_COUNTS = ("depth", "predictor_depth", "projector_blocks", "text_vocab", "text_depth")


@dataclass
class ModelConfig:
    """Dimensions of every parametric component.

    The desk-scale defaults keep tests in the minutes range; the
    full-size encoder is dim=768, depth=12, heads=12, predictor_heads=12.
    """

    dim: int = 64
    depth: int = 3
    heads: int = 4
    mlp_ratio: float = 4.0
    input_frames: int = 608
    predictor_depth: int = 2
    predictor_heads: int = 4
    projector_blocks: int = 1
    projector_heads: int = 1
    projector_kind: str = "transformer"  # or "mlp"
    text_projector: bool = False
    emb_dim: int = 4096
    text_vocab: int = 0  # 0: no text encoder (stage-1 configuration)
    text_depth: int = 2
    text_heads: int = 4
    text_maxlen: int = 32

    def __post_init__(self):
        check_field_types(self, "model.")
        for key in _SIZES:
            if getattr(self, key) < 1:
                raise InvalidConfig(f"model.{key} must be positive, got {getattr(self, key)}")
        for key in _COUNTS:
            if getattr(self, key) < 0:
                raise InvalidConfig(f"model.{key} must be nonnegative, got {getattr(self, key)}")
        if not (math.isfinite(self.mlp_ratio) and self.dim * self.mlp_ratio >= 1):
            raise InvalidConfig("model.mlp_ratio must give the MLP at least one hidden unit, "
                                f"got {self.mlp_ratio}")
        if self.dim % self.heads != 0:
            raise InvalidConfig("dim must be divisible by heads")
        if self.dim % 4 != 0:
            raise InvalidConfig("dim must be divisible by 4 for 2-D positional encoding")
        if self.input_frames % PATCH_SIZE != 0:
            raise InvalidConfig("input_frames must be a multiple of the patch size")
        if self.projector_kind not in ("transformer", "mlp"):
            raise InvalidConfig(f"unknown projector kind {self.projector_kind!r}")

    @property
    def n_time_patches(self) -> int:
        return self.input_frames // PATCH_SIZE

    def canonical(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"


# config field type -> (accepted values, stored as, how a message names it)
_KINDS = {
    "int": (numbers.Integral, int, "an integer"),
    "float": (numbers.Real, float, "a number"),
    "bool": (bool, bool, "true or false"),
    "str": (str, str, "a string"),
}


def check_type(key: str, value, kind: str):
    """`value` as a config value of `kind` ("int", "float", "bool" or "str").
    An int passes as a float; only a bool passes as a bool, and a bool
    passes as nothing else. Any other value is an InvalidConfig naming `key`."""
    accepted, stored_as, name = _KINDS[kind]
    if isinstance(value, accepted) and isinstance(value, bool) == (kind == "bool"):
        return stored_as(value)
    raise InvalidConfig(f"{key} must be {name}, got {value!r}")


def check_field_types(obj, prefix: str) -> None:
    """Type-check every int, float, bool and str field of a config dataclass
    in place (an optional one may be None); `prefix` + field name is the key
    a message names."""
    for f in fields(obj):
        kind, _, rest = f.type.partition(" | ")
        value = getattr(obj, f.name)
        if kind in _KINDS and not (rest == "None" and value is None):
            setattr(obj, f.name, check_type(prefix + f.name, value, kind))


def _coerce(value: str):
    text = value.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    """Parse flat key-value config text into {dotted_key: value}."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        out[key] = _coerce(value)
    return out


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_overrides(cfg: dict, pairs: list[str]) -> dict:
    """Apply repeatable KEY=VALUE overrides (dotted keys, last wins)."""
    out = dict(cfg)
    for pair in pairs:
        if "=" not in pair:
            raise InvalidConfig(f"override must be KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if not key:
            raise InvalidConfig(f"override has empty key: {pair!r}")
        out[key] = _coerce(value)
    return out


def section(cfg: dict, prefix: str) -> dict:
    """Extract ``prefix.*`` keys with the prefix stripped."""
    dot = prefix + "."
    return {k[len(dot):]: v for k, v in cfg.items() if k.startswith(dot)}


def render_config(cfg: dict) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


def model_config_from(cfg: dict, base: ModelConfig | None = None) -> ModelConfig:
    """`cfg`'s ``model.*`` keys over `base` (default: the defaults)."""
    params = section(cfg, "model")
    known = {f.name for f in fields(ModelConfig)}
    unknown = set(params) - known
    if unknown:
        raise InvalidConfig(f"unknown model config keys: {sorted(unknown)}")
    return replace(base or ModelConfig(), **params)


def parse_model_config(text: str) -> ModelConfig:
    """The inverse of `ModelConfig.canonical`."""
    return model_config_from({"model." + k: v for k, v in parse_config_text(text).items()})
