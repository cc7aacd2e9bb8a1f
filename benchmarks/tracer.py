"""Span recorder for the traced run.

`Tracer.install()` replaces the public functions of miniclap's layer
modules with timing wrappers in every miniclap module namespace that
binds them (trainer, evaluation and cli import several by name), and
wraps `Tensor.backward`, `Tensor.__matmul__`, `Tensor._make` and
`AdamW.step` on their classes. Spans are kept in memory with their
parent; self time is a span's duration minus its children's.
`uninstall()` restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs recorded as spans; the span is named "module.function".
SPANS = {
    "frontend": ("compute_logmel", "patchify"),
    "datakit": ("read_wav", "load_manifest", "synth_corpus"),
    "masking": ("sample_partition",),
    "autodiff": ("gelu", "softmax", "layer_norm_core"),
    "network": ("encode_tokens", "predictor_forward", "project_audio", "encode_text_batch",
                "map_text_embedding", "save_checkpoint", "load_checkpoint"),
    "losses": ("m2d_loss", "clap_loss", "similarity_matrix"),
    "trainer": ("run_stage", "stage1_step", "stage2_step", "ema_update", "write_loss_log"),
    "evaluation": ("clip_features", "semantic_features", "zero_shot_classify",
                   "retrieval_metrics", "linear_probe"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start ns, end ns]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, label=None, count=None):
        """Wrap fn in a span; label(args) may refine the name, count(args, result)
        may add to counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name if label is None else f"{name}.{label(args)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def region(self, name: str):
        """A benchmark-side span (set-up, rounds)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- installation ---------------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every miniclap namespace that binds `original` at `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("miniclap") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from miniclap.autodiff import Tensor
        from miniclap.trainer import AdamW

        importlib.import_module("miniclap.cli")  # so its by-name imports are rebound too
        counts = self.counts

        def add(key, amount=lambda _args, _result: 1):
            def count(args, result):
                counts[key] += amount(args, result)
            return count

        def count_tokens(args, _result):
            counts["network.encode_tokens.calls"] += 1
            counts["network.encode_tokens.tokens"] += args[1].shape[0] * args[1].shape[1]

        special_label = {"encode_tokens": _encoder_label}
        special_count = {
            "encode_tokens": count_tokens,
            "compute_logmel": add("frontend.compute_logmel.calls"),
            "sample_partition": add("masking.sample_partition.calls"),
            "linear_probe": add("evaluation.linear_probe.epochs", lambda _a, r: r.epochs_run),
        }
        for module, names in SPANS.items():
            mod = importlib.import_module(f"miniclap.{module}")
            for name in names:
                original = getattr(mod, name)
                self._rebind(original, self.span(f"{module}.{name}", original,
                                                 special_label.get(name),
                                                 special_count.get(name)))
        # blocks are only counted: as spans they would take all encoder self time
        block_forward = importlib.import_module("miniclap.network").block_forward

        def counted_block(*args, **kwargs):
            counts["network.block_forward.calls"] += 1
            return block_forward(*args, **kwargs)

        self._rebind(block_forward, functools.wraps(block_forward)(counted_block))

        self._patch_class(Tensor, "backward", self.span("autodiff.backward", Tensor.backward))
        self._patch_class(AdamW, "step", self.span("trainer.AdamW.step", AdamW.step))

        matmul = Tensor.__matmul__

        def traced_matmul(a, b):
            out = matmul(a, b)
            counts["autodiff.matmul.calls"] += 1
            counts["autodiff.matmul.fwd_flop"] += 2 * out.data.size * a.data.shape[-1]
            return out

        self._patch_class(Tensor, "__matmul__", functools.wraps(matmul)(traced_matmul))

        make = Tensor._make

        def traced_make(data, parents, vjp):
            out = make(data, parents, vjp)
            if out.requires_grad:
                counts["autodiff.graph_nodes"] += 1
            return out

        self._patch_class(Tensor, "_make", staticmethod(traced_make))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_n, _p, start, end), c in zip(self.spans, child)]

    def under(self, name: str) -> list[bool]:
        """For each span, whether it is a `name` span or nested inside one."""
        flags: list[bool] = []
        for span_name, parent, _start, _end in self.spans:  # parents come first
            flags.append(span_name == name or (parent >= 0 and flags[parent]))
        return flags

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _encoder_label(args) -> str:
    """The EMA target encoder is the one built with requires_grad=False."""
    return "online" if args[0].patch_embed.weight.requires_grad else "target"
