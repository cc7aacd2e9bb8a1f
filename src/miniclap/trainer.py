"""Stage orchestration: schedules, optimizer, EMA updates, and the
per-step training logic of every pre-training stage."""

from __future__ import annotations

import csv
import functools
import math
import os
from concurrent import futures
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import network as net
from .autodiff import Tensor
from .config import check_field_types, check_type
from .errors import InvalidConfig, InvalidInput
from .frontend import summarize_features
from .losses import LossWeights, clap_loss, clip_temperature, combined_loss, m2d_loss, similarity_matrix
from .masking import batch_partitions, masked_count
from .network import ModelState, affine, encode_tokens, named_params


class Stage(NamedTuple):
    defaults: dict  # every key the stage reads, with its default
    trains: tuple[str, ...]  # parameter groups its optimizer updates


# The one table of stages. A stage reads exactly its keys and rejects any
# other: stage 2.1 never masks, only stage 1 has loss weights and an EMA
# target, and stages 2/2.1 never train the audio encoder.
_TEXT_SIDE = ("projector", "textpath.encoder", "textpath.projector_in",
              "textpath.projector_out", "tau")
STAGES = {
    "1": Stage(dict(mask_ratio=0.7, epochs=300, warmup_epochs=20, batch_size=2048,
                    base_lr=3e-4, lambda_m2d=1.0, lambda_clap=0.01,
                    ema_start=0.99995, ema_end=0.99999),
               ("online", "predictor", "projector", "textpath.llm_map",
                "textpath.projector_in", "textpath.projector_out", "tau")),
    "1.1": Stage(dict(epochs=10, batch_size=32, base_lr=1e-3, freeze_audio_encoder=False),
                 ("online",)),
    "2": Stage(dict(mask_ratio=0.3, epochs=30, warmup_epochs=5, batch_size=2048, base_lr=3e-6),
               _TEXT_SIDE),
    "2.1": Stage(dict(epochs=30, warmup_epochs=5, batch_size=2048, base_lr=3e-6), _TEXT_SIDE),
}


def _stage(stage_id: str) -> Stage:
    if stage_id not in STAGES:
        raise InvalidConfig(f"unknown stage id {stage_id!r}")
    return STAGES[stage_id]


@dataclass
class StageConfig:
    """One stage's settings. Fields a stage has no key for keep their
    defaults here: no masking, no warm-up, no EMA, an encoder that trains."""

    stage_id: str
    epochs: int
    batch_size: int
    base_lr: float
    mask_ratio: float = 0.0
    warmup_epochs: int = 0
    weights: LossWeights | None = None  # stage 1
    ema_start: float | None = None  # stage 1
    ema_end: float | None = None  # stage 1
    freeze_audio_encoder: bool = False  # stage 1.1

    def __post_init__(self):
        _stage(self.stage_id)  # rejects an unknown id
        prefix = config_section(self.stage_id) + "."
        check_field_types(self, prefix)
        if self.stage_id == "1":  # optional elsewhere, read here
            for key in ("ema_start", "ema_end"):
                setattr(self, key, check_type(prefix + key, getattr(self, key), "float"))
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise InvalidConfig(f"stage {self.stage_id}: mask_ratio outside [0, 1]")
        if self.epochs < 0 or self.warmup_epochs < 0 or self.batch_size < 1:
            raise InvalidConfig(f"stage {self.stage_id}: epochs/warmup must be nonnegative, "
                                "batch_size positive")


def config_section(stage_id: str) -> str:
    """The config-file section that holds a stage's keys: stage1, stage1_1,
    stage2 or stage2_1."""
    return "stage" + stage_id.replace(".", "_")


def stage_config_from(stage_id: str, params: dict) -> StageConfig:
    """Build and validate a stage's config from its flat config keys; a key
    the stage does not read is rejected."""
    defaults = _stage(stage_id).defaults
    unread = sorted(set(params) - set(defaults))
    if unread:
        raise InvalidConfig(f"stage {stage_id} does not read {', '.join(unread)}; "
                            f"its keys are {', '.join(defaults)}")
    values = {**defaults, **params}
    if "lambda_m2d" in values:
        values["weights"] = LossWeights(
            *(check_type(f"{config_section(stage_id)}.{key}", values.pop(key), "float")
              for key in ("lambda_m2d", "lambda_clap")))
    return StageConfig(stage_id, **values)


# -- schedules ----------------------------------------------------------------


def ema_decay_at(step: int, total_steps: int, start: float, end: float) -> float:
    if total_steps < 1:
        raise InvalidInput("total_steps must be at least 1")
    if not 0 <= step <= total_steps:
        raise InvalidInput(f"step {step} outside [0, {total_steps}]")
    return start + (end - start) * (step / total_steps)


def lr_at(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    if warmup_steps > total_steps:
        raise InvalidInput("warmup_steps cannot exceed total_steps")
    if not 0 <= step <= total_steps:
        raise InvalidInput(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return base_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def ema_update(target, online, alpha: float) -> None:
    """In place: target <- alpha * target + (1 - alpha) * online."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInput("EMA decay must lie in [0, 1]")
    t_named = named_params(target)
    o_named = named_params(online)
    if t_named.keys() != o_named.keys():
        raise InvalidInput("target and online parameter trees do not match")
    for name, t in t_named.items():
        o = o_named[name]
        if t.data.shape != o.data.shape:
            raise InvalidInput(f"shape mismatch for {name}")
        t.data = alpha * t.data + (1.0 - alpha) * o.data


# -- optimizer ----------------------------------------------------------------


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Decay applies only to >=2-D weight matrices; biases, norm gains,
    tokens, position/word embeddings, and the temperature are exempt.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.95), eps: float = 1e-8, weight_decay: float = 0.05):
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    @staticmethod
    def _decays(name: str, p: Tensor) -> bool:
        if p.data.ndim < 2:
            return False
        return not any(tag in name for tag in ("token", "pos_embed", "tok_embed"))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            # in place, with the rounding of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
            # p = p - lr * ((m/bc1) / (sqrt(v/bc2) + eps) + wd*p)
            m, v, buf = self._m[name], self._v[name], np.empty_like(p.data)
            m *= b1
            m += np.multiply(1.0 - b1, g, out=buf)
            v *= b2
            v += np.multiply(np.multiply(1.0 - b2, g, out=buf), g, out=buf)
            np.sqrt(np.divide(v, bc2, out=buf), out=buf)
            buf += self.eps
            update = m / bc1
            update /= buf
            if self.weight_decay and self._decays(name, p):
                update += np.multiply(self.weight_decay, p.data, out=buf)
            update *= lr
            p.data -= update


def trainable_params(state: ModelState, stage_id: str) -> dict[str, Tensor]:
    """Parameters the optimizer may update for a given stage."""
    params: dict[str, Tensor] = {}
    for group in _stage(stage_id).trains:  # an absent component has no parameters
        params.update(named_params(functools.reduce(getattr, group.split("."), state), group))
    return params


# -- batches ------------------------------------------------------------------


@dataclass
class StageData:
    """Precomputed per-sample inputs for one stage.

    `features` is the frozen audio encoder's output, which is all a
    stage-2/2.1 step reads of the audio. A caller leaves it unset:
    `run_stage` fills it in for each step's batch, which then carries no
    patches. In stage 2.1 (and an unmasked stage 2) it is the batch's
    rows of a once-per-run `net.encode_frozen` of every full grid, split
    between the caller and `net.worker()`; in a masked stage 2 it is the
    future of the batch's visible-patch encode, which runs on
    `net.worker()` alone and which `stage2_step` waits for.
    """

    patches: np.ndarray | None  # [n_samples, n_patches, 256]; None once features replace it
    n_f: int
    n_t: int
    embeddings: np.ndarray | None = None  # [n_samples, emb_dim] (stage 1)
    token_rows: list[list[int]] | None = None  # stage 2 / 2.1
    labels: np.ndarray | None = None  # [n_samples, n_classes] multi-hot (stage 1.1)
    # [n_samples, visible patches, dim], or a future of it (stages 2 / 2.1)
    features: np.ndarray | futures.Future | None = None

    @property
    def n_samples(self) -> int:
        return (self.patches if self.features is None else self.features).shape[0]

    def take(self, idx: np.ndarray) -> "StageData":
        return StageData(
            patches=None if self.patches is None else self.patches[idx],
            n_f=self.n_f,
            n_t=self.n_t,
            embeddings=None if self.embeddings is None else self.embeddings[idx],
            token_rows=None if self.token_rows is None else [self.token_rows[i] for i in idx],
            labels=None if self.labels is None else self.labels[idx],
            features=None if self.features is None else self.features[idx],
        )


# -- stage steps --------------------------------------------------------------

# A diverging forward overflows; `_check_finite` names the bad loss instead.
_quiet = functools.partial(np.errstate, all="ignore")


def _check_finite(**losses: Tensor) -> None:
    """Stop the step before any update when a loss term is NaN or infinite.
    The step forwards run under `_quiet`, so this one message is the report."""
    for name, loss in losses.items():
        if not math.isfinite(loss.item()):
            raise InvalidInput(f"non-finite {name} ({loss.item()}); "
                               "stopped before the parameter update")


def _encode_targets(target: net.EncoderParams, patches: np.ndarray, msk: np.ndarray,
                    pe: np.ndarray) -> Tensor:
    """The standardized EMA-target features of the masked patches. The
    target's parameters are requires_grad=False, so no graph forms; numpy
    keeps error state per thread, so this runs under its own `_quiet`."""
    with _quiet():
        return net.standardize_targets(net.encode_selected(target, patches, msk, pe))


def stage1_step(state: ModelState, data: StageData, cfg: StageConfig,
                rng: np.random.Generator, opt: AdamW,
                lr: float | None = None, ema_alpha: float | None = None) -> dict:
    """One multitask step on a batch; updates the online side and the EMA target.

    The target branch reads only the EMA weights, the patches and the mask,
    so it runs on `net.worker()` while this thread runs the online
    forward; numpy and BLAS release the interpreter lock in their loops.
    The step waits for it before leaving, on success or error. The
    backward then hands its weight gradients and GELU slopes to the same
    worker while this thread walks the input-gradient chain."""
    if cfg.stage_id != "1":
        raise InvalidInput(f"stage1_step called with stage {cfg.stage_id!r}")
    if data.embeddings is None:
        raise InvalidInput("stage 1 batches need text embeddings")
    lr = cfg.base_lr if lr is None else lr
    ema_alpha = cfg.ema_start if ema_alpha is None else ema_alpha

    b, n, _ = data.patches.shape
    pe = net.posenc_for(state.online, data.n_f, data.n_t)
    vis, msk = batch_partitions(n, cfg.mask_ratio, b, rng)
    if msk.shape[1] == 0 or vis.shape[1] == 0:
        raise InvalidInput("stage 1 needs both visible and masked patches")

    pending = net.worker().submit(_encode_targets, state.target, data.patches, msk, pe)
    with _quiet():
        try:
            z_v = net.encode_selected(state.online, data.patches, vis, pe)
            predicted = net.predict_masked(state.predictor, z_v, pe, vis, msk)
        finally:
            futures.wait((pending,))
        loss_m2d = m2d_loss(predicted, pending.result())

        if cfg.weights.lambda_clap > 0:
            s_a = net.project_audio(state.projector, z_v)
            s_t = net.map_text_embedding(state.textpath, data.embeddings)
            loss_clap = clap_loss(similarity_matrix(s_a, s_t), state.tau)
            total = combined_loss(loss_m2d, loss_clap, cfg.weights)
        else:
            loss_clap = Tensor(0.0)
            total = cfg.weights.lambda_m2d * loss_m2d
    _check_finite(loss_m2d=loss_m2d, loss_clap=loss_clap, loss_total=total)

    opt.zero_grad()
    total.backward(net.worker())
    opt.step(lr)
    state.tau.data = np.asarray(clip_temperature(float(state.tau.data)))
    ema_update(state.target, state.online, ema_alpha)
    return {
        "loss_total": total.item(),
        "loss_m2d": loss_m2d.item(),
        "loss_clap": loss_clap.item(),
    }


def stage2_step(state: ModelState, data: StageData, cfg: StageConfig,
                opt: AdamW, lr: float | None = None) -> dict:
    """One contrastive step with a frozen audio encoder, on the batch's
    encoded audio `data.features` as `run_stage` supplies it: an array,
    or the future of one, which the step waits for before anything else.
    An error from that encode leaves the step as the same object, before
    any update."""
    if cfg.stage_id not in ("2", "2.1"):
        raise InvalidInput(f"stage2_step called with stage {cfg.stage_id!r}")
    if data.token_rows is None:
        raise InvalidInput("stage 2 batches need token sequences")
    if data.features is None:
        raise InvalidInput("stage 2 batches need their encoded audio features")
    lr = cfg.base_lr if lr is None else lr

    z_v = data.features
    if isinstance(z_v, futures.Future):
        z_v = z_v.result()
    n = data.n_f * data.n_t
    visible = n - masked_count(n, cfg.mask_ratio)
    if z_v.shape[1] != visible:
        raise InvalidInput(f"stage {cfg.stage_id} keeps {visible} of {n} patches per clip; "
                           f"the features have {z_v.shape[1]}")
    with _quiet():
        s_a = net.project_audio(state.projector, z_v)
        s_t = net.encode_text_batch(state.textpath, data.token_rows)
        loss = clap_loss(similarity_matrix(s_a, s_t), state.tau)
    _check_finite(loss_clap=loss)

    opt.zero_grad()
    loss.backward()
    opt.step(lr)
    state.tau.data = np.asarray(clip_temperature(float(state.tau.data)))
    return {"loss_clap": loss.item()}


def _softplus(x: Tensor) -> Tensor:
    shift = np.maximum(x.data, 0.0)  # constant; keeps exp arguments <= 0
    return ((x - shift).exp() + Tensor((-shift)).exp()).log() + shift


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on logits (numerically stable)."""
    return (_softplus(logits) - logits * targets).mean()


@dataclass
class FinetuneResult:
    head: net.Affine
    losses: list[float] = field(default_factory=list)


def stage1_1_finetune(state: ModelState, data: StageData, cfg: StageConfig,
                      seed: int = 0, head: net.Affine | None = None) -> FinetuneResult:
    """Supervised multi-label fine-tune: linear head on the clip feature.
    With a frozen encoder the clip features never change, so they are
    computed once, on both threads, and each step runs only the head."""
    if cfg.stage_id != "1.1":
        raise InvalidInput(f"stage1_1_finetune called with stage {cfg.stage_id!r}")
    if data.labels is None or data.n_samples == 0:
        raise InvalidInput("fine-tuning needs a labeled, non-empty dataset")
    rng = np.random.default_rng(seed)
    dim = state.config.dim
    n_classes = data.labels.shape[1]
    if head is None:
        head = net.init_affine(rng, data.n_f * dim, n_classes)
    result = FinetuneResult(head=head)
    if cfg.epochs == 0:
        return result

    params = dict(named_params(head, "head"))
    if not cfg.freeze_audio_encoder:
        params.update(trainable_params(state, "1.1"))
    opt = AdamW(params, lr=cfg.base_lr)
    pe = net.posenc_for(state.online, data.n_f, data.n_t)
    if cfg.freeze_audio_encoder:
        clips = net.encode_frozen(
            state.online, data.patches, pe, pool=net.worker(),
            summary=lambda z: summarize_features(z, data.n_f, data.n_t)[1].data)

    for _ in range(cfg.epochs):
        order = rng.permutation(data.n_samples)
        for start in range(0, data.n_samples, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            with _quiet():
                if cfg.freeze_audio_encoder:
                    clip = clips[idx]
                else:
                    z = encode_tokens(state.online, data.patches[idx], pe)
                    _, clip = summarize_features(z, data.n_f, data.n_t)
                loss = bce_with_logits(affine(head, clip), data.labels[idx])
            _check_finite(loss_bce=loss)
            opt.zero_grad()
            loss.backward()
            opt.step()
            result.losses.append(loss.item())
    return result


# -- stage runner -------------------------------------------------------------

LOG_COLUMNS = ("epoch", "step", "loss_total", "loss_m2d", "loss_clap", "lr", "ema")


def write_loss_log(path, rows: list[dict], header: bool = False) -> None:
    """Append `rows` to the loss log; `header` starts a new log instead."""
    with open(path, "w" if header else "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_COLUMNS)
        if header:
            writer.writeheader()
        writer.writerows(rows)


def _batch_plan(cfg: StageConfig, n_samples: int, n_patches: int, rng: np.random.Generator):
    """Each step's (epoch, sample indices, visible patches [b, V]), drawn
    from `rng` in the order the steps have always drawn them: an epoch's
    permutation, then each of its batches' partitions. Stage 1 draws its
    partitions in `stage1_step`, so its visible patches are None."""
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            vis = None
            if cfg.stage_id != "1":
                vis, _ = batch_partitions(n_patches, cfg.mask_ratio, len(idx), rng)
            yield epoch, idx, vis


def run_stage(cfg: StageConfig, data: StageData, state: ModelState,
              seed: int = 0, out_dir: str | None = None) -> tuple[ModelState, list[dict]]:
    """Train one stage to completion; returns the state and the loss log.

    Stages 2 and 2.1 hand each step its batch's encoded audio. A stage
    that masks nothing (stage 2.1) encodes every clip once, before the
    first epoch, on both threads, into a copy of `data`; the caller's
    `data` is left as it was. That holds n_samples x n_patches x dim float64 values for the
    whole run. A masked stage 2 submits each batch's visible-patch encode
    to `net.worker()` one step ahead: batch k+1's encode runs while step
    k trains the text side, and never more than one is queued ahead. The
    run never returns or raises while an encode is running; an encode's
    error reaches the caller as the same object, from the step that
    needs it, before that step's update.
    """
    if cfg.stage_id == "1.1":
        raise InvalidConfig("use stage1_1_finetune for stage 1.1")
    if data.n_samples == 0:
        raise InvalidInput("empty dataset")
    masked = cfg.stage_id == "2" and cfg.mask_ratio > 0.0
    if cfg.stage_id in ("2", "2.1") and not masked and cfg.epochs > 0:
        pe = net.posenc_for(state.online, data.n_f, data.n_t)
        data = replace(data, patches=None,
                       features=net.encode_frozen(state.online, data.patches, pe, pool=net.worker()))

    if out_dir is not None:
        ckpt_dir = os.path.join(out_dir, "checkpoints")
        log_path = os.path.join(out_dir, "losses.csv")
        os.makedirs(ckpt_dir, exist_ok=True)
        write_loss_log(log_path, [], header=True)

    rows: list[dict] = []
    rng = np.random.default_rng(seed)
    steps_per_epoch = -(-data.n_samples // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    opt = AdamW(trainable_params(state, cfg.stage_id), lr=cfg.base_lr)
    if masked:
        text = replace(data, patches=None)  # step batches carry no patches
        pe = net.posenc_for(state.online, data.n_f, data.n_t)

    def step_batch(idx: np.ndarray, vis: np.ndarray | None) -> StageData:
        if not masked:
            return data.take(idx)
        encoded = net.worker().submit(net.encode_frozen, state.online, data.patches, pe, idx, vis)
        return replace(text.take(idx), features=encoded)

    def train(epoch: int, batch: StageData) -> None:
        step = len(rows)
        lr = lr_at(step, total_steps, warmup_steps, cfg.base_lr)
        if cfg.stage_id == "1":
            alpha = ema_decay_at(step + 1, total_steps, cfg.ema_start, cfg.ema_end)
            stats = stage1_step(state, batch, cfg, rng, opt, lr=lr, ema_alpha=alpha)
            rows.append({"epoch": epoch, "step": step,
                         "loss_total": f"{stats['loss_total']:.8f}",
                         "loss_m2d": f"{stats['loss_m2d']:.8f}",
                         "loss_clap": f"{stats['loss_clap']:.8f}",
                         "lr": f"{lr:.10g}", "ema": f"{alpha:.10f}"})
        else:
            stats = stage2_step(state, batch, cfg, opt, lr=lr)
            rows.append({"epoch": epoch, "step": step,
                         "loss_total": f"{stats['loss_clap']:.8f}",
                         "loss_m2d": "", "loss_clap": f"{stats['loss_clap']:.8f}",
                         "lr": f"{lr:.10g}", "ema": ""})
        if out_dir is not None and len(rows) % steps_per_epoch == 0:
            net.save_checkpoint(os.path.join(ckpt_dir, f"epoch-{epoch:04d}.ckpt"), state)
            write_loss_log(log_path, rows[-steps_per_epoch:])

    # Stage 1 draws from `rng` inside its steps, so its plan is drawn step
    # by step; the text stages' steps draw nothing, so theirs runs one ahead.
    ahead = 0 if cfg.stage_id == "1" else 1
    planned: list[tuple[int, StageData]] = []  # a step leaves it once it has finished
    try:
        for epoch, idx, vis in _batch_plan(cfg, data.n_samples, data.n_f * data.n_t, rng):
            planned.append((epoch, step_batch(idx, vis)))
            if len(planned) > ahead:
                train(*planned[0])
                del planned[0]
        if planned:  # a text stage's last batch
            train(*planned[0])
    finally:
        futures.wait([b.features for _, b in planned if isinstance(b.features, futures.Future)])
    if out_dir is not None:
        net.save_checkpoint(os.path.join(ckpt_dir, "final.ckpt"), state)
    return state, rows
