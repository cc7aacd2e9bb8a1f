"""Stage orchestration: schedules, optimizer, EMA updates, and the
per-step training logic of every pre-training stage."""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import network as net
from .autodiff import Tensor
from .errors import InvalidConfig, InvalidInput
from .frontend import summarize_features
from .losses import LossWeights, clap_loss, clip_temperature, combined_loss, m2d_loss, similarity_matrix
from .masking import batch_partitions
from .network import ModelState, affine, encode_tokens, named_params

STAGE_IDS = ("1", "1.1", "2", "2.1")


@dataclass
class StageConfig:
    stage_id: str
    mask_ratio: float
    epochs: int
    warmup_epochs: int
    batch_size: int
    base_lr: float
    weights: LossWeights
    freeze_audio_encoder: bool
    ema_start: float | None = None
    ema_end: float | None = None

    def validate(self) -> None:
        if self.stage_id not in STAGE_IDS:
            raise InvalidConfig(f"unknown stage id {self.stage_id!r}")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise InvalidConfig("mask_ratio outside [0, 1]")
        if self.epochs < 0 or self.warmup_epochs < 0 or self.batch_size < 1:
            raise InvalidConfig("epochs/warmup must be nonnegative, batch_size positive")
        if self.stage_id in ("2", "2.1") and not self.freeze_audio_encoder:
            raise InvalidConfig("stages 2/2.1 require a frozen audio encoder")
        if self.stage_id == "1" and self.freeze_audio_encoder:
            raise InvalidConfig("stage 1 trains the audio encoder; it cannot be frozen")
        if self.stage_id == "2.1" and self.mask_ratio != 0.0:
            raise InvalidConfig("stage 2.1 runs without masking")
        if self.stage_id == "1" and (self.ema_start is None or self.ema_end is None):
            raise InvalidConfig("stage 1 needs the EMA decay endpoints")


def stage_defaults(stage_id: str) -> StageConfig:
    if stage_id == "1":
        return StageConfig("1", 0.7, 300, 20, 2048, 3e-4, LossWeights(1.0, 0.01),
                           False, 0.99995, 0.99999)
    if stage_id == "1.1":
        return StageConfig("1.1", 0.0, 10, 0, 32, 1e-3, LossWeights(1.0, 0.0), False)
    if stage_id == "2":
        return StageConfig("2", 0.3, 30, 5, 2048, 3e-6, LossWeights(0.0, 1.0), True)
    if stage_id == "2.1":
        return StageConfig("2.1", 0.0, 30, 5, 2048, 3e-6, LossWeights(0.0, 1.0), True)
    raise InvalidConfig(f"unknown stage id {stage_id!r}")


def stage_config_from(stage_id: str, params: dict) -> StageConfig:
    """Build a StageConfig from flat config keys (unknown keys rejected)."""
    cfg = stage_defaults(stage_id)
    updates = dict(params)
    weights = cfg.weights
    if "lambda_m2d" in updates or "lambda_clap" in updates:
        weights = LossWeights(
            float(updates.pop("lambda_m2d", weights.lambda_m2d)),
            float(updates.pop("lambda_clap", weights.lambda_clap)),
        )
    known = {"mask_ratio", "epochs", "warmup_epochs", "batch_size", "base_lr",
             "freeze_audio_encoder", "ema_start", "ema_end"}
    unknown = set(updates) - known
    if unknown:
        raise InvalidConfig(f"unknown stage config keys: {sorted(unknown)}")
    return replace(cfg, weights=weights, **updates)


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
            m = self._m[name] = b1 * self._m[name] + (1.0 - b1) * g
            v = self._v[name] = b2 * self._v[name] + (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and self._decays(name, p):
                update = update + self.weight_decay * p.data
            p.data = p.data - lr * update


def trainable_params(state: ModelState, stage_id: str) -> dict[str, Tensor]:
    """Parameters the optimizer may update for a given stage."""
    params: dict[str, Tensor] = {}
    if stage_id == "1":
        params.update(named_params(state.online, "online"))
        params.update(named_params(state.predictor, "predictor"))
        params.update(named_params(state.projector, "projector"))
        if state.textpath.llm_map is not None:
            params.update(named_params(state.textpath.llm_map, "textpath.llm_map"))
        _add_text_projector(params, state)
        params["tau"] = state.tau
    elif stage_id == "1.1":
        params.update(named_params(state.online, "online"))
    elif stage_id in ("2", "2.1"):
        params.update(named_params(state.projector, "projector"))
        if state.textpath.encoder is not None:
            params.update(named_params(state.textpath.encoder, "textpath.encoder"))
        _add_text_projector(params, state)
        params["tau"] = state.tau
    else:
        raise InvalidConfig(f"unknown stage id {stage_id!r}")
    return params


def _add_text_projector(params, state) -> None:
    if state.textpath.projector_in is not None:
        params.update(named_params(state.textpath.projector_in, "textpath.projector_in"))
        params.update(named_params(state.textpath.projector_out, "textpath.projector_out"))


# -- batches ------------------------------------------------------------------


@dataclass
class StageData:
    """Precomputed per-sample inputs for one stage."""

    patches: np.ndarray  # [n_samples, n_patches, 256]
    n_f: int
    n_t: int
    embeddings: np.ndarray | None = None  # [n_samples, emb_dim] (stage 1)
    token_rows: list[list[int]] | None = None  # stage 2 / 2.1
    labels: np.ndarray | None = None  # [n_samples, n_classes] multi-hot (stage 1.1)

    @property
    def n_samples(self) -> int:
        return self.patches.shape[0]

    def take(self, idx: np.ndarray) -> "StageData":
        return StageData(
            patches=self.patches[idx],
            n_f=self.n_f,
            n_t=self.n_t,
            embeddings=None if self.embeddings is None else self.embeddings[idx],
            token_rows=None if self.token_rows is None else [self.token_rows[i] for i in idx],
            labels=None if self.labels is None else self.labels[idx],
        )


# -- stage steps --------------------------------------------------------------


def _check_finite(**losses: Tensor) -> None:
    """Stop the step before any update when a loss term is NaN or infinite."""
    for name, loss in losses.items():
        if not math.isfinite(loss.item()):
            raise InvalidInput(f"non-finite {name} ({loss.item()}); "
                               "stopped before the parameter update")


def stage1_step(state: ModelState, data: StageData, cfg: StageConfig,
                rng: np.random.Generator, opt: AdamW,
                lr: float | None = None, ema_alpha: float | None = None) -> dict:
    """One multitask step on a batch; updates the online side and the EMA target."""
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

    z_v = net.encode_selected(state.online, data.patches, vis, pe)
    predicted = net.predict_masked(state.predictor, z_v, pe, vis, msk)
    # target branch: parameters are requires_grad=False, so no graph forms
    z_m = net.encode_selected(state.target, data.patches, msk, pe)
    target = net.standardize_targets(z_m)
    loss_m2d = m2d_loss(predicted, target)

    use_clap = cfg.weights.lambda_clap > 0
    if use_clap:
        s_a = net.project_audio(state.projector, z_v)
        s_t = net.map_text_embedding(state.textpath, data.embeddings)
        loss_clap = clap_loss(similarity_matrix(s_a, s_t), state.tau)
        total = combined_loss(loss_m2d, loss_clap, cfg.weights)
    else:
        loss_clap = Tensor(0.0)
        total = cfg.weights.lambda_m2d * loss_m2d
    _check_finite(loss_m2d=loss_m2d, loss_clap=loss_clap, loss_total=total)

    opt.zero_grad()
    total.backward()
    opt.step(lr)
    state.tau.data = np.asarray(clip_temperature(float(state.tau.data)))
    ema_update(state.target, state.online, ema_alpha)
    return {
        "loss_total": total.item(),
        "loss_m2d": loss_m2d.item(),
        "loss_clap": loss_clap.item(),
    }


def stage2_step(state: ModelState, data: StageData, cfg: StageConfig,
                rng: np.random.Generator, opt: AdamW, lr: float | None = None) -> dict:
    """One contrastive step with a frozen audio encoder."""
    if cfg.stage_id not in ("2", "2.1"):
        raise InvalidInput(f"stage2_step called with stage {cfg.stage_id!r}")
    if not cfg.freeze_audio_encoder:
        raise InvalidConfig("stages 2/2.1 require a frozen audio encoder")
    if data.token_rows is None:
        raise InvalidInput("stage 2 batches need token sequences")
    lr = cfg.base_lr if lr is None else lr

    b, n, _ = data.patches.shape
    pe = net.posenc_for(state.online, data.n_f, data.n_t)
    vis, _ = batch_partitions(n, cfg.mask_ratio, b, rng)
    with ad.no_grad():  # the audio encoder is frozen
        z_v = net.encode_selected(state.online, data.patches, vis, pe)

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
    """Supervised multi-label fine-tune: linear head on the clip feature."""
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
    encoder_scope = ad.no_grad if cfg.freeze_audio_encoder else contextlib.nullcontext

    for _ in range(cfg.epochs):
        order = rng.permutation(data.n_samples)
        for start in range(0, data.n_samples, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = data.take(idx)
            with encoder_scope():
                z = encode_tokens(state.online, batch.patches, pe)
            _, clip = summarize_features(z, data.n_f, data.n_t)
            loss = bce_with_logits(affine(head, clip), batch.labels)
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


def run_stage(cfg: StageConfig, data: StageData, state: ModelState,
              seed: int = 0, out_dir: str | None = None) -> tuple[ModelState, list[dict]]:
    """Train one stage to completion; returns the state and the loss log."""
    cfg.validate()
    if cfg.stage_id == "1.1":
        raise InvalidConfig("use stage1_1_finetune for stage 1.1")
    if data.n_samples == 0:
        raise InvalidInput("empty dataset")

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

    step = 0
    for epoch in range(cfg.epochs):
        first_row = len(rows)
        order = rng.permutation(data.n_samples)
        for start in range(0, data.n_samples, cfg.batch_size):
            batch = data.take(order[start:start + cfg.batch_size])
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
                stats = stage2_step(state, batch, cfg, rng, opt, lr=lr)
                rows.append({"epoch": epoch, "step": step,
                             "loss_total": f"{stats['loss_clap']:.8f}",
                             "loss_m2d": "", "loss_clap": f"{stats['loss_clap']:.8f}",
                             "lr": f"{lr:.10g}", "ema": ""})
            step += 1
        if out_dir is not None:
            net.save_checkpoint(os.path.join(ckpt_dir, f"epoch-{epoch:04d}.ckpt"), state)
            write_loss_log(log_path, rows[first_row:])
    if out_dir is not None:
        net.save_checkpoint(os.path.join(ckpt_dir, "final.ckpt"), state)
    return state, rows
