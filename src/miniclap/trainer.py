"""Stage orchestration: schedules, optimizer, EMA updates, and the
per-step training logic of every stage, pre-training and stage 1.1's
fine-tune alike, all run by `run_stage`. A run's random numbers all come
from `_batch_plan`; its steps draw none."""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass, replace
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
# target, stages 2/2.1 never train the audio encoder, and stage 1.1 trains
# it unless `freeze_audio_encoder` (`StageConfig.trains`).
_TEXT_SIDE = ("projector", "textpath.encoder", "textpath.projector_in",
              "textpath.projector_out", "tau")
STAGES = {
    "1": Stage(dict(mask_ratio=0.7, epochs=300, warmup_epochs=20, batch_size=2048,
                    base_lr=3e-4, lambda_m2d=1.0, lambda_clap=0.01,
                    ema_start=0.99995, ema_end=0.99999),
               ("online", "predictor", "projector", "textpath.llm_map",
                "textpath.projector_in", "textpath.projector_out", "tau")),
    "1.1": Stage(dict(epochs=10, batch_size=32, base_lr=1e-3, freeze_audio_encoder=False),
                 ("online", "head")),
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
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise InvalidConfig(f"{prefix}base_lr must be positive and finite, got {self.base_lr}")
        for key in ("ema_start", "ema_end"):
            value = getattr(self, key)
            if value is not None and not 0.0 <= value <= 1.0:
                raise InvalidConfig(f"{prefix}{key} must lie in [0, 1], got {value}")

    @property
    def trains(self) -> tuple[str, ...]:
        """The stage's parameter groups, less a frozen audio encoder's."""
        return tuple(group for group in _stage(self.stage_id).trains
                     if not (group == "online" and self.freeze_audio_encoder))


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


def ema_update(target: np.ndarray, online: np.ndarray, alpha: float) -> None:
    """In place, in two passes: target <- alpha * target + (1 - alpha) * online."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInput("EMA decay must lie in [0, 1]")
    target *= alpha
    target += (1.0 - alpha) * online


# -- optimizer ----------------------------------------------------------------

def pack_params(params: dict[str, Tensor]) -> np.ndarray:
    """One float64 array of `params`' values, in order; every `.data` is rebound to view it."""
    flat = np.concatenate([p.data.reshape(-1) for p in params.values()])
    for p, end in zip(params.values(), np.cumsum([p.data.size for p in params.values()])):
        p.data = flat[end - p.data.size:end].reshape(p.data.shape)
    return flat


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Decay applies only to >=2-D weight matrices; biases, norm gains,
    tokens, position/word embeddings, and the temperature are exempt.
    It owns `flat`, the float64 array that every `.data` views, and `_m` and `_v`.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.95), weight_decay: float = 0.05):
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.weight_decay = weight_decay
        self.step_count = 0
        ends = np.cumsum([p.data.size for p in self.params.values()])
        self._parts = [slice(end - p.data.size, end) for p, end in zip(self.params.values(), ends)]
        self.flat = pack_params(self.params)
        self._m, self._v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self._decay = [self._decays(name, p) for name, p in self.params.items()]

    @staticmethod
    def _decays(name: str, p: Tensor) -> bool:
        if p.data.ndim < 2:
            return False
        return not any(tag in name for tag in ("token", "pos_embed", "tok_embed"))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        """Update every parameter with a gradient; a rebound `.data` fails before any write."""
        for name, p in self.params.items():
            if p.data.base is not self.flat:
                raise InvalidInput(f"parameter {name} no longer views the optimizer's buffer; "
                                   "write into .data[...] instead of rebinding it")
        lr = self.lr if lr is None else lr
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for p, part, decays in zip(self.params.values(), self._parts, self._decay):
            if p.grad is None:
                continue
            g, w, m, v = p.grad.reshape(-1), self.flat[part], self._m[part], self._v[part]
            # in place, with the rounding of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
            # p = p - lr * ((m/bc1) / (sqrt(v/bc2) + eps) + wd*p)
            buf = np.empty_like(w)
            m *= b1
            m += np.multiply(1.0 - b1, g, out=buf)
            v *= b2
            v += np.multiply(np.multiply(1.0 - b2, g, out=buf), g, out=buf)
            np.sqrt(np.divide(v, bc2, out=buf), out=buf)
            buf += 1e-8  # eps
            update = m / bc1
            update /= buf
            if self.weight_decay and decays:
                update += np.multiply(self.weight_decay, w, out=buf)
            update *= lr
            w -= update


def trainable_params(state: ModelState, stage: str | StageConfig) -> dict[str, Tensor]:
    """Parameters the optimizer may update for a stage id, or for a stage's
    config, which leaves out a frozen audio encoder."""
    groups = stage.trains if isinstance(stage, StageConfig) else _stage(stage).trains
    params: dict[str, Tensor] = {}
    for group in groups:  # an absent component has no parameters
        params.update(named_params(functools.reduce(getattr, group.split("."), state), group))
    return params


def ema_target(state: ModelState, opt: AdamW) -> np.ndarray:
    """The EMA target in one buffer, laid out as the online encoder that heads `opt.flat`."""
    target, online = named_params(state.target, "online"), named_params(state.online, "online")
    lead = dict(list(opt.params.items())[:len(online)])
    layouts = [[(name, p.data.shape) for name, p in params.items()]
               for params in (target, online, lead)]
    if not layouts[0] == layouts[1] == layouts[2]:
        raise InvalidInput("the EMA target and the head of the optimizer's buffer must "
                           "match the online encoder's names, order and shapes")
    return pack_params(target)


# -- batches ------------------------------------------------------------------


@dataclass
class StageData:
    """Precomputed per-sample inputs for one stage. A caller leaves
    `features`, the frozen audio encoder's output and all a stage-2/2.1
    or frozen stage-1.1 step reads of the audio, unset: `run_stage` fills
    it in for each step's batch, which then carries no patches, as its
    docstring says."""

    patches: np.ndarray | None  # [n_samples, n_patches, 256]; None once features replace it
    n_f: int
    n_t: int
    embeddings: np.ndarray | None = None  # [n_samples, emb_dim] (stage 1)
    token_rows: list[list[int]] | None = None  # stage 2 / 2.1
    labels: np.ndarray | None = None  # [n_samples, n_classes] multi-hot (stage 1.1)
    # [n_samples, visible patches, dim], or its shared encode (stages 2 / 2.1);
    # [n_samples, n_f * dim] clip features (a frozen stage 1.1)
    features: np.ndarray | net.SharedEncode | None = None

    @property
    def n_samples(self) -> int:
        return len(self.patches if self.features is None else self.features)

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


def stage1_step(state: ModelState, data: StageData, cfg: StageConfig,
                partition: tuple[np.ndarray, np.ndarray], opt: AdamW, target: np.ndarray,
                lr: float | None = None, ema_alpha: float | None = None) -> dict:
    """One multitask step on a batch and its patch `partition`, (visible
    [b, V], masked [b, M]); updates the online side, then the EMA `target`
    (from `ema_target`) against the head of `opt.flat`. It draws nothing.

    The EMA target's standardized features of the masked patches are a
    `net.SharedEncode` shared with `net.worker()`, which runs its calls
    from the front during the online forward; this thread then runs the
    rest from the back. The step leaves once the worker is idle, on
    success or error. The backward then hands its weight gradients and
    GELU slopes to the same worker while this thread walks the
    input-gradient chain."""
    if cfg.stage_id != "1":
        raise InvalidInput(f"stage1_step called with stage {cfg.stage_id!r}")
    if data.embeddings is None:
        raise InvalidInput("stage 1 batches need text embeddings")
    lr = cfg.base_lr if lr is None else lr
    ema_alpha = cfg.ema_start if ema_alpha is None else ema_alpha

    pe = net.posenc_for(state.online, data.n_f, data.n_t)
    vis, msk = partition

    targets = net.SharedEncode(state.target, data.patches, pe, vis=msk,
                               summary=lambda z: net.standardize_targets(z).data)
    targets.share(net.worker())
    with _quiet():
        try:
            z_v = net.encode_selected(state.online, data.patches, vis, pe)
            predicted = net.predict_masked(state.predictor, z_v, pe, vis, msk)
        except BaseException:
            targets.wait()
            raise
        loss_m2d = m2d_loss(predicted, targets.result())

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
    state.tau.data[...] = clip_temperature(float(state.tau.data))
    ema_update(target, opt.flat[:target.size], ema_alpha)
    return {
        "loss_total": total.item(),
        "loss_m2d": loss_m2d.item(),
        "loss_clap": loss_clap.item(),
    }


def stage2_step(state: ModelState, data: StageData, cfg: StageConfig,
                opt: AdamW, lr: float | None = None) -> dict:
    """One contrastive step with a frozen audio encoder, on the batch's
    encoded audio `data.features` as `run_stage` supplies it: an array,
    or a `net.SharedEncode`, whose result the step takes before anything
    else. An error from that encode leaves the step as the same object,
    before any update."""
    if cfg.stage_id not in ("2", "2.1"):
        raise InvalidInput(f"stage2_step called with stage {cfg.stage_id!r}")
    if data.token_rows is None:
        raise InvalidInput("stage 2 batches need token sequences")
    if data.features is None:
        raise InvalidInput("stage 2 batches need their encoded audio features")
    lr = cfg.base_lr if lr is None else lr

    z_v = data.features
    if isinstance(z_v, net.SharedEncode):
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
    # Inline: a masked stage 2 has the next batch's encode on the worker.
    # Stage 2.1 leaves it idle, but handing it the weight gradients and
    # GELU slopes of these small arrays lost (one BLAS thread, 2 vCPU,
    # text-stages size, 300 alternating steps each at two seeds): step
    # p50 32.5 and 26.9 ms pooled against 28.5 and 23.9 ms inline.
    loss.backward()
    opt.step(lr)
    state.tau.data[...] = clip_temperature(float(state.tau.data))
    return {"loss_clap": loss.item()}


def _softplus(x: Tensor) -> Tensor:
    shift = np.maximum(x.data, 0.0)  # constant; keeps exp arguments <= 0
    return ((x - shift).exp() + Tensor((-shift)).exp()).log() + shift


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on logits (numerically stable)."""
    return (_softplus(logits) - logits * targets).mean()


def stage1_1_step(state: ModelState, data: StageData, cfg: StageConfig,
                  opt: AdamW, lr: float | None = None) -> dict:
    """One supervised multi-label step: the BCE of `state.head` on each
    clip's feature, from `data.features` when `run_stage` encoded the
    frozen encoder once, otherwise from an encode of the batch with a graph."""
    if cfg.stage_id != "1.1":
        raise InvalidInput(f"stage1_1_step called with stage {cfg.stage_id!r}")
    if data.labels is None:
        raise InvalidInput("stage 1.1 batches need labels")
    lr = cfg.base_lr if lr is None else lr
    with _quiet():
        clip = data.features
        if clip is None:
            pe = net.posenc_for(state.online, data.n_f, data.n_t)
            _, clip = summarize_features(encode_tokens(state.online, data.patches, pe),
                                         data.n_f, data.n_t)
        loss = bce_with_logits(affine(state.head, clip), data.labels)
    _check_finite(loss_bce=loss)

    opt.zero_grad()
    loss.backward()
    opt.step(lr)
    return {"loss_total": loss.item()}


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
    """Each step's (epoch, sample indices, (visible [b, V], masked [b, M])
    patches): every random draw of a run, in the order the steps have always
    drawn them, an epoch's permutation and then each of its batches' partitions."""
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            yield epoch, idx, batch_partitions(n_patches, cfg.mask_ratio, len(idx), rng)


def run_stage(cfg: StageConfig, data: StageData, state: ModelState,
              seed: int = 0, out_dir: str | None = None) -> tuple[ModelState, list[dict]]:
    """Train one stage to completion; returns the state and the loss log.

    Every random draw comes from `_batch_plan`, seeded by `seed`; the caller
    builds the model, stage 1.1's head included. Stage 1 packs the EMA target
    once (`ema_target`). A mask ratio that leaves the stage no patch to
    encode, a warm-up longer than the run, and a stage-1.1 head without one
    output per label column are rejected before anything is written. A stage
    whose encoder is frozen and masks nothing (stage 2.1, an unmasked stage
    2, a frozen stage 1.1) encodes every clip once, before the first epoch,
    on both threads, into a copy of `data`; the caller's `data` is left as
    it was. That holds n_samples x n_patches x dim float64 values for the
    whole run, or n_f x dim per clip for stage 1.1's clip features.

    A masked stage 2 makes each batch's visible-patch encode a
    `net.SharedEncode` one step ahead: the worker starts batch k+1's
    calls from the front while step k trains the text side, and step
    k+1 runs the calls the worker has not started from the back, then
    waits for the one in flight. Never more than one batch is encoded
    ahead. The run never returns or raises while an encoder call is
    running; an encode's error reaches the caller as the same object,
    from the step that needs it, before that step's update.
    """
    if data.n_samples == 0:
        raise InvalidInput("empty dataset")
    if cfg.stage_id == "1.1" and (state.head is None or data.labels is None
                                  or state.head.bias.shape[0] != data.labels.shape[1]):
        raise InvalidInput("stage 1.1 needs labels and a head with one output per label column")
    n, n_masked = data.n_f * data.n_t, masked_count(data.n_f * data.n_t, cfg.mask_ratio)
    if n_masked == n or (cfg.stage_id == "1" and n_masked == 0):
        need = "both visible and masked patches" if cfg.stage_id == "1" else "a visible patch"
        raise InvalidInput(f"stage {cfg.stage_id} needs {need}, but mask_ratio="
                           f"{cfg.mask_ratio} masks {n_masked} of the {n} patches per clip")
    if cfg.epochs and cfg.warmup_epochs > cfg.epochs:
        raise InvalidConfig(f"{config_section(cfg.stage_id)}.warmup_epochs={cfg.warmup_epochs} "
                            f"exceeds epochs={cfg.epochs}")
    frozen = "online" not in cfg.trains
    masked = frozen and cfg.mask_ratio > 0.0  # a masked stage 2
    pe = net.posenc_for(state.online, data.n_f, data.n_t)
    if frozen and not masked and cfg.epochs > 0:
        summary = ((lambda z: summarize_features(z, data.n_f, data.n_t)[1].data)
                   if cfg.stage_id == "1.1" else (lambda z: z.data))  # 1.1 reads clip features
        data = replace(data, patches=None, features=net.encode_frozen(
            state.online, data.patches, pe, summary=summary, pool=net.worker()))

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
    opt = AdamW(trainable_params(state, cfg), lr=cfg.base_lr)
    if cfg.stage_id == "1":
        target = ema_target(state, opt)
    text = replace(data, patches=None)  # a masked stage 2's step batches carry no patches

    def step_batch(idx: np.ndarray, vis: np.ndarray) -> StageData:
        if not masked:
            return data.take(idx)
        encoded = net.SharedEncode(state.online, data.patches, pe, idx, vis).share(net.worker())
        return replace(text.take(idx), features=encoded)

    def train(epoch: int, batch: StageData, partition: tuple[np.ndarray, np.ndarray]) -> None:
        step = len(rows)
        lr = lr_at(step, total_steps, warmup_steps, cfg.base_lr)
        row = {"epoch": epoch, "step": step, "loss_m2d": "", "loss_clap": "",
               "lr": f"{lr:.10g}", "ema": ""}
        if cfg.stage_id == "1":
            alpha = ema_decay_at(step + 1, total_steps, cfg.ema_start, cfg.ema_end)
            stats = stage1_step(state, batch, cfg, partition, opt, target, lr=lr, ema_alpha=alpha)
            row["ema"] = f"{alpha:.10f}"
        elif cfg.stage_id == "1.1":
            stats = stage1_1_step(state, batch, cfg, opt, lr=lr)
        else:
            stats = stage2_step(state, batch, cfg, opt, lr=lr)
            stats["loss_total"] = stats["loss_clap"]
        rows.append({**row, **{name: f"{value:.8f}" for name, value in stats.items()}})
        if out_dir is not None and len(rows) % steps_per_epoch == 0:
            net.save_checkpoint(os.path.join(ckpt_dir, f"epoch-{epoch:04d}.ckpt"), state)
            write_loss_log(log_path, rows[-steps_per_epoch:])

    # only a masked stage 2 has work to start for the next batch: its encode
    ahead = int(masked)
    planned: list[tuple] = []  # a step leaves it once it has finished
    try:
        for epoch, idx, partition in _batch_plan(cfg, data.n_samples, n, rng):
            planned.append((epoch, step_batch(idx, partition[0]), partition))
            if len(planned) > ahead:
                train(*planned[0])
                del planned[0]
        if planned:  # a masked stage 2's last batch
            train(*planned[0])
    finally:
        for _, batch, _ in planned:
            if isinstance(batch.features, net.SharedEncode):
                batch.features.wait()
    if out_dir is not None:
        net.save_checkpoint(os.path.join(ckpt_dir, "final.ckpt"), state)
    return state, rows
