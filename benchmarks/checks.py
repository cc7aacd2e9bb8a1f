"""Correctness checks on workload outputs.

Each check compares an output of the program with an independent
recomputation from `reference`, or with a property the method
guarantees, and raises `CheckFailed` naming the first violation.
"""

from __future__ import annotations

import numpy as np

import reference as ref


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def schedule_columns(rows: list[dict], total_steps: int, warmup_steps: int, base_lr: float,
                     ema: tuple[float, float] | None) -> None:
    """The lr column follows warm-up + cosine, the ema column the linear decay.

    Row i is step i; the EMA applied after step i uses the decay at step i + 1.
    Tolerances cover the CSV rounding (10 significant digits for lr, 10
    decimals for ema), far below one step's change.
    """
    _require(len(rows) == total_steps, f"{len(rows)} log rows, expected {total_steps}")
    for i, row in enumerate(rows):
        _require(int(row["step"]) == i, f"row {i} is labelled step {row['step']}")
        want = ref.lr_schedule(i, total_steps, warmup_steps, base_lr)
        got = float(row["lr"])
        _require(abs(got - want) <= 1e-9 * max(abs(want), 1e-12) + 1e-18,
                 f"step {i}: lr {got!r}, schedule gives {want!r}")
        if ema is None:
            _require(row["ema"] == "", f"step {i}: ema column set in a stage without EMA")
        else:
            want = ref.ema_schedule(i + 1, total_steps, *ema)
            got = float(row["ema"])
            _require(abs(got - want) <= 2e-10, f"step {i}: ema {got!r}, schedule gives {want!r}")


def loss_identity(rows: list[dict], lambda_m2d: float, lambda_clap: float) -> None:
    """loss_total = lambda_m2d * m2d + lambda_clap * clap, up to the 8-decimal CSV rounding."""
    for row in rows:
        want = lambda_m2d * float(row["loss_m2d"]) + lambda_clap * float(row["loss_clap"])
        got = float(row["loss_total"])
        _require(abs(got - want) <= 1.5e-8 * (1.0 + lambda_m2d + lambda_clap),
                 f"step {row['step']}: loss_total {got!r} != weighted sum {want!r}")


def loss_falls(rows: list[dict], column: str, min_reduction: float) -> float:
    """Mean loss over the last epoch is at least `min_reduction` below the first epoch's."""
    epochs = np.array([int(r["epoch"]) for r in rows])
    values = np.array([float(r[column]) for r in rows])
    first = values[epochs == epochs.min()].mean()
    last = values[epochs == epochs.max()].mean()
    reduction = 1.0 - last / first
    _require(reduction >= min_reduction,
             f"{column} fell by {reduction:.3f} (first epoch {first:.5f}, last {last:.5f}),"
             f" need {min_reduction}")
    return float(reduction)


def accuracy_at_least(predictions: np.ndarray, truth: np.ndarray, bar: float) -> float:
    acc = float((np.asarray(predictions) == np.asarray(truth)).mean())
    _require(acc >= bar, f"accuracy {acc:.3f} below {bar}")
    return acc


def no_gradient(params: dict) -> None:
    """Frozen tensors never build graph edges, so their .grad stays unset."""
    for name, tensor in params.items():
        _require(not tensor.requires_grad, f"{name} requires a gradient")
        _require(tensor.grad is None, f"{name} holds a gradient")


def digest_unchanged(before: str, after: str, what: str) -> None:
    _require(before == after, f"{what} changed: digest {before[:12]} -> {after[:12]}")


def features_match(got: np.ndarray, want: np.ndarray, what: str, tol: float = 1e-9) -> None:
    got, want = np.asarray(got), np.asarray(want)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} vs reference {want.shape}")
    err = float(np.abs(got - want).max())
    _require(err <= tol, f"{what}: max deviation {err:.3e} from the reference exceeds {tol}")


def tone_peak(mel_values: np.ndarray, freq: float) -> None:
    """A pure tone's time-averaged log-mel peaks in a band whose support holds freq."""
    peak = int(np.asarray(mel_values).mean(axis=1).argmax())
    bands = ref.mel_bands_containing(freq)
    _require(peak in bands, f"{freq:.1f} Hz tone peaks in mel band {peak}, expected one of {bands}")


def zero_shot_predictions(predictions: np.ndarray, audio: np.ndarray, classes: np.ndarray) -> None:
    want = ref.zero_shot(audio, classes)
    got = np.asarray(predictions)
    _require(got.shape == want.shape, f"{got.shape} predictions for {want.shape} clips")
    wrong = np.flatnonzero(got != want)
    _require(wrong.size == 0, f"zero-shot predictions differ from the cosine argmax at {wrong[:5].tolist()}")


def retrieval_matches(result, sims: np.ndarray) -> None:
    """Program R@k / mAP@10 equal the brute-force ranks of the diagonal item."""
    want = ref.retrieval(sims)
    got = {f"r@{k}": result.r_at[k] for k in (1, 5, 10)}
    got["map@10"] = result.map_at_10
    for key, value in want.items():
        _require(abs(got[key] - value) <= 1e-12,
                 f"{result.direction} {key}: program {got[key]!r}, brute force {value!r}")


def probe_consistent(result, max_epochs: int) -> None:
    """The probe's bookkeeping agrees with its own validation history."""
    history = result.val_history
    _require(1 <= result.epochs_run <= max_epochs, f"probe ran {result.epochs_run} epochs")
    _require(len(history) == result.epochs_run, "validation history length != epochs run")
    _require(history[result.best_epoch] == max(history), "best epoch is not the best validation score")
    _require(0.0 <= result.test_metric <= 1.0, f"test metric {result.test_metric} outside [0, 1]")
