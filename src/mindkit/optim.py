"""Adaptive-moment optimizer, plateau learning-rate schedule, and the
epoch loop that model and transform fits share."""
from __future__ import annotations

import numpy as np

from .errors import TrainingError


class Adam:
    """Per-parameter first/second-moment updates over a dict of arrays.

    `decay_keys` restricts L2 weight decay to the named parameters; every
    other parameter is updated without decay.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 weight_decay: float = 0.0, decay_keys: tuple = (),
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.decay_keys = frozenset(decay_keys)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for key, p in self.params.items():
            g = grads[key]
            if self.weight_decay and key in self.decay_keys:
                g = g + self.weight_decay * p
            m = self.m[key]
            v = self.v[key]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


class PlateauSchedule:
    """Halve the learning rate when the monitored loss stops improving.

    An epoch counts as an improvement only if it beats the best seen value
    by more than `min_delta`. After `patience` consecutive non-improving
    epochs the rate is halved; training should stop once the rate falls
    below `floor`.
    """

    def __init__(self, patience: int = 10, min_delta: float = 1e-4,
                 floor: float = 5e-6):
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.floor = float(floor)
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, loss: float, opt: Adam) -> bool:
        """Record an epoch loss; returns True while training should continue."""
        if loss < self.best - self.min_delta:
            self.best = loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                opt.lr /= 2.0
                self.bad_epochs = 0
        return opt.lr >= self.floor


def fit(params: dict[str, np.ndarray], loss_and_grad, val_loss, n: int,
        batch_size: int, max_epochs: int, rng: np.random.Generator,
        opt: Adam, sched: PlateauSchedule, what: str,
        after_step=None) -> tuple[dict, str]:
    """Minibatch epochs over `n` training rows; returns (history, stop reason).

    Each epoch visits the rows in a fresh `rng` permutation, `batch_size` at
    a time: `loss_and_grad(idx)` gives the batch loss and the gradients of
    `params`, `opt` steps, and `after_step()` runs if given. `val_loss()` is
    read after every epoch and feeds `sched`. A non-finite loss raises
    TrainingError naming `what`. On return `params` hold, in place, the
    values of the epoch with the lowest validation loss. The history has
    per-epoch "train_loss", "val_loss" and "lr"; the stop reason is
    "max_epochs" or "lr_floor".
    """
    history = {"train_loss": [], "val_loss": [], "lr": []}
    best_loss, best_params = np.inf, {}
    stop_reason = "max_epochs"
    for epoch in range(max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grads = loss_and_grad(idx)
            loss = float(loss)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite training loss in {what} at epoch {epoch} "
                    f"(lr={opt.lr:g}); inspect data scaling or lower lr")
            opt.step(grads)
            if after_step is not None:
                after_step()
            total += loss * len(idx)
        val = float(val_loss())
        if not np.isfinite(val):
            raise TrainingError(
                f"non-finite validation loss in {what} at epoch {epoch}")
        history["train_loss"].append(total / n)
        history["val_loss"].append(val)
        history["lr"].append(opt.lr)
        if val < best_loss:
            best_loss = val
            best_params = {k: v.copy() for k, v in params.items()}
        if not sched.update(val, opt):
            stop_reason = "lr_floor"
            break
    for k, v in best_params.items():
        np.copyto(params[k], v)
    return history, stop_reason
