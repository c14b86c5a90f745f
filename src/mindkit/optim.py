"""Adaptive-moment optimizer, plateau learning-rate schedule, and the
epoch loop that model and transform fits share."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Adam:
    """Per-parameter first/second-moment updates over a dict of arrays.

    `decay_keys` restricts L2 weight decay to the named parameters; every
    other parameter is updated without decay.
    """

    def __init__(self, params: dict[str, np.ndarray],
                 weight_decay: float = 0.0, decay_keys: tuple = (),
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.weight_decay = float(weight_decay)
        self.decay_keys = frozenset(decay_keys)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray], lr) -> None:
        """One update at rate `lr`: one rate, or an array of rates along
        every parameter's leading axis (one per stacked run)."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        lr = np.asarray(lr)
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
            rate = lr.reshape(lr.shape + (1,) * (p.ndim - lr.ndim))
            p -= rate * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


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

    def update(self, loss: float, run: Run) -> bool:
        """Record an epoch loss, halving `run.lr` on a plateau; returns True
        while training should continue."""
        if loss < self.best - self.min_delta:
            self.best = loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                run.lr /= 2.0
                self.bad_epochs = 0
        return run.lr >= self.floor


@dataclass
class Run:
    """One fit's share of a stacked fit: its shuffle stream, schedule and
    learning rate, and what became of it.

    `what` names the fit in error messages. Once `stop_reason` ("max_epochs"
    or "lr_floor") or `error` is set the run is finished: its parameters
    hold its best-validation values (or, after an error, the values of the
    step that failed) and no longer change.
    """

    what: str
    rng: np.random.Generator
    sched: PlateauSchedule
    lr: float
    history: dict = field(default_factory=lambda: {
        "train_loss": [], "val_loss": [], "lr": []})
    stop_reason: str | None = None
    error: str | None = None
    best_loss: float = np.inf
    best: dict = field(default_factory=dict)

    @property
    def active(self) -> bool:
        return self.stop_reason is None and self.error is None


def fit_stack(params: dict[str, np.ndarray], loss_and_grad, val_loss,
              n: int, batch_size: int, max_epochs: int, runs: list[Run],
              opt: Adam, after_step=None) -> None:
    """Minibatch epochs of R = len(runs) fits stacked into one problem.

    Every array in `params` has a leading axis of length R, slot i holding
    run i's parameters. Each epoch every run visits the `n` training rows
    in a fresh permutation from its own stream, `batch_size` at a time:
    `loss_and_grad(idx)` takes the (R, b) row indices and gives the R batch
    losses and the gradients of their sum, `opt` steps with per-run rates,
    and `after_step()` runs if given. `val_loss()` gives the R validation
    losses after every epoch; they feed each run's schedule.

    A run whose training or validation loss is not finite gets `error`;
    one whose rate falls below its schedule's floor stops. Either way, as
    for a run that comes in with `error` already set, its gradients are
    dropped and its rate is 0 from then on, while the other runs go on;
    the loop ends when no run is left. A run that did not fail ends with
    its parameters, in place, at the epoch of its lowest validation loss,
    and its `history` holds the per-epoch "train_loss", "val_loss" and
    "lr".
    """
    R = len(runs)

    def finish(i: int, reason: str) -> None:
        runs[i].stop_reason = reason
        for k, v in runs[i].best.items():
            np.copyto(params[k][i], v)

    def refresh() -> tuple[list[bool], np.ndarray]:
        # one rate per run, 0 keeping a finished run put
        live = [run.active for run in runs]
        return live, np.array([run.lr if on else 0.0
                               for run, on in zip(runs, live)])

    live, rates = refresh()
    for epoch in range(max_epochs):
        if not any(live):
            return
        order = np.stack([run.rng.permutation(n) for run in runs])
        totals = [0.0] * R
        for start in range(0, n, batch_size):
            idx = order[:, start:start + batch_size]
            losses, grads = loss_and_grad(idx)
            failed = False
            for i, run in enumerate(runs):
                if live[i] and not np.isfinite(losses[i]):
                    run.error = (
                        f"non-finite training loss in {run.what} at epoch "
                        f"{epoch} (lr={run.lr:g}); inspect data scaling or "
                        "lower lr")
                    failed = True
            if failed:
                live, rates = refresh()
                if not any(live):
                    return
            if not all(live):
                keep = np.array(live)
                grads = {k: np.where(keep.reshape((R,) + (1,) * (g.ndim - 1)),
                                     g, 0.0) for k, g in grads.items()}
            opt.step(grads, rates)
            if after_step is not None:
                after_step()
            for i in range(R):
                if live[i]:
                    totals[i] += float(losses[i]) * idx.shape[1]
        vals = val_loss()
        for i, run in enumerate(runs):
            if not live[i]:
                continue
            val = float(vals[i])
            if not np.isfinite(val):
                run.error = (f"non-finite validation loss in {run.what} at "
                             f"epoch {epoch}")
                continue
            run.history["train_loss"].append(totals[i] / n)
            run.history["val_loss"].append(val)
            run.history["lr"].append(run.lr)
            if val < run.best_loss:
                run.best_loss = val
                run.best = {k: v[i].copy() for k, v in params.items()}
            if not run.sched.update(val, run):
                finish(i, "lr_floor")
        live, rates = refresh()
    for i, run in enumerate(runs):
        if run.active:
            finish(i, "max_epochs")

