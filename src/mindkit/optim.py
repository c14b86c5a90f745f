"""Adaptive-moment optimizer, plateau learning-rate schedule, and the
epoch loop that model and transform fits share."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def flat_params(stacked: dict[str, np.ndarray]):
    """A fit's stacked parameters (each with a leading axis of R runs)
    copied side by side into one (R, P) float64 array; returns it and views
    of it under the same names and shapes."""
    R = len(next(iter(stacked.values())))
    flat = np.concatenate([v.reshape(R, -1) for v in stacked.values()],
                          axis=1, dtype=np.float64)
    ends = np.cumsum([v[0].size for v in stacked.values()])
    return flat, {k: flat[:, end - v[0].size:end].reshape(v.shape)
                  for (k, v), end in zip(stacked.items(), ends)}


class Adam:
    """First/second-moment updates of one (R, P) parameter array, in place.

    `decay` holds one L2 weight-decay rate per column; a column at rate 0
    is updated exactly as without decay, signed zeros included.
    """

    def __init__(self, params: np.ndarray, decay=None, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.decay = decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)

    def step(self, grads: np.ndarray, lr) -> None:
        """One update by the (R, P) gradient at rate `lr`: one rate, or one
        per row (stacked run)."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        p, m, v = self.params, self.m, self.v
        if self.decay is not None:
            grads = np.where(self.decay != 0, grads + self.decay * p, grads)
        m *= b1
        m += (1.0 - b1) * grads
        v *= b2
        v += (1.0 - b2) * grads * grads
        rate = np.asarray(lr)[..., None]
        p -= rate * (m / (1.0 - b1 ** self.t)) / (
            np.sqrt(v / (1.0 - b2 ** self.t)) + self.eps)


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
    best: np.ndarray | None = None  # its parameter row at best_loss


def fit_stack(params: np.ndarray, loss_and_grad, val_loss, n: int,
              batch_size: int, max_epochs: int, runs: list[Run], opt: Adam,
              after_step=None) -> None:
    """Minibatch epochs of R = len(runs) fits stacked into one problem.

    `params` is the (R, P) array that `opt` steps, row i holding run i's
    parameters. Each epoch every run visits the `n` training rows in a
    fresh permutation from its own stream, `batch_size` at a time:
    `loss_and_grad(idx)` takes the (R, b) row indices and gives the R batch
    losses and the (R, P) gradient of their sum, `opt` steps with per-run
    rates, and `after_step()` runs if given. `val_loss()` gives the R
    validation losses after every epoch; they feed each run's schedule.

    A run whose training or validation loss is not finite gets `error`;
    one whose rate falls below its schedule's floor stops. From then on,
    as for a run that comes in finished, its gradient row is zeroed (in
    place) and its rate is 0, while the other runs go on; the loop ends
    when no run is left. A run that did not fail ends with its row of
    `params` at its lowest validation loss, and its `history` holds the
    per-epoch "train_loss", "val_loss" and "lr".
    """
    # plain-Python bookkeeping: for a few runs, cheaper than numpy calls
    live = [run.stop_reason is None and run.error is None for run in runs]

    def finish(i: int, reason: str) -> None:
        runs[i].stop_reason = reason
        live[i] = False
        np.copyto(params[i], runs[i].best)

    for epoch in range(max_epochs):
        if not any(live):
            return
        # one rate per run, 0 keeping a finished run put
        rates = np.array([run.lr * on for run, on in zip(runs, live)])
        order = np.stack([run.rng.permutation(n) for run in runs])
        totals = [0.0] * len(runs)
        for start in range(0, n, batch_size):
            idx = order[:, start:start + batch_size]
            losses, grads = loss_and_grad(idx)
            for i, run in enumerate(runs):
                if live[i] and not math.isfinite(losses[i]):
                    run.error = (
                        f"non-finite training loss in {run.what} at epoch "
                        f"{epoch} (lr={run.lr:g}); inspect data scaling or "
                        "lower lr")
                    live[i] = False
                    rates[i] = 0.0
            if not any(live):
                return
            if not all(live):
                grads[np.logical_not(live)] = 0.0
            opt.step(grads, rates)
            if after_step is not None:
                after_step()
            for i, on in enumerate(live):
                if on:
                    totals[i] += float(losses[i]) * idx.shape[1]
        vals = val_loss()
        for i, run in enumerate(runs):
            if not live[i]:
                continue
            val = float(vals[i])
            if not np.isfinite(val):
                run.error = (f"non-finite validation loss in {run.what} at "
                             f"epoch {epoch}")
                live[i] = False
                continue
            run.history["train_loss"].append(totals[i] / n)
            run.history["val_loss"].append(val)
            run.history["lr"].append(run.lr)
            if val < run.best_loss:
                run.best_loss = val
                run.best = params[i].copy()
            if not run.sched.update(val, run):
                finish(i, "lr_floor")
    for i, on in enumerate(live):
        if on:
            finish(i, "max_epochs")
