"""Fitting input transformations that a frozen model cannot distinguish.

The objective per batch is

    mean_i [ dist(f(X_i), f(T(X_i))) + lambda * S(X_i, T(X_i)) ]

where dist is the 1-Wasserstein distance between the two predictive
distributions (which collapses to |f - f'| for Bernoulli, point-mass, and
fixed-variance Gaussian outputs; "squared" swaps in (f - f')^2 for
closed-form cross-checks) and S penalizes the transform for staying close
to the identity: per-instance cosine similarity, per-instance inner
product, or an L1 penalty on the gate weights themselves.

Gate parameters are projected back onto [0, 1] after every optimizer step.
Model parameters are frozen throughout; only the transform learns.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import analysis
from . import diffcore as dc
from . import transforms as tf
from .data import Dataset, substream
from .errors import GraphError, TrainingError, require_finite
from .models import (Model, OUTPUT_KINDS, _as_batch, forward_graph,
                     param_nodes, predict)
from .optim import Adam, PlateauSchedule, Run, fit_stack, flat_params

SIMILARITIES = ("cosine", "inner_product", "l1_gate_weights")
DISTANCES = ("w1", "squared")

LAMBDA_GRID_LO = 1e-4
LAMBDA_GRID_HI = 1e2
LAMBDA_GRID_FACTOR = 2.0


@dataclass
class MindConfig:
    lam: float = 0.1
    similarity: str = "cosine"
    distance: str = "w1"
    clip_similarity_at_zero: bool = False
    w1_limit: float = 0.05
    cosine_limit: float = 0.5
    restarts: int = 8
    top_k: int = 5
    lr: float = 0.05
    batch_size: int | None = None
    patience: int = 10
    min_delta: float = 1e-4
    lr_floor: float = 5e-6
    max_epochs: int = 150
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise TrainingError(
                f"lambda must be finite and nonnegative, got {self.lam}")
        require_finite(self, TrainingError)
        if self.similarity not in SIMILARITIES:
            raise TrainingError(f"unknown similarity {self.similarity!r}")
        if self.distance not in DISTANCES:
            raise TrainingError(f"unknown distance {self.distance!r}")
        if not 1 <= self.top_k <= self.restarts:
            raise TrainingError("need 1 <= top_k <= restarts")
        if self.w1_limit <= 0 or self.cosine_limit <= 0:
            raise TrainingError("limits must be positive")
        if self.lr <= 0 or self.max_epochs < 1 or self.patience < 1:
            raise TrainingError("lr, max_epochs and patience must be positive")
        if min(self.min_delta, self.lr_floor, self.weight_decay) < 0:
            raise TrainingError(
                "min_delta, lr_floor and weight_decay must be nonnegative")
        if self.batch_size is not None and self.batch_size < 1:
            raise TrainingError("batch_size must be positive, or null for "
                                "the default")
        if self.seed < 0:
            raise TrainingError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class MindDiagnostics:
    restart: int
    epochs: int
    train_curve: list
    val_curve: list
    lr_curve: list           # learning rate in force during each epoch
    val_loss: float
    w1_mean: float           # validation mean |f - f'|, always the W1 form
    cosine_mean: float       # validation mean per-instance cosine
    rho: np.ndarray          # validation correlation profile, per feature
    gate_min: float
    gate_max: float
    stop_reason: str


def w1_reduced(model: Model, X: np.ndarray, Xp: np.ndarray):
    """1-Wasserstein distance between the predictive distributions at X and
    at Xp. For the three supported output families (Bernoulli probability,
    point mass, fixed-variance Gaussian) it equals |f(X) - f(Xp)|."""
    if model.output not in OUTPUT_KINDS:
        raise GraphError(f"unsupported output distribution {model.output!r}")
    fa, fb = predict(model, X), predict(model, Xp)
    out = np.abs(np.asarray(fa) - np.asarray(fb))
    return float(out) if out.ndim == 0 else out


def _loss(model: Model, t, cfg: MindConfig, params: dict[str, np.ndarray],
          B: int, lam: np.ndarray | None = None,
          frozen: dict[str, dc.Node] | None = None) -> dc.Node:
    """The loss node of R restarts of transform family t fitted as one
    stacked problem on batches of B rows; R is 1 unless the family stacks.

    `params` holds the R restarts' parameters, each with a leading restart
    axis, and names the parameter leaves. The input stacks the R batches;
    the frozen model runs once over all R * B rows; the output is the
    vector of the R restarts' own losses, each a mean over its own rows,
    so that the gradient of their sum keeps the restarts apart. `lam`
    holds the R restarts' penalty weights (cfg.lam each by default), and
    `frozen` the frozen model's parameter nodes (its own by default), with
    a leading axis of R models where the restarts face different models
    (see models.forward_graph).
    """
    R = len(next(iter(params.values())))
    if R > 1 and not t.stacks:
        raise TrainingError(f"{t.kind} restarts do not stack")
    if cfg.similarity == "l1_gate_weights" and t.gate_key is None:
        raise TrainingError(
            "l1_gate_weights similarity needs a gated transform family")
    d, T = model.input_dim, model.seq_len
    x = dc.leaf("x", (R * B, d) if T is None else (R * B, d, T))
    nodes = {k: dc.leaf(k, v.shape) for k, v in params.items()}
    if t.stacks:
        xp = t.graph(x, nodes, R)
    else:   # the one restart's parameters, without the restart axis
        xp = t.graph(x, {k: dc.reshape(v, v.shape[1:])
                         for k, v in nodes.items()})
    f = forward_graph(model, xp, param_nodes(model) if frozen is None
                      else frozen)
    fc = dc.leaf("fc", (R * B,))
    diff = dc.sub(f, fc)
    dist_vec = dc.abs_(diff) if cfg.distance == "w1" else dc.mul(diff, diff)
    dist = _restart_means(dist_vec, R)
    lam = np.full(R, cfg.lam) if lam is None else lam
    if not lam.any():
        return dist
    if cfg.similarity == "cosine":
        sims = dc.cosine_rows(xp, x)
        if cfg.clip_similarity_at_zero:
            sims = dc.relu(sims)
        sim = _restart_means(sims, R)
    elif cfg.similarity == "inner_product":
        sim = _restart_means(dc.dot_rows(xp, x), R)
    else:
        gates = nodes[t.gate_key]
        per_restart = int(np.prod(gates.shape[1:]))
        sim = dc.sum_(dc.reshape(dc.abs_(gates), (R, per_restart)), axis=1)
    return dc.add(dist, dc.mul(sim, dc.constant(lam)))


def _restart_means(per_row: dc.Node, R: int) -> dc.Node:
    """(R * B,) row values -> the (R,) means over each restart's rows."""
    return dc.mean(dc.reshape(per_row, (R, per_row.shape[0] // R)), axis=1)


def _unstacked(transform) -> dict[str, np.ndarray]:
    """A transform's parameters as a stack of one restart (views)."""
    return {k: v[None] for k, v in transform.params.items()}


def mind_loss(model: Model, transform, X: np.ndarray,
              config: MindConfig) -> float:
    """Objective value on one batch, for the transform's current parameters."""
    X = _as_batch(model, X)[0]
    params = _unstacked(transform)
    loss = dc.Graph(_loss(model, transform, config, params, len(X)))
    return float(loss.evaluate({**params, "x": X, "fc": predict(model, X),
                                **transform.extra(X)})[0])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

# Jobs of a family that stacks are fitted together in chunks of at most
# CHUNK_JOBS jobs whose stacked training graph holds at most CHUNK_VALUES
# float64 node values (about 1.6 MiB), estimated as R times the one-job
# graph. Stacking pays while a step is dominated by per-node dispatch.
# Each limit rests on a measurement on a 2-vCPU VM with one BLAS thread:
# 60-epoch gating fits of R stacked restarts, each in a fresh process.
#
# CHUNK_JOBS is where MLP stacking stops paying: at pipeline sizes a fit
# cost 88 / 41 / 35 / 25 / 25 / 25 / 32 ms per restart at R = 1 / 3 / 4 /
# 8 / 9 / 12 / 16 (median of 5 interleaved rounds), and R = 9 raised the
# process's peak memory by at most 0.4 MB, R = 16 by 1.1 MB.
#
# CHUNK_VALUES is the memory budget. At the sanity-check benchmark's
# seqconv sizes (d=6, T=12, hidden 8, 420 training rows) a fit cost:
#
#   R                               1      2      3      4      8
#   ms per restart                291    270    250    207    212
#   ru_maxrss after the fit (MB)  40.8   40.8   41.3   42.2   45.8
#   tracemalloc peak (MB)         2.18   2.19   2.96   3.79   7.14
#
# (median of 16 interleaved rounds; the quartiles of R = 3, 4 and 8
# overlap.) Each job past 3 adds about 1 MB, and the budget stops there.
# Measured one-job gating graphs and the chunks they give:
#
#   graph                                  B   values   8      15     30
#   MLP gating (d=14, hidden 16)         100   13,118   8      8+7    8+8+7+7
#   seqconv gating (d=6, T=12, hidden 8) 100   69,186   3+3+2  3 x 5  3 x 10
#
# (8 restarts; the 15 refits of 5 sanity baseline instances of one model;
# the 30 refits of 10 shuffled models, whose seqconv jobs never share a
# chunk across models. The MLP lambda grid's 20 points give 7+7+6.)
CHUNK_JOBS = 9
CHUNK_VALUES = 210_000


def restart_chunks(restarts: int, values_per_restart: int) -> list[list[int]]:
    """Restart indices in consecutive chunks of near-equal size, as few
    chunks as CHUNK_JOBS and CHUNK_VALUES allow for graphs of
    `values_per_restart`."""
    cap = max(1, min(CHUNK_JOBS,
                     CHUNK_VALUES // max(1, values_per_restart)))
    n_chunks = -(-restarts // cap)
    return [c.tolist() for c in np.array_split(np.arange(restarts), n_chunks)]


def _batch_size(config: MindConfig, n_train: int) -> int:
    return config.batch_size or min(100, max(1, n_train // 4))


def _init_restart(tspec: tf.TransformSpec, dataset: Dataset,
                  config: MindConfig, restart: int):
    """Restart `restart`'s initial transform and its share of the fit, each
    from the restart's own seeded substream."""
    rng = substream(config.seed, f"mind.init.restart{restart}")
    transform = tf.init_transform(tspec, dataset.d, dataset.seq_len, rng)
    run = Run(f"transform restart {restart}",
              substream(config.seed, f"mind.shuffle.restart{restart}"),
              PlateauSchedule(config.patience, config.min_delta,
                              config.lr_floor), config.lr)
    return transform, run


class Job(NamedTuple):
    """One fit of a job list: restart `restart` of a transform whose
    config has penalty weight `lam` and seed `seed`, in front of the frozen
    `model`."""
    model: Model
    lam: float
    seed: int
    restart: int


def _fit_chunk(tspec: tf.TransformSpec, dataset: Dataset, config: MindConfig,
               chunk: list[tuple]) -> list[tuple]:
    """Fit a chunk of jobs as one stacked problem.

    `chunk` lists (job, train predictions, validation predictions), the
    predictions those of the job's frozen model. Returns (job, transform,
    MindDiagnostics, None) for each job that succeeded and (job, None,
    None, error message) for each that failed, in the order given. A job
    fails alone when its loss turns non-finite; the others go on. Each
    returned transform holds the parameters of its job's epoch with the
    lowest validation objective, its gates clamped to [0, 1] after every
    step along the way.
    """
    Xtr, _ = dataset.split("train")
    Xva, _ = dataset.split("validation")
    jobs = [job for job, _, _ in chunk]
    R = len(jobs)
    transforms, runs = zip(*(
        _init_restart(tspec, dataset, replace(config, lam=j.lam, seed=j.seed),
                      j.restart) for j in jobs))
    template = transforms[0]
    flat, params = flat_params({k: np.stack([t.params[k] for t in transforms])
                                for k in template.params})
    model = jobs[0].model
    frozen = None if all(j.model is model for j in jobs) else {
        k: dc.constant(np.stack([j.model.params[k] for j in jobs]))
        for k in model.params}
    lam = np.array([j.lam for j in jobs])
    graph_for = dc.graphs(
        lambda B: _loss(model, template, config, params, B, lam, frozen))

    fc_train = np.stack([fc for _, fc, _ in chunk])  # (R, n_train)
    fc_val = [fc for _, _, fc in chunk]
    train_rows = {"x": Xtr, **template.extra(Xtr)}
    val_rows = {"x": Xva, **template.extra(Xva)}
    # the fit's sweeps skip the finiteness check, so every array is checked
    # once here, but for the x rows, which predict checked, and the
    # predictions, which fit_jobs checked
    for arrays in (params, train_rows, val_rows):
        for k, v in arrays.items():
            if k != "x":
                dc.tensor(v)
    # every job is validated on the whole validation split
    val_binds = {**params, "fc": np.concatenate(fc_val),
                 **{k: np.concatenate([v] * R) for k, v in val_rows.items()}}
    decay = config.weight_decay * flat_params(  # a rate per column
        {k: np.full(v[:1].shape, k in template.decay_keys())
         for k, v in params.items()})[0][0]
    opt = Adam(flat, decay if decay.any() else None)
    grad, grad_views = flat_params(params)  # laid out as the parameters
    seed = np.ones(R)  # the gradients of the sum of the R losses
    lanes = np.arange(R)[:, None]
    gate_key = template.gate_key
    gate_min, gate_max = np.full(R, np.inf), np.full(R, -np.inf)

    def loss_and_grad(idx):
        rows = idx.ravel()
        losses, grads = graph_for(idx.shape[1]).value_and_grad(
            {**params, "fc": fc_train[lanes, idx].ravel(),
             **{k: v[rows] for k, v in train_rows.items()}},
            wrt=params, seed=seed, check=False)
        for k, g in grads.items():
            np.copyto(grad_views[k], g)
        return losses, grad

    def after_step():
        # a finished job's gates were clamped when it was last stepped, so
        # clamping and tracking them again changes nothing
        gates = params[gate_key]
        np.copyto(gates, tf.clip01(gates))
        per_restart = gates.reshape(R, -1)
        np.minimum(gate_min, per_restart.min(axis=1), out=gate_min)
        np.maximum(gate_max, per_restart.max(axis=1), out=gate_max)

    fit_stack(flat, loss_and_grad,
              lambda: graph_for(len(Xva)).evaluate(val_binds, check=False),
              len(Xtr), _batch_size(config, len(Xtr)), config.max_epochs,
              list(runs), opt, after_step if gate_key is not None else None)
    # the graphs and their buffers are done with; free them before the
    # diagnostics build graphs of their own
    graph_for = None

    seq = dataset.seq_len is not None
    outcomes = []
    for i, (job, transform, run) in enumerate(zip(jobs, transforms, runs)):
        if run.error is not None:
            outcomes.append((job, None, None, run.error))
            continue
        for k, v in transform.params.items():
            np.copyto(v, params[k][i])
        Xp_va = tf.apply_transform(transform, Xva, seq=seq)
        history = run.history
        diag = MindDiagnostics(
            restart=job.restart, epochs=len(history["val_loss"]),
            train_curve=history["train_loss"],
            val_curve=history["val_loss"], lr_curve=history["lr"],
            val_loss=min(history["val_loss"]),
            w1_mean=float(np.mean(np.abs(
                fc_val[i] - predict(job.model, Xp_va)))),
            cosine_mean=float(np.mean(dc.row_cosines(Xva, Xp_va))),
            rho=analysis.correlation_profile(Xva, Xp_va),
            gate_min=float(gate_min[i]) if gate_key else float("nan"),
            gate_max=float(gate_max[i]) if gate_key else float("nan"),
            stop_reason=run.stop_reason)
        outcomes.append((job, transform, diag, None))
    return outcomes


def _values_per_restart(model: Model, tspec: tf.TransformSpec,
                        dataset: Dataset, config: MindConfig) -> int:
    """Node values of the one-restart training graph at the fit's batch
    size; the initial parameter values do not matter, only their shapes."""
    t = tf.init_transform(tspec, dataset.d, dataset.seq_len,
                          np.random.default_rng(0))
    n_train = len(dataset.split("train")[0])
    graph = dc.Graph(_loss(model, t, config, _unstacked(t),
                           _batch_size(config, n_train)))
    return sum(math.prod(node.shape) for node in graph.nodes)


def _chunks(tspec: tf.TransformSpec, dataset: Dataset, config: MindConfig,
            jobs: list[Job]) -> list[list[int]]:
    """The job indices of the chunks `fit_jobs` fits: one job each unless
    the family stacks, else `restart_chunks` of the one-job graph. Jobs of
    different models share a chunk only where the forward graph stacks
    models (linear and MLP); a seqconv model's jobs are chunked apart."""
    if not tf.TRANSFORMS[tspec.kind].stacks:
        return [[i] for i in range(len(jobs))]
    model = jobs[0].model
    values = _values_per_restart(model, tspec, dataset, replace(
        config, lam=max(j.lam for j in jobs)))  # any penalty adds its nodes
    cuts = [0, *(i for i in range(1, len(jobs)) if model.kind == "seqconv"
                 and jobs[i].model is not jobs[i - 1].model), len(jobs)]
    return [[a + i for i in chunk] for a, b in zip(cuts, cuts[1:])
            for chunk in restart_chunks(b - a, values)]


def ProcessPoolExecutor(max_workers: int):
    """The pool `fit_jobs` fits chunks in with `threads` > 1; imported on
    first use, because loading it costs every CLI process about 60 ms."""
    from concurrent.futures import ProcessPoolExecutor as Pool
    return Pool(max_workers=max_workers)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fit_jobs(tspec: tf.TransformSpec, dataset: Dataset, config: MindConfig,
             jobs: list[Job], threads: int = 1, stop=None) -> list[tuple]:
    """Fit every job of one transform family; `config` sets everything but
    each job's model, penalty weight, seed and restart.

    The jobs are fitted in consecutive chunks (`_chunks`), each chunk as
    one stacked problem, and the frozen predictions are computed once per
    model. With `threads` > 1 one process pool fits the chunks side by
    side, with as many workers as `threads`, the chunk count and the CPUs
    this process may use all allow. Returns what `_fit_chunk` returns for
    each job, in job order. With `stop`, fitting ends after the first
    chunk whose outcomes `stop` holds true for, and only the jobs fitted
    so far are returned (a pool fits the rest in vain).
    """
    if threads < 1:
        raise TrainingError(f"threads must be at least 1, got {threads}")
    for job in jobs:  # w1_mean needs W1: fail early
        if job.model.output not in OUTPUT_KINDS:
            raise GraphError(
                f"unsupported output distribution {job.model.output!r}")
    preds = {}  # each model's train and validation predictions
    for job in jobs:
        if id(job.model) not in preds:
            preds[id(job.model)] = [
                dc.tensor(predict(job.model, dataset.split(s)[0]))
                for s in ("train", "validation")]
    chunks = [[(jobs[i], *preds[id(jobs[i].model)]) for i in chunk]
              for chunk in _chunks(tspec, dataset, config, jobs)]
    fit_chunk = functools.partial(_fit_chunk, tspec, dataset, config)
    workers = min(threads, len(chunks), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fit_chunk, chunks))
    else:
        parts = map(fit_chunk, chunks)  # lazily, so that `stop` saves fits
    outcomes = []
    for part in parts:
        outcomes += part
        if stop is not None and stop(part):
            break
    return outcomes


def train_transform(model: Model, tspec: tf.TransformSpec, dataset: Dataset,
                    config: MindConfig, *, restart: int = 0):
    """One seeded fit, the one-restart case of `multi_restart`'s stacked
    fit; returns (transform, MindDiagnostics) or raises TrainingError.

    The transform whose validation objective was lowest across epochs is
    returned, with gates clamped to [0, 1] after every step along the way.
    """
    [(_, transform, diag, error)] = fit_jobs(
        tspec, dataset, config, [Job(model, config.lam, config.seed, restart)])
    if error is not None:
        raise TrainingError(error)
    return transform, diag


# ---------------------------------------------------------------------------
# lambda tuning
# ---------------------------------------------------------------------------


def lambda_grid(lo: float = LAMBDA_GRID_LO, hi: float = LAMBDA_GRID_HI,
                factor: float = LAMBDA_GRID_FACTOR) -> list[float]:
    grid = []
    lam = lo
    while lam <= hi * (1 + 1e-12):
        grid.append(lam)
        lam *= factor
    return grid


@dataclass
class TuneResult:
    lam: float
    feasible: bool
    transform: object
    diagnostics: MindDiagnostics
    trace: list[dict] = field(default_factory=list)


def tune_lambda(model: Model, tspec: tf.TransformSpec, dataset: Dataset,
                config: MindConfig, grid: list[float] | None = None) -> TuneResult:
    """Smallest grid lambda whose fitted transform keeps the validation W1
    within w1_limit and the validation cosine within cosine_limit.

    Every grid point is fitted from restart 0's streams, the points as one
    job list in grid order, which stops after the first chunk that holds a
    feasible point. If no grid point satisfies both, the least-violating
    point is returned with feasible=False. A grid point whose fit fails is
    traced as infeasible with its error; only if every point fails does
    the sweep raise.
    """
    grid = sorted(grid) if grid else lambda_grid()

    def feasible(diag) -> bool:
        return diag is not None and diag.w1_mean <= config.w1_limit \
            and diag.cosine_mean <= config.cosine_limit

    outcomes = fit_jobs(
        tspec, dataset, config,
        [Job(model, lam, config.seed, 0) for lam in grid],
        stop=lambda part: any(feasible(diag) for _, _, diag, _ in part))
    trace: list[dict] = []
    best = None
    best_violation = np.inf
    for job, transform, diag, error in outcomes:
        lam = job.lam
        if error is not None:
            trace.append({"lambda": lam, "w1": None, "cosine": None,
                          "val_loss": None, "feasible": False,
                          "error": error})
            continue
        ok = feasible(diag)
        trace.append({"lambda": lam, "w1": diag.w1_mean,
                      "cosine": diag.cosine_mean, "val_loss": diag.val_loss,
                      "feasible": ok})
        if ok:
            return TuneResult(lam, True, transform, diag, trace)
        violation = max(diag.w1_mean / config.w1_limit,
                        diag.cosine_mean / config.cosine_limit)
        if violation < best_violation:
            best_violation = violation
            best = (lam, transform, diag)
    if best is None:
        raise TrainingError(f"every one of {len(grid)} lambda grid points "
                            f"failed; last: {trace[-1]['error']}")
    lam, transform, diag = best
    return TuneResult(lam, False, transform, diag, trace)


# ---------------------------------------------------------------------------
# restarts
# ---------------------------------------------------------------------------


@dataclass
class MindResult:
    score_kind: str            # "gates" | "gates_by_channel" | "correlation"
    samples: np.ndarray        # raw top-k score stack, selected-run order
    mean: np.ndarray
    std: np.ndarray
    rho_mean: np.ndarray
    rho_std: np.ndarray
    rho_undefined: np.ndarray  # per feature: selected runs with a NaN rho
    selected: list[int]
    failed: list[int]
    diagnostics: list[MindDiagnostics]
    transforms: list
    lam: float
    failure_reasons: list[str] = field(default_factory=list)  # per failed

    def feature_scores(self) -> np.ndarray:
        """Per-feature summary: channel gates average over channels."""
        return self.mean.mean(axis=1) if self.mean.ndim == 2 else self.mean

    def feature_spread(self) -> np.ndarray:
        """Per-feature std over selected runs (channel gates averaged
        within each run first, population std across runs)."""
        per_run = self.samples.mean(axis=2) if self.samples.ndim == 3 \
            else self.samples
        return _defined_mean_std(per_run)[1]


def _defined_mean_std(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std over the leading (run) axis of the values
    that are defined (not NaN); NaN, without a warning, where none is.
    With no NaN these are the bits of samples.mean(0) and samples.std(0)."""
    defined = ~np.isnan(samples)
    n = defined.sum(axis=0)
    with np.errstate(invalid="ignore"):
        mean = np.where(defined, samples, 0.0).sum(axis=0) / n
        dev = np.where(defined, samples - mean, 0.0)
        return mean, np.sqrt((dev * dev).sum(axis=0) / n)


def restart_jobs(model: Model, config: MindConfig) -> list[Job]:
    """The config's restarts against `model`, as jobs."""
    return [Job(model, config.lam, config.seed, r)
            for r in range(config.restarts)]


def top_k_result(config: MindConfig, outcomes: list[tuple]) -> MindResult:
    """The top_k of one config's restarts by validation loss, from their
    `fit_jobs` outcomes; TrainingError if fewer than top_k succeeded.

    Scores are the gates for gated families and the per-feature
    correlation profile for the residual family. Mean and std are over the
    selected runs (population std, so a single selected run reports zero
    spread); a correlation's leave out the runs where it is undefined
    (NaN), which `rho_undefined` counts.
    """
    runs = [(job.restart, t, d) for job, t, d, _ in outcomes if t is not None]
    failures = [(job.restart, err) for job, t, _, err in outcomes
                if t is None]
    if len(runs) < config.top_k:
        raise TrainingError(
            f"only {len(runs)} of {config.restarts} restarts succeeded; "
            f"top_k={config.top_k} requires at least that many")
    runs.sort(key=lambda item: item[2].val_loss)
    top = runs[:config.top_k]

    rho = np.stack([d.rho for _, _, d in top])
    first = top[0][1]
    scores = rho if first.gate_key is None else \
        np.stack([t.params[t.gate_key] for _, t, _ in top])

    mean, std = _defined_mean_std(scores)
    rho_mean, rho_std = _defined_mean_std(rho)
    return MindResult(
        score_kind=first.score_kind, samples=scores, mean=mean, std=std,
        rho_mean=rho_mean, rho_std=rho_std,
        rho_undefined=np.isnan(rho).sum(axis=0),
        selected=[r for r, _, _ in top], failed=[r for r, _ in failures],
        diagnostics=[d for _, _, d in runs],
        transforms=[t for _, t, _ in top],
        lam=config.lam, failure_reasons=[err for _, err in failures])


def multi_restart(model: Model, tspec: tf.TransformSpec, dataset: Dataset,
                  config: MindConfig, threads: int = 1) -> MindResult:
    """R independently seeded fits; aggregate the top_k by validation loss
    (`top_k_result`). The restarts are one job list (`fit_jobs`), fitted
    in stacked chunks, side by side in a pool of up to `threads` workers.
    """
    return top_k_result(config, fit_jobs(
        tspec, dataset, config, restart_jobs(model, config), threads))
