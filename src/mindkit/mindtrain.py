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
from dataclasses import dataclass, field, replace

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


class _Problem:
    """The loss graph of R restarts of one transform family fitted as one
    stacked problem, cached per batch size; R is 1 unless the family
    stacks.

    `params` holds the R restarts' parameters, each with a leading restart
    axis. The input stacks the R batches of B rows; the frozen model runs
    once over all R * B rows; the output is the vector of the R restarts'
    own losses, each a mean over its own rows, so that the gradient of
    their sum keeps the restarts apart.
    """

    def __init__(self, model: Model, transform, config: MindConfig,
                 params: dict[str, np.ndarray]):
        self.model = model
        self.transform = transform
        self.config = config
        self.params = params
        self.restarts = len(next(iter(params.values())))
        if self.restarts > 1 and not transform.stacks:
            raise TrainingError(f"{transform.kind} restarts do not stack")
        if config.similarity == "l1_gate_weights" and transform.gate_key is None:
            raise TrainingError(
                "l1_gate_weights similarity needs a gated transform family")
        self._graphs: dict[int, dc.Graph] = {}
        self._buffers = dc._Buffers()  # one pool for every batch size
        self._seed = np.ones(self.restarts)

    def _build(self, B: int) -> dc.Graph:
        cfg = self.config
        t = self.transform
        R = self.restarts
        d, T = self.model.input_dim, self.model.seq_len
        x = dc.leaf("x", (R * B, d) if T is None else (R * B, d, T))
        nodes = {k: dc.leaf(k, v.shape) for k, v in self.params.items()}
        if t.stacks:
            xp = t.graph(x, nodes, R)
        else:   # the one restart's parameters, without the restart axis
            xp = t.graph(x, {k: dc.reshape(v, v.shape[1:])
                             for k, v in nodes.items()})
        f = forward_graph(self.model, xp, param_nodes(self.model))
        fc = dc.leaf("fc", (R * B,))
        diff = dc.sub(f, fc)
        dist_vec = dc.abs_(diff) if cfg.distance == "w1" else dc.mul(diff, diff)
        dist = _restart_means(dist_vec, R)
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
        loss = dist if cfg.lam == 0 else dc.add(dist, dc.scale(sim, cfg.lam))
        return dc.Graph(loss, self._buffers)

    def graph_for(self, B: int) -> dc.Graph:
        if B not in self._graphs:
            self._graphs[B] = self._build(B)
        return self._graphs[B]

    def bindings(self, rows: dict[str, np.ndarray]) -> dict:
        """The graph's bindings: the parameters and `rows`, which maps "x",
        "fc" and the family's extra arrays to the R stacked batches."""
        return {**self.params, **rows}

    def value_and_grad(self, rows: dict[str, np.ndarray]):
        """The R restarts' losses on `rows` and the gradients of their sum."""
        g = self.graph_for(len(rows["x"]) // self.restarts)
        return g.value_and_grad(self.bindings(rows), wrt=list(self.params),
                                seed=self._seed, check=False)

    def loss(self, rows: dict[str, np.ndarray]) -> np.ndarray:
        g = self.graph_for(len(rows["x"]) // self.restarts)
        return g.evaluate(self.bindings(rows), check=False)


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
    problem = _Problem(model, transform, config, _unstacked(transform))
    binds = problem.bindings({"x": X, "fc": predict(model, X),
                              **transform.extra(X)})
    return float(problem.graph_for(len(X)).evaluate(binds)[0])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

# Restarts of a family that stacks, fitted together, hold at most this
# many float64 node values in their stacked training graph (512 KiB),
# estimated as R times the one-restart graph. Stacking pays while a step
# is dominated by per-node dispatch; it stops paying once the arrays are
# large. On a 2-vCPU VM with one BLAS thread, an 8-restart MLP gating fit
# ran 1.7x faster in chunks of 4, while 4 stacked seqconv gating restarts
# took 1.35-1.49 ms per restart-step against 1.34-1.37 ms alone, and
# 2.4 MB more peak memory. Measured one-restart gating graphs and the
# chunks they give:
#
#   graph                                  B    values   8 restarts  3
#   MLP gating (d=14, hidden 16)         100    13,117   4+4         3
#   seqconv gating (d=6, T=12, hidden 8)  90    62,285   1 each      1 each
CHUNK_VALUES = 2 ** 16


def restart_chunks(restarts: int, values_per_restart: int) -> list[list[int]]:
    """Restart indices in consecutive chunks of near-equal size, as few
    chunks as CHUNK_VALUES allows for graphs of `values_per_restart`."""
    cap = max(1, CHUNK_VALUES // max(1, values_per_restart))
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


def _fit_restarts(model: Model, tspec: tf.TransformSpec, dataset: Dataset,
                  config: MindConfig, restarts: list[int]) -> list[tuple]:
    """Fit the listed restarts as one stacked problem.

    Returns (restart, transform, MindDiagnostics, None) for each restart
    that succeeded and (restart, None, None, error message) for each that
    failed, in the order given. A restart fails alone when its loss turns
    non-finite; the others go on. Each returned transform holds the
    parameters of its restart's epoch with the lowest validation
    objective, its gates clamped to [0, 1] after every step along the way.
    """
    if model.output not in OUTPUT_KINDS:  # w1_mean needs W1: fail early
        raise GraphError(f"unsupported output distribution {model.output!r}")
    Xtr, _ = dataset.split("train")
    Xva, _ = dataset.split("validation")
    R = len(restarts)
    transforms, runs = zip(*(_init_restart(tspec, dataset, config, r)
                             for r in restarts))
    template = transforms[0]
    flat, params = flat_params({k: np.stack([t.params[k] for t in transforms])
                                for k in template.params})
    problem = _Problem(model, template, config, params)

    train_rows = {"x": Xtr, "fc": predict(model, Xtr), **template.extra(Xtr)}
    fc_va = predict(model, Xva)
    val_rows = {"x": Xva, "fc": fc_va, **template.extra(Xva)}
    # the fit's sweeps skip the finiteness check, so every array is checked
    # once here, but for the x rows, which predict checked
    for arrays in (params, train_rows, val_rows):
        for k, v in arrays.items():
            if k != "x":
                dc.tensor(v)
    # every restart is validated on the whole validation split
    val_rows = {k: np.concatenate([v] * R) for k, v in val_rows.items()}
    decay = config.weight_decay * flat_params(  # a rate per column
        {k: np.full(v[:1].shape, k in template.decay_keys())
         for k, v in params.items()})[0][0]
    opt = Adam(flat, decay if decay.any() else None)
    grad, grad_views = flat_params(params)  # laid out as the parameters
    gate_key = template.gate_key
    gate_min, gate_max = np.full(R, np.inf), np.full(R, -np.inf)

    def loss_and_grad(idx):
        rows = idx.ravel()
        losses, grads = problem.value_and_grad(
            {k: v[rows] for k, v in train_rows.items()})
        for k, g in grads.items():
            np.copyto(grad_views[k], g)
        return losses, grad

    def after_step():
        # a finished restart's gates were clamped when it was last stepped,
        # so clamping and tracking them again changes nothing
        gates = params[gate_key]
        np.copyto(gates, tf.clip01(gates))
        per_restart = gates.reshape(R, -1)
        np.minimum(gate_min, per_restart.min(axis=1), out=gate_min)
        np.maximum(gate_max, per_restart.max(axis=1), out=gate_max)

    fit_stack(flat, loss_and_grad, lambda: problem.loss(val_rows),
              len(Xtr), _batch_size(config, len(Xtr)), config.max_epochs,
              list(runs), opt, after_step if gate_key is not None else None)
    # the graphs and their buffers are done with; free them before the
    # diagnostics build graphs of their own
    problem = None

    seq = dataset.seq_len is not None
    outcomes = []
    for i, (r, transform, run) in enumerate(zip(restarts, transforms, runs)):
        if run.error is not None:
            outcomes.append((r, None, None, run.error))
            continue
        for k, v in transform.params.items():
            np.copyto(v, params[k][i])
        Xp_va = tf.apply_transform(transform, Xva, seq=seq)
        history = run.history
        diag = MindDiagnostics(
            restart=r, epochs=len(history["val_loss"]),
            train_curve=history["train_loss"],
            val_curve=history["val_loss"], lr_curve=history["lr"],
            val_loss=min(history["val_loss"]),
            w1_mean=float(np.mean(np.abs(fc_va - predict(model, Xp_va)))),
            cosine_mean=float(np.mean(dc.row_cosines(Xva, Xp_va))),
            gate_min=float(gate_min[i]) if gate_key else float("nan"),
            gate_max=float(gate_max[i]) if gate_key else float("nan"),
            stop_reason=run.stop_reason)
        outcomes.append((r, transform, diag, None))
    return outcomes


def train_transform(model: Model, tspec: tf.TransformSpec, dataset: Dataset,
                    config: MindConfig, *, restart: int = 0):
    """One seeded fit, the one-restart case of `multi_restart`'s stacked
    fit; returns (transform, MindDiagnostics) or raises TrainingError.

    The transform whose validation objective was lowest across epochs is
    returned, with gates clamped to [0, 1] after every step along the way.
    """
    [(_, transform, diag, error)] = _fit_restarts(model, tspec, dataset,
                                                  config, [restart])
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

    If no grid point satisfies both, the least-violating point is returned
    with feasible=False. A grid point whose fit raises TrainingError is
    traced as infeasible with its error; only if every point fails does
    the sweep raise.
    """
    grid = sorted(grid) if grid else lambda_grid()
    trace: list[dict] = []
    best = None
    best_violation = np.inf
    for lam in grid:
        cfg = replace(config, lam=lam)
        try:
            transform, diag = train_transform(model, tspec, dataset, cfg,
                                              restart=0)
        except TrainingError as exc:
            trace.append({"lambda": lam, "w1": None, "cosine": None,
                          "val_loss": None, "feasible": False,
                          "error": str(exc)})
            continue
        ok = (diag.w1_mean <= config.w1_limit
              and diag.cosine_mean <= config.cosine_limit)
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
        return per_run.std(axis=0)


def _values_per_restart(model: Model, tspec: tf.TransformSpec,
                        dataset: Dataset, config: MindConfig) -> int:
    """Node values of the one-restart training graph at the fit's batch
    size; the initial parameter values do not matter, only their shapes."""
    t = tf.init_transform(tspec, dataset.d, dataset.seq_len,
                          np.random.default_rng(0))
    n_train = len(dataset.split("train")[0])
    problem = _Problem(model, t, config, _unstacked(t))
    graph = problem.graph_for(_batch_size(config, n_train))
    return sum(math.prod(node.shape) for node in graph.nodes)


def _chunks(model: Model, tspec: tf.TransformSpec, dataset: Dataset,
            config: MindConfig) -> list[list[int]]:
    """The chunks `multi_restart` fits: one restart each unless the family
    stacks, else `restart_chunks` of its one-restart graph."""
    if not tf.TRANSFORMS[tspec.kind].stacks:
        return [[r] for r in range(config.restarts)]
    return restart_chunks(config.restarts, _values_per_restart(
        model, tspec, dataset, config))


def ProcessPoolExecutor(max_workers: int):
    """The pool `multi_restart` fits chunks in with `threads` > 1; imported
    on first use, because loading it costs every CLI process about 60 ms."""
    from concurrent.futures import ProcessPoolExecutor as Pool
    return Pool(max_workers=max_workers)


def multi_restart(model: Model, tspec: tf.TransformSpec, dataset: Dataset,
                  config: MindConfig, threads: int = 1) -> MindResult:
    """R independently seeded fits; aggregate the top_k by validation loss.

    The restarts are fitted in chunks (`_chunks`), each chunk as one
    stacked problem; with `threads` > 1 a process pool of up to that many
    workers fits the chunks side by side. Scores are the gates for gated
    families and the per-feature correlation profile for the residual
    family. Mean and std use the selected runs (population std, so a single
    selected run reports zero spread).
    """
    if threads < 1:
        raise TrainingError(f"threads must be at least 1, got {threads}")
    chunks = _chunks(model, tspec, dataset, config)
    fit_chunk = functools.partial(_fit_restarts, model, tspec, dataset,
                                  config)
    workers = min(threads, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fit_chunk, chunks))
    else:
        parts = [fit_chunk(chunk) for chunk in chunks]
    outcomes = [o for part in parts for o in part]

    runs = [(r, t, d) for r, t, d, _ in outcomes if t is not None]
    failures = [(r, err) for r, t, _, err in outcomes if t is None]
    if len(runs) < config.top_k:
        raise TrainingError(
            f"only {len(runs)} of {config.restarts} restarts succeeded; "
            f"top_k={config.top_k} requires at least that many")
    runs.sort(key=lambda item: item[2].val_loss)
    top = runs[:config.top_k]

    Xva, _ = dataset.split("validation")
    seq = dataset.seq_len is not None
    rho = np.stack([analysis.correlation_profile(
        Xva, tf.apply_transform(t, Xva, seq=seq)) for _, t, _ in top])
    first = top[0][1]
    scores = rho if first.gate_key is None else \
        np.stack([t.params[t.gate_key] for _, t, _ in top])

    return MindResult(
        score_kind=first.score_kind, samples=scores,
        mean=scores.mean(axis=0), std=scores.std(axis=0),
        rho_mean=rho.mean(axis=0), rho_std=rho.std(axis=0),
        selected=[r for r, _, _ in top], failed=[r for r, _ in failures],
        diagnostics=[d for _, _, d in runs],
        transforms=[t for _, t, _ in top],
        lam=config.lam, failure_reasons=[err for _, err in failures])
