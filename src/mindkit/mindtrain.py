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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
from . import diffcore as dc
from . import transforms as tf
from .data import Dataset, substream
from .errors import GraphError, TrainingError
from .models import Model, OUTPUT_KINDS, forward_graph, param_nodes, predict
from .optim import Adam, PlateauSchedule, fit

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
        if self.lam < 0:
            raise TrainingError("lambda must be nonnegative")
        if self.similarity not in SIMILARITIES:
            raise TrainingError(f"unknown similarity {self.similarity!r}")
        if self.distance not in DISTANCES:
            raise TrainingError(f"unknown distance {self.distance!r}")
        if not 1 <= self.top_k <= self.restarts:
            raise TrainingError("need 1 <= top_k <= restarts")
        if self.w1_limit <= 0 or self.cosine_limit <= 0:
            raise TrainingError("limits must be positive")
        if self.lr <= 0 or self.max_epochs < 1:
            raise TrainingError("lr and max_epochs must be positive")


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
    """The loss graph for one transform, cached per batch size."""

    def __init__(self, model: Model, transform, config: MindConfig):
        self.model = model
        self.transform = transform
        self.config = config
        if config.similarity == "l1_gate_weights" and transform.gate_key is None:
            raise TrainingError(
                "l1_gate_weights similarity needs a gated transform family")
        self._graphs: dict[int, dc.Graph] = {}

    def _build(self, B: int) -> dc.Graph:
        cfg = self.config
        t = self.transform
        d, T = self.model.input_dim, self.model.seq_len
        x = dc.leaf("x", (B, d) if T is None else (B, d, T))
        nodes = {k: dc.leaf(k, v.shape) for k, v in t.params.items()}
        xp = t.graph(x, nodes)
        f = forward_graph(self.model, xp, param_nodes(self.model, trainable=False))
        fc = dc.leaf("fc", (B,))
        diff = dc.sub(f, fc)
        dist_vec = dc.abs_(diff) if cfg.distance == "w1" else dc.mul(diff, diff)
        dist = dc.mean(dist_vec)
        if cfg.similarity == "cosine":
            sims = dc.cosine_rows(xp, x)
            if cfg.clip_similarity_at_zero:
                sims = dc.relu(sims)
            sim = dc.mean(sims)
        elif cfg.similarity == "inner_product":
            sim = dc.mean(dc.dot_rows(xp, x))
        else:
            sim = dc.sum_(dc.abs_(nodes[t.gate_key]))
        loss = dist if cfg.lam == 0 else dc.add(dist, dc.scale(sim, cfg.lam))
        return dc.Graph(loss)

    def _graph_for(self, B: int) -> dc.Graph:
        if B not in self._graphs:
            self._graphs[B] = self._build(B)
        return self._graphs[B]

    def bindings(self, X: np.ndarray, fc: np.ndarray, extra: dict) -> dict:
        return {**self.transform.params, "x": X, "fc": fc, **extra}

    def value_and_grad(self, X, fc, extra):
        g = self._graph_for(len(X))
        return g.value_and_grad(self.bindings(X, fc, extra),
                                wrt=list(self.transform.params))

    def loss(self, X, fc, extra) -> float:
        g = self._graph_for(len(X))
        return float(g.evaluate(self.bindings(X, fc, extra)))


def mind_loss(model: Model, transform, X: np.ndarray,
              config: MindConfig) -> float:
    """Objective value on one batch, for the transform's current parameters."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == (1 if model.seq_len is None else 2):
        X = X[None]
    problem = _Problem(model, transform, config)
    fc = np.atleast_1d(predict(model, X))
    return problem.loss(X, fc, transform.extra(X))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def train_transform(model: Model, tspec: tf.TransformSpec, dataset: Dataset,
                    config: MindConfig, *, restart: int = 0):
    """One seeded fit; returns (transform, MindDiagnostics).

    The transform whose validation objective was lowest across epochs is
    returned, with gates clamped to [0, 1] after every step along the way.
    """
    Xtr, _ = dataset.split("train")
    Xva, _ = dataset.split("validation")
    rng = substream(config.seed, f"mind.init.restart{restart}")
    shuffle_rng = substream(config.seed, f"mind.shuffle.restart{restart}")
    transform = tf.init_transform(tspec, dataset.d, dataset.seq_len, rng)

    fc_tr = np.atleast_1d(predict(model, Xtr))
    fc_va = np.atleast_1d(predict(model, Xva))
    extra_tr, extra_va = transform.extra(Xtr), transform.extra(Xva)

    problem = _Problem(model, transform, config)
    params = transform.params
    opt = Adam(params, lr=config.lr, weight_decay=config.weight_decay,
               decay_keys=transform.decay_keys())
    sched = PlateauSchedule(config.patience, config.min_delta, config.lr_floor)
    bs = config.batch_size or min(100, max(1, len(Xtr) // 4))
    gate_key = transform.gate_key
    gate_min, gate_max = np.inf, -np.inf

    def loss_and_grad(idx):
        batch = {k: v[idx] for k, v in extra_tr.items()}
        return problem.value_and_grad(Xtr[idx], fc_tr[idx], batch)

    def after_step():
        nonlocal gate_min, gate_max
        tf.clamp_gates(transform)
        if gate_key is not None:
            gates = params[gate_key]
            gate_min = min(gate_min, float(gates.min()))
            gate_max = max(gate_max, float(gates.max()))

    history, stop_reason = fit(
        params, loss_and_grad, lambda: problem.loss(Xva, fc_va, extra_va),
        len(Xtr), bs, config.max_epochs, shuffle_rng, opt, sched,
        f"transform restart {restart}", after_step)

    Xp_va = tf.apply_transform(transform, Xva, seq=dataset.seq_len is not None)
    w1_mean = float(np.mean(w1_reduced(model, Xva, Xp_va)))
    cos_mean = float(np.mean(dc.row_cosines(Xva, Xp_va)))
    diag = MindDiagnostics(
        restart=restart, epochs=len(history["val_loss"]),
        train_curve=history["train_loss"], val_curve=history["val_loss"],
        lr_curve=history["lr"], val_loss=min(history["val_loss"]),
        w1_mean=w1_mean, cosine_mean=cos_mean,
        gate_min=gate_min if gate_key else float("nan"),
        gate_max=gate_max if gate_key else float("nan"),
        stop_reason=stop_reason)
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


def _run_restart(args):
    model, tspec, dataset, config, r = args
    try:
        transform, diag = train_transform(model, tspec, dataset, config,
                                          restart=r)
        return r, transform, diag, None
    except TrainingError as exc:
        return r, None, None, str(exc)


def multi_restart(model: Model, tspec: tf.TransformSpec, dataset: Dataset,
                  config: MindConfig, threads: int = 1) -> MindResult:
    """R independently seeded fits; aggregate the top_k by validation loss.

    Scores are the gates for gated families and the per-feature correlation
    profile for the residual family. Mean and std use the selected runs
    (population std, so a single selected run reports zero spread).
    """
    jobs = [(model, tspec, dataset, config, r) for r in range(config.restarts)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_run_restart, jobs))
    else:
        outcomes = [_run_restart(j) for j in jobs]

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
