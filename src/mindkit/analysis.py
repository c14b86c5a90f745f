"""Score analysis: closed forms, gradient baselines, and sanity checks.

Everything here treats the model as a black box with gradients. The
closed-form solver covers the one case with an exact answer (linear
point-mass model, squared distance, inner-product similarity, pure
feature gates); the rest are empirical tools for judging learned gates.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import diffcore as dc
from . import transforms as tf
from .data import Dataset, substream
from .errors import AnalysisError, TrainingError
from .schemas import jsonsafe
from .models import (Model, _as_batch, forward_graph, param_nodes, predict,
                     shuffle_layer)

RIDGE = 1e-8
COND_LIMIT = 1e12


def correlation_profile(X: np.ndarray, Xp: np.ndarray) -> np.ndarray:
    """Per-feature Pearson correlation between original and transformed
    values, pooled over samples (and time, for sequences).

    A feature constant on either side (tested exactly: the centred sum of
    squares of equal values need not round to 0) gets NaN: correlation is
    undefined there and the caller should treat the score as flagged.
    """
    X = np.asarray(X, dtype=np.float64)
    Xp = np.asarray(Xp, dtype=np.float64)
    if X.shape != Xp.shape or X.ndim not in (2, 3):
        raise AnalysisError("need matching (n, d) or (n, d, T) arrays")
    if X.ndim == 3:
        X = np.swapaxes(X, 1, 2).reshape(-1, X.shape[1])
        Xp = np.swapaxes(Xp, 1, 2).reshape(-1, Xp.shape[1])
    a = X - X.mean(axis=0)
    b = Xp - Xp.mean(axis=0)
    va = (a * a).sum(axis=0)
    vb = (b * b).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = (a * b).sum(axis=0) / np.sqrt(va * vb)
    rho[(np.ptp(X, axis=0) == 0) | (np.ptp(Xp, axis=0) == 0)] = np.nan
    return rho


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def second_moment(X: np.ndarray) -> np.ndarray:
    """Empirical second-moment matrix (1/n) sum_i x_i x_i'."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise AnalysisError("second_moment expects an (n, d) matrix")
    return X.T @ X / len(X)


@dataclass
class ClosedFormInputs:
    """Everything the exact gating solution needs: linear-model
    coefficients, the input second-moment matrix, and the penalty weight."""
    beta: np.ndarray
    moment: np.ndarray
    lam: float

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64).ravel()
        self.moment = np.asarray(self.moment, dtype=np.float64)
        d = self.beta.size
        if self.moment.shape != (d, d):
            raise AnalysisError("moment matrix must be (d, d) matching beta")
        if not np.allclose(self.moment, self.moment.T, atol=1e-10):
            raise AnalysisError("moment matrix must be symmetric")
        if float(np.linalg.eigvalsh(self.moment)[0]) < -1e-8:
            raise AnalysisError("moment matrix must be positive semidefinite")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise AnalysisError(
                f"lambda must be finite and nonnegative, got {self.lam}")


@dataclass
class ClosedFormSolution:
    gates: np.ndarray       # box-projected minimizer in [0, 1]^d
    unclamped: np.ndarray   # stationary point before projection
    matrix: np.ndarray      # the (possibly ridged) quadratic-form matrix
    degenerate: bool        # condition blew past COND_LIMIT; ridge applied


def closed_form_gating(inputs: ClosedFormInputs) -> ClosedFormSolution:
    """Exact gates for a linear model f(x) = beta.x under the squared
    distance and inner-product similarity, with intercept-free gating.

    The objective is quadratic in the gates:

        (g - 1)' M (g - 1) + lam * g' c,   M = diag(beta) C diag(beta)

    with C the second-moment matrix and c its diagonal. The stationary
    point is g = 1 - (lam / 2) M^{-1} c, projected onto [0, 1]^d.
    Projection is exact whenever no coordinate clamps or M is diagonal;
    for clamped correlated problems it is a fast approximation and callers
    wanting exactness should check that `unclamped` stayed inside the box.
    A near-singular M (a zero coefficient, or exactly collinear features)
    falls back to a small ridge and is flagged degenerate.
    """
    beta, C, lam = inputs.beta, inputs.moment, inputs.lam
    M = C * np.outer(beta, beta)
    c = np.diag(C).copy()
    cond = np.linalg.cond(M)
    degenerate = bool(not np.isfinite(cond) or cond > COND_LIMIT)
    if degenerate:
        M = M + RIDGE * np.eye(beta.size)
    unclamped = 1.0 - (lam / 2.0) * np.linalg.solve(M, c)
    return ClosedFormSolution(gates=tf.clip01(unclamped), unclamped=unclamped,
                              matrix=M, degenerate=degenerate)


def weak_invariance_lambda(sensitivity: float, samples: np.ndarray) -> float:
    """Penalty strength guaranteeing the optimal gate on this feature is
    exactly zero, for any model whose output moves at most `sensitivity`
    per unit change of the feature: sensitivity * sum|x_i| / sum(x_i^2).
    """
    if sensitivity < 0:
        raise AnalysisError("sensitivity bound must be nonnegative")
    x = np.asarray(samples, dtype=np.float64).ravel()
    sumsq = float((x * x).sum())
    if sumsq == 0.0:
        raise AnalysisError("feature is identically zero; threshold undefined")
    return sensitivity * float(np.abs(x).sum()) / sumsq


# ---------------------------------------------------------------------------
# gradient attribution baselines
# ---------------------------------------------------------------------------


def _input_gradient_graph(model: Model, shape: tuple) -> dc.Graph:
    """The graph of sum_i f(X_i) over a batch X of `shape`: its gradient
    with respect to leaf "x" has row i the gradient at sample i."""
    x = dc.leaf("x", shape)
    return dc.Graph(dc.sum_(forward_graph(model, x, param_nodes(model))))


def saliency_scores(model: Model, X: np.ndarray) -> np.ndarray:
    """Mean absolute input gradient per feature (pooled over time for
    sequence models). For a linear model this is exactly |beta|."""
    X = _as_batch(model, X)[0]
    graph = _input_gradient_graph(model, X.shape)
    G = np.abs(graph.gradient({"x": X}, wrt=["x"])["x"])
    if G.ndim == 3:
        return G.mean(axis=(0, 2))
    return G.mean(axis=0)


def integrated_gradients(model: Model, X: np.ndarray,
                         steps: int = 128) -> np.ndarray:
    """Per-sample attribution maps against a zero baseline.

    The path integral uses a midpoint Riemann sum, so the completeness
    identity sum_j IG_j = f(x) - f(0) holds to the sum's resolution.
    """
    if steps < 1:
        raise AnalysisError("steps must be positive")
    X = _as_batch(model, X)[0]
    graph = _input_gradient_graph(model, X.shape)
    acc = np.zeros_like(X)
    for k in range(steps):
        alpha = (k + 0.5) / steps
        acc += graph.gradient({"x": alpha * X}, wrt=["x"])["x"]
    return X * acc / steps


def integrated_gradients_scores(model: Model, X: np.ndarray,
                                steps: int = 128) -> np.ndarray:
    """Mean |IG| per feature, pooled over samples (and time)."""
    maps = np.abs(integrated_gradients(model, X, steps))
    if maps.ndim == 3:
        return maps.mean(axis=(0, 2))
    return maps.mean(axis=0)


def completeness_gap(model: Model, X: np.ndarray, steps: int = 128) -> float:
    """Largest violation of the IG completeness identity over the batch."""
    X = _as_batch(model, X)[0]
    maps = integrated_gradients(model, X, steps)
    totals = maps.sum(axis=tuple(range(1, maps.ndim)))
    f_x = np.atleast_1d(predict(model, X))
    f_0 = np.atleast_1d(predict(model, np.zeros_like(X)))
    return float(np.max(np.abs(totals - (f_x - f_0))))


# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="mergesort")
    ranks = np.empty(len(v), dtype=np.float64)
    sv = v[order]
    i = 0
    while i < len(sv):
        j = i
        while j + 1 < len(sv) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # ties share the mean rank
        i = j + 1
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Spearman rank correlation with a two-sided t-approximation p-value.

    Returns (nan, nan) when either input is constant or shorter than 3;
    rank correlation is undefined there.
    """
    rho, n = spearman_rho(a, b)
    return rho, spearman_p(rho, n)


def spearman_rho(a: np.ndarray, b: np.ndarray) -> tuple[float, int]:
    """`spearman`'s rho, and the number of pairs it ranks."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise AnalysisError("inputs must have equal length")
    n = len(a)
    if n < 3 or np.all(a == a[0]) or np.all(b == b[0]):
        return float("nan"), n
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    rho = float((ra * rb).sum() / denom)
    return max(-1.0, min(1.0, rho)), n


def spearman_p(rho: float, n: int) -> float:
    """`spearman`'s p-value for a rho over n pairs (NaN where rho is, or
    for fewer than 3 pairs).

    The two-sided tail of Student's t with n - 2 degrees of freedom at
    t = rho sqrt((n - 2) / (1 - rho^2)) is I_x((n - 2) / 2, 1 / 2) with
    x = (n - 2) / (n - 2 + t^2) = 1 - rho^2.
    """
    if np.isnan(rho) or n < 3:
        return float("nan")
    r = abs(rho)
    if r == 1.0:
        return 0.0
    return _betai(0.5 * (n - 2), 0.5, (1.0 - r) * (1.0 + r), r * r)


BETACF_EPS = 1e-16
BETACF_TINY = 1e-300


def _betai(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, b) for x in (0, 1] and
    y = 1 - x, taken separately so that x near 1 keeps its precision.

    Numerical Recipes (3rd ed.) §6.4: the continued fraction converges
    fast for x < (a + 1) / (a + b + 2); above that, I_x(a, b) =
    1 - I_y(b, a).
    """
    if y == 0.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def _betacf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    def clamp(v: float) -> float:
        return v if abs(v) >= BETACF_TINY else BETACF_TINY

    c = 1.0
    d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 100_000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 / clamp(1.0 + num * d)
            c = clamp(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < BETACF_EPS:
            return h
    raise AnalysisError(f"incomplete beta I_x({a}, {b}) did not converge")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def build_report(result, config, feature_names: list[str],
                 channel_names: list[str] | None = None) -> dict:
    """Assemble the per-feature score report emitted by the pipeline.

    Carries the per-feature score mean/std over the selected restarts, the
    correlation profile, per-channel detail for channel-gated transforms,
    and an echo of the training configuration.
    """
    mean = np.asarray(result.mean)
    report = {
        "schema": "mindkit.report/1",
        "score_kind": result.score_kind,
        "lambda": result.lam,
        "features": list(feature_names),
        "score_mean": jsonsafe(result.feature_scores()),
        "score_std": jsonsafe(result.feature_spread()),
        "correlation_mean": jsonsafe(result.rho_mean),
        "correlation_std": jsonsafe(result.rho_std),
        "restarts": {
            "selected": list(result.selected),
            "failed": list(result.failed),
            "runs": [
                {"restart": d.restart, "val_loss": jsonsafe(d.val_loss),
                 "w1": jsonsafe(d.w1_mean), "cosine": jsonsafe(d.cosine_mean),
                 "epochs": d.epochs, "stop_reason": d.stop_reason}
                for d in result.diagnostics
            ],
        },
        "config": jsonsafe(asdict(config)),
    }
    if mean.ndim == 2:
        names = channel_names or [f"channel{k}" for k in range(mean.shape[1])]
        report["channels"] = {
            "names": list(names),
            "score_mean": jsonsafe(mean),
            "score_std": jsonsafe(result.std),
        }
    return report


# ---------------------------------------------------------------------------
# sanity check against damaged models
# ---------------------------------------------------------------------------


@dataclass
class SanityOutcome:
    """Rank correlations of one layer's refits with the reference scores.

    A refit whose scores are constant has an undefined (NaN) correlation;
    `undefined` counts those, and the mean and spread summarize the defined
    ones only, so they are NaN only when no correlation is defined.
    `pvalues` are computed from the rhos when read.
    """

    layer: str
    rhos: list[float]
    n: int          # features ranked by each correlation
    failures: int

    @property
    def pvalues(self) -> list[float]:
        return [spearman_p(rho, self.n) for rho in self.rhos]

    @property
    def undefined(self) -> int:
        return int(np.isnan(self.rhos).sum())

    def _defined(self) -> np.ndarray:
        rhos = np.asarray(self.rhos, dtype=np.float64)
        return rhos[~np.isnan(rhos)]

    @property
    def rho_mean(self) -> float:
        rhos = self._defined()
        return float(rhos.mean()) if rhos.size else float("nan")

    @property
    def rho_std(self) -> float:
        rhos = self._defined()
        return float(rhos.std()) if rhos.size else float("nan")


SANITY_RESTARTS = 3  # per shuffled instance, to bound the check's runtime


def _refit_outcome(layer: str, fits, tspec, dataset: Dataset,
                   reference_scores: np.ndarray,
                   threads: int) -> SanityOutcome:
    """Refit each (model, config) pair in `fits` with SANITY_RESTARTS
    restarts and rank-correlate its scores with reference_scores. A fit
    that raises TrainingError is counted as a failure, not fatal."""
    from . import mindtrain  # deferred: mindtrain imports this module

    reference = np.asarray(reference_scores, dtype=np.float64).ravel()
    rhos: list[float] = []
    failures = 0
    for model, config in fits:
        config = replace(config, restarts=SANITY_RESTARTS,
                         top_k=min(config.top_k, SANITY_RESTARTS))
        try:
            result = mindtrain.multi_restart(model, tspec, dataset, config,
                                             threads=threads)
        except TrainingError:
            failures += 1
            continue
        rhos.append(spearman_rho(reference, result.feature_scores())[0])
    return SanityOutcome(layer=layer, rhos=rhos, n=len(reference),
                         failures=failures)


def sanity_check(model: Model, tspec, dataset: Dataset, config,
                 reference_scores: np.ndarray, *, shuffles: int = 5,
                 seed: int = 0, threads: int = 1) -> list[SanityOutcome]:
    """Destroy one layer at a time and re-fit gates against the damaged
    model; scores that track a real model should decorrelate.

    For each layer, `shuffles` independently permuted copies are fitted
    with a fixed budget of SANITY_RESTARTS restarts and compared to
    reference_scores by rank correlation. Fits that fail to converge are
    counted and excluded rather than aborting the check.
    """
    if shuffles < 1:
        raise AnalysisError(f"shuffles must be at least 1, got {shuffles}")

    def damaged(li: int, layer: str):
        for s in range(shuffles):
            rng = substream(seed, f"sanity.{layer}.shuffle{s}")
            yield shuffle_layer(model, li, rng), config

    return [_refit_outcome(layer, damaged(li, layer), tspec, dataset,
                           reference_scores, threads)
            for li, layer in enumerate(model.layer_names())]


def restart_baseline(model: Model, tspec, dataset: Dataset, config,
                     reference_scores: np.ndarray, *, instances: int = 5,
                     seed: int = 0, threads: int = 1) -> SanityOutcome:
    """Restart-to-restart score stability on the intact model.

    This is the yardstick the shuffled-layer correlations are judged
    against: each instance refits with fresh training randomness and is
    compared to reference_scores exactly as sanity_check does.
    """
    if instances < 1:
        raise AnalysisError(f"instances must be at least 1, got {instances}")

    def reseeded():
        for s in range(instances):
            rng = substream(seed, f"baseline.instance{s}")
            yield model, replace(config, seed=int(rng.integers(2 ** 31 - 1)))

    return _refit_outcome("baseline", reseeded(), tspec, dataset,
                          reference_scores, threads)
