"""Desk-scale differentiable predictors and their training loops.

Three architectures: a homogeneous linear map (no bias), a ReLU MLP, and a
dilated temporal CNN (conv -> normalize -> GeLU blocks, mean-pooled over
time into a dense head). Each conv block normalizes across channels at
every timestep, never over time, so level statistics such as a series'
running mean survive to the head. Classifiers emit a Bernoulli probability
through a
sigmoid; regressors emit a point value; "gaussian" marks a fixed-variance
Gaussian head that behaves like regression everywhere except in how
downstream code interprets the output distribution.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import diffcore as dc
from . import schemas
from .data import Dataset, substream
from .errors import DataError, GraphError, TrainingError, require_finite
from .optim import Adam, PlateauSchedule, Run, fit_stack, flat_params

ARCHITECTURES = ("linear", "mlp", "seqconv")
OUTPUT_KINDS = ("probability", "regression", "gaussian")

SEQCONV_HIDDEN = (16, 16, 8)
SEQCONV_DILATIONS = (1, 2, 2)


@dataclass
class Model:
    kind: str
    output: str
    input_dim: int
    seq_len: int | None
    params: dict[str, np.ndarray]
    hidden: tuple = ()
    dilations: tuple = ()
    kernel_size: int = 3
    seed: int | None = None

    def layer_names(self) -> list[str]:
        """Weight tensors eligible for layer shuffling, input to output."""
        if self.kind == "linear":
            return ["w"]
        if self.kind == "mlp":
            return [f"w{i}" for i in range(len(self.hidden) + 1)]
        return [f"conv{i}_w" for i in range(len(self.hidden))] + ["head_w"]


@dataclass
class TrainConfig:
    lr: float = 1e-2
    batch_size: int = 32
    patience: int = 10
    min_delta: float = 1e-4
    lr_floor: float = 5e-6
    max_epochs: int = 200
    adversarial: bool = False
    pgd_eps: float = 0.1
    pgd_step: float | None = None
    pgd_iters: int = 5
    seed: int = 0

    def __post_init__(self):
        require_finite(self, TrainingError)
        if self.lr <= 0 or min(self.batch_size, self.max_epochs,
                               self.patience) < 1:
            raise TrainingError(
                "lr, batch_size, max_epochs and patience must be positive")
        if min(self.min_delta, self.lr_floor) < 0:
            raise TrainingError("min_delta and lr_floor must be nonnegative")
        if self.pgd_eps < 0 or self.pgd_iters < 1:
            raise TrainingError("pgd_eps must be >= 0 and pgd_iters >= 1")
        if self.pgd_step is not None and self.pgd_step <= 0:
            raise TrainingError("pgd_step must be positive, or null for the "
                                "default")
        if self.seed < 0:
            raise TrainingError(f"seed must be nonnegative, got {self.seed}")


def build_model(kind: str, input_dim: int, *, seq_len: int | None = None,
                hidden: tuple = (), output: str | None = None,
                kernel_size: int = 3, seed: int = 0) -> Model:
    """Initialize an architecture with seed-reproducible parameters."""
    if kind not in ARCHITECTURES:
        raise GraphError(f"unknown architecture {kind!r}")
    if kernel_size < 1:
        raise GraphError(f"kernel_size must be at least 1, got {kernel_size}")
    if output is None:
        output = "regression" if kind == "linear" else "probability"
    if output not in OUTPUT_KINDS:
        raise GraphError(f"unknown output kind {output!r}")
    rng = substream(seed, f"model-init.{kind}")
    params: dict[str, np.ndarray] = {}
    if kind == "linear":
        params["w"] = rng.normal(0.0, 1.0 / np.sqrt(input_dim), (input_dim, 1))
        return Model(kind, output, input_dim, None, params, seed=seed)
    if kind == "mlp":
        hidden = tuple(hidden) or (16,)
        widths = (input_dim,) + hidden + (1,)
        for i in range(len(widths) - 1):
            fan_in = widths[i]
            params[f"w{i}"] = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                         (widths[i], widths[i + 1]))
            params[f"b{i}"] = np.zeros(widths[i + 1])
        return Model(kind, output, input_dim, None, params, hidden=hidden, seed=seed)
    if seq_len is None:
        raise GraphError("seqconv requires seq_len")
    hidden = tuple(hidden) or SEQCONV_HIDDEN
    dilations = SEQCONV_DILATIONS[:len(hidden)] if len(hidden) <= 3 \
        else tuple([1] + [2] * (len(hidden) - 1))
    cin = input_dim
    for i, cout in enumerate(hidden):
        fan_in = cin * kernel_size
        params[f"conv{i}_w"] = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                          (cout, cin, kernel_size))
        params[f"conv{i}_b"] = np.zeros(cout)
        cin = cout
    params["head_w"] = rng.normal(0.0, np.sqrt(1.0 / cin), (cin, 1))
    params["head_b"] = np.zeros(1)
    return Model(kind, output, input_dim, seq_len, params, hidden=hidden,
                 dilations=dilations, kernel_size=kernel_size, seed=seed)


# ---------------------------------------------------------------------------
# forward graphs
# ---------------------------------------------------------------------------


def param_nodes(model: Model) -> dict[str, dc.Node]:
    """The frozen model's parameters as constants."""
    return {k: dc.constant(v) for k, v in model.params.items()}


def forward_graph(model: Model, x: dc.Node, params: dict[str, dc.Node],
                  *, logits: bool = False) -> dc.Node:
    """Model output node for a batched input leaf; (B, d) or (B, d, T)."""
    B = x.shape[0]
    if model.kind == "linear":
        out = dc.reshape(dc.matmul(x, params["w"]), (B,))
    elif model.kind == "mlp":
        h = x
        n_layers = len(model.hidden) + 1
        for i in range(n_layers):
            h = dc.add(dc.matmul(h, params[f"w{i}"]), params[f"b{i}"])
            if i < n_layers - 1:
                h = dc.relu(h)
        out = dc.reshape(h, (B,))
    else:
        h = x
        for i, dil in enumerate(model.dilations):
            pad = dil * (model.kernel_size - 1) // 2
            h = dc.conv1d(h, params[f"conv{i}_w"], padding=pad, dilation=dil)
            h = dc.add(h, dc.reshape(params[f"conv{i}_b"], (model.hidden[i], 1)))
            h = dc.gelu(dc.normalize(h, axis=1))
        pooled = dc.mean(h, axis=2)
        out = dc.reshape(dc.add(dc.matmul(pooled, params["head_w"]),
                                params["head_b"]), (B,))
    if model.output == "probability" and not logits:
        out = dc.sigmoid(out)
    return out


def _as_batch(model: Model, X: np.ndarray) -> tuple[np.ndarray, bool]:
    """X as a batch of the model's instances, and whether it was one
    instance; a batch of any other rank raises GraphError."""
    X = np.asarray(X, dtype=np.float64)
    expected = 2 if model.seq_len is None else 3
    if X.ndim == expected - 1:
        return X[None], True
    if X.ndim != expected:
        raise GraphError(f"{model.kind} expects {expected - 1}-D instances")
    return X, False


def predict(model: Model, X: np.ndarray) -> np.ndarray | float:
    """Model output for one instance (scalar) or a batch (vector)."""
    Xb, single = _as_batch(model, X)
    x = dc.leaf("x", Xb.shape)
    out = forward_graph(model, x, param_nodes(model))
    val = dc.Graph(out).evaluate({"x": Xb})
    return float(val[0]) if single else val


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _loss(model: Model, batch_shape: tuple) -> dc.Node:
    x = dc.leaf("x", batch_shape)
    y = dc.leaf("y", (batch_shape[0],))
    params = {k: dc.leaf(k, v.shape) for k, v in model.params.items()}
    if model.output == "probability":
        logits = forward_graph(model, x, params, logits=True)
        return dc.mean(dc.bce_with_logits(logits, y))
    err = dc.sub(forward_graph(model, x, params), y)
    return dc.mean(dc.mul(err, err))


def _pgd_perturb(graph: dc.Graph, binds: dict, Xb: np.ndarray,
                 eps: float, step: float, iters: int) -> np.ndarray:
    """Ascent on the batch loss inside an L-inf ball around the clean batch.

    The perturbation is re-projected onto the ball after every iteration.
    """
    delta = np.zeros_like(Xb)
    for _ in range(iters):
        binds["x"] = Xb + delta
        gx = graph.value_and_grad(binds, wrt=("x",), check=False)[1]["x"]
        delta = np.clip(delta + step * np.sign(gx), -eps, eps)
    return Xb + delta


def train(model: Model, dataset: Dataset,
          config: TrainConfig) -> tuple[Model, dict]:
    """Fit with adaptive moments and the plateau schedule; keep the epoch
    whose validation loss was best. Returns (fitted model, history)."""
    Xtr, ytr = dataset.split("train")
    Xva, yva = dataset.split("validation")
    # the fitted parameters are views of the fit's (1, P) array
    flat, stacked = flat_params({k: v[None] for k, v in model.params.items()})
    fitted = replace(model, params={k: v[0] for k, v in stacked.items()})
    params = fitted.params
    grad, grad_views = flat_params(stacked)  # laid out as the parameters
    run = Run("model training", substream(config.seed, "model-train.shuffle"),
              PlateauSchedule(config.patience, config.min_delta,
                              config.lr_floor), config.lr)
    graph_for = dc.graphs(lambda b: _loss(fitted, (b,) + Xtr.shape[1:]))

    eps = config.pgd_eps if config.adversarial else 0.0
    step = config.pgd_step if config.pgd_step is not None else eps / 4.0
    for arr in (Xtr, ytr, Xva, yva, *params.values()):
        dc.tensor(arr)  # checked once: the sweeps, PGD's too, skip it

    def loss_and_grad(idx):
        rows = idx[0]
        Xb = Xtr[rows]
        g = graph_for(len(rows))
        binds = {**params, "y": ytr[rows]}
        if eps > 0:
            Xb = _pgd_perturb(g, dict(binds), Xb, eps, step, config.pgd_iters)
        binds["x"] = Xb
        loss, grads = g.value_and_grad(binds, wrt=params, check=False)
        for k, v in grads.items():
            np.copyto(grad_views[k][0], v)
        return [loss], grad

    def val_loss():
        return [graph_for(len(Xva)).evaluate({**params, "x": Xva, "y": yva},
                                             check=False)]

    fit_stack(flat, loss_and_grad, val_loss, len(Xtr), config.batch_size,
              config.max_epochs, [run], Adam(flat))
    if run.error is not None:
        raise TrainingError(run.error)
    return fitted, run.history


def shuffle_layer(model: Model, layer_index: int,
                  rng: np.random.Generator) -> Model:
    """Copy of the model with one layer's weight entries permuted.

    The permutation preserves the weight multiset; the input model is left
    untouched.
    """
    layers = model.layer_names()
    if not 0 <= layer_index < len(layers):
        raise GraphError(f"layer index {layer_index} out of range "
                         f"(model has {len(layers)} layers)")
    params = {k: v.copy() for k, v in model.params.items()}
    w = params[layers[layer_index]]
    params[layers[layer_index]] = rng.permutation(w.ravel()).reshape(w.shape)
    return replace(model, params=params)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_model(model: Model, path) -> None:
    doc = {
        "schema": "mindkit.model/1",
        "kind": model.kind,
        "output": model.output,
        "input_dim": model.input_dim,
        "seq_len": model.seq_len,
        "hidden": list(model.hidden),
        "dilations": list(model.dilations),
        "kernel_size": model.kernel_size,
        "seed": model.seed,
        "params": {k: {"shape": list(v.shape), "data": v.ravel().tolist()}
                   for k, v in model.params.items()},
    }
    schemas.write_json(path, doc)


def load_model(path) -> Model:
    doc = schemas.read_json(path, expect="mindkit.model/1")
    try:
        params = {k: np.array(v["data"], dtype=np.float64).reshape(v["shape"])
                  for k, v in doc["params"].items()}
        return Model(doc["kind"], doc["output"], doc["input_dim"],
                     doc["seq_len"], params, hidden=tuple(doc["hidden"]),
                     dilations=tuple(doc["dilations"]),
                     kernel_size=doc["kernel_size"], seed=doc["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model checkpoint {path}: {exc!r}") from exc
