"""Parameterized input transformations whose fitted parameters expose
what a model ignores.

Three families:

* gating: per-feature multiplicative gates in [0, 1] plus an optional
  unconstrained per-feature intercept. A gate near 0 marks a feature the
  model is invariant to.
* residual: two convolutional residual blocks acting along time; free-form,
  interpreted afterwards through correlation profiles rather than gates.
* basis gating: each feature's series is split into interpretable temporal
  channels (orthonormal-basis projections, or disjoint time windows) and
  each channel gets its own gate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import schemas
from .errors import DataError, GraphError

GATE_INIT_NOISE = 0.02
RESIDUAL_KERNEL = 5
RESIDUAL_BLOCKS = 2
RESIDUAL_HIDDEN_SCALE = 3


def clip01(arr: np.ndarray) -> np.ndarray:
    """Box projection onto [0, 1]; idempotent."""
    return np.minimum(np.maximum(arr, 0.0), 1.0)


# ---------------------------------------------------------------------------
# temporal bases
# ---------------------------------------------------------------------------


@dataclass
class BasisSet:
    """Orthonormal temporal directions plus channel-routing metadata.

    chebyshev: the first K polynomials sampled on a uniform grid and
    re-orthonormalized discretely; with `residual_channel` on, encoding adds
    the projection remainder as a final channel so decoding is lossless.
    pulse: K contiguous equal windows with unit-norm indicator vectors;
    gating routes each window's full signal, so the split is lossless by
    construction.
    """

    kind: str
    vectors: np.ndarray          # (K, T), rows orthonormal
    residual_channel: bool

    @property
    def K(self) -> int:
        return self.vectors.shape[0]

    @property
    def T(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_channels(self) -> int:
        return self.K + (1 if self.residual_channel else 0)

    def channel_names(self) -> list[str]:
        if self.kind == "chebyshev":
            names = ["mean", "linear", "quadratic"][:self.K]
            names += [f"poly{k}" for k in range(3, self.K)]
            if self.residual_channel:
                names.append("residual")
            return names
        return [f"window{k}" for k in range(self.K)]


def make_basis(kind: str, T: int, K: int | None = None,
               residual_channel: bool | None = None) -> BasisSet:
    """Construct an orthonormal temporal basis of length T."""
    if kind == "chebyshev":
        K = 3 if K is None else int(K)
        if not 1 <= K <= T:
            raise GraphError(f"need 1 <= K <= T, got K={K}, T={T}")
        grid = np.linspace(-1.0, 1.0, T)
        raw = np.stack([np.polynomial.chebyshev.Chebyshev.basis(k)(grid)
                        for k in range(K)])
        vectors = _orthonormalize(raw)
        residual = True if residual_channel is None else residual_channel
        return BasisSet("chebyshev", vectors, residual)
    if kind == "pulse":
        K = 4 if K is None else int(K)
        if K < 1 or T % K != 0:
            raise GraphError(f"pulse basis needs K dividing T, got K={K}, T={T}")
        if residual_channel:
            raise GraphError("pulse basis takes no residual channel: its "
                             "window routing is already lossless")
        width = T // K
        vectors = np.zeros((K, T))
        for k in range(K):
            vectors[k, k * width:(k + 1) * width] = 1.0 / np.sqrt(width)
        return BasisSet("pulse", vectors, False)
    raise GraphError(f"unknown basis kind {kind!r}")


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on the row vectors."""
    out = rows.astype(np.float64).copy()
    for i in range(len(out)):
        for j in range(i):
            out[i] -= (out[i] @ out[j]) * out[j]
        nrm = np.linalg.norm(out[i])
        if nrm < 1e-12:
            raise GraphError("basis rows are linearly dependent")
        out[i] /= nrm
    return out


def encode(basis: BasisSet, x: np.ndarray) -> np.ndarray:
    """Project one series onto the basis: component k = <x, a_k> a_k.

    With the residual channel enabled a final component x - sum(components)
    is appended, which makes decode(encode(x)) exact.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (basis.T,):
        raise GraphError(f"encode expects a series of length {basis.T}")
    coeffs = basis.vectors @ x
    comps = coeffs[:, None] * basis.vectors
    if basis.residual_channel:
        comps = np.vstack([comps, x - comps.sum(axis=0)])
    return comps


def decode(components: np.ndarray) -> np.ndarray:
    """Sum the component series back into one series."""
    components = np.asarray(components, dtype=np.float64)
    if components.ndim != 2:
        raise GraphError("decode expects a (channels, T) array")
    return components.sum(axis=0)


def window_split(basis: BasisSet, x: np.ndarray) -> np.ndarray:
    """Route the full signal through disjoint windows: component k = x * 1_k.

    Only defined for the pulse basis; the components sum to x exactly.
    """
    if basis.kind != "pulse":
        raise GraphError("window routing is only defined for the pulse basis")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (basis.T,):
        raise GraphError(f"window_split expects a series of length {basis.T}")
    masks = (basis.vectors > 0).astype(np.float64)
    return masks * x[None, :]


def gating_channels(basis: BasisSet, X: np.ndarray) -> np.ndarray:
    """Lossless per-feature channel stack actually scaled by the gates.

    X is (B, d, T); the result is (B, d * C, T) ordered feature-major.
    chebyshev uses basis projections plus the residual channel; pulse uses
    window routing. Either way the channels of one feature sum back to the
    original series.
    """
    B, d, T = X.shape
    if T != basis.T:
        raise GraphError(f"basis built for T={basis.T}, data has T={T}")
    if basis.kind == "pulse":
        masks = (basis.vectors > 0).astype(np.float64)
        comps = X[:, :, None, :] * masks[None, None, :, :]
    else:
        coeffs = np.einsum("bdt,kt->bdk", X, basis.vectors)
        comps = coeffs[:, :, :, None] * basis.vectors[None, None, :, :]
        if basis.residual_channel:
            resid = X - comps.sum(axis=2)
            comps = np.concatenate([comps, resid[:, :, None, :]], axis=2)
    C = comps.shape[2]
    return comps.reshape(B, d * C, T)


# ---------------------------------------------------------------------------
# transform families
# ---------------------------------------------------------------------------


def _near_one(rng: np.random.Generator, shape) -> np.ndarray:
    """Near-identity gates: 1 jittered by N(0, 0.02^2), clamped."""
    return clip01(1.0 + rng.normal(0.0, GATE_INIT_NOISE, shape))


def _array(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


class Transform:
    """What the fitting loop asks of a family; it never asks which one.

    `kind` names the family, `gate_key` the parameter clamped to [0, 1]
    (None without gates), `score_kind` what restarts report, and `seq_only`
    whether it takes sequences only. `params` maps graph parameter names to
    the live arrays; `graph(x, p)` builds x' from the input node and
    parameter nodes (leaves when fitting, constants when applying);
    `extra(X)` binds any other leaf the graph reads. `stacks` says whether
    restarts fit as one stacked problem, which pays only where the
    parameters broadcast over the stacked batch: then `graph` also takes
    `restarts` (see GatingTransform.graph).
    """

    gate_key: str | None = None
    seq_only = True
    stacks = False

    def extra(self, X: np.ndarray) -> dict[str, np.ndarray]:
        return {}

    def decay_keys(self) -> tuple:
        # Weight decay never touches gates (it would bias scores toward 0).
        # It does cover intercepts and residual conv weights: an undecayed
        # intercept can buy the whole similarity reduction by drifting far
        # from the identity while every gate stays parked at 1.
        return tuple(k for k in self.params if k == "b" or k.endswith("_w"))


@dataclass
class GatingTransform(Transform):
    """x -> g * x + b with g in [0, 1]^d; b optional and unconstrained."""

    g: np.ndarray
    b: np.ndarray
    intercept: bool = True
    kind, gate_key, score_kind, seq_only = "gating", "g", "gates", False
    stacks = True

    @property
    def d(self) -> int:
        return self.g.shape[0]

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"g": self.g, "b": self.b} if self.intercept else {"g": self.g}

    def graph(self, x: dc.Node, p: dict[str, dc.Node],
              restarts: int = 1) -> dc.Node:
        """x' for the batch x under parameters p.

        With `restarts` R, x stacks R batches of equal size, restart r's
        rows in block r, and every node in p has a leading axis of length R
        whose slot r is restart r's parameter; x' stacks the same way.
        """
        # gates (R, 1, d) against rows (R, B, d); a sequence's gate, shaped
        # (R, 1, d, 1), covers all its times
        R = restarts
        lead = (R, 1, self.d) + (1,) * (len(x.shape) - 2)
        out = dc.mul(dc.reshape(x, (R, x.shape[0] // R) + x.shape[1:]),
                     dc.reshape(p["g"], lead))
        if "b" in p:
            out = dc.add(out, dc.reshape(p["b"], lead))
        return dc.reshape(out, x.shape)

    @classmethod
    def init(cls, spec, d, seq_len, rng):
        return cls(_near_one(rng, d), np.zeros(d), intercept=spec.intercept)

    def to_doc(self) -> dict:
        return {"intercept": self.intercept,
                "params": {"g": self.g.tolist(), "b": self.b.tolist()}}

    @classmethod
    def from_doc(cls, doc):
        p = doc["params"]
        return cls(_array(p["g"]), _array(p["b"]), intercept=doc["intercept"])


@dataclass
class ResidualTransform(Transform):
    """Stacked residual blocks x + conv2(relu(normalize(conv1(x)))).

    conv1 maps d -> hidden channels (kernel 5, same padding, no bias);
    conv2 maps back with a bias. Zero conv2 weights give the identity map.
    """

    params: dict[str, np.ndarray]
    d: int
    hidden: int
    blocks: int = RESIDUAL_BLOCKS
    kernel: int = RESIDUAL_KERNEL
    kind, score_kind = "residual", "correlation"

    def graph(self, x: dc.Node, p: dict[str, dc.Node]) -> dc.Node:
        pad = (self.kernel - 1) // 2
        h = x
        for i in range(self.blocks):
            inner = dc.conv1d(h, p[f"block{i}_conv1_w"], padding=pad)
            inner = dc.relu(dc.normalize(inner))
            inner = dc.conv1d(inner, p[f"block{i}_conv2_w"], padding=pad)
            inner = dc.add(inner, dc.reshape(p[f"block{i}_conv2_b"],
                                             (self.d, 1)))
            h = dc.add(h, inner)
        return h

    @classmethod
    def init(cls, spec, d, seq_len, rng):
        if seq_len is None:
            raise GraphError("residual transform requires sequence data")
        hidden = RESIDUAL_HIDDEN_SCALE * d
        params: dict[str, np.ndarray] = {}
        for i in range(RESIDUAL_BLOCKS):
            fan_in = d * RESIDUAL_KERNEL
            params[f"block{i}_conv1_w"] = rng.normal(
                0.0, np.sqrt(2.0 / fan_in), (hidden, d, RESIDUAL_KERNEL))
            params[f"block{i}_conv2_w"] = rng.normal(
                0.0, GATE_INIT_NOISE, (d, hidden, RESIDUAL_KERNEL))
            params[f"block{i}_conv2_b"] = np.zeros(d)
        return cls(params, d, hidden)

    def to_doc(self) -> dict:
        return {"d": self.d, "hidden": self.hidden, "blocks": self.blocks,
                "kernel": self.kernel,
                "params": {k: {"shape": list(v.shape),
                               "data": v.ravel().tolist()}
                           for k, v in self.params.items()}}

    @classmethod
    def from_doc(cls, doc):
        params = {k: _array(v["data"]).reshape(v["shape"])
                  for k, v in doc["params"].items()}
        return cls(params, doc["d"], doc["hidden"], doc["blocks"],
                   doc["kernel"])


@dataclass
class BasisGatingTransform(Transform):
    """One gate per (feature, temporal channel of `basis`), optional
    per-feature intercept."""

    gates: np.ndarray            # (d, C) in [0, 1]
    b: np.ndarray                # (d,)
    basis: BasisSet
    intercept: bool = False
    kind, gate_key, score_kind = "basis", "gates", "gates_by_channel"

    def __post_init__(self):
        if self.gates.shape[1] != self.basis.n_channels:
            raise GraphError("transform and basis disagree on channel count")

    @property
    def d(self) -> int:
        return self.gates.shape[0]

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"gates": self.gates, "b": self.b} if self.intercept \
            else {"gates": self.gates}

    def extra(self, X: np.ndarray) -> dict[str, np.ndarray]:
        return {"z": gating_channels(self.basis, X)}

    def graph(self, x: dc.Node, p: dict[str, dc.Node]) -> dc.Node:
        """Gate the channel stack z with a grouped kernel-1 convolution."""
        d, C = self.d, self.basis.n_channels
        z = dc.leaf("z", (x.shape[0], d * C, x.shape[2]))
        out = dc.conv1d(z, dc.reshape(p["gates"], (d, C, 1)), groups=d)
        if "b" in p:
            out = dc.add(out, dc.reshape(p["b"], (d, 1)))
        return out

    @classmethod
    def init(cls, spec, d, seq_len, rng):
        basis = spec.basis
        if seq_len is None:
            raise GraphError("basis transform requires sequence data")
        if basis.T != seq_len:
            raise GraphError(
                f"basis built for T={basis.T}, data has T={seq_len}")
        return cls(_near_one(rng, (d, basis.n_channels)), np.zeros(d), basis,
                   intercept=spec.intercept)

    def to_doc(self) -> dict:
        basis = self.basis
        return {"intercept": self.intercept,
                "basis": {"kind": basis.kind, "K": basis.K, "T": basis.T,
                          "residual_channel": basis.residual_channel},
                "params": {"gates": self.gates.tolist(),
                           "b": self.b.tolist()}}

    @classmethod
    def from_doc(cls, doc):
        info, p = doc["basis"], doc["params"]
        basis = make_basis(info["kind"], info["T"], info["K"],
                           info["residual_channel"])
        return cls(_array(p["gates"]), _array(p["b"]), basis,
                   intercept=doc["intercept"])


TRANSFORMS = {cls.kind: cls for cls in (GatingTransform, ResidualTransform,
                                        BasisGatingTransform)}


@dataclass
class TransformSpec:
    """Which family to fit, and its structural options."""

    kind: str = "gating"
    intercept: bool = True
    basis: BasisSet | None = None

    def __post_init__(self):
        if self.kind not in TRANSFORMS:
            raise GraphError(f"unknown transform kind {self.kind!r}")
        if self.kind == "basis" and self.basis is None:
            raise GraphError("basis transform requires a BasisSet")


def init_transform(spec: TransformSpec, d: int, seq_len: int | None,
                   rng: np.random.Generator):
    """Near-identity start: gates at 1 jittered by N(0, 0.02^2), clamped;
    residual conv2 weights near 0."""
    return TRANSFORMS[spec.kind].init(spec, d, seq_len, rng)


def apply_transform(t, X: np.ndarray, seq: bool | None = None) -> np.ndarray:
    """Transform one instance or a batch; features live on axis 0 of a
    single instance and axis 1 of a batch.

    Residual and basis transforms take sequences only. For gating, a
    square 2-D input is ambiguous; pass seq=True for one (d, T) sequence
    or seq=False for a (B, d) batch. Left to infer, a 2-D input whose
    leading axis matches d reads as a single sequence.
    """
    X = np.asarray(X, dtype=np.float64)
    if t.seq_only and X.ndim not in (2, 3):
        raise GraphError("expected 2-D or 3-D input")
    seq = True if t.seq_only else seq
    if X.ndim == 1:
        Xb, single = X[None], True
    elif X.ndim == 3:
        Xb, single = X, False
    elif X.ndim == 2 and (seq or (seq is None and X.shape[0] == t.d)):
        Xb, single = X[None], True
    elif X.ndim == 2 and X.shape[1] == t.d:
        Xb, single = X, False
    else:
        raise GraphError(f"{t.kind} transform expects {t.d} features")
    if Xb.shape[1] != t.d:
        raise GraphError(f"{t.kind} transform expects {t.d} features")
    out = t.graph(dc.leaf("x", Xb.shape),
                  {k: dc.constant(v) for k, v in t.params.items()})
    val = dc.Graph(out).evaluate({"x": Xb, **t.extra(Xb)})
    return val[0] if single else val


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_transform(t, path) -> None:
    doc = {"schema": "mindkit.transform/1", "kind": t.kind, **t.to_doc()}
    schemas.write_json(path, doc)


def load_transform(path):
    doc = schemas.read_json(path, expect="mindkit.transform/1")
    try:
        return TRANSFORMS[doc["kind"]].from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed transform checkpoint {path}: {exc!r}") from exc
