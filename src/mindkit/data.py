"""Dataset container, CSV round-trip, and synthetic-data generation.

Features are z-scored with statistics computed on the training split only;
the raw values are kept alongside so files round-trip bit-exactly.
"""
from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import schemas
from .errors import DataError, require_finite

SPLIT_NAMES = ("train", "validation", "test")


def substream(seed: int, label: str) -> np.random.Generator:
    """One named RNG stream; every consumer derives from a single root seed."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), key]))


@dataclass
class Dataset:
    """Instances with labels, named splits, and train-split normalization."""

    X_raw: np.ndarray                  # (n, d) or (n, d, T)
    y: np.ndarray                      # (n,)
    splits: dict[str, np.ndarray]      # split name -> instance indices
    feature_names: list[str]
    instance_ids: list[str]
    task: str                          # "classification" | "regression"
    norm_mean: np.ndarray = field(init=False)
    norm_std: np.ndarray = field(init=False)
    X: np.ndarray = field(init=False)  # normalized features

    def __post_init__(self):
        if self.task not in ("classification", "regression"):
            raise DataError(f"unknown task {self.task!r}")
        if self.X_raw.ndim not in (2, 3):
            raise DataError("features must be (n, d) or (n, d, T)")
        if len(self.y) != len(self.X_raw):
            raise DataError("label count does not match instance count")
        for name in self.splits:
            if name not in SPLIT_NAMES:
                raise DataError(f"unknown split name {name!r}")
        if "train" not in self.splits or len(self.splits["train"]) == 0:
            raise DataError("a non-empty train split is required")
        train = self.X_raw[self.splits["train"]]
        axes = (0,) if train.ndim == 2 else (0, 2)
        self.norm_mean = train.mean(axis=axes)
        std = train.std(axis=axes)
        self.norm_std = np.where(std < 1e-12, 1.0, std)
        if self.X_raw.ndim == 2:
            self.X = (self.X_raw - self.norm_mean) / self.norm_std
        else:
            self.X = ((self.X_raw - self.norm_mean[:, None])
                      / self.norm_std[:, None])

    @property
    def n(self) -> int:
        return self.X_raw.shape[0]

    @property
    def d(self) -> int:
        return self.X_raw.shape[1]

    @property
    def seq_len(self) -> int | None:
        return self.X_raw.shape[2] if self.X_raw.ndim == 3 else None

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        idx = self.splits.get(name)
        if idx is None or len(idx) == 0:
            raise DataError(f"split {name!r} is missing or empty")
        return self.X[idx], self.y[idx]


def from_arrays(X, y, splits, feature_names=None, instance_ids=None,
                task="classification") -> Dataset:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    names = feature_names or [f"f{j}" for j in range(X.shape[1])]
    ids = instance_ids or [f"i{k:05d}" for k in range(X.shape[0])]
    splits = {k: np.asarray(v, dtype=int) for k, v in splits.items()}
    return Dataset(X, y, splits, list(names), list(ids), task)


# ---------------------------------------------------------------------------
# CSV + sidecar persistence
# ---------------------------------------------------------------------------


def save_dataset(ds: Dataset, data_path, sidecar_path) -> None:
    """Write raw feature values (full float precision) plus the JSON sidecar."""
    seq = ds.seq_len
    header = ["instance_id"] + (["timestamp"] if seq else []) \
        + ds.feature_names + ["label"]
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, iid in enumerate(ds.instance_ids):
            if seq:
                for t in range(seq):
                    row = [iid, t] + [repr(float(v)) for v in ds.X_raw[i, :, t]]
                    writer.writerow(row + [repr(float(ds.y[i]))])
            else:
                row = [iid] + [repr(float(v)) for v in ds.X_raw[i]]
                writer.writerow(row + [repr(float(ds.y[i]))])
    sidecar = {
        "schema": "mindkit.dataset/1",
        "task": ds.task,
        "splits": {k: [ds.instance_ids[i] for i in v]
                   for k, v in ds.splits.items()},
    }
    schemas.write_json(sidecar_path, sidecar)


def load_dataset(data_path, sidecar_path) -> Dataset:
    sidecar = schemas.read_json(sidecar_path, expect="mindkit.dataset/1")
    with open(data_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{data_path} is empty") from None
        rows = list(reader)
    if not header or header[0] != "instance_id" or header[-1] != "label":
        raise DataError("header must run instance_id[,timestamp],<features>,label")
    has_time = len(header) > 1 and header[1] == "timestamp"
    feat_names = header[(2 if has_time else 1):-1]
    if not feat_names:
        raise DataError("no feature columns found")

    per_inst: dict[str, list] = {}
    labels: dict[str, float] = {}
    order: list[str] = []
    for ln, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{data_path}:{ln}: expected {len(header)} fields, got {len(row)}")
        iid = row[0]
        try:
            vals = [float(v) for v in row[(2 if has_time else 1):-1]]
            label = float(row[-1])
            t = int(row[1]) if has_time else 0
        except ValueError as exc:
            raise DataError(f"{data_path}:{ln}: non-numeric value") from exc
        if not (math.isfinite(label) and all(map(math.isfinite, vals))):
            raise DataError(f"{data_path}:{ln}: non-finite value")
        if iid not in per_inst:
            per_inst[iid] = []
            order.append(iid)
            labels[iid] = label
        elif labels[iid] != label:
            raise DataError(f"instance {iid!r} has conflicting labels")
        per_inst[iid].append((t, vals))

    counts = {len(v) for v in per_inst.values()}
    if len(counts) != 1:
        raise DataError("instances have inconsistent timestamp counts")
    rows_per = counts.pop()
    if has_time:
        tsets = {tuple(sorted(t for t, _ in v)) for v in per_inst.values()}
        if len(tsets) != 1:
            raise DataError("instances have inconsistent timestamp sets")
    elif rows_per != 1:
        raise DataError("duplicate instance rows in a non-temporal file")

    n, d = len(order), len(feat_names)
    if has_time:
        X = np.empty((n, d, rows_per))
        for i, iid in enumerate(order):
            for k, (_, vals) in enumerate(sorted(per_inst[iid])):
                X[i, :, k] = vals
    else:
        X = np.array([per_inst[iid][0][1] for iid in order])
    y = np.array([labels[iid] for iid in order])

    id_index = {iid: i for i, iid in enumerate(order)}
    splits = {}
    seen: set[str] = set()
    for name, ids in sidecar["splits"].items():
        unknown = [i for i in ids if i not in id_index]
        if unknown:
            raise DataError(f"split {name!r} references unknown ids {unknown[:3]}")
        overlap = seen.intersection(ids)
        if overlap:
            raise DataError(f"ids assigned to more than one split: {sorted(overlap)[:3]}")
        seen.update(ids)
        splits[name] = np.array([id_index[i] for i in ids], dtype=int)
    return Dataset(X, y, splits, feat_names, order, sidecar["task"])


# ---------------------------------------------------------------------------
# synthetic data with planted invariances
# ---------------------------------------------------------------------------


@dataclass
class SyntheticSpec:
    """Recipe for a labeled dataset whose invariance structure is known.

    `planted` names base features whose generating weight is exactly zero.
    `duplicates` lists (src, dup) pairs where the dup column is a copy of the
    src column; both receive the same generating weight so perfectly
    collinear features are exchangeable. `missing` names features that get a
    paired binary indicator channel: masked entries are zeroed in the value
    channel and flagged 1 in the indicator, which enters the generating
    model with weight `indicator_beta`.
    """

    n: int
    d: int
    seq_len: int | None = None
    task: str = "classification"
    beta: list[float] | None = None
    planted: tuple[int, ...] = ()
    duplicates: tuple[tuple[int, int], ...] = ()
    missing: tuple[int, ...] = ()
    missing_rate: float = 0.2
    indicator_beta: float = 0.0
    label_noise: float = 0.0
    strong_lo: float = 1.0
    strong_hi: float = 2.0
    split_fracs: tuple[float, float, float] = (0.7, 0.15, 0.15)
    seed: int = 0

    def validate(self) -> None:
        if self.n < 3 or self.d < 1:
            raise DataError("need n >= 3 and d >= 1")
        require_finite(self, DataError)
        if self.beta is not None and not all(map(math.isfinite, self.beta)):
            raise DataError(f"beta must be finite, got {list(self.beta)}")
        if self.strong_lo > self.strong_hi:
            raise DataError("strong_lo must not exceed strong_hi")
        if self.label_noise < 0:
            raise DataError("label_noise must be nonnegative")
        if not all(0.0 <= f <= 1.0 for f in self.split_fracs) \
                or math.fsum(self.split_fracs) > 1.0:
            raise DataError("split_fracs must lie in [0, 1] and sum to at "
                            f"most 1, got {list(self.split_fracs)}")
        for j in self.planted:
            if not 0 <= j < self.d:
                raise DataError(f"planted index {j} out of range")
        for pair in self.duplicates:
            j, k = pair
            if not (0 <= j < self.d and 0 <= k < self.d) or j == k:
                raise DataError(f"bad duplicate pair {pair}")
        for j in self.missing:
            if not 0 <= j < self.d:
                raise DataError(f"missing index {j} out of range")
        if self.beta is not None:
            if len(self.beta) != self.d:
                raise DataError("beta length must equal d")
            for j in self.planted:
                if self.beta[j] != 0.0:
                    raise DataError(f"planted feature {j} must have zero weight")
        if not 0.0 <= self.missing_rate < 1.0:
            raise DataError("missing_rate must be in [0, 1)")
        if self.seq_len is not None and self.seq_len < 2:
            raise DataError("seq_len must be at least 2")


def _draw_beta(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.beta is not None:
        beta = np.asarray(spec.beta, dtype=np.float64).copy()
    else:
        mags = rng.uniform(spec.strong_lo, spec.strong_hi, spec.d)
        signs = rng.choice([-1.0, 1.0], spec.d)
        beta = mags * signs
        beta[list(spec.planted)] = 0.0
    for j, k in spec.duplicates:
        beta[k] = beta[j]
    return beta


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, dict]:
    """Build a dataset plus a ground-truth manifest of its invariances."""
    spec.validate()
    rng_x = substream(spec.seed, "synthetic.features")
    rng_b = substream(spec.seed, "synthetic.beta")
    rng_m = substream(spec.seed, "synthetic.missing")
    rng_y = substream(spec.seed, "synthetic.labels")
    rng_s = substream(spec.seed, "synthetic.splits")

    n, d, T = spec.n, spec.d, spec.seq_len
    beta = _draw_beta(spec, rng_b)

    if T is None:
        X = rng_x.standard_normal((n, d))
    else:
        const = rng_x.standard_normal((n, d))[:, :, None]
        amp = rng_x.uniform(0.5, 1.0, (n, d))[:, :, None]
        freq = rng_x.integers(1, 3, (n, d))[:, :, None]
        phase = rng_x.uniform(0.0, 2 * np.pi, (n, d))[:, :, None]
        t = np.arange(T)[None, None, :] / T
        X = const + amp * np.sin(2 * np.pi * freq * t + phase)
        X += 0.3 * rng_x.standard_normal((n, d, T))
    for j, k in spec.duplicates:
        X[:, k] = X[:, j]

    names = [f"f{j}" for j in range(d)]
    indicator_cols = []
    for j in spec.missing:
        if T is None:
            mask = rng_m.random(n) < spec.missing_rate
            X[mask, j] = 0.0
            indicator_cols.append(mask.astype(np.float64))
        else:
            mask = rng_m.random((n, T)) < spec.missing_rate
            X[:, j, :][mask] = 0.0
            indicator_cols.append(mask.astype(np.float64))
        names.append(f"f{j}_miss")
    if indicator_cols:
        ind = np.stack(indicator_cols, axis=1)
        X = np.concatenate([X, ind], axis=1)

    weights = np.concatenate(
        [beta, np.full(len(spec.missing), spec.indicator_beta)])
    pooled = X.mean(axis=2) if T is not None else X
    z = pooled @ weights
    if spec.task == "classification":
        y = (z > 0).astype(np.float64)
        if spec.label_noise > 0:
            flips = rng_y.random(n) < spec.label_noise
            y[flips] = 1.0 - y[flips]
    else:
        y = z + spec.label_noise * rng_y.standard_normal(n)

    perm = rng_s.permutation(n)
    n_tr = max(1, int(round(spec.split_fracs[0] * n)))
    n_va = max(1, int(round(spec.split_fracs[1] * n)))
    if n_tr >= n:
        raise DataError(f"split_fracs {list(spec.split_fracs)} leave no "
                        f"validation rows: the train split takes all {n}")
    splits = {
        "train": perm[:n_tr],
        "validation": perm[n_tr:n_tr + n_va],
        "test": perm[n_tr + n_va:],
    }
    if len(splits["test"]) == 0:
        splits.pop("test")

    ds = from_arrays(X, y, splits, feature_names=names, task=spec.task)
    truth = {
        "schema": "mindkit.truth/1",
        "seed": spec.seed,
        "task": spec.task,
        "feature_names": names,
        "weights": [float(w) for w in weights],
        "invariant_features": [j for j, w in enumerate(weights) if w == 0.0],
        "strong_features": [j for j, w in enumerate(weights) if abs(w) >= 1.0],
        "planted": [int(j) for j in spec.planted],
        "duplicates": [[int(j), int(k)] for j, k in spec.duplicates],
        "missing_indicator_of": {f"f{j}_miss": int(j) for j in spec.missing},
        "missing_rate": float(spec.missing_rate) if spec.missing else 0.0,
        "label_noise": float(spec.label_noise),
        "n": int(n),
        "seq_len": None if T is None else int(T),
    }
    return ds, truth
