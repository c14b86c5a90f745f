"""Versioned JSON schemas for every artifact the pipeline reads or writes.

Each artifact embeds its schema id in a top-level "schema" field, e.g.
"mindkit.report/2". Floats that would not survive strict JSON (NaN,
infinities) are written as null, so numeric fields generally admit null.
"""
from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .errors import DataError


def jsonsafe(value):
    """Recursively convert numpy scalars/arrays and non-finite floats so the
    result serializes as strict JSON (NaN and infinities become null)."""
    if isinstance(value, dict):
        return {k: jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonsafe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonsafe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value

_NUM = {"type": ["number", "null"]}
_NUMS = {"type": "array", "items": _NUM}
_NUM_GRID = {"type": "array", "items": _NUMS}
_STRS = {"type": "array", "items": {"type": "string"}}
_INTS = {"type": "array", "items": {"type": "integer"}}

_ARRAY_BLOB = {
    "type": "object",
    "required": ["shape", "data"],
    "properties": {"shape": _INTS, "data": _NUMS},
}

SCHEMAS: dict[str, dict] = {
    "mindkit.dataset/1": {
        "type": "object",
        "required": ["schema", "task", "splits"],
        "properties": {
            "schema": {"const": "mindkit.dataset/1"},
            "task": {"enum": ["classification", "regression"]},
            "splits": {
                "type": "object",
                "additionalProperties": _STRS,
            },
        },
    },
    "mindkit.truth/1": {
        "type": "object",
        "required": ["schema", "task", "feature_names", "weights",
                     "invariant_features", "strong_features", "duplicates"],
        "properties": {
            "schema": {"const": "mindkit.truth/1"},
            "task": {"enum": ["classification", "regression"]},
            "feature_names": _STRS,
            "weights": _NUMS,
            "invariant_features": _INTS,
            "strong_features": _INTS,
            "planted": _INTS,
            "duplicates": {"type": "array", "items": _INTS},
            "missing_indicator_of": {"type": "object"},
            "seed": {"type": "integer"},
            "n": {"type": "integer"},
            "seq_len": {"type": ["integer", "null"]},
        },
    },
    "mindkit.model/1": {
        "type": "object",
        "required": ["schema", "kind", "output", "input_dim", "seq_len",
                     "params"],
        "properties": {
            "schema": {"const": "mindkit.model/1"},
            "kind": {"enum": ["linear", "mlp", "seqconv"]},
            "output": {"enum": ["probability", "regression", "gaussian"]},
            "input_dim": {"type": "integer"},
            "seq_len": {"type": ["integer", "null"]},
            "hidden": _INTS,
            "dilations": _INTS,
            "kernel_size": {"type": "integer"},
            "seed": {"type": ["integer", "null"]},
            "params": {"type": "object", "additionalProperties": _ARRAY_BLOB},
        },
    },
    "mindkit.transform/1": {
        "type": "object",
        "required": ["schema", "kind", "params"],
        "properties": {
            "schema": {"const": "mindkit.transform/1"},
            "kind": {"enum": ["gating", "residual", "basis"]},
            "params": {"type": "object"},
            "intercept": {"type": "boolean"},
            "basis": {
                "type": "object",
                "required": ["kind", "K", "T"],
                "properties": {
                    "kind": {"enum": ["chebyshev", "pulse"]},
                    "K": {"type": "integer"},
                    "T": {"type": "integer"},
                    "residual_channel": {"type": "boolean"},
                },
            },
        },
    },
    "mindkit.report/2": {
        "type": "object",
        "required": ["schema", "score_kind", "lambda", "features",
                     "score_mean", "score_std", "correlation_mean",
                     "correlation_std", "correlation_undefined", "restarts",
                     "config"],
        "properties": {
            "schema": {"const": "mindkit.report/2"},
            "score_kind": {"enum": ["gates", "gates_by_channel",
                                    "correlation"]},
            "lambda": _NUM,
            "features": _STRS,
            "score_mean": _NUMS,
            "score_std": _NUMS,
            "correlation_mean": _NUMS,
            "correlation_std": _NUMS,
            "correlation_undefined": _INTS,
            "channels": {
                "type": "object",
                "required": ["names", "score_mean", "score_std"],
                "properties": {"names": _STRS, "score_mean": _NUM_GRID,
                               "score_std": _NUM_GRID},
            },
            "restarts": {
                "type": "object",
                "required": ["selected", "failed", "runs"],
                "properties": {
                    "selected": _INTS,
                    "failed": _INTS,
                    "runs": {"type": "array", "items": {"type": "object"}},
                },
            },
            "config": {"type": "object"},
        },
    },
    "mindkit.train/1": {
        "type": "object",
        "required": ["schema", "kind", "history"],
        "properties": {
            "schema": {"const": "mindkit.train/1"},
            "kind": {"type": "string"},
            "adversarial": {"type": "boolean"},
            "history": {
                "type": "object",
                "required": ["train_loss", "val_loss"],
                "properties": {"train_loss": _NUMS, "val_loss": _NUMS,
                               "lr": _NUMS},
            },
        },
    },
    "mindkit.tune/1": {
        "type": "object",
        "required": ["schema", "lambda", "feasible", "trace"],
        "properties": {
            "schema": {"const": "mindkit.tune/1"},
            "lambda": _NUM,
            "feasible": {"type": "boolean"},
            "trace": {"type": "array", "items": {
                "type": "object",
                "required": ["lambda", "w1", "cosine", "feasible"],
            }},
        },
    },
    "mindkit.oracle/1": {
        "type": "object",
        "required": ["schema", "lambda", "gates", "degenerate"],
        "properties": {
            "schema": {"const": "mindkit.oracle/1"},
            "lambda": _NUM,
            "gates": _NUMS,
            "unclamped": _NUMS,
            "degenerate": {"type": "boolean"},
        },
    },
    "mindkit.sanity/2": {
        "type": "object",
        "required": ["schema", "baseline", "layers"],
        "properties": {
            "schema": {"const": "mindkit.sanity/2"},
            "baseline": {"type": "object",
                         "required": ["rho_mean", "rho_std", "undefined"],
                         "properties": {"rho_mean": _NUM, "rho_std": _NUM,
                                        "undefined": {"type": "integer"}}},
            "layers": {"type": "array", "items": {
                "type": "object",
                "required": ["layer", "rho_mean", "rho_std", "undefined",
                             "failures"],
                "properties": {"layer": {"type": "string"},
                               "rho_mean": _NUM, "rho_std": _NUM,
                               "rhos": _NUMS,
                               "undefined": {"type": "integer"},
                               "failures": {"type": "integer"}},
            }},
        },
    },
    "mindkit.baselines/1": {
        "type": "object",
        "required": ["schema", "features", "saliency",
                     "integrated_gradients"],
        "properties": {
            "schema": {"const": "mindkit.baselines/1"},
            "features": _STRS,
            "saliency": _NUMS,
            "integrated_gradients": _NUMS,
            "ig_steps": {"type": "integer"},
            "completeness_gap": _NUM,
            "spearman": {"type": "array", "items": {
                "type": "object",
                "required": ["pair", "rho", "p"],
                "properties": {"pair": _STRS, "rho": _NUM, "p": _NUM},
            }},
        },
    },
    "mindkit.error/1": {
        "type": "object",
        "required": ["schema", "error", "message"],
        "properties": {
            "schema": {"const": "mindkit.error/1"},
            "error": {"type": "string"},
            "message": {"type": "string"},
            "command": {"type": "string"},
        },
    },
}


# The keywords `_check` implements, with JSON Schema's meaning; SCHEMAS
# uses no other, and a test fails on any keyword outside this set.
KEYWORDS = frozenset({"type", "required", "properties", "items", "const",
                      "enum", "additionalProperties"})

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    # bool subclasses int but is neither; an integral float is an integer
    "number": lambda v: isinstance(v, numbers.Number)
    and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _mismatch(path: str, why: str) -> DataError:
    return DataError(f"{path or '/'}: {why}")


def _check(value, schema: dict, path: str) -> None:
    """Raise DataError naming the first field under `path` that breaks
    `schema`; object keywords apply to dicts only, `items` to lists only."""
    kinds = schema.get("type")
    if kinds is not None:
        kinds = [kinds] if isinstance(kinds, str) else kinds
        if not any(_TYPES[k](value) for k in kinds):
            raise _mismatch(path, f"expected {' or '.join(kinds)}, "
                                  f"got {value!r:.40}")
    if "const" in schema and value != schema["const"]:
        raise _mismatch(path, f"expected {schema['const']!r}, "
                              f"got {value!r:.40}")
    if "enum" in schema and value not in schema["enum"]:
        raise _mismatch(path, f"expected one of {schema['enum']}, "
                              f"got {value!r:.40}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise _mismatch(f"{path}/{key}", "required field is missing")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            sub = props.get(key, extra)
            if sub is not None:
                _check(item, sub, f"{path}/{key}")
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{path}/{i}")


def validate_artifact(doc: dict) -> str:
    """Check a document against the schema it names; returns the schema id."""
    if not isinstance(doc, dict) or "schema" not in doc:
        raise DataError("artifact lacks a 'schema' field")
    name = doc["schema"]
    schema = SCHEMAS.get(name) if isinstance(name, str) else None
    if schema is None:
        raise DataError(f"unknown schema {name!r}")
    try:
        _check(doc, schema, "")
    except DataError as exc:
        raise DataError(f"artifact does not match {name}: {exc}") from None
    return name


def write_json(path, doc: dict) -> None:
    """Validate and write one artifact (strict JSON, trailing newline)."""
    validate_artifact(doc)
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:  # a non-finite float
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        Path(path).write_text(text + "\n")
    except OSError as exc:  # IsADirectoryError, PermissionError, ...
        raise DataError(f"cannot write {path}: {exc}") from exc


def read_json(path, expect: str | None = None) -> dict:
    """Read one artifact and check it against its schema and, when given,
    the schema id `expect`; every error names the file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        name = validate_artifact(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if expect is not None and name != expect:
        raise DataError(f"{path} holds {name}, expected {expect}")
    return doc
