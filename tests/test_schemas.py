"""The artifact schema checker: one valid artifact per schema id, and one
mutation per keyword that schema uses, each rejected with the path of the
field it broke."""
import copy
import re

import pytest

from mindkit.errors import DataError
from mindkit.schemas import (KEYWORDS, SCHEMAS, _check, read_json,
                             validate_artifact, write_json)

DELETE = object()

# schema id -> (valid artifact, [(keyword, JSON pointer, new value)]);
# each mutation breaks the field at the pointer through that keyword.
CASES = {
    "mindkit.dataset/1": (
        {"schema": "mindkit.dataset/1", "task": "classification",
         "splits": {"train": ["i0", "i1"], "validation": ["i2"]}},
        [("type", "/splits", ["i0"]),
         ("required", "/task", DELETE),
         ("properties", "/splits", "train"),
         ("const", "/schema", "mindkit.dataset/2"),
         ("enum", "/task", "ranking"),
         ("additionalProperties", "/splits/test", "i3"),
         ("items", "/splits/validation/0", None)]),
    "mindkit.truth/1": (
        {"schema": "mindkit.truth/1", "task": "regression",
         "feature_names": ["f0", "f1"], "weights": [0.0, 1.5],
         "invariant_features": [0], "strong_features": [1], "planted": [0],
         "duplicates": [[0, 1]], "missing_indicator_of": {}, "seed": 3,
         "n": 40, "seq_len": None},
        [("type", "/seed", "3"),
         ("required", "/duplicates", DELETE),
         ("properties", "/missing_indicator_of", []),
         ("const", "/schema", "mindkit.truth/0"),
         ("enum", "/task", "Regression"),
         ("items", "/duplicates/0/1", 1.5)]),
    "mindkit.model/1": (
        {"schema": "mindkit.model/1", "kind": "mlp", "output": "probability",
         "input_dim": 2, "seq_len": None, "hidden": [4], "seed": 7,
         "params": {"w0": {"shape": [2, 4], "data": [0.5] * 8},
                    "b0": {"shape": [4], "data": [0.0] * 4}}},
        [("type", "/input_dim", "3"),
         ("required", "/params", DELETE),
         ("properties", "/params/w0/data", 0.5),
         ("const", "/schema", "mindkit.report/1"),
         ("enum", "/output", "logit"),
         ("additionalProperties", "/params/b0", [0.0]),
         ("items", "/params/w0/shape/0", 2.5)]),
    "mindkit.transform/1": (
        {"schema": "mindkit.transform/1", "kind": "basis",
         "intercept": False,
         "basis": {"kind": "pulse", "K": 3, "T": 8,
                   "residual_channel": True},
         "params": {"gates": [[0.0, 1.0]]}},
        [("type", "/intercept", 0),
         ("required", "/basis/T", DELETE),
         ("properties", "/basis/K", True),
         ("const", "/schema", "mindkit.transform/2"),
         ("enum", "/basis/kind", "fourier")]),
    "mindkit.report/2": (
        {"schema": "mindkit.report/2", "score_kind": "gates_by_channel",
         "lambda": 0.1, "features": ["f0", "f1"], "score_mean": [0.0, 0.5],
         "score_std": [0.0, None], "correlation_mean": [0.9, 0.1],
         "correlation_std": [0.0, 0.0], "correlation_undefined": [0, 1],
         "channels": {"names": ["c0"], "score_mean": [[0.0], [0.5]],
                      "score_std": [[0.0], [0.0]]},
         "restarts": {"selected": [0, 2], "failed": [1], "runs": [{"r": 0}]},
         "config": {"lam": 0.1}},
        [("type", "/lambda", "0.1"),
         ("required", "/channels/score_std", DELETE),
         ("properties", "/restarts/runs", {"r": 0}),
         ("const", "/schema", "mindkit.report/0"),
         ("enum", "/score_kind", "saliency"),
         ("items", "/channels/score_mean/1/0", "x")]),
    "mindkit.train/1": (
        {"schema": "mindkit.train/1", "kind": "mlp", "adversarial": False,
         "history": {"train_loss": [1.0, 0.5], "val_loss": [1.1, None],
                     "lr": [0.01, 0.01]}},
        [("type", "/kind", 3),
         ("required", "/history/val_loss", DELETE),
         ("properties", "/history/lr", 0.01),
         ("const", "/schema", "mindkit.tune/1"),
         ("items", "/history/train_loss/1", "0.5")]),
    "mindkit.tune/1": (
        {"schema": "mindkit.tune/1", "lambda": None, "feasible": False,
         "trace": [{"lambda": 0.1, "w1": 0.2, "cosine": 0.9,
                    "feasible": False}]},
        [("type", "/feasible", "no"),
         ("required", "/trace/0/cosine", DELETE),
         ("properties", "/trace", {}),
         ("const", "/schema", "mindkit.tune/2"),
         ("items", "/trace/0", [0.1])]),
    "mindkit.oracle/1": (
        {"schema": "mindkit.oracle/1", "lambda": 0.3, "gates": [0.85, 0.0],
         "unclamped": [0.85, -1.0], "degenerate": True},
        [("type", "/degenerate", None),
         ("required", "/gates", DELETE),
         ("properties", "/unclamped", "0.85"),
         ("const", "/schema", "mindkit.oracle/0"),
         ("items", "/gates/1", False)]),
    "mindkit.sanity/2": (
        {"schema": "mindkit.sanity/2",
         "baseline": {"rho_mean": 0.9, "rho_std": 0.0, "undefined": 0},
         "layers": [{"layer": "w0", "rho_mean": None, "rho_std": None,
                     "rhos": [None], "undefined": 1, "failures": 0}]},
        [("type", "/layers", {}),
         ("required", "/layers/0/failures", DELETE),
         ("properties", "/baseline/undefined", 0.5),
         ("const", "/schema", "mindkit.sanity/1"),
         ("items", "/layers/0/rhos/0", "nan")]),
    "mindkit.baselines/1": (
        {"schema": "mindkit.baselines/1", "features": ["f0", "f1"],
         "saliency": [0.1, 0.2], "integrated_gradients": [0.3, 0.4],
         "ig_steps": 16, "completeness_gap": 0.01,
         "spearman": [{"pair": ["saliency", "gates"], "rho": 1.0,
                       "p": None}]},
        [("type", "/ig_steps", 16.5),
         ("required", "/spearman/0/p", DELETE),
         ("properties", "/spearman/0/rho", "1.0"),
         ("const", "/schema", "mindkit.baseline/1"),
         ("items", "/spearman/0/pair/1", 2)]),
    "mindkit.error/1": (
        {"schema": "mindkit.error/1", "error": "DataError",
         "message": "bad input", "command": "score"},
        [("type", "/message", ["bad input"]),
         ("required", "/error", DELETE),
         ("properties", "/command", None),
         ("const", "/schema", "mindkit.error/2")]),
}


def subschemas(schema):
    yield from schema.get("properties", {}).values()
    for key in ("items", "additionalProperties"):
        if key in schema:
            yield schema[key]


def keywords_used(schema):
    """Every keyword anywhere in `schema`."""
    return set(schema).union(*map(keywords_used, subschemas(schema)))


def mutate(doc, pointer, value):
    doc = copy.deepcopy(doc)
    *parents, last = pointer.strip("/").split("/")
    node = doc
    for part in parents:
        node = node[int(part) if isinstance(node, list) else part]
    key = int(last) if isinstance(node, list) else last
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return doc


def test_cases_cover_every_schema():
    assert set(CASES) == set(SCHEMAS)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_valid_artifact_accepted(name):
    assert validate_artifact(CASES[name][0]) == name


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_one_rejected_mutation_per_keyword(name):
    doc, mutations = CASES[name]
    assert {kw for kw, _, _ in mutations} == keywords_used(SCHEMAS[name])
    for keyword, pointer, value in mutations:
        with pytest.raises(DataError) as info:
            _check(mutate(doc, pointer, value), SCHEMAS[name], "")
        assert str(info.value).startswith(f"{pointer}: "), (keyword, info)


def test_every_keyword_is_implemented():
    """A keyword the checker does not know would be ignored silently."""
    for name, schema in SCHEMAS.items():
        assert keywords_used(schema) <= KEYWORDS, name


@pytest.mark.parametrize("value,kind,ok", [
    (True, "integer", False), (False, "number", False),
    (2.0, "integer", True), (2.5, "integer", False), (2.5, "number", True),
    (3, "number", True), (float("inf"), "integer", False),
    ("2", "integer", False), (None, "null", True), (0, "boolean", False),
])
def test_type_keeps_json_schema_meaning(value, kind, ok):
    if ok:
        _check(value, {"type": kind}, "/x")
    else:
        with pytest.raises(DataError, match=f"^/x: expected {kind}"):
            _check(value, {"type": kind}, "/x")


def test_object_and_array_keywords_skip_other_types():
    schema = {"type": ["object", "array", "string"], "required": ["a"],
              "properties": {"a": {"type": "integer"}},
              "additionalProperties": {"type": "integer"},
              "items": {"type": "integer"}}
    for value in ("text", [1, 2], {"a": 1, "b": 2}):
        _check(value, schema, "")
    with pytest.raises(DataError, match="^/1: expected integer"):
        _check([1, "2"], schema, "")
    with pytest.raises(DataError, match="^/a: required field is missing"):
        _check({"b": 2}, schema, "")


def test_validate_artifact_names_schema_and_path():
    doc = mutate(CASES["mindkit.model/1"][0], "/params/w0/shape/0", 2.5)
    with pytest.raises(DataError, match=r"^artifact does not match "
                       r"mindkit\.model/1: /params/w0/shape/0: "):
        validate_artifact(doc)
    for doc in ([], {"task": "x"}, {"schema": ["mindkit.model/1"]},
                {"schema": "mindkit.nothing/1"}):
        with pytest.raises(DataError, match="schema"):
            validate_artifact(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_write_json_refuses_a_non_finite_float_and_writes_nothing(tmp_path,
                                                                  bad):
    doc = mutate(CASES["mindkit.model/1"][0], "/params/w0/data/0", bad)
    path = tmp_path / "model.json"
    with pytest.raises(DataError, match=f"^cannot write {re.escape(str(path))}"
                       ": Out of range"):
        write_json(path, doc)
    assert not path.exists()


def test_read_json_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}"
                       ": 'utf-8' codec"):
        read_json(path)
