"""Dataset container, CSV round-trip, synthetic generator with ground truth."""
import json
import re

import numpy as np
import pytest

from mindkit.data import (Dataset, SyntheticSpec, from_arrays,
                          generate_synthetic, load_dataset, save_dataset,
                          substream)
from mindkit.errors import DataError


def sidecar_text(splits):
    return json.dumps({"schema": "mindkit.dataset/1",
                       "task": "classification", "splits": splits})


# each sidecar's error after the "<path>: " prefix; ids show the splits
MALFORMED_SIDECARS = [
    pytest.param('[1, 2]', "artifact lacks a 'schema' field", id='[1, 2]'),
    pytest.param(sidecar_text({"train": 5}), "artifact does not match "
                 "mindkit.dataset/1: /splits/train: expected array, got 5",
                 id='{"splits": {"train": 5}}'),
    pytest.param(sidecar_text([1]), "artifact does not match "
                 "mindkit.dataset/1: /splits: expected object, got [1]",
                 id='{"splits": [1]}'),
    pytest.param(sidecar_text({"train": [["i0"]]}), "artifact does not "
                 "match mindkit.dataset/1: /splits/train/0: expected string, "
                 "got ['i0']", id='{"splits": {"train": [["i0"]]}}'),
    # a missing task once defaulted to classification, so a regression
    # dataset trained a Bernoulli head on continuous labels
    pytest.param('{"schema": "mindkit.dataset/1", "splits": {"train": '
                 '["i0"]}}', "artifact does not match mindkit.dataset/1: "
                 "/task: required field is missing", id="no task"),
]


def small_dataset(seed=0, n=20, d=3, seq_len=None, **kw):
    ds, truth = generate_synthetic(SyntheticSpec(
        n=n, d=d, seq_len=seq_len, seed=seed, **kw))
    return ds, truth


class TestDatasetContainer:
    def test_minimal_vector_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "instance_id,a,b,label\n"
            "i0,1.0,2.0,1\n"
            "i1,3.0,4.0,0\n")
        side = tmp_path / "tiny.sidecar.json"
        side.write_text('{"schema": "mindkit.dataset/1", "task": '
                        '"classification", "splits": {"train": ["i0", "i1"]}}')
        ds = load_dataset(path, side)
        assert ds.n == 2 and ds.d == 3 - 1
        assert ds.feature_names == ["a", "b"]
        np.testing.assert_array_equal(ds.X_raw, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.y, [1.0, 0.0])

    def test_normalization_uses_train_split_only(self):
        X = np.array([[0.0, 10.0], [2.0, 30.0], [100.0, -50.0]])
        ds = from_arrays(X, [0, 1, 1],
                         {"train": [0, 1], "validation": [2]})
        train = ds.X[ds.splits["train"]]
        np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train.std(axis=0), 1.0, atol=1e-12)
        # held-out rows use the train statistics, not their own
        np.testing.assert_allclose(ds.X[2], [(100.0 - 1.0) / 1.0,
                                             (-50.0 - 20.0) / 10.0])

    def test_temporal_normalization_pools_time(self):
        rng = np.random.default_rng(4)
        X = rng.normal(3.0, 2.0, size=(12, 2, 7))
        ds = from_arrays(X, rng.integers(0, 2, 12),
                         {"train": np.arange(12)})
        flat = ds.X[:, 0, :].ravel()
        np.testing.assert_allclose(flat.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(flat.std(), 1.0, atol=1e-12)

    def test_constant_feature_keeps_unit_scale(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
        ds = from_arrays(X, [0, 1, 0], {"train": [0, 1, 2]})
        np.testing.assert_array_equal(ds.X[:, 0], 0.0)
        assert ds.norm_std[0] == 1.0

    def test_empty_train_split_rejected(self):
        with pytest.raises(DataError, match="train"):
            from_arrays(np.ones((3, 2)), [0, 1, 0], {"validation": [0, 1, 2]})

    def test_unknown_split_name_rejected(self):
        with pytest.raises(DataError):
            from_arrays(np.ones((3, 2)), [0, 1, 0],
                        {"train": [0], "holdout": [1, 2]})

    def test_split_accessor(self):
        ds, _ = small_dataset(n=40)
        Xv, yv = ds.split("validation")
        assert len(Xv) == len(yv) == len(ds.splits["validation"])

    def test_missing_split_accessor_rejected(self):
        ds, _ = small_dataset(n=10, split_fracs=(0.8, 0.2, 0.0))
        with pytest.raises(DataError, match="missing or empty"):
            ds.split("test")


class TestCsvRoundTrip:
    @pytest.mark.parametrize("seq_len", [None, 6])
    def test_bit_exact_round_trip(self, tmp_path, seq_len):
        ds, _ = small_dataset(n=15, d=3, seq_len=seq_len, seed=9)
        data, side = tmp_path / "d.csv", tmp_path / "d.sidecar.json"
        save_dataset(ds, data, side)
        back = load_dataset(data, side)
        np.testing.assert_array_equal(back.X_raw, ds.X_raw)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.X, ds.X)
        assert back.feature_names == ds.feature_names
        assert back.instance_ids == ds.instance_ids
        for name in ds.splits:
            np.testing.assert_array_equal(back.splits[name], ds.splits[name])

    def test_save_is_deterministic(self, tmp_path):
        ds, _ = small_dataset(n=10, seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, a, tmp_path / "a.json")
        save_dataset(ds, b, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_conflicting_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "instance_id,timestamp,a,label\n"
            "i0,0,1.0,1\n"
            "i0,1,2.0,0\n")
        side = tmp_path / "bad.sidecar.json"
        side.write_text(sidecar_text({"train": ["i0"]}))
        with pytest.raises(DataError, match="conflicting labels"):
            load_dataset(path, side)

    def test_inconsistent_timestamp_counts_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "instance_id,timestamp,a,label\n"
            "i0,0,1.0,1\n"
            "i0,1,2.0,1\n"
            "i1,0,3.0,0\n")
        side = tmp_path / "bad.sidecar.json"
        side.write_text(sidecar_text({"train": ["i0", "i1"]}))
        with pytest.raises(DataError, match="inconsistent timestamp counts"):
            load_dataset(path, side)

    def test_repeated_timestamp_rejected(self, tmp_path):
        # every instance repeats t=0, so counts and sets agree throughout
        path = tmp_path / "bad.csv"
        path.write_text(
            "instance_id,timestamp,a,label\n"
            "i0,0,1.0,1\ni0,0,2.0,1\ni0,1,3.0,1\n"
            "i1,0,4.0,0\ni1,0,5.0,0\ni1,1,6.0,0\n")
        side = tmp_path / "bad.sidecar.json"
        side.write_text(sidecar_text({"train": ["i0", "i1"]}))
        with pytest.raises(DataError, match=re.escape(
                "instance 'i0' repeats timestamp 0")):
            load_dataset(path, side)

    def test_repeated_instance_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("instance_id,a,label\ni0,1.0,1\ni0,2.0,1\n")
        side = tmp_path / "bad.sidecar.json"
        side.write_text(sidecar_text({"train": ["i0"]}))
        with pytest.raises(DataError, match="duplicate instance rows"):
            load_dataset(path, side)

    def test_unknown_split_id_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("instance_id,a,label\ni0,1.0,1\n")
        side = tmp_path / "d.sidecar.json"
        side.write_text(sidecar_text({"train": ["i0", "ghost"]}))
        with pytest.raises(DataError, match="unknown ids"):
            load_dataset(path, side)

    def test_overlapping_splits_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("instance_id,a,label\ni0,1.0,1\ni1,2.0,0\n")
        side = tmp_path / "d.sidecar.json"
        side.write_text(
            sidecar_text({"train": ["i0", "i1"], "validation": ["i0"]}))
        with pytest.raises(DataError, match="more than one split"):
            load_dataset(path, side)

    def test_id_repeated_within_a_split_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("instance_id,a,label\ni0,1.0,1\ni1,2.0,0\n")
        side = tmp_path / "d.sidecar.json"
        side.write_text(
            sidecar_text({"train": ["i0", "i1", "i0"]}))
        with pytest.raises(DataError, match=re.escape(
                "ids listed more than once in split 'train': ['i0']")):
            load_dataset(path, side)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("instance_id,a,b,label\ni0,1.0,1\n")
        side = tmp_path / "d.sidecar.json"
        side.write_text(sidecar_text({"train": ["i0"]}))
        with pytest.raises(DataError, match="expected 4 fields"):
            load_dataset(path, side)

    @pytest.mark.parametrize("sidecar,message", MALFORMED_SIDECARS)
    def test_malformed_sidecar_rejected(self, tmp_path, sidecar, message):
        path = tmp_path / "d.csv"
        path.write_text("instance_id,a,label\ni0,1.0,1\n")
        side = tmp_path / "d.sidecar.json"
        side.write_text(sidecar)
        with pytest.raises(DataError) as err:
            load_dataset(path, side)
        assert str(err.value) == f"{side}: {message}"

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("instance_id,a,label\ni0,oops,1\n")
        side = tmp_path / "d.sidecar.json"
        side.write_text(sidecar_text({"train": ["i0"]}))
        with pytest.raises(DataError, match="non-numeric"):
            load_dataset(path, side)

    @pytest.mark.parametrize("row", ["i1,nan,1", "i1,-inf,1", "i1,2.0,inf"])
    def test_non_finite_value_rejected(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(f"instance_id,a,label\ni0,1.0,0\n{row}\n")
        side = tmp_path / "d.sidecar.json"
        side.write_text(sidecar_text({"train": ["i0", "i1"]}))
        with pytest.raises(DataError) as err:
            load_dataset(path, side)
        assert str(err.value) == f"{path}:3: non-finite value"


class TestSubstream:
    def test_same_label_same_stream(self):
        a = substream(7, "x").standard_normal(5)
        b = substream(7, "x").standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_labels_are_independent(self):
        a = substream(7, "x").standard_normal(5)
        b = substream(7, "y").standard_normal(5)
        assert not np.allclose(a, b)

    def test_seed_changes_stream(self):
        a = substream(7, "x").standard_normal(5)
        b = substream(8, "x").standard_normal(5)
        assert not np.allclose(a, b)


class TestSyntheticGenerator:
    def test_planted_feature_has_zero_weight(self):
        _, truth = small_dataset(d=5, planted=(0, 3))
        assert truth["weights"][0] == 0.0
        assert truth["weights"][3] == 0.0
        assert set(truth["invariant_features"]) >= {0, 3}

    def test_duplicate_pair_columns_identical(self):
        ds, truth = small_dataset(d=4, duplicates=((1, 2),))
        np.testing.assert_array_equal(ds.X_raw[:, 1], ds.X_raw[:, 2])
        assert truth["weights"][1] == truth["weights"][2]

    def test_strong_features_have_unit_magnitude_weights(self):
        _, truth = small_dataset(d=6, planted=(2,))
        for j, w in enumerate(truth["weights"]):
            if j == 2:
                continue
            assert 1.0 <= abs(w) <= 2.0
        assert truth["strong_features"] == [j for j in range(6) if j != 2]

    def test_fixed_seed_reproduces_exactly(self):
        ds1, t1 = small_dataset(seed=42, d=4, planted=(1,))
        ds2, t2 = small_dataset(seed=42, d=4, planted=(1,))
        np.testing.assert_array_equal(ds1.X_raw, ds2.X_raw)
        np.testing.assert_array_equal(ds1.y, ds2.y)
        assert t1 == t2

    def test_splits_partition_instances(self):
        ds, _ = small_dataset(n=50)
        allidx = np.concatenate(list(ds.splits.values()))
        assert len(allidx) == ds.n
        assert len(np.unique(allidx)) == ds.n

    def test_missing_indicator_channels(self):
        ds, truth = small_dataset(n=60, d=3, missing=(1,),
                                  missing_rate=0.4, indicator_beta=0.5)
        assert ds.d == 4
        assert ds.feature_names[-1] == "f1_miss"
        ind = ds.X_raw[:, 3]
        assert set(np.unique(ind)) <= {0.0, 1.0}
        np.testing.assert_array_equal(ds.X_raw[ind == 1.0, 1], 0.0)
        assert 0.1 < ind.mean() < 0.7
        assert truth["weights"][3] == 0.5
        assert truth["missing_indicator_of"] == {"f1_miss": 1}

    def test_labels_follow_generating_model(self):
        ds, truth = small_dataset(n=200, d=4, seed=11)
        z = ds.X_raw @ np.array(truth["weights"])
        np.testing.assert_array_equal(ds.y, (z > 0).astype(float))

    def test_temporal_labels_use_time_average(self):
        ds, truth = small_dataset(n=80, d=3, seq_len=12, seed=5)
        z = ds.X_raw.mean(axis=2) @ np.array(truth["weights"])
        np.testing.assert_array_equal(ds.y, (z > 0).astype(float))

    def test_regression_task(self):
        ds, _ = small_dataset(n=30, d=3, task="regression",
                              label_noise=0.0, seed=2)
        assert ds.task == "regression"
        assert len(np.unique(ds.y)) > 2

    def test_explicit_beta_respected(self):
        _, truth = small_dataset(d=3, beta=[1.0, 0.0, -2.0], planted=(1,))
        assert truth["weights"] == [1.0, 0.0, -2.0]

    def test_planted_with_nonzero_beta_rejected(self):
        with pytest.raises(DataError, match="zero weight"):
            small_dataset(d=3, beta=[1.0, 2.0, 3.0], planted=(1,))

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(DataError):
            small_dataset(d=3, planted=(5,))
        with pytest.raises(DataError):
            small_dataset(d=3, duplicates=((0, 7),))
        with pytest.raises(DataError):
            small_dataset(d=3, duplicates=((1, 1),))
