"""Predictor architectures: forward values, training, PGD, layer shuffling."""
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from mindkit import optim
from mindkit.data import from_arrays, substream
from mindkit.errors import DataError, GraphError, TrainingError
from mindkit.models import (Model, TrainConfig, build_model, load_model,
                            predict, save_model, shuffle_layer, train,
                            _loss_graph, _pgd_perturb)


def blob_dataset(n=300, d=2, seq_len=None, sigma=0.5, mean=1.0, seed=0):
    """Two separable gaussian blobs, optionally extruded over time."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    centers = np.where(y[:, None] > 0.5, mean, -mean) * np.ones((n, d))
    if seq_len is None:
        X = centers + sigma * rng.standard_normal((n, d))
    else:
        X = centers[:, :, None] + sigma * rng.standard_normal((n, d, seq_len))
    k = n // 2
    splits = {"train": np.arange(k), "validation": np.arange(k, n)}
    return from_arrays(X, y, splits)


def accuracy(model, ds, split="validation"):
    X, y = ds.split(split)
    return float(np.mean((predict(model, X) > 0.5) == (y > 0.5)))


class TestBuildAndPredict:
    def test_linear_dot_product(self):
        m = build_model("linear", 3)
        m.params["w"] = np.array([[1.0], [2.0], [3.0]])
        assert predict(m, np.array([1.0, 1.0, 1.0])) == 6.0

    def test_linear_is_homogeneous(self):
        m = build_model("linear", 4, seed=1)
        assert set(m.params) == {"w"}
        assert predict(m, np.zeros(4)) == 0.0

    def test_mlp_zero_final_layer_is_constant_half(self):
        m = build_model("mlp", 5, hidden=(16,), output="probability")
        m.params["w1"][:] = 0.0
        m.params["b1"][:] = 0.0
        rng = np.random.default_rng(2)
        preds = predict(m, rng.normal(size=(10, 5)))
        np.testing.assert_array_equal(preds, 0.5)

    def test_seqconv_forward_smoke(self):
        m = build_model("seqconv", 4, seq_len=16, seed=3)
        val = predict(m, np.random.default_rng(0).normal(size=(4, 16)))
        assert np.isfinite(val)
        assert 0.0 < val < 1.0

    def test_classifier_outputs_stay_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for kind, kw in [("mlp", {}), ("seqconv", {"seq_len": 9})]:
            m = build_model(kind, 3, output="probability", seed=11, **kw)
            shape = (50, 3) if kind == "mlp" else (50, 3, 9)
            preds = predict(m, 100.0 * rng.standard_normal(shape))
            assert np.all((preds >= 0.0) & (preds <= 1.0))

    def test_single_instance_returns_scalar(self):
        m = build_model("mlp", 3, seed=0)
        one = predict(m, np.ones(3))
        many = predict(m, np.ones((4, 3)))
        assert isinstance(one, float)
        assert many.shape == (4,)
        np.testing.assert_allclose(many, one)

    def test_build_rejects_bad_inputs(self):
        with pytest.raises(GraphError, match="unknown architecture"):
            build_model("rnn", 3)
        with pytest.raises(GraphError, match="unknown output"):
            build_model("mlp", 3, output="poisson")
        with pytest.raises(GraphError, match="seq_len"):
            build_model("seqconv", 3)
        for kernel_size in (0, -2):
            with pytest.raises(GraphError, match="kernel_size"):
                build_model("seqconv", 3, seq_len=8, kernel_size=kernel_size)

    def test_predict_rejects_wrong_width(self):
        m = build_model("mlp", 3, seed=0)
        with pytest.raises(GraphError):
            predict(m, np.ones(5))

    def test_build_is_seed_reproducible(self):
        a = build_model("seqconv", 3, seq_len=8, seed=5)
        b = build_model("seqconv", 3, seq_len=8, seed=5)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])


class TestTraining:
    def test_linear_regression_reaches_tiny_mse(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((200, 4))
        tr = np.arange(150)
        X = (X - X[tr].mean(axis=0)) / X[tr].std(axis=0)
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        y = X @ beta
        ds = from_arrays(X, y, {"train": tr, "validation": np.arange(150, 200)},
                         task="regression")
        m = build_model("linear", 4, seed=0)
        fitted, hist = train(m, ds, TrainConfig(lr=0.05, batch_size=32,
                                                max_epochs=400, seed=0))
        assert min(hist["train_loss"]) < 1e-6
        np.testing.assert_allclose(fitted.params["w"].ravel(), beta, atol=1e-3)

    def test_constant_labels_converge_to_base_rate(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((200, 3))
        y = (np.arange(200) % 4 != 0).astype(float)  # base rate 0.75
        ds = from_arrays(X, y, {"train": np.arange(150),
                                "validation": np.arange(150, 200)})
        m = build_model("mlp", 3, hidden=(4,), output="probability", seed=1)
        fitted, _ = train(m, ds, TrainConfig(lr=0.02, batch_size=32,
                                             max_epochs=120, seed=1))
        Xv, _ = ds.split("validation")
        assert abs(float(np.mean(predict(fitted, Xv))) - 0.75) < 0.15

    def test_separable_blobs_reach_high_accuracy(self):
        ds = blob_dataset(n=300, sigma=0.5, mean=1.0, seed=4)
        m = build_model("mlp", 2, output="probability", seed=2)
        fitted, _ = train(m, ds, TrainConfig(lr=0.02, batch_size=32,
                                             max_epochs=80, seed=2))
        assert accuracy(fitted, ds) > 0.95

    def test_training_is_reproducible(self):
        ds = blob_dataset(n=80, seed=6)
        cfg = TrainConfig(lr=0.02, batch_size=16, max_epochs=15, seed=9)
        m = build_model("mlp", 2, output="probability", seed=9)
        f1, h1 = train(m, ds, cfg)
        f2, h2 = train(m, ds, cfg)
        assert h1["train_loss"] == h2["train_loss"]
        assert h1["val_loss"] == h2["val_loss"]
        for k in f1.params:
            np.testing.assert_array_equal(f1.params[k], f2.params[k])

    def test_returns_best_validation_epoch(self):
        ds = blob_dataset(n=120, seed=8)
        m = build_model("mlp", 2, output="probability", seed=3)
        fitted, hist = train(m, ds, TrainConfig(lr=0.05, batch_size=16,
                                                max_epochs=40, seed=3))
        Xv, yv = ds.split("validation")
        p = np.clip(predict(fitted, Xv), 1e-12, 1 - 1e-12)
        bce = float(np.mean(-(yv * np.log(p) + (1 - yv) * np.log(1 - p))))
        np.testing.assert_allclose(bce, min(hist["val_loss"]), rtol=1e-9)

    def test_input_model_not_mutated(self):
        ds = blob_dataset(n=60, seed=1)
        m = build_model("mlp", 2, output="probability", seed=4)
        before = {k: v.copy() for k, v in m.params.items()}
        train(m, ds, TrainConfig(max_epochs=5, seed=0))
        for k in before:
            np.testing.assert_array_equal(m.params[k], before[k])

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 2))
        y = np.full(40, 1e200)
        ds = from_arrays(X, y, {"train": np.arange(30),
                                "validation": np.arange(30, 40)},
                         task="regression")
        m = build_model("linear", 2, seed=0)
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match="non-finite"):
            train(m, ds, TrainConfig(max_epochs=3, seed=0))

    @pytest.mark.parametrize("array,row,bad", [
        ("X", 3, np.nan), ("y", 3, np.inf), ("X", 35, np.inf),
        ("y", 35, np.nan)])
    def test_nonfinite_data_rejected(self, array, row, bad):
        # checked once when the fit starts, with the error a sweep gives
        rng = np.random.default_rng(0)
        data = {"X": rng.standard_normal((40, 2)),
                "y": rng.standard_normal(40)}
        data[array][row] = bad
        ds = from_arrays(data["X"], data["y"],
                         {"train": np.arange(30),
                          "validation": np.arange(30, 40)},
                         task="regression")
        with pytest.raises(GraphError, match=r"^tensor requires finite "
                           r"values \(NaN/Inf rejected\)$"):
            train(build_model("linear", 2, seed=0), ds,
                  TrainConfig(max_epochs=3, seed=0))

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(lr=-0.1)
        with pytest.raises(TrainingError):
            TrainConfig(pgd_eps=-0.5)


    def test_fitted_params_are_views_of_the_fit_buffer(self, monkeypatch):
        # a reshape that copied would leave a parameter behind, unfitted
        buffers = []
        real = optim.fit_stack

        def fit_stack(params, *args):
            buffers.append(params)
            return real(params, *args)

        monkeypatch.setattr("mindkit.models.fit_stack", fit_stack)
        m = build_model("mlp", 2, output="probability", seed=5)
        fitted, _ = train(m, blob_dataset(n=80, seed=2),
                          TrainConfig(max_epochs=3, seed=7))
        [flat] = buffers
        assert list(fitted.params) == list(m.params)
        for k, v in fitted.params.items():
            assert v.shape == m.params[k].shape
            assert np.shares_memory(v, flat)
        np.testing.assert_array_equal(flat[0], np.concatenate(
            [v.ravel() for v in fitted.params.values()]))


class TestAdversarial:
    def test_zero_radius_is_bit_identical_to_regular(self):
        ds = blob_dataset(n=80, seed=2)
        m = build_model("mlp", 2, output="probability", seed=5)
        cfg = TrainConfig(lr=0.02, batch_size=16, max_epochs=12,
                          pgd_eps=0.0, seed=7)
        f_reg, h_reg = train(m, ds, cfg)
        f_adv, h_adv = train(m, ds, replace(cfg, adversarial=True))
        assert h_reg["train_loss"] == h_adv["train_loss"]
        for k in f_reg.params:
            np.testing.assert_array_equal(f_reg.params[k], f_adv.params[k])

    @pytest.mark.parametrize("adversarial", [False, True])
    def test_parameter_turned_nonfinite_fails_the_fit(self, monkeypatch,
                                                      adversarial):
        # the sweeps, the perturbation's included, leave the parameters
        # unchecked: a NaN shows as a non-finite loss
        real = optim.fit_stack

        def fit_stack(params, *args):
            steps = iter(range(10 ** 9))

            def after_step():
                if next(steps) == 0:  # after the fit's first step
                    params[0, 0] = np.nan  # w0[0, 0], the first column

            return real(params, *args, after_step)

        monkeypatch.setattr("mindkit.models.fit_stack", fit_stack)
        ds = blob_dataset(n=80, seed=2)
        m = build_model("mlp", 2, output="probability", seed=5)
        cfg = TrainConfig(lr=0.02, batch_size=16, max_epochs=4, seed=7,
                          adversarial=adversarial)
        with pytest.raises(TrainingError, match="^non-finite training loss "
                           "in model training at epoch 0"):
            train(m, ds, cfg)

    def test_pgd_respects_projection_every_iteration(self):
        rng = np.random.default_rng(13)
        m = build_model("mlp", 3, output="probability", seed=0)
        graph = _loss_graph(m, (8, 3))
        Xb = rng.standard_normal((8, 3))
        binds = {**m.params, "y": rng.integers(0, 2, 8).astype(float)}
        eps = 0.1
        # step larger than the radius forces the projection to bind
        Xadv = _pgd_perturb(graph, dict(binds), Xb, eps, step=0.25, iters=4)
        delta = np.abs(Xadv - Xb)
        assert delta.max() <= eps + 1e-15
        assert delta.max() > 0.0

    def test_pgd_ascends_the_batch_loss(self):
        rng = np.random.default_rng(14)
        m = build_model("mlp", 3, output="probability", seed=1)
        graph = _loss_graph(m, (16, 3))
        Xb = rng.standard_normal((16, 3))
        binds = {**m.params, "y": rng.integers(0, 2, 16).astype(float)}
        Xadv = _pgd_perturb(graph, dict(binds), Xb, 0.2, step=0.05, iters=5)
        clean = graph.evaluate({**binds, "x": Xb})
        pert = graph.evaluate({**binds, "x": Xadv})
        assert pert > clean

    def test_adversarial_seqconv_close_to_regular_on_blobs(self):
        ds = blob_dataset(n=200, d=2, seq_len=8, sigma=0.6, mean=1.2, seed=10)
        m = build_model("seqconv", 2, seq_len=8, hidden=(4,),
                        output="probability", seed=6)
        cfg = TrainConfig(lr=0.02, batch_size=25, max_epochs=40, seed=6)
        f_reg, _ = train(m, ds, cfg)
        f_adv, _ = train(m, ds, replace(cfg, adversarial=True))
        gap = abs(accuracy(f_reg, ds) - accuracy(f_adv, ds))
        assert gap <= 0.05


class TestShuffleLayer:
    def test_preserves_weight_multiset_and_other_layers(self):
        m = build_model("mlp", 4, hidden=(8,), seed=0)
        rng = np.random.default_rng(1)
        s = shuffle_layer(m, 0, rng)
        np.testing.assert_array_equal(np.sort(s.params["w0"].ravel()),
                                      np.sort(m.params["w0"].ravel()))
        np.testing.assert_array_equal(s.params["w1"], m.params["w1"])
        np.testing.assert_array_equal(s.params["b0"], m.params["b0"])
        assert not np.array_equal(s.params["w0"], m.params["w0"])

    def test_input_model_untouched(self):
        m = build_model("mlp", 4, seed=0)
        before = m.params["w0"].copy()
        shuffle_layer(m, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(m.params["w0"], before)

    def test_single_element_layer_is_identity(self):
        m = build_model("linear", 1, seed=0)
        s = shuffle_layer(m, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(s.params["w"], m.params["w"])

    def test_out_of_range_index_rejected(self):
        m = build_model("linear", 3, seed=0)
        with pytest.raises(GraphError, match="out of range"):
            shuffle_layer(m, 1, np.random.default_rng(0))

    def test_head_shuffle_changes_most_seqconv_predictions(self):
        m = build_model("seqconv", 3, seq_len=12, seed=4)
        layers = m.layer_names()
        assert layers[-1] == "head_w"
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 3, 12))
        s = shuffle_layer(m, len(layers) - 1, substream(0, "shuffle-test"))
        changed = np.abs(predict(m, X) - predict(s, X)) > 1e-12
        assert changed.mean() >= 0.9

    def test_parameter_count_preserved(self):
        m = build_model("seqconv", 3, seq_len=12, seed=4)
        s = shuffle_layer(m, 1, np.random.default_rng(0))
        total = lambda mod: sum(v.size for v in mod.params.values())
        assert total(s) == total(m)


class TestCheckpoints:
    @pytest.mark.parametrize("kind,kw", [
        ("linear", {}),
        ("mlp", {"hidden": (5, 3)}),
        ("seqconv", {"seq_len": 10, "hidden": (4, 4), "kernel_size": 5}),
    ])
    def test_round_trip_is_bit_exact(self, tmp_path, kind, kw):
        m = build_model(kind, 3, output="probability", seed=8, **kw)
        path = tmp_path / "model.json"
        save_model(m, path)
        back = load_model(path)
        assert back.kind == m.kind and back.output == m.output
        assert back.hidden == m.hidden and back.kernel_size == m.kernel_size
        assert set(back.params) == set(m.params)
        for k in m.params:
            np.testing.assert_array_equal(back.params[k], m.params[k])
        shape = (6, 3) if kind != "seqconv" else (6, 3, 10)
        X = np.random.default_rng(0).standard_normal(shape)
        np.testing.assert_array_equal(predict(back, X), predict(m, X))

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(DataError, match="unknown schema 'something-else'"):
            load_model(path)

    def test_rejects_a_report_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({
            "schema": "mindkit.report/1", "score_kind": "gates",
            "lambda": 0.1, "features": [], "score_mean": [], "score_std": [],
            "correlation_mean": [], "correlation_std": [],
            "restarts": {"selected": [], "failed": [], "runs": []},
            "config": {}}))
        with pytest.raises(DataError) as err:
            load_model(path)
        assert str(err.value) == \
            f"{path} holds mindkit.report/1, expected mindkit.model/1"

    def test_save_validates_before_writing(self, tmp_path):
        path = tmp_path / "model.json"
        bad = replace(build_model("linear", 2, seed=0), seed="x")
        with pytest.raises(DataError, match="/seed: expected integer or null"):
            save_model(bad, path)
        assert not path.exists()

    def test_save_refuses_a_non_finite_weight(self, tmp_path):
        path = tmp_path / "model.json"
        m = build_model("linear", 2, seed=0)
        m.params["w"][0, 0] = np.nan
        with pytest.raises(DataError,
                           match=f"^cannot write {re.escape(str(path))}: "):
            save_model(m, path)
        assert not path.exists()

    def test_checkpoint_without_params_is_a_data_error(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(build_model("linear", 2, seed=0), path)
        doc = json.loads(path.read_text())
        del doc["params"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError,
                           match="/params: required field is missing"):
            load_model(path)
        doc["params"] = {"w": {"shape": [3, 1], "data": [1.0, 2.0]}}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed model"):
            load_model(path)
