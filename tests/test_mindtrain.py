"""Invariance-mining objective, its optimizer, lambda tuning, restarts."""
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

import mindkit.diffcore as dc
import mindkit.mindtrain as mt
from mindkit.analysis import (ClosedFormInputs, closed_form_gating,
                              second_moment, weak_invariance_lambda)
from mindkit.data import from_arrays
from mindkit.errors import GraphError, TrainingError
from mindkit.mindtrain import (MindConfig, MindResult, lambda_grid, mind_loss,
                               multi_restart, train_transform, tune_lambda,
                               w1_reduced)
from mindkit.models import Model, build_model
from mindkit.transforms import (GatingTransform, TransformSpec,
                                init_transform, make_basis)


def classifier_dataset(n=160, d=3, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = labels if labels is not None \
        else (X @ rng.normal(size=d) > 0).astype(float)
    k = int(0.75 * n)
    return from_arrays(X, y, {"train": np.arange(k),
                              "validation": np.arange(k, n)})


def linear_prob_model(w):
    """Sigmoid readout of a fixed linear score."""
    w = np.asarray(w, dtype=np.float64)
    m = build_model("linear", len(w), output="probability")
    m.params["w"] = w[:, None].copy()
    return m


def linear_reg_model(w):
    w = np.asarray(w, dtype=np.float64)
    m = build_model("linear", len(w))
    m.params["w"] = w[:, None].copy()
    return m


def concentrated_dataset(seed=1, n=600, weak=0.015):
    """Two strongly used features, eight barely used ones."""
    rng = np.random.default_rng(seed)
    d = 10
    X = rng.standard_normal((n, d))
    beta = np.array([1.5, 1.2] + [weak] * 8)
    k = int(0.8 * n)
    ds = from_arrays(X, X @ beta, {"train": np.arange(k),
                                   "validation": np.arange(k, n)},
                     task="regression")
    return ds, linear_reg_model(beta)


class TestW1Reduced:
    def test_identical_inputs_give_zero(self):
        m = build_model("mlp", 3, output="probability", seed=0)
        X = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_array_equal(w1_reduced(m, X, X), np.zeros(5))

    def test_point_mass_is_absolute_difference(self):
        m = linear_reg_model([1.0])
        assert w1_reduced(m, np.array([2.0]), np.array([-1.0])) == 3.0

    def test_bernoulli_matches_brute_force_transport(self):
        # independent oracle: optimal coupling of two two-point distributions
        m = linear_prob_model([1.0])
        logit = lambda p: np.log(p / (1.0 - p))
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, q = rng.uniform(0.02, 0.98, size=2)
            got = w1_reduced(m, np.array([logit(p)]), np.array([logit(q)]))
            brute = scipy.stats.wasserstein_distance(
                [0.0, 1.0], [0.0, 1.0], [1.0 - p, p], [1.0 - q, q])
            assert abs(got - brute) <= 1e-12
            assert abs(got - abs(p - q)) <= 1e-12

    def test_bernoulli_example_pair(self):
        m = linear_prob_model([1.0])
        logit = lambda p: np.log(p / (1.0 - p))
        got = w1_reduced(m, np.array([logit(0.9)]), np.array([logit(0.6)]))
        assert abs(got - 0.3) <= 1e-12

    def test_fixed_variance_gaussian_head(self):
        m = build_model("linear", 2, output="gaussian")
        m.params["w"] = np.array([[1.0], [1.0]])
        got = w1_reduced(m, np.array([1.0, 1.0]), np.array([0.0, 0.5]))
        assert abs(got - 1.5) <= 1e-12

    def test_batch_returns_per_instance_vector(self):
        m = linear_reg_model([2.0, 0.0])
        X = np.array([[1.0, 5.0], [0.0, 3.0]])
        Xp = np.array([[0.0, 9.0], [1.0, -1.0]])
        np.testing.assert_allclose(w1_reduced(m, X, Xp), [2.0, 2.0])

    def test_unsupported_output_distribution_rejected(self):
        m = Model("linear", "poisson", 2, None, {"w": np.ones((2, 1))})
        with pytest.raises(GraphError, match="unsupported output"):
            w1_reduced(m, np.ones(2), np.zeros(2))


class TestMindLoss:
    def test_identity_transform_costs_exactly_lambda(self):
        m = build_model("mlp", 3, output="probability", seed=1)
        t = GatingTransform(np.ones(3), np.zeros(3))
        X = np.random.default_rng(1).normal(size=(7, 3))
        cfg = MindConfig(lam=0.37)
        assert abs(mind_loss(m, t, X, cfg) - 0.37) <= 1e-12

    def test_identity_on_sequences_costs_lambda(self):
        m = build_model("seqconv", 2, seq_len=8, hidden=(4,), seed=2)
        t = GatingTransform(np.ones(2), np.zeros(2))
        X = np.random.default_rng(2).normal(size=(4, 2, 8))
        assert abs(mind_loss(m, t, X, MindConfig(lam=0.9)) - 0.9) <= 1e-12

    def test_identity_basis_gates_cost_lambda(self):
        m = build_model("seqconv", 2, seq_len=8, hidden=(4,), seed=3)
        basis = make_basis("pulse", 8, 4)
        from mindkit.transforms import BasisGatingTransform
        t = BasisGatingTransform(np.ones((2, 4)), np.zeros(2), basis)
        X = np.random.default_rng(3).normal(size=(4, 2, 8))
        got = mind_loss(m, t, X, MindConfig(lam=0.5))
        assert abs(got - 0.5) <= 1e-8

    def test_lambda_zero_is_pure_distance_term(self):
        m = linear_prob_model([1.0, -1.0])
        t = GatingTransform(np.array([0.5, 1.0]), np.array([0.2, 0.0]))
        X = np.random.default_rng(4).normal(size=(9, 2))
        Xp = X * t.g + t.b
        want = float(np.mean(w1_reduced(m, X, Xp)))
        got = mind_loss(m, t, X, MindConfig(lam=0.0))
        assert abs(got - want) <= 1e-12

    def test_hand_evaluated_linear_gating_instances(self):
        # three fixed instances, worked through the per-instance formula
        beta = np.array([1.0, -2.0, 0.5])
        g = np.array([0.8, 0.3, 1.0])
        lam = 0.7
        X = np.array([[1.0, 2.0, -1.0],
                      [0.5, -0.5, 2.0],
                      [-1.5, 1.0, 0.25]])
        m = linear_reg_model(beta)
        t = GatingTransform(g.copy(), np.zeros(3), intercept=False)
        got = mind_loss(m, t, X, MindConfig(lam=lam))
        Xp = X * g
        direct = np.abs(X @ beta - Xp @ beta) + lam * (
            np.sum(X * Xp, axis=1)
            / (np.linalg.norm(X, axis=1) * np.linalg.norm(Xp, axis=1)))
        np.testing.assert_allclose(got, direct.mean(), rtol=1e-12)
        np.testing.assert_allclose(got, 2.3516914091485432, rtol=1e-12)

    def test_inner_product_similarity_value(self):
        m = linear_reg_model([1.0, 1.0])
        t = GatingTransform(np.array([0.5, 0.0]), np.zeros(2),
                            intercept=False)
        X = np.array([[2.0, 3.0], [1.0, -1.0]])
        lam = 0.25
        got = mind_loss(m, t, X, MindConfig(lam=lam,
                                            similarity="inner_product"))
        Xp = X * t.g
        want = np.mean(np.abs((X - Xp) @ np.ones(2))) \
            + lam * np.mean(np.sum(X * Xp, axis=1))
        assert abs(got - want) <= 1e-12

    def test_l1_gate_similarity_counts_gate_mass(self):
        m = linear_prob_model([1.0, 1.0])
        t = GatingTransform(np.array([0.5, 0.25]), np.zeros(2),
                            intercept=False)
        X = np.random.default_rng(6).normal(size=(5, 2))
        lam = 0.1
        base = mind_loss(m, t, X, MindConfig(lam=0.0))
        got = mind_loss(m, t, X, MindConfig(lam=lam,
                                            similarity="l1_gate_weights"))
        assert abs(got - (base + lam * 0.75)) <= 1e-12

    def test_l1_similarity_rejects_residual_family(self):
        from mindkit.transforms import init_transform
        m = build_model("seqconv", 2, seq_len=6, hidden=(4,), seed=0)
        t = init_transform(TransformSpec("residual"), 2, 6,
                           np.random.default_rng(0))
        X = np.random.default_rng(1).normal(size=(3, 2, 6))
        with pytest.raises(TrainingError, match="gated transform"):
            mind_loss(m, t, X, MindConfig(similarity="l1_gate_weights"))

    def test_squared_distance_variant(self):
        m = linear_reg_model([1.0, -1.0])
        t = GatingTransform(np.array([0.3, 0.9]), np.zeros(2),
                            intercept=False)
        X = np.random.default_rng(7).normal(size=(6, 2))
        Xp = X * t.g
        diff = (X - Xp) @ np.array([1.0, -1.0])
        cos = np.sum(X * Xp, axis=1) / (np.linalg.norm(X, axis=1)
                                        * np.linalg.norm(Xp, axis=1))
        want = float(np.mean(diff ** 2) + 0.4 * np.mean(cos))
        got = mind_loss(m, t, X, MindConfig(lam=0.4, distance="squared"))
        assert abs(got - want) <= 1e-12

    def test_clip_at_zero_ignores_anticorrelated_instances(self):
        m = linear_prob_model([1.0, 1.0])
        t = GatingTransform(np.zeros(2), np.array([-1.0, -1.0]))
        X = np.array([[1.0, 1.0]])  # transform sends it to (-1, -1): cos -1
        lam = 0.6
        unclipped = mind_loss(m, t, X, MindConfig(lam=lam))
        clipped = mind_loss(m, t, X, MindConfig(
            lam=lam, clip_similarity_at_zero=True))
        assert abs((clipped - unclipped) - lam) <= 1e-12


class TestTrainTransform:
    def test_bit_reproducible(self):
        ds = classifier_dataset(seed=3)
        m = build_model("mlp", 3, output="probability", seed=3)
        cfg = MindConfig(lam=0.2, max_epochs=10, seed=4)
        t1, d1 = train_transform(m, TransformSpec("gating"), ds, cfg)
        t2, d2 = train_transform(m, TransformSpec("gating"), ds, cfg)
        np.testing.assert_array_equal(t1.g, t2.g)
        np.testing.assert_array_equal(t1.b, t2.b)
        assert d1.val_curve == d2.val_curve

    def test_unsupported_output_fails_before_fitting(self, monkeypatch):
        def fit_stack(*args):
            raise AssertionError("fit_stack reached")

        monkeypatch.setattr(mt, "fit_stack", fit_stack)
        m = Model("linear", "poisson", 3, None, {"w": np.ones((3, 1))})
        with pytest.raises(GraphError, match="unsupported output"):
            train_transform(m, TransformSpec("gating"), classifier_dataset(),
                            MindConfig(max_epochs=2))

    @pytest.mark.parametrize("spec,restarts", [
        (TransformSpec("gating"), 2), (TransformSpec("residual"), 1)])
    def test_problem_params_are_views_of_the_fit_buffer(self, monkeypatch,
                                                        spec, restarts):
        # a reshape that copied would leave a parameter behind, unfitted
        seen = {}
        real_init, real_fit = mt._Problem.__init__, mt.fit_stack

        def init(self, model, transform, config, params):
            seen["params"] = params  # the last one built is the fit's
            real_init(self, model, transform, config, params)

        def fit_stack(params, *args):
            seen["flat"] = params
            return real_fit(params, *args)

        monkeypatch.setattr(mt._Problem, "__init__", init)
        monkeypatch.setattr(mt, "fit_stack", fit_stack)
        rng = np.random.default_rng(1)
        if spec.kind == "residual":
            X = rng.standard_normal((60, 2, 6))
            m = build_model("seqconv", 2, seq_len=6, hidden=(3,), seed=1)
        else:
            X = rng.standard_normal((60, 3))
            m = build_model("mlp", 3, output="probability", seed=1)
        ds = from_arrays(X, (X.reshape(60, -1)[:, 0] > 0).astype(float),
                         {"train": np.arange(45),
                          "validation": np.arange(45, 60)})
        res = multi_restart(m, spec, ds, MindConfig(
            restarts=restarts, top_k=1, max_epochs=2, seed=2))
        flat, params = seen["flat"], seen["params"]
        assert flat.shape[0] == restarts
        for v in params.values():
            assert v.shape[0] == restarts
            assert np.shares_memory(v, flat)
        assert flat.shape[1] == sum(v[0].size for v in params.values())
        # each restart's transform is its row of the buffer, copied back
        t, i = res.transforms[0], res.selected[0]
        np.testing.assert_array_equal(flat[i], np.concatenate(
            [t.params[k].ravel() for k in params]))

    def test_lambda_zero_learns_identity_like_transform(self):
        ds = classifier_dataset(seed=0)
        m = build_model("mlp", 3, output="probability", seed=0)
        cfg = MindConfig(lam=0.0, max_epochs=30, seed=1)
        _, diag = train_transform(m, TransformSpec("gating"), ds, cfg)
        assert diag.w1_mean < 1e-3

    def test_model_ignoring_a_feature_gets_its_gate_zeroed(self):
        ds = classifier_dataset(seed=0)
        m = build_model("mlp", 3, output="probability", seed=2)
        m.params["w0"][0, :] = 0.0  # feature 0 never influences the output
        Xtr, _ = ds.split("train")
        lam = weak_invariance_lambda(0.01, Xtr[:, 0])
        cfg = MindConfig(lam=lam, similarity="inner_product",
                         max_epochs=60, seed=3)
        t, _ = train_transform(m, TransformSpec("gating", intercept=False),
                               ds, cfg)
        assert t.g[0] < 0.01
        assert t.g[1] > 0.5 and t.g[2] > 0.5

    def test_gates_respect_box_throughout(self):
        ds = classifier_dataset(seed=5)
        m = build_model("mlp", 3, output="probability", seed=5)
        cfg = MindConfig(lam=1.0, lr=0.3, max_epochs=15, seed=6)
        t, diag = train_transform(m, TransformSpec("gating"), ds, cfg)
        assert 0.0 <= diag.gate_min <= diag.gate_max <= 1.0
        assert np.all((t.g >= 0.0) & (t.g <= 1.0))

    def test_labels_never_influence_the_fit(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((120, 3))
        splits = {"train": np.arange(90), "validation": np.arange(90, 120)}
        ds_a = from_arrays(X, np.zeros(120), splits)
        ds_b = from_arrays(X, np.ones(120), splits)
        m = build_model("mlp", 3, output="probability", seed=7)
        cfg = MindConfig(lam=0.3, max_epochs=8, seed=9)
        ta, _ = train_transform(m, TransformSpec("gating"), ds_a, cfg)
        tb, _ = train_transform(m, TransformSpec("gating"), ds_b, cfg)
        np.testing.assert_array_equal(ta.g, tb.g)
        np.testing.assert_array_equal(ta.b, tb.b)

    def test_returns_best_validation_epoch(self):
        ds = classifier_dataset(seed=2)
        m = build_model("mlp", 3, output="probability", seed=1)
        cfg = MindConfig(lam=0.5, max_epochs=20, seed=2)
        t, diag = train_transform(m, TransformSpec("gating"), ds, cfg)
        assert diag.val_loss == min(diag.val_curve)
        Xva, _ = ds.split("validation")
        recomputed = mind_loss(m, t, Xva, cfg)
        np.testing.assert_allclose(recomputed, diag.val_loss, rtol=1e-9)

    def test_records_lr_per_epoch(self):
        ds = classifier_dataset(seed=2)
        m = build_model("mlp", 3, output="probability", seed=1)
        cfg = MindConfig(lam=0.5, max_epochs=20, patience=1, seed=2)
        _, diag = train_transform(m, TransformSpec("gating"), ds, cfg)
        assert len(diag.lr_curve) == len(diag.val_curve) == diag.epochs
        assert diag.lr_curve[0] == cfg.lr
        assert min(diag.lr_curve) < cfg.lr  # patience 1 halves the rate
        assert all(b <= a for a, b in zip(diag.lr_curve, diag.lr_curve[1:]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_model_output_rejected(self, monkeypatch, bad):
        # checked once when the fit starts, with the error a sweep gives
        ds = classifier_dataset(seed=5)
        m = build_model("mlp", 3, output="probability", seed=5)
        cfg = MindConfig(lam=0.2, restarts=3, top_k=2, max_epochs=2, seed=7)
        real = mt.predict

        def predict(model, X):
            out = np.array(real(model, X))
            out[-1] = bad
            return out

        monkeypatch.setattr(mt, "predict", predict)
        msg = r"^tensor requires finite values \(NaN/Inf rejected\)$"
        with pytest.raises(GraphError, match=msg):
            multi_restart(m, TransformSpec("gating"), ds, cfg)
        with pytest.raises(GraphError, match=msg):
            train_transform(m, TransformSpec("gating"), ds, cfg)

    def test_missing_validation_split_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        ds = from_arrays(X, np.zeros(30), {"train": np.arange(30)})
        m = build_model("mlp", 2, output="probability", seed=0)
        from mindkit.errors import DataError
        with pytest.raises(DataError):
            train_transform(m, TransformSpec("gating"), ds, MindConfig())

    def _oracle_problem(self, X, beta, lam, seed):
        idx = np.arange(len(X))
        ds = from_arrays(X, X @ beta, {"train": idx, "validation": idx},
                         task="regression")
        m = linear_reg_model(beta)
        cfg = MindConfig(lam=lam, similarity="inner_product",
                         distance="squared", max_epochs=500, lr=0.05,
                         seed=seed)
        t, _ = train_transform(m, TransformSpec("gating", intercept=False),
                               ds, cfg)
        sol = closed_form_gating(
            ClosedFormInputs(beta, second_moment(ds.X[idx]), lam))
        return t.g, sol

    def test_squared_inner_product_matches_closed_form_interior(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((500, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        g, sol = self._oracle_problem(X, np.array([1.0, -0.7, 0.3]),
                                      lam=0.1, seed=11)
        assert not sol.degenerate
        assert np.max(np.abs(g - sol.gates)) < 1e-3

    def test_squared_inner_product_matches_closed_form_clamped(self):
        # exactly orthonormal zero-mean columns decouple the clamped gate
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((500, 3))
        Q, _ = np.linalg.qr(raw - raw.mean(axis=0))
        X = Q * np.sqrt(500)
        g, sol = self._oracle_problem(X, np.array([1.0, -0.7, 0.3]),
                                      lam=0.5, seed=12)
        assert sol.gates[2] == 0.0  # the weak feature clamps at zero
        assert np.max(np.abs(g - sol.gates)) < 1e-3


class TestTuneLambda:
    def test_default_grid_is_geometric(self):
        grid = lambda_grid()
        assert grid[0] == 1e-4
        assert grid[-1] <= 100.0 < grid[-1] * 2.0
        ratios = np.diff(np.log(grid))
        np.testing.assert_allclose(ratios, np.log(2.0), rtol=1e-12)

    def test_constant_model_returns_smallest_lambda(self):
        ds = classifier_dataset(seed=0)
        m = build_model("mlp", 3, hidden=(8,), output="probability", seed=0)
        m.params["w1"][:] = 0.0
        m.params["b1"][:] = 0.0
        res = tune_lambda(m, TransformSpec("gating"), ds,
                          MindConfig(max_epochs=40, seed=5),
                          grid=[1e-4, 1e-2, 1.0])
        assert res.feasible
        assert res.lam == 1e-4
        assert res.diagnostics.w1_mean == 0.0

    def test_interior_lambda_balances_both_limits(self):
        ds, m = concentrated_dataset()
        cfg = MindConfig(similarity="inner_product", max_epochs=80, seed=7)
        grid = [1e-3, 0.05, 10.0]
        res = tune_lambda(m, TransformSpec("gating", intercept=False),
                          ds, cfg, grid=grid)
        assert res.feasible
        assert res.lam == 0.05  # interior: neither endpoint
        assert res.diagnostics.w1_mean <= cfg.w1_limit
        assert res.diagnostics.cosine_mean <= cfg.cosine_limit
        # the small-lambda point failed on similarity, not W1
        first = res.trace[0]
        assert not first["feasible"]
        assert first["cosine"] > cfg.cosine_limit
        assert first["w1"] <= cfg.w1_limit

    def test_large_lambda_violates_w1_limit(self):
        ds, m = concentrated_dataset()
        cfg = MindConfig(lam=10.0, similarity="inner_product",
                         max_epochs=80, seed=7)
        _, diag = train_transform(m, TransformSpec("gating", intercept=False),
                                  ds, cfg)
        assert diag.w1_mean > cfg.w1_limit

    def test_infeasible_limits_flagged(self):
        ds, m = concentrated_dataset()
        cfg = MindConfig(similarity="inner_product", max_epochs=40, seed=7,
                         w1_limit=1e-9, cosine_limit=1e-9)
        res = tune_lambda(m, TransformSpec("gating", intercept=False),
                          ds, cfg, grid=[0.01, 1.0])
        assert not res.feasible
        assert len(res.trace) == 2
        assert all(not row["feasible"] for row in res.trace)
        assert res.lam == 0.01  # least relative violation

    def test_unsorted_grid_is_sorted_first(self):
        ds = classifier_dataset(seed=0)
        m = build_model("mlp", 3, hidden=(8,), output="probability", seed=0)
        m.params["w1"][:] = 0.0
        m.params["b1"][:] = 0.0
        res = tune_lambda(m, TransformSpec("gating"), ds,
                          MindConfig(max_epochs=40, seed=5),
                          grid=[1.0, 1e-4, 1e-2])
        assert res.lam == 1e-4

    def test_failed_grid_point_is_recorded_not_fatal(self, monkeypatch):
        real = mt.train_transform
        def fails_at_small_lambda(model, tspec, dataset, config, *,
                                  restart=0):
            if config.lam == 1e-4:
                raise TrainingError("synthetic failure")
            return real(model, tspec, dataset, config, restart=restart)
        monkeypatch.setattr(mt, "train_transform", fails_at_small_lambda)
        ds = classifier_dataset(seed=0)
        m = build_model("mlp", 3, hidden=(8,), output="probability", seed=0)
        m.params["w1"][:] = 0.0
        m.params["b1"][:] = 0.0
        res = tune_lambda(m, TransformSpec("gating"), ds,
                          MindConfig(max_epochs=40, seed=5),
                          grid=[1e-4, 1e-2, 1.0])
        assert res.feasible and res.lam == 1e-2
        assert res.trace[0] == {"lambda": 1e-4, "w1": None, "cosine": None,
                                "val_loss": None, "feasible": False,
                                "error": "synthetic failure"}
        assert len(res.trace) == 2

    def test_every_grid_point_failing_is_an_error(self, monkeypatch):
        def always_fail(model, tspec, dataset, config, *, restart=0):
            raise TrainingError("synthetic failure")
        monkeypatch.setattr(mt, "train_transform", always_fail)
        ds = classifier_dataset(seed=0)
        m = build_model("mlp", 3, output="probability", seed=0)
        with pytest.raises(TrainingError, match="every one of 2 lambda"):
            tune_lambda(m, TransformSpec("gating"), ds, MindConfig(),
                        grid=[1e-2, 1.0])


class TestMultiRestart:
    def test_single_restart_degenerates_to_one_fit(self):
        ds = classifier_dataset(seed=1)
        m = build_model("mlp", 3, output="probability", seed=1)
        cfg = MindConfig(lam=0.2, restarts=1, top_k=1, max_epochs=8, seed=3)
        res = multi_restart(m, TransformSpec("gating"), ds, cfg)
        t, diag = train_transform(m, TransformSpec("gating"), ds, cfg,
                                  restart=0)
        np.testing.assert_array_equal(res.mean, t.g)
        np.testing.assert_array_equal(res.std, np.zeros(3))
        assert res.selected == [0]
        assert res.samples.shape == (1, 3)
        assert res.diagnostics[0].val_loss == diag.val_loss

    def test_identical_streams_give_zero_spread(self, monkeypatch):
        real = mt.substream
        monkeypatch.setattr(
            mt, "substream",
            lambda seed, label: real(seed, re.sub(r"restart\d+", "restart0",
                                                  label)))
        ds = classifier_dataset(seed=2)
        m = build_model("mlp", 3, output="probability", seed=2)
        cfg = MindConfig(lam=0.2, restarts=3, top_k=3, max_epochs=6, seed=4)
        res = multi_restart(m, TransformSpec("gating"), ds, cfg)
        # mean = (3x)/3 is not bit-exactly x, so allow rounding dust
        np.testing.assert_allclose(res.std, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(res.rho_std, np.zeros(3), atol=1e-14)

    def test_reproducible_across_calls(self):
        ds = classifier_dataset(seed=3)
        m = build_model("mlp", 3, output="probability", seed=3)
        cfg = MindConfig(lam=0.3, restarts=3, top_k=2, max_epochs=6, seed=5)
        a = multi_restart(m, TransformSpec("gating"), ds, cfg)
        b = multi_restart(m, TransformSpec("gating"), ds, cfg)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.std, b.std)
        assert a.selected == b.selected

    def test_parallel_matches_serial(self):
        ds = classifier_dataset(seed=4, n=100)
        m = build_model("mlp", 3, output="probability", seed=4)
        cfg = MindConfig(lam=0.3, restarts=2, top_k=2, max_epochs=6, seed=6)
        serial = multi_restart(m, TransformSpec("gating"), ds, cfg, threads=1)
        parallel = multi_restart(m, TransformSpec("gating"), ds, cfg,
                                 threads=2)
        np.testing.assert_array_equal(serial.mean, parallel.mean)
        np.testing.assert_array_equal(serial.std, parallel.std)
        assert serial.selected == parallel.selected

    def test_failed_restarts_are_recorded_and_excluded(self, monkeypatch):
        real = mt._init_restart
        def flaky(tspec, dataset, config, restart):
            transform, run = real(tspec, dataset, config, restart)
            if restart == 1:
                run.error = "synthetic failure"
            return transform, run
        monkeypatch.setattr(mt, "_init_restart", flaky)
        ds = classifier_dataset(seed=5)
        m = build_model("mlp", 3, output="probability", seed=5)
        cfg = MindConfig(lam=0.2, restarts=3, top_k=2, max_epochs=5, seed=7)
        res = multi_restart(m, TransformSpec("gating"), ds, cfg)
        assert res.failed == [1]
        assert res.failure_reasons == ["synthetic failure"]
        assert set(res.selected) <= {0, 2}
        assert len(res.diagnostics) == 2

    def test_too_few_successes_is_an_error(self, monkeypatch):
        real = mt._init_restart
        def always_fail(tspec, dataset, config, restart):
            transform, run = real(tspec, dataset, config, restart)
            run.error = "synthetic failure"
            return transform, run
        monkeypatch.setattr(mt, "_init_restart", always_fail)
        ds = classifier_dataset(seed=6)
        m = build_model("mlp", 3, output="probability", seed=6)
        cfg = MindConfig(lam=0.2, restarts=3, top_k=2, max_epochs=5, seed=8)
        with pytest.raises(TrainingError, match="restarts succeeded"):
            multi_restart(m, TransformSpec("gating"), ds, cfg)

    def test_residual_family_reports_correlation_scores(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((80, 2, 8))
        y = (X.mean(axis=(1, 2)) > 0).astype(float)
        ds = from_arrays(X, y, {"train": np.arange(60),
                                "validation": np.arange(60, 80)})
        m = build_model("seqconv", 2, seq_len=8, hidden=(4,), seed=7)
        cfg = MindConfig(lam=0.1, restarts=2, top_k=2, max_epochs=4, seed=9)
        res = multi_restart(m, TransformSpec("residual"), ds, cfg)
        assert res.score_kind == "correlation"
        assert res.mean.shape == (2,)
        np.testing.assert_array_equal(res.mean, res.rho_mean)

    def test_channel_gate_summaries(self):
        samples = np.array([[[1.0, 0.0], [0.5, 0.5]],
                            [[0.0, 1.0], [0.5, 0.5]]])  # (runs, d, C)
        res = MindResult(score_kind="gates_by_channel", samples=samples,
                         mean=samples.mean(axis=0), std=samples.std(axis=0),
                         rho_mean=np.zeros(2), rho_std=np.zeros(2),
                         selected=[0, 1], failed=[], diagnostics=[],
                         transforms=[], lam=0.1)
        np.testing.assert_allclose(res.feature_scores(), [0.5, 0.5])
        np.testing.assert_allclose(res.feature_spread(), [0.0, 0.0])

    def test_gate_summaries_spread(self):
        samples = np.array([[1.0, 0.2], [0.0, 0.4]])
        res = MindResult(score_kind="gates", samples=samples,
                         mean=samples.mean(axis=0), std=samples.std(axis=0),
                         rho_mean=np.zeros(2), rho_std=np.zeros(2),
                         selected=[0, 1], failed=[], diagnostics=[],
                         transforms=[], lam=0.1)
        np.testing.assert_allclose(res.feature_scores(), [0.5, 0.3])
        np.testing.assert_allclose(res.feature_spread(), [0.5, 0.1])


def nan_loss_at(monkeypatch, step, index):
    """Make the stacked loss of slot `index` NaN at training step `step`."""
    real = mt._Problem.value_and_grad
    calls = iter(range(10 ** 9))

    def patched(self, rows):
        losses, grads = real(self, rows)
        if next(calls) == step:
            losses = losses.copy()
            losses[index] = np.nan
        return losses, grads

    monkeypatch.setattr(mt._Problem, "value_and_grad", patched)


class TestStackedRestarts:
    # Stacking only reorders float sums (the frozen model runs over all
    # R * B rows at once), so stacked and one-restart fits agree to the
    # last bits; 1e-9 leaves a wide margin over the ~1e-14 seen.
    TOL = 1e-9

    def _chunks_of_one(self, monkeypatch):
        monkeypatch.setattr(mt, "CHUNK_VALUES", 1)

    def test_nonfinite_loss_fails_only_that_restart(self, monkeypatch):
        ds = classifier_dataset(seed=5)
        m = build_model("mlp", 3, output="probability", seed=5)
        cfg = MindConfig(lam=0.2, restarts=3, top_k=2, max_epochs=6, seed=7)
        clean = multi_restart(m, TransformSpec("gating"), ds, cfg)
        with monkeypatch.context() as patch:
            nan_loss_at(patch, step=3, index=0)
            with pytest.raises(TrainingError) as serial:
                train_transform(m, TransformSpec("gating"), ds, cfg,
                                restart=1)
        nan_loss_at(monkeypatch, step=3, index=1)
        res = multi_restart(m, TransformSpec("gating"), ds, cfg)
        assert res.failed == [1]
        assert res.failure_reasons == [str(serial.value)]
        assert str(serial.value).startswith(
            "non-finite training loss in transform restart 1 at epoch 0")
        assert sorted(d.restart for d in res.diagnostics) == [0, 2]
        # the survivors are untouched by the failure, bit for bit
        survivors = {d.restart: d for d in clean.diagnostics}
        for d in res.diagnostics:
            assert d.val_curve == survivors[d.restart].val_curve
        assert res.selected == [r for r in clean.selected if r != 1]
        np.testing.assert_array_equal(res.samples, clean.samples[
            [clean.selected.index(r) for r in res.selected]])

    def test_nonfinite_parameter_fails_only_that_restart(self, monkeypatch):
        # the sweeps leave parameters unchecked: a NaN shows in the loss
        ds = classifier_dataset(seed=5)
        m = build_model("mlp", 3, output="probability", seed=5)
        cfg = MindConfig(lam=0.2, restarts=3, top_k=2, max_epochs=6, seed=7)
        clean = multi_restart(m, TransformSpec("gating"), ds, cfg)
        real = mt._Problem.value_and_grad
        calls = iter(range(10 ** 9))

        def patched(self, rows):
            if next(calls) == 3:
                self.params[self.transform.gate_key][1, 0] = np.nan
            return real(self, rows)

        monkeypatch.setattr(mt._Problem, "value_and_grad", patched)
        res = multi_restart(m, TransformSpec("gating"), ds, cfg)
        assert res.failed == [1]
        assert res.failure_reasons[0].startswith(
            "non-finite training loss in transform restart 1 at epoch 0")
        survivors = {d.restart: d for d in clean.diagnostics}
        for d in res.diagnostics:
            assert d.val_curve == survivors[d.restart].val_curve

    def test_failed_stack_of_one_raises_the_serial_error(self,
                                                        monkeypatch):
        ds = classifier_dataset(seed=5)
        m = build_model("mlp", 3, output="probability", seed=5)
        cfg = MindConfig(lam=0.2, max_epochs=6, seed=7)
        nan_loss_at(monkeypatch, step=0, index=0)
        with pytest.raises(TrainingError, match=re.escape(
                "non-finite training loss in transform restart 4 at epoch "
                "0 (lr=0.05)")):
            train_transform(m, TransformSpec("gating"), ds, cfg, restart=4)

    def test_mlp_gating_stack_matches_chunks_of_one(self, monkeypatch):
        ds = classifier_dataset(seed=5)
        m = build_model("mlp", 3, output="probability", seed=5)
        cfg = MindConfig(lam=0.2, restarts=3, top_k=3, max_epochs=30,
                         seed=7)
        stacked = multi_restart(m, TransformSpec("gating"), ds, cfg)
        self._chunks_of_one(monkeypatch)
        single = multi_restart(m, TransformSpec("gating"), ds, cfg)
        self._assert_close(stacked, single)

    def test_seqconv_gating_stack_matches_chunks_of_one(self, monkeypatch):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 2, 8))
        y = (X.mean(axis=(1, 2)) > 0).astype(float)
        ds = from_arrays(X, y, {"train": np.arange(45),
                                "validation": np.arange(45, 60)})
        m = build_model("seqconv", 2, seq_len=8, hidden=(4,), seed=7)
        cfg = MindConfig(lam=0.1, restarts=3, top_k=3, max_epochs=10,
                         seed=9)
        spec = TransformSpec("gating")
        # the budget lets this graph stack
        assert mt._chunks(m, spec, ds, cfg) == [[0, 1, 2]]
        stacked = multi_restart(m, spec, ds, cfg)
        self._chunks_of_one(monkeypatch)
        single = multi_restart(m, spec, ds, cfg)
        self._assert_close(stacked, single)
        for a, b in zip(stacked.transforms, single.transforms):
            for k in a.params:
                np.testing.assert_allclose(a.params[k], b.params[k],
                                           rtol=0, atol=self.TOL)

    def _assert_close(self, stacked, single):
        assert stacked.selected == single.selected
        np.testing.assert_allclose(stacked.samples, single.samples,
                                   rtol=0, atol=self.TOL)
        for a, b in zip(stacked.diagnostics, single.diagnostics):
            assert a.epochs == b.epochs and a.stop_reason == b.stop_reason
            np.testing.assert_allclose(a.val_curve, b.val_curve,
                                       rtol=self.TOL)
            np.testing.assert_allclose(a.train_curve, b.train_curve,
                                       rtol=self.TOL)

    @pytest.mark.parametrize("restarts,values,sizes", [
        (8, 13_117, [4, 4]),     # MLP gating, d=14, hidden 16, B=100
        (3, 13_117, [3]),        # the same graph in a sanity refit
        (8, 62_285, [1] * 8),    # seqconv gating, d=6, T=12, B=90
        (8, 75_305, [1] * 8),    # graphs of seqconv basis gating's and
        (8, 202_709, [1] * 8),   # the residual net's size
        (3, 62_285, [1] * 3),
    ])
    def test_chunk_sizes_for_the_measured_graphs(self, restarts, values,
                                                 sizes):
        chunks = mt.restart_chunks(restarts, values)
        assert [len(c) for c in chunks] == sizes
        assert [r for c in chunks for r in c] == list(range(restarts))

    def test_pipeline_mlp_graph_runs_as_4_plus_4(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((900, 14))
        ds = from_arrays(X, (X[:, 2] > 0).astype(float),
                         {"train": np.arange(540),
                          "validation": np.arange(540, 720)})
        m = build_model("mlp", 14, hidden=(16,), output="probability")
        cfg = MindConfig(similarity="inner_product", seed=1)
        values = mt._values_per_restart(m, TransformSpec("gating"), ds, cfg)
        assert values == 13_117
        for restarts, sizes in ((8, [4, 4]), (3, [3]), (1, [1])):
            chunks = mt._chunks(m, TransformSpec("gating"), ds,
                                MindConfig(similarity="inner_product", seed=1,
                                           restarts=restarts, top_k=1))
            assert [len(c) for c in chunks] == sizes

    @pytest.mark.parametrize("spec", [
        TransformSpec("residual"),
        TransformSpec("basis", basis=make_basis("pulse", 6, 3))],
        ids=["residual", "basis"])
    def test_only_gating_restarts_stack(self, spec, monkeypatch):
        # the seq graph of the CLI tests: n=200, d=3, T=6, hidden 4
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 3, 6))
        ds = from_arrays(X, (X[:, 0].mean(axis=1) > 0).astype(float),
                         {"train": np.arange(150),
                          "validation": np.arange(150, 200)})
        m = build_model("seqconv", 3, seq_len=6, hidden=(4,), seed=4)
        cfg = MindConfig(restarts=2, top_k=2)
        # small enough that the budget would stack both restarts
        assert 2 * mt._values_per_restart(m, spec, ds, cfg) <= \
            mt.CHUNK_VALUES
        monkeypatch.setattr(mt, "_values_per_restart", None)  # not sized
        assert mt._chunks(m, spec, ds, cfg) == [[0], [1]]
        assert mt._chunks(m, spec, ds, replace(cfg, restarts=8)) == \
            [[r] for r in range(8)]
        t = init_transform(spec, 3, 6, rng)
        with pytest.raises(TrainingError, match="do not stack"):
            mt._Problem(m, t, cfg, {k: np.stack([v, v])
                                    for k, v in t.params.items()})

    def _recording_pool(self, monkeypatch):
        """ProcessPoolExecutor stand-in that runs in-process and records
        the worker count it was asked for."""
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(mt, "ProcessPoolExecutor", Pool)
        return asked

    def test_pool_is_capped_at_the_chunk_count(self, monkeypatch):
        asked = self._recording_pool(monkeypatch)
        ds = classifier_dataset(seed=4, n=100)
        m = build_model("mlp", 3, output="probability", seed=4)
        cfg = MindConfig(lam=0.3, restarts=3, top_k=2, max_epochs=3, seed=6)
        multi_restart(m, TransformSpec("gating"), ds, cfg, threads=8)
        assert asked == []  # one chunk runs in this process
        self._chunks_of_one(monkeypatch)
        multi_restart(m, TransformSpec("gating"), ds, cfg, threads=8)
        multi_restart(m, TransformSpec("gating"), ds, cfg, threads=2)
        assert asked == [3, 2]

    def test_threads_below_one_rejected(self):
        ds = classifier_dataset(seed=4, n=100)
        m = build_model("mlp", 3, output="probability", seed=4)
        with pytest.raises(TrainingError, match="threads"):
            multi_restart(m, TransformSpec("gating"), ds,
                          MindConfig(restarts=1, top_k=1), threads=0)

    def test_two_workers_match_one_bit_for_bit(self, monkeypatch):
        ds = classifier_dataset(seed=4, n=100)
        m = build_model("mlp", 3, output="probability", seed=4)
        cfg = MindConfig(lam=0.3, restarts=4, top_k=3, max_epochs=4, seed=6)
        monkeypatch.setattr(mt, "CHUNK_VALUES",
                            2 * mt._values_per_restart(
                                m, TransformSpec("gating"), ds, cfg))
        serial = multi_restart(m, TransformSpec("gating"), ds, cfg, threads=1)
        pooled = multi_restart(m, TransformSpec("gating"), ds, cfg, threads=2)
        np.testing.assert_array_equal(serial.samples, pooled.samples)
        assert serial.selected == pooled.selected
        assert [d.val_curve for d in serial.diagnostics] == \
            [d.val_curve for d in pooled.diagnostics]


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"lam": -0.1},
        {"similarity": "l2"},
        {"distance": "w2"},
        {"restarts": 2, "top_k": 5},
        {"top_k": 0},
        {"w1_limit": 0.0},
        {"cosine_limit": -1.0},
        {"lr": 0.0},
        {"max_epochs": 0},
        {"batch_size": 0},
        {"batch_size": -5},
        {"lam": float("inf")},
        {"lam": float("nan")},
    ])
    def test_bad_configs_rejected(self, kw):
        with pytest.raises(TrainingError):
            MindConfig(**kw)

    def test_batch_size_null_means_the_default(self):
        assert MindConfig(batch_size=None).batch_size is None
        assert MindConfig(batch_size=1).batch_size == 1
