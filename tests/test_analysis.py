"""Closed-form gate solutions, attribution baselines, rank statistics,
report assembly, and the damaged-model sanity harness."""
import json

import numpy as np
import pytest
import scipy.special
import scipy.stats

import mindkit.diffcore as dc
import mindkit.mindtrain as mt
from mindkit.analysis import (ClosedFormInputs, SanityOutcome,
                              closed_form_gating, completeness_gap,
                              correlation_profile, integrated_gradients,
                              integrated_gradients_scores, restart_baseline,
                              saliency_scores, sanity_check, second_moment,
                              spearman, spearman_p, weak_invariance_lambda)
from mindkit.data import from_arrays
from mindkit.errors import AnalysisError, GraphError, TrainingError
from mindkit.mindtrain import MindConfig, MindResult, multi_restart
from mindkit.models import (TrainConfig, build_model, forward_graph,
                            param_nodes, train)
from mindkit.schemas import validate_artifact
from mindkit.transforms import TransformSpec, make_basis

SQRT_2_OVER_PI = 0.7978845608028654


def linear_model(w):
    w = np.asarray(w, dtype=np.float64)
    m = build_model("linear", len(w))
    m.params["w"] = w[:, None].copy()
    return m


class TestClosedFormGating:
    def test_uncorrelated_unit_variance_has_per_feature_formula(self):
        # independent unit-variance features: g_j = 1 - lam / (2 beta_j^2)
        sol = closed_form_gating(
            ClosedFormInputs(np.array([1.0, 2.0]), np.eye(2), 1.0))
        np.testing.assert_allclose(sol.gates, [0.5, 0.875], rtol=1e-12)
        assert not sol.degenerate

    def test_gate_hits_zero_exactly_at_twice_squared_weight(self):
        beta = np.array([1.0, 2.0])
        sol = closed_form_gating(ClosedFormInputs(beta, np.eye(2),
                                                  2.0 * beta[0] ** 2))
        assert sol.gates[0] == 0.0
        np.testing.assert_allclose(sol.gates[1], 0.75, rtol=1e-12)
        # past the threshold the stationary point leaves the box
        sol2 = closed_form_gating(ClosedFormInputs(beta, np.eye(2), 9.0))
        assert sol2.unclamped[0] < 0.0
        assert sol2.gates[0] == 0.0

    def test_gates_shrink_monotonically_with_lambda(self):
        beta = np.array([1.0, 2.0, 0.5])
        prev = None
        for lam in np.linspace(0.0, 9.0, 40):
            g = closed_form_gating(ClosedFormInputs(beta, np.eye(3),
                                                    lam)).gates
            if prev is not None:
                assert np.all(g <= prev + 1e-12)
            prev = g
        assert prev[0] == 0.0  # strong penalty eventually closes every gate

    def test_lambda_zero_keeps_identity(self):
        sol = closed_form_gating(
            ClosedFormInputs(np.array([0.3, -2.0]), np.eye(2), 0.0))
        np.testing.assert_array_equal(sol.gates, [1.0, 1.0])

    def test_correlated_interior_matches_grid_search(self):
        # independent oracle: dense evaluation of the quadratic objective
        C = np.array([[1.0, 0.9], [0.9, 1.0]])
        beta = np.array([1.0, 0.95])
        lam = 0.5
        sol = closed_form_gating(ClosedFormInputs(beta, C, lam))
        assert np.all((sol.unclamped > 0.0) & (sol.unclamped < 1.0))
        M = C * np.outer(beta, beta)
        c = np.diag(C)
        gs = np.linspace(0.0, 1.0, 401)
        G0, G1 = np.meshgrid(gs, gs, indexing="ij")
        obj = (M[0, 0] * (G0 - 1) ** 2
               + 2.0 * M[0, 1] * (G0 - 1) * (G1 - 1)
               + M[1, 1] * (G1 - 1) ** 2
               + lam * (G0 * c[0] + G1 * c[1]))
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        np.testing.assert_allclose(sol.gates, [gs[i], gs[j]], atol=5e-3)

    def test_duplicate_features_flagged_and_scored_equally(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal(400)
        X = np.column_stack([col, col, rng.standard_normal(400)])
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        sol = closed_form_gating(
            ClosedFormInputs(np.array([0.8, 0.8, 1.2]), second_moment(X),
                             0.4))
        assert sol.degenerate
        assert abs(sol.gates[0] - sol.gates[1]) <= 1e-6

    def test_input_validation(self):
        with pytest.raises(AnalysisError, match="matching beta"):
            ClosedFormInputs(np.ones(3), np.eye(2), 0.1)
        with pytest.raises(AnalysisError, match="symmetric"):
            ClosedFormInputs(np.ones(2), np.array([[1.0, 0.5], [0.0, 1.0]]),
                             0.1)
        with pytest.raises(AnalysisError, match="semidefinite"):
            ClosedFormInputs(np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                             0.1)
        for lam in (-0.5, float("inf"), float("nan")):
            with pytest.raises(AnalysisError, match="finite and nonnegative"):
                ClosedFormInputs(np.ones(2), np.eye(2), lam)

    def test_second_moment_matches_definition(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        want = sum(np.outer(x, x) for x in X) / 50.0
        np.testing.assert_allclose(second_moment(X), want, rtol=1e-12)
        with pytest.raises(AnalysisError):
            second_moment(np.zeros((2, 2, 2)))


class TestWeakInvarianceLambda:
    def test_alternating_unit_sample(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert weak_invariance_lambda(0.25, x) == 0.25

    def test_scale_covariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        base = weak_invariance_lambda(0.5, x)
        np.testing.assert_allclose(weak_invariance_lambda(0.5, 4.0 * x),
                                   base / 4.0, rtol=1e-12)

    def test_standard_normal_limit(self):
        # E|x| / E[x^2] -> sqrt(2/pi) for a standard normal
        x = np.random.default_rng(7).standard_normal(100_000)
        got = weak_invariance_lambda(1.0, x)
        assert abs(got - SQRT_2_OVER_PI) < 0.01

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(AnalysisError, match="identically zero"):
            weak_invariance_lambda(0.1, np.zeros(10))
        with pytest.raises(AnalysisError, match="nonnegative"):
            weak_invariance_lambda(-0.1, np.ones(10))


class TestCorrelationProfile:
    def test_gating_preserves_or_kills_correlation(self):
        X = np.random.default_rng(2).normal(size=(100, 3))
        Xp = X * np.array([0.5, 1.0, 0.0])
        rho = correlation_profile(X, Xp)
        np.testing.assert_allclose(rho[:2], [1.0, 1.0], rtol=1e-12)
        assert np.isnan(rho[2])  # zero variance: correlation undefined

    def test_constant_columns_read_nan(self):
        # the centred sums of squares of these columns do not round to 0:
        # each read about 1e-17 when variance was tested instead
        X = np.random.default_rng(6).normal(size=(135, 4))
        Xp = X.copy()
        Xp[:, :3] = [0.1, 0.3, 0.7]
        rho = correlation_profile(X, Xp)
        assert np.isnan(rho[:3]).all()
        assert rho[3] == pytest.approx(1.0, rel=1e-12)
        assert np.isnan(correlation_profile(Xp, X)[:3]).all()

    def test_sign_flip_gives_minus_one(self):
        X = np.random.default_rng(3).normal(size=(40, 2))
        np.testing.assert_allclose(correlation_profile(X, -X), [-1.0, -1.0],
                                   rtol=1e-12)

    def test_sequences_pool_over_time(self):
        X = np.random.default_rng(4).normal(size=(10, 2, 6))
        Xp = X + np.random.default_rng(5).normal(size=X.shape) * 0.1
        got = correlation_profile(X, Xp)
        flat = np.swapaxes(X, 1, 2).reshape(-1, 2)
        flatp = np.swapaxes(Xp, 1, 2).reshape(-1, 2)
        want = [scipy.stats.pearsonr(flat[:, j], flatp[:, j]).statistic
                for j in range(2)]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            correlation_profile(np.zeros((3, 2)), np.zeros((3, 3)))


class TestSaliency:
    def test_linear_model_gives_exact_weights(self):
        beta = np.array([1.5, -2.0, 0.25])
        m = linear_model(beta)
        X = np.random.default_rng(5).normal(size=(6, 3))
        np.testing.assert_allclose(saliency_scores(m, X), np.abs(beta),
                                   atol=1e-12)

    def test_mlp_matches_finite_differences(self):
        m = build_model("mlp", 3, hidden=(6,), output="probability", seed=1)
        X = np.random.default_rng(6).normal(size=(4, 3))
        from mindkit.models import predict
        h = 1e-5
        grads = np.zeros_like(X)
        for i in range(4):
            for j in range(3):
                up, dn = X.copy(), X.copy()
                up[i, j] += h
                dn[i, j] -= h
                grads[i, j] = (predict(m, up)[i] - predict(m, dn)[i]) / (2 * h)
        np.testing.assert_allclose(saliency_scores(m, X),
                                   np.abs(grads).mean(axis=0), rtol=1e-4)

    def test_sequence_model_pools_to_per_feature(self):
        m = build_model("seqconv", 3, seq_len=8, hidden=(4,), seed=2)
        X = np.random.default_rng(7).normal(size=(5, 3, 8))
        s = saliency_scores(m, X)
        assert s.shape == (3,)
        assert np.all(s >= 0.0)

    def test_single_sample_is_auto_batched(self):
        m = linear_model([2.0, -1.0])
        np.testing.assert_allclose(saliency_scores(m, np.array([1.0, 1.0])),
                                   [2.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("kind,shape", [("mlp", (2, 2, 3)),
                                            ("seqconv", (2, 2, 3, 8))])
    def test_wrong_rank_input_is_rejected(self, kind, shape):
        # the batch rule, and the error, are predict's
        m = build_model(kind, 3, seq_len=8, hidden=(4,), seed=2)
        with pytest.raises(GraphError, match=f"^{kind} expects"):
            saliency_scores(m, np.ones(shape))


class TestIntegratedGradients:
    def test_homogeneous_linear_attribution_is_exact(self):
        # constant gradient along the path: IG_j = beta_j * x_j at any steps
        beta = np.array([1.5, -2.0, 0.25])
        m = linear_model(beta)
        X = np.random.default_rng(5).normal(size=(6, 3))
        maps = integrated_gradients(m, X, steps=16)
        np.testing.assert_allclose(maps, X * beta, atol=1e-12)

    def test_completeness_identity_small_gap(self):
        m = build_model("mlp", 4, hidden=(16, 8), output="probability",
                        seed=0)
        X = np.random.default_rng(0).normal(size=(20, 4)) * 2.0
        assert completeness_gap(m, X, steps=128) < 1e-3

    def test_gap_shrinks_with_more_steps(self):
        m = build_model("mlp", 4, hidden=(16, 8), output="probability",
                        seed=0)
        X = np.random.default_rng(0).normal(size=(20, 4)) * 2.0
        assert completeness_gap(m, X, steps=256) < completeness_gap(m, X,
                                                                    steps=32)

    def test_score_pooling_matches_manual(self):
        m = build_model("mlp", 3, hidden=(5,), output="probability", seed=3)
        X = np.random.default_rng(8).normal(size=(7, 3))
        maps = integrated_gradients(m, X, steps=64)
        np.testing.assert_allclose(integrated_gradients_scores(m, X, steps=64),
                                   np.abs(maps).mean(axis=0), rtol=1e-12)

    # the seqconv batch is large enough for the graph to pool its buffers
    @pytest.mark.parametrize("kind,shape,steps", [
        ("mlp", (135, 14), 32), ("seqconv", (100, 4, 48), 6)])
    def test_one_graph_gives_the_maps_of_a_graph_per_step(self, kind, shape,
                                                          steps):
        m = build_model(kind, shape[1], seq_len=shape[-1], hidden=(8,),
                        output="probability", seed=4)
        X = np.random.default_rng(10).normal(size=shape)
        acc = np.zeros_like(X)
        for k in range(steps):
            x = dc.leaf("x", shape)
            graph = dc.Graph(dc.sum_(forward_graph(m, x, param_nodes(m))))
            acc += graph.gradient({"x": (k + 0.5) / steps * X},
                                  wrt=["x"])["x"]
        np.testing.assert_array_equal(integrated_gradients(m, X, steps),
                                      X * acc / steps)

    def test_bad_steps_rejected(self):
        m = linear_model([1.0])
        with pytest.raises(AnalysisError, match="positive"):
            integrated_gradients(m, np.ones((2, 1)), steps=0)

    @pytest.mark.parametrize("kind,shape", [("mlp", (2, 2, 3)),
                                            ("seqconv", (2, 2, 3, 8))])
    def test_wrong_rank_input_is_rejected(self, kind, shape):
        m = build_model(kind, 3, seq_len=8, hidden=(4,), seed=2)
        with pytest.raises(GraphError, match=f"^{kind} expects"):
            integrated_gradients(m, np.ones(shape), steps=2)


class TestSpearman:
    def test_known_rank_pair(self):
        rho, p = spearman(np.array([1, 2, 3, 4, 5]),
                          np.array([1, 3, 2, 5, 4]))
        np.testing.assert_allclose(rho, 0.8, rtol=1e-12)
        assert 0.0 < p < 1.0

    def test_monotone_and_reversed(self):
        x = np.arange(10.0)
        assert spearman(x, np.exp(x)) == (1.0, 0.0)
        assert spearman(x, -x)[0] == -1.0

    def test_matches_reference_implementation_with_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.integers(0, 6, size=12).astype(float)
            b = rng.integers(0, 6, size=12).astype(float)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            rho, p = spearman(a, b)
            ref = scipy.stats.spearmanr(a, b)
            if abs(ref.statistic) == 1.0:
                continue
            np.testing.assert_allclose(rho, ref.statistic, atol=1e-12)
            np.testing.assert_allclose(p, ref.pvalue, rtol=1e-9)

    @pytest.mark.parametrize("n", [*range(3, 61), 100, 1000, 5000, 20000])
    def test_pvalue_is_the_student_t_tail(self, n):
        rho = np.concatenate([np.linspace(-1.0, 1.0, 401)[1:-1],
                              [1e-12, -1e-6, 0.999999, -0.9999999999]])
        r = np.abs(rho)
        # 1 - rho^2 as (1 - |rho|)(1 + |rho|) keeps its digits near |rho| = 1
        t = r * np.sqrt((n - 2) / ((1.0 - r) * (1.0 + r)))
        want = 2.0 * scipy.special.stdtr(n - 2, -t)
        got = [spearman_p(float(v), n) for v in rho]
        # below the smallest normal double only subnormal digits are left
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=np.finfo(np.float64).tiny)

    @pytest.mark.parametrize("rho", [0.5, -0.5, 1e-6, 0.3, -0.999])
    def test_three_pairs_have_the_cauchy_tail(self, rho):
        # one degree of freedom: p = 1 - (2 / pi) atan|t|
        t = abs(rho) / np.sqrt((1.0 - rho) * (1.0 + rho))
        np.testing.assert_allclose(spearman_p(rho, 3),
                                   1.0 - 2.0 / np.pi * np.arctan(t),
                                   rtol=1e-13)
        assert spearman_p(1.0, 3) == spearman_p(-1.0, 3) == 0.0

    def test_constant_input_is_undefined(self):
        rho, p = spearman(np.ones(5), np.arange(5.0))
        assert np.isnan(rho) and np.isnan(p)

    def test_short_input_is_undefined(self):
        rho, _ = spearman(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert np.isnan(rho)
        assert np.isnan(spearman_p(0.5, 2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            spearman(np.ones(3), np.ones(4))


def quick_result(seed=1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((100, 3))
    y = (X @ np.array([1.0, -1.0, 0.0]) > 0).astype(float)
    ds = from_arrays(X, y, {"train": np.arange(75),
                            "validation": np.arange(75, 100)})
    m = build_model("mlp", 3, output="probability", seed=seed)
    cfg = MindConfig(lam=0.2, restarts=2, top_k=2, max_epochs=5, seed=seed)
    return multi_restart(m, TransformSpec("gating"), ds, cfg), cfg


class TestBuildReport:
    def test_report_validates_and_serializes(self):
        from mindkit.analysis import build_report
        res, cfg = quick_result()
        report = build_report(res, cfg, ["f0", "f1", "f2"])
        assert validate_artifact(report) == "mindkit.report/2"
        text = json.dumps(report, allow_nan=False)
        assert json.loads(text)["score_kind"] == "gates"
        assert len(report["score_mean"]) == 3
        assert len(report["restarts"]["runs"]) == 2

    def test_channel_block_for_two_axis_scores(self):
        from mindkit.analysis import build_report
        _, cfg = quick_result()
        samples = np.array([[[1.0, 0.0], [0.5, 0.5]],
                            [[0.0, 1.0], [0.5, 0.5]]])
        res = MindResult(score_kind="gates_by_channel", samples=samples,
                         mean=samples.mean(axis=0), std=samples.std(axis=0),
                         rho_mean=np.zeros(2), rho_std=np.zeros(2),
                         rho_undefined=np.zeros(2, dtype=int),
                         selected=[0, 1], failed=[], diagnostics=[],
                         transforms=[], lam=0.1)
        report = build_report(res, cfg, ["a", "b"],
                              channel_names=["mean", "window1"])
        assert validate_artifact(report) == "mindkit.report/2"
        assert report["channels"]["names"] == ["mean", "window1"]
        assert len(report["channels"]["score_mean"]) == 2

    def test_nan_scores_become_null(self):
        from mindkit.analysis import build_report
        res, cfg = quick_result()
        res.rho_mean = np.array([np.nan, 0.5, 1.0])
        report = build_report(res, cfg, ["f0", "f1", "f2"])
        assert report["correlation_mean"][0] is None
        json.dumps(report, allow_nan=False)  # must stay strict-JSON safe


def tiny_problem(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((90, 4))
    beta = np.array([2.0, 1.0, 0.5, 0.1])
    ds = from_arrays(X, X @ beta, {"train": np.arange(70),
                                   "validation": np.arange(70, 90)},
                     task="regression")
    m = build_model("linear", 4)
    m.params["w"] = beta[:, None].copy()
    return m, ds


class FakeResult:
    def __init__(self, scores):
        self._scores = np.asarray(scores, dtype=np.float64)

    def feature_scores(self):
        return self._scores


def fake_refits(monkeypatch, result):
    """Skip the refits: each instance's top-k result is `result(model)`,
    for the model that its jobs face."""
    monkeypatch.setattr(
        mt, "fit_jobs", lambda tspec, dataset, config, jobs, threads=1:
            [(job, None, None, "not fitted") for job in jobs])
    monkeypatch.setattr(mt, "top_k_result",
                        lambda config, outcomes: result(outcomes[0][0].model))


class TestSanityHarness:
    def test_outcome_statistics(self):
        out = SanityOutcome("w", [1.0, 0.5], 4, 0)
        assert out.rho_mean == 0.75
        np.testing.assert_allclose(out.rho_std, 0.25)
        empty = SanityOutcome("w", [], 4, 3)
        assert np.isnan(empty.rho_mean) and np.isnan(empty.rho_std)
        assert empty.undefined == 0

    def test_undefined_correlations_are_counted_not_spread(self):
        nan = float("nan")
        out = SanityOutcome("w", [0.5, nan, 1.0], 4, 0)
        assert out.undefined == 1
        assert out.rho_mean == 0.75
        np.testing.assert_allclose(out.rho_std, 0.25)
        none = SanityOutcome("w", [nan, nan], 4, 0)
        assert none.undefined == 2
        assert np.isnan(none.rho_mean) and np.isnan(none.rho_std)

    def test_pvalues_are_spearmans_bit_for_bit(self, monkeypatch):
        # the refits' rhos are kept, and their p-values computed when read
        m, ds = tiny_problem()
        rng = np.random.default_rng(12)
        ref = rng.normal(size=6)
        scores = [rng.normal(size=6), np.round(rng.normal(size=6)),
                  np.ones(6), ref, -ref, ref + 0.1 * rng.normal(size=6)]
        it = iter(scores)
        fake_refits(monkeypatch, lambda model: FakeResult(next(it)))
        out = restart_baseline(m, TransformSpec("gating"), ds,
                               MindConfig(restarts=3, top_k=3), ref,
                               instances=len(scores), seed=0)
        want = [spearman(ref, s) for s in scores]
        np.testing.assert_array_equal(out.rhos, [r for r, _ in want])
        np.testing.assert_array_equal(out.pvalues, [p for _, p in want])
        assert np.isnan(out.pvalues[2]) and out.pvalues[3:5] == [0.0, 0.0]
        three = [np.array([1.0, 3.0, 2.0]), np.array([2.0, 1.0, 3.0])]
        rho = spearman(*three)[0]
        assert SanityOutcome("w", [rho], 3, 0).pvalues == \
            [spearman(*three)[1]]

    def test_shuffled_scores_tracked_per_layer(self, monkeypatch):
        m, ds = tiny_problem()
        fake_refits(monkeypatch,
                    lambda model: FakeResult(np.abs(model.params["w"]).ravel()))
        ref = np.abs(m.params["w"]).ravel()
        outs = sanity_check(m, TransformSpec("gating"), ds,
                            MindConfig(restarts=3, top_k=3), ref,
                            shuffles=3, seed=0)
        assert [o.layer for o in outs] == ["w"]
        assert len(outs[0].rhos) == 3
        assert outs[0].failures == 0
        assert all(-1.0 <= r <= 1.0 for r in outs[0].rhos)

    def test_failed_fits_counted_not_fatal(self, monkeypatch):
        m, ds = tiny_problem()
        def boom(model):
            raise TrainingError("synthetic failure")
        fake_refits(monkeypatch, boom)
        outs = sanity_check(m, TransformSpec("gating"), ds,
                            MindConfig(restarts=3, top_k=3),
                            np.ones(4), shuffles=2, seed=0)
        assert outs[0].failures == 2
        assert outs[0].rhos == []
        assert np.isnan(outs[0].rho_mean)

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_refits_rejected(self, count):
        # zero refits would report every rho as undefined
        m, ds = tiny_problem()
        args = (m, TransformSpec("gating"), ds, MindConfig(), np.ones(4))
        with pytest.raises(AnalysisError, match="shuffles must be at least"):
            sanity_check(*args, shuffles=count)
        with pytest.raises(AnalysisError, match="instances must be at least"):
            restart_baseline(*args, instances=count)

    def test_baseline_on_intact_model_is_perfectly_ranked(self, monkeypatch):
        m, ds = tiny_problem()
        ref = np.abs(m.params["w"]).ravel()
        fake_refits(monkeypatch,
                    lambda model: FakeResult(np.abs(model.params["w"]).ravel()))
        out = restart_baseline(m, TransformSpec("gating"), ds,
                               MindConfig(restarts=3, top_k=3), ref,
                               instances=3, seed=0)
        assert out.layer == "baseline"
        assert out.rhos == [1.0, 1.0, 1.0]
        assert out.pvalues == [0.0, 0.0, 0.0]

    def test_seqconv_harness_writes_nothing(self, capfd):
        """Callers that print their own result line (the benchmark does)
        rely on the library staying silent on stdout and stderr."""
        rng = np.random.default_rng(3)
        X = rng.standard_normal((80, 3, 6))
        ds = from_arrays(X, (X[:, 1].mean(axis=1) > 0).astype(float),
                         {"train": np.arange(60),
                          "validation": np.arange(60, 80)})
        m = build_model("seqconv", 3, seq_len=6, hidden=(4,), seed=3)
        train(m, ds, TrainConfig(batch_size=16, max_epochs=2, seed=3))
        spec = TransformSpec("gating", intercept=False)
        cfg = MindConfig(lam=0.1, restarts=2, top_k=1, max_epochs=2, seed=4)
        ref = multi_restart(m, spec, ds, cfg).mean
        restart_baseline(m, spec, ds, cfg, ref, instances=1, seed=5)
        sanity_check(m, spec, ds, cfg, ref, shuffles=1, seed=6)
        for other in (TransformSpec("basis", basis=make_basis("chebyshev",
                                                              6, 3)),
                      TransformSpec("basis", basis=make_basis("pulse", 6, 3)),
                      TransformSpec("residual", intercept=False)):
            multi_restart(m, other, ds, cfg)
        assert capfd.readouterr() == ("", "")

    def test_real_end_to_end_smoke(self):
        m, ds = tiny_problem()
        cfg = MindConfig(lam=0.1, similarity="inner_product", restarts=5,
                         top_k=3, max_epochs=4, seed=1)
        ref = np.array([4.0, 3.0, 2.0, 1.0])
        outs = sanity_check(m, TransformSpec("gating", intercept=False), ds,
                            cfg, ref, shuffles=2, seed=2)
        base = restart_baseline(m, TransformSpec("gating", intercept=False),
                                ds, cfg, ref, instances=2, seed=2)
        assert cfg.restarts == 5  # caller's config is never mutated
        assert len(outs) == 1 and len(outs[0].rhos) == 2
        assert len(base.rhos) == 2
        assert all(np.isfinite(r) for r in base.rhos)
