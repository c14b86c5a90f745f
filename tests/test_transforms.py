"""Transformation families, temporal bases, lossless encode/decode, clamps."""
import json

import numpy as np
import pytest

import mindkit.diffcore as dc
from mindkit.errors import DataError, GraphError
from mindkit.transforms import (BasisGatingTransform, BasisSet,
                                GatingTransform, ResidualTransform,
                                TransformSpec, apply_transform,
                                clip01, decode, encode, gating_channels,
                                init_transform, load_transform, make_basis,
                                save_transform, window_split)


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestGating:
    def test_identity(self):
        t = GatingTransform(np.ones(3), np.zeros(3))
        X = rng_for(1).normal(size=(5, 3))
        np.testing.assert_array_equal(apply_transform(t, X), X)

    def test_full_suppression(self):
        t = GatingTransform(np.zeros(3), np.zeros(3))
        X = rng_for(2).normal(size=(5, 3))
        np.testing.assert_array_equal(apply_transform(t, X),
                                      np.zeros((5, 3)))

    def test_componentwise_formula_on_row_pair(self):
        # one (d=2, T=2) sequence: each row is a feature's timeline
        t = GatingTransform(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        X = np.array([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(apply_transform(t, X),
                                      [[3.0, 4.0], [2.0, 2.0]])

    def test_explicit_batch_flag_on_square_input(self):
        # the same square array read as a (B=2, d=2) batch instead
        t = GatingTransform(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        X = np.array([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(apply_transform(t, X, seq=False),
                                      [[3.0, 2.0], [5.0, 2.0]])

    def test_single_vector(self):
        t = GatingTransform(np.array([0.5, 2.0 / 4.0]), np.array([1.0, -1.0]))
        got = apply_transform(t, np.array([4.0, 8.0]))
        np.testing.assert_array_equal(got, [3.0, 3.0])
        assert got.shape == (2,)

    def test_sequence_batch_broadcasts_over_time(self):
        t = GatingTransform(np.array([2.0, 0.0, 1.0]),
                            np.array([0.0, 1.0, 0.0]))
        X = rng_for(3).normal(size=(4, 3, 6))
        got = apply_transform(t, X)
        np.testing.assert_allclose(got[:, 0], 2.0 * X[:, 0])
        np.testing.assert_array_equal(got[:, 1], np.ones((4, 6)))
        np.testing.assert_array_equal(got[:, 2], X[:, 2])

    def test_intercept_flag_disables_b(self):
        t = GatingTransform(np.ones(2), np.array([5.0, 5.0]), intercept=False)
        X = rng_for(4).normal(size=(3, 2))
        np.testing.assert_array_equal(apply_transform(t, X), X)

    def test_dimension_mismatch_rejected(self):
        t = GatingTransform(np.ones(3), np.zeros(3))
        with pytest.raises(GraphError, match="3 features"):
            apply_transform(t, np.ones((5, 4)))


class TestResidual:
    def _zero_conv2(self, t):
        for k in t.params:
            if "conv2" in k:
                t.params[k][:] = 0.0
        return t

    def test_zero_second_convs_give_identity(self):
        spec = TransformSpec(kind="residual")
        t = self._zero_conv2(init_transform(spec, 3, 12, rng_for(0)))
        X = rng_for(1).normal(size=(4, 3, 12))
        np.testing.assert_array_equal(apply_transform(t, X), X)

    def test_shape_preserved(self):
        t = init_transform(TransformSpec(kind="residual"), 2, 10, rng_for(2))
        X = rng_for(3).normal(size=(5, 2, 10))
        assert apply_transform(t, X).shape == X.shape

    def test_single_sequence_round_trip_shape(self):
        t = init_transform(TransformSpec(kind="residual"), 2, 8, rng_for(2))
        X = rng_for(3).normal(size=(2, 8))
        assert apply_transform(t, X).shape == (2, 8)

    def test_output_is_deterministic(self):
        t = init_transform(TransformSpec(kind="residual"), 3, 9, rng_for(5))
        X = rng_for(6).normal(size=(3, 3, 9))
        np.testing.assert_array_equal(apply_transform(t, X),
                                      apply_transform(t, X))

    def test_gradient_wrt_conv_weights_matches_finite_differences(self):
        t = init_transform(TransformSpec(kind="residual"), 2, 6, rng_for(7))
        X = rng_for(8).normal(size=(2, 2, 6))
        x = dc.constant(X)
        nodes = {k: dc.leaf(k, v.shape) for k, v in t.params.items()}
        out = t.graph(x, nodes)
        graph = dc.Graph(dc.mean(dc.mul(out, out)))
        name = "block0_conv2_w"
        grads = graph.gradient(dict(t.params), wrt=[name])
        num = np.zeros_like(t.params[name])
        it = np.nditer(num, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            up = {k: v.copy() for k, v in t.params.items()}
            dn = {k: v.copy() for k, v in t.params.items()}
            up[name][idx] += 1e-5
            dn[name][idx] -= 1e-5
            num[idx] = (graph.evaluate(up) - graph.evaluate(dn)) / 2e-5
        np.testing.assert_allclose(grads[name], num, rtol=1e-4, atol=1e-6)

    def test_requires_sequence_data(self):
        with pytest.raises(GraphError, match="sequence"):
            init_transform(TransformSpec(kind="residual"), 3, None, rng_for(0))


class TestBases:
    def test_chebyshev_first_vector_is_normalized_constant(self):
        basis = make_basis("chebyshev", 20)
        np.testing.assert_allclose(basis.vectors[0],
                                   np.full(20, 1.0 / np.sqrt(20)), atol=1e-12)

    def test_pulse_vectors_have_disjoint_support(self):
        basis = make_basis("pulse", 16, 4)
        support = basis.vectors > 0
        assert np.all(support.sum(axis=0) == 1)
        np.testing.assert_allclose(
            basis.vectors @ basis.vectors.T, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("kind,T,K", [
        ("chebyshev", 60, 3), ("chebyshev", 60, 5), ("chebyshev", 7, 3),
        ("pulse", 60, 4), ("pulse", 12, 6),
    ])
    def test_gram_matrix_is_identity(self, kind, T, K):
        basis = make_basis(kind, T, K)
        gram = basis.vectors @ basis.vectors.T
        np.testing.assert_allclose(gram, np.eye(basis.K), atol=1e-10)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(GraphError):
            make_basis("chebyshev", 4, 9)
        with pytest.raises(GraphError):
            make_basis("pulse", 10, 3)
        with pytest.raises(GraphError, match="unknown basis"):
            make_basis("fourier", 10, 2)

    def test_pulse_basis_rejects_a_residual_channel(self):
        # gating routes whole windows, so a residual channel would be a
        # channel that no gate stack holds
        with pytest.raises(GraphError, match="pulse basis takes no "
                           "residual channel"):
            make_basis("pulse", 12, 4, residual_channel=True)
        assert make_basis("pulse", 12, 4, residual_channel=False).n_channels \
            == 4

    def test_channel_names(self):
        cheb = make_basis("chebyshev", 12, 3)
        assert cheb.channel_names() == ["mean", "linear", "quadratic",
                                        "residual"]
        pulse = make_basis("pulse", 12, 4)
        assert pulse.channel_names() == [f"window{k}" for k in range(4)]


class TestEncodeDecode:
    def test_constant_series_projects_onto_constant_channel(self):
        basis = make_basis("chebyshev", 15)
        comps = encode(basis, np.full(15, 3.7))
        np.testing.assert_allclose(comps[0], 3.7, atol=1e-12)
        np.testing.assert_allclose(comps[1:], 0.0, atol=1e-12)

    def test_pulse_component_is_within_window_mean(self):
        basis = make_basis("pulse", 8, 2)
        x = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0])
        comps = encode(basis, x)
        np.testing.assert_allclose(comps[0, :4], 2.5)
        np.testing.assert_allclose(comps[0, 4:], 0.0)
        np.testing.assert_allclose(comps[1, 4:], 10.0)

    def test_chebyshev_with_residual_is_lossless(self):
        basis = make_basis("chebyshev", 60, 3)
        rng = rng_for(10)
        worst = 0.0
        for _ in range(1000):
            x = rng.normal(size=60)
            worst = max(worst, np.max(np.abs(decode(encode(basis, x)) - x)))
        assert worst < 1e-10

    def test_pulse_window_routing_is_lossless(self):
        basis = make_basis("pulse", 60, 4)
        rng = rng_for(11)
        worst = 0.0
        for _ in range(1000):
            x = rng.normal(size=60)
            worst = max(worst, np.max(np.abs(decode(window_split(basis, x)) - x)))
        assert worst < 1e-10

    def test_projection_alone_loses_the_remainder(self):
        basis = make_basis("chebyshev", 30, 3, residual_channel=False)
        x = rng_for(12).normal(size=30)
        err = np.max(np.abs(decode(encode(basis, x)) - x))
        assert err > 1e-3

    def test_length_mismatch_rejected(self):
        basis = make_basis("chebyshev", 10)
        with pytest.raises(GraphError):
            encode(basis, np.ones(9))
        with pytest.raises(GraphError):
            window_split(make_basis("pulse", 8, 2), np.ones(7))

    def test_window_split_requires_pulse(self):
        with pytest.raises(GraphError, match="pulse"):
            window_split(make_basis("chebyshev", 8), np.ones(8))


class TestBasisGating:
    def test_all_ones_gates_reconstruct_input(self):
        for kind, K in [("chebyshev", 3), ("pulse", 4)]:
            basis = make_basis(kind, 12, K)
            t = BasisGatingTransform(np.ones((3, basis.n_channels)),
                                     np.zeros(3), basis)
            X = rng_for(13).normal(size=(4, 3, 12))
            np.testing.assert_allclose(apply_transform(t, X), X, atol=1e-10)

    def test_zeroing_residual_channel_keeps_smooth_part(self):
        basis = make_basis("chebyshev", 16, 3)
        gates = np.ones((2, 4))
        gates[:, 3] = 0.0  # suppress exactly the projection remainder
        t = BasisGatingTransform(gates, np.zeros(2), basis)
        X = rng_for(14).normal(size=(5, 2, 16))
        got = apply_transform(t, X)
        proj = np.einsum("bdt,kt,ks->bds", X, basis.vectors, basis.vectors)
        np.testing.assert_allclose(got, proj, atol=1e-10)

    def test_pulse_gate_zeroes_first_quarter(self):
        basis = make_basis("pulse", 16, 4)
        gates = np.ones((2, 4))
        gates[:, 0] = 0.0
        t = BasisGatingTransform(gates, np.zeros(2), basis)
        X = rng_for(15).normal(size=(3, 2, 16))
        got = apply_transform(t, X)
        np.testing.assert_allclose(got[:, :, :4], 0.0, atol=1e-12)
        np.testing.assert_allclose(got[:, :, 4:], X[:, :, 4:], atol=1e-12)

    def test_channel_stack_sums_back_to_signal(self):
        for kind, K in [("chebyshev", 3), ("pulse", 4)]:
            basis = make_basis(kind, 12, K)
            X = rng_for(16).normal(size=(4, 2, 12))
            Z = gating_channels(basis, X)
            C = basis.n_channels
            np.testing.assert_allclose(
                Z.reshape(4, 2, C, 12).sum(axis=2), X, atol=1e-10)

    def test_channel_count_mismatch_rejected(self):
        basis = make_basis("chebyshev", 12, 3)
        with pytest.raises(GraphError, match="channel count"):
            BasisGatingTransform(np.ones((2, 2)), np.zeros(2), basis)


class TestClamp:
    def test_projection_values(self):
        np.testing.assert_array_equal(
            clip01(np.array([1.3, -0.2, 0.5])), [1.0, 0.0, 0.5])

    def test_idempotent(self):
        arr = rng_for(17).normal(0.5, 1.0, size=50)
        once = clip01(arr)
        np.testing.assert_array_equal(clip01(once), once)

    def test_box_projection_minimizes_distance(self):
        rng = rng_for(18)
        for _ in range(50):
            v = rng.normal(0.5, 2.0, size=4)
            p = clip01(v)
            grid = rng.random((200, 4))  # random feasible points
            dists = np.linalg.norm(grid - v, axis=1)
            assert np.linalg.norm(p - v) <= dists.min() + 1e-12


class TestInitAndCheckpoints:
    def test_init_starts_near_identity(self):
        rng = rng_for(20)
        t = init_transform(TransformSpec(kind="gating"), 50, None, rng)
        assert np.all((t.g >= 0.0) & (t.g <= 1.0))
        assert np.mean(np.abs(t.g - 1.0)) < 0.05
        np.testing.assert_array_equal(t.b, np.zeros(50))

    def test_residual_init_is_near_identity_map(self):
        t = init_transform(TransformSpec(kind="residual"), 3, 10, rng_for(21))
        X = rng_for(22).normal(size=(4, 3, 10))
        out = apply_transform(t, X)
        assert np.max(np.abs(out - X)) < 0.5

    def test_basis_init_gate_shape(self):
        basis = make_basis("chebyshev", 12, 3)
        t = init_transform(TransformSpec(kind="basis", basis=basis),
                           4, 12, rng_for(23))
        assert t.gates.shape == (4, 4)
        assert np.all((t.gates >= 0.0) & (t.gates <= 1.0))

    def test_basis_spec_requires_basis(self):
        with pytest.raises(GraphError, match="BasisSet"):
            TransformSpec(kind="basis")

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError, match="unknown transform"):
            TransformSpec(kind="affine")

    def test_basis_length_must_match_data(self):
        basis = make_basis("chebyshev", 12, 3)
        with pytest.raises(GraphError, match="T=12"):
            init_transform(TransformSpec(kind="basis", basis=basis),
                           3, 20, rng_for(0))

    @pytest.mark.parametrize("kind", ["gating", "residual", "basis"])
    def test_checkpoint_round_trip(self, tmp_path, kind):
        basis = make_basis("pulse", 12, 4) if kind == "basis" else None
        spec = TransformSpec(kind=kind, basis=basis,
                             intercept=(kind == "gating"))
        t = init_transform(spec, 3, 12, rng_for(24))
        if kind == "gating":
            t.g[1] = 0.25
            t.b[2] = -1.5
        path = tmp_path / "t.json"
        save_transform(t, path)
        back = load_transform(path)
        assert type(back) is type(t)
        X = rng_for(25).normal(size=(3, 3, 12))
        if kind == "gating":
            np.testing.assert_array_equal(back.g, t.g)
            np.testing.assert_array_equal(back.b, t.b)
        elif kind == "residual":
            np.testing.assert_array_equal(
                apply_transform(back, X), apply_transform(t, X))
        else:
            np.testing.assert_array_equal(back.basis.vectors, basis.vectors)
            np.testing.assert_array_equal(
                apply_transform(back, X), apply_transform(t, X))

    def test_checkpoint_asking_for_a_pulse_residual_is_rejected(self,
                                                                 tmp_path):
        t = init_transform(TransformSpec("basis", basis=make_basis(
            "pulse", 12, 4)), 3, 12, rng_for(26))
        path = tmp_path / "t.json"
        save_transform(t, path)
        doc = json.loads(path.read_text())
        doc["basis"]["residual_channel"] = True
        doc["params"]["gates"] = [row + [1.0] for row in doc["params"]["gates"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match="pulse basis takes no "
                           "residual channel"):
            load_transform(path)

    def test_checkpoint_without_params_is_a_data_error(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"schema": "mindkit.transform/1", "kind": "gating"}')
        with pytest.raises(DataError, match="params"):
            load_transform(path)
        path.write_text('{"schema": "mindkit.transform/1", "kind": "gating", '
                        '"params": {"g": [1.0], "b": [0.0]}}')
        with pytest.raises(DataError, match="malformed transform"):
            load_transform(path)

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(GraphError, match="not a transform checkpoint"):
            load_transform(path)
