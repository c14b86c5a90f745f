"""Reverse-mode engine: exact values, finite-difference oracles, guards."""
import weakref

import numpy as np
import pytest

import mindkit.diffcore as dc
from mindkit.errors import GraphError

FD_STEP = 1e-5
FD_RTOL = 1e-4


def finite_difference(graph, bindings, name, step=FD_STEP):
    """Central-difference gradient of a scalar graph wrt one leaf."""
    base = bindings[name]
    out = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = {k: v.copy() for k, v in bindings.items()}
        dn = {k: v.copy() for k, v in bindings.items()}
        up[name][idx] += step
        dn[name][idx] -= step
        out[idx] = (graph.evaluate(up) - graph.evaluate(dn)) / (2 * step)
    return out


def assert_grads_match(graph, bindings, names, rtol=FD_RTOL):
    _, grads = graph.value_and_grad(bindings, wrt=list(names))
    for name in names:
        num = finite_difference(graph, bindings, name)
        np.testing.assert_allclose(grads[name], num, rtol=rtol,
                                   atol=rtol * 1e-2,
                                   err_msg=f"gradient mismatch for {name}")


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        x = dc.leaf("x", ())
        g = dc.Graph(dc.sigmoid(x))
        assert g.evaluate({"x": np.float64(0.0)}) == 0.5

    def test_dot_self(self):
        x = dc.leaf("x", (2,))
        g = dc.Graph(dc.dot(x, x))
        assert g.evaluate({"x": np.array([3.0, 4.0])}) == 25.0

    def test_mlp_forward_matches_straightline(self):
        # independent straight-line forward pass with raw numpy
        rng = np.random.default_rng(5)
        w0, b0 = rng.normal(size=(4, 8)), rng.normal(size=8)
        w1, b1 = rng.normal(size=(8, 8)), rng.normal(size=8)
        w2, b2 = rng.normal(size=(8, 1)), rng.normal(size=1)
        X = rng.normal(size=(6, 4))

        def straightline(X):
            h = np.maximum(X @ w0 + b0, 0.0)
            h = np.maximum(h @ w1 + b1, 0.0)
            return 1.0 / (1.0 + np.exp(-(h @ w2 + b2)))

        x = dc.leaf("x", (6, 4))
        h = dc.relu(dc.add(dc.matmul(x, dc.constant(w0)), dc.constant(b0)))
        h = dc.relu(dc.add(dc.matmul(h, dc.constant(w1)), dc.constant(b1)))
        out = dc.sigmoid(dc.add(dc.matmul(h, dc.constant(w2)),
                                dc.constant(b2)))
        got = dc.Graph(out).evaluate({"x": X})
        np.testing.assert_allclose(got, straightline(X), rtol=1e-12)

    def test_evaluate_is_pure(self):
        x = dc.leaf("x", (3,))
        g = dc.Graph(dc.mean(dc.gelu(x)))
        binds = {"x": np.array([0.3, -1.2, 2.0])}
        first = g.evaluate(binds)
        assert all(g.evaluate(binds) == first for _ in range(5))

    def test_normalize_row_statistics(self):
        x = dc.leaf("x", (2, 3, 7))
        g = dc.Graph(dc.normalize(x))
        val = g.evaluate({"x": np.random.default_rng(0).normal(
            2.0, 3.0, size=(2, 3, 7))})
        np.testing.assert_allclose(val.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(val.std(axis=-1), 1.0, atol=1e-4)

    def test_normalize_channel_axis(self):
        x = dc.leaf("x", (2, 5, 4))
        g = dc.Graph(dc.normalize(x, axis=1))
        X = np.random.default_rng(1).normal(-1.0, 2.0, size=(2, 5, 4))
        val = g.evaluate({"x": X})
        np.testing.assert_allclose(val.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(val.std(axis=1), 1.0, atol=1e-4)
        # per-timestep statistics leave each slice's time profile intact
        graph = dc.Graph(dc.sum_(dc.mul(dc.normalize(x, axis=1),
                                        dc.constant(X))))
        assert_grads_match(graph, {"x": X}, ["x"])

    def test_normalize_bad_axis_rejected(self):
        x = dc.leaf("x", (2, 3))
        with pytest.raises(GraphError, match="axis"):
            dc.normalize(x, axis=2)

    @pytest.mark.parametrize("shape,axis", [((3, 4), 5), ((3, 4), -3),
                                            ((), 0)])
    def test_sum_bad_axis_rejected(self, shape, axis):
        # (3, 4) with axis 5 once summed axis 1; a scalar raised
        # ZeroDivisionError
        with pytest.raises(GraphError, match="axis"):
            dc.sum_(dc.leaf("x", shape), axis=axis)

    def test_sum_negative_axis_counts_from_the_end(self):
        x = dc.leaf("x", (3, 4))
        assert dc.sum_(x, axis=-1).shape == (3,)
        assert dc.sum_(x, axis=0).shape == (4,)


class TestGradientValues:
    def test_sigmoid_gradient_at_zero(self):
        x = dc.leaf("x", ())
        g = dc.Graph(dc.sigmoid(x))
        grads = g.gradient({"x": np.float64(0.0)}, wrt=["x"])
        assert grads["x"] == 0.25

    def test_linear_map_gradient(self):
        g_leaf = dc.leaf("g", (3,))
        x = dc.constant(np.array([1.0, 2.0, 3.0]))
        graph = dc.Graph(dc.dot(g_leaf, x))
        grads = graph.gradient({"g": np.array([0.3, -2.0, 5.0])}, wrt=["g"])
        np.testing.assert_array_equal(grads["g"], [1.0, 2.0, 3.0])

    def test_two_layer_net_finite_differences(self):
        self._two_layer_net_matches_finite_differences(())

    def test_stacked_two_layer_nets_finite_differences(self):
        # two nets whose weights share a leading axis
        self._two_layer_net_matches_finite_differences((2,))

    @staticmethod
    def _two_layer_net_matches_finite_differences(stack):
        rng = np.random.default_rng(17)
        shapes = {"x": stack + (5, 3), "w0": stack + (3, 4),
                  "w1": stack + (4, 1)}
        x, w0, w1 = (dc.leaf(k, v) for k, v in shapes.items())
        h = dc.relu(dc.matmul(x, w0))
        out = dc.mean(dc.sigmoid(dc.matmul(h, w1)))
        graph = dc.Graph(out)
        binds = {k: rng.normal(size=v) for k, v in shapes.items()}
        assert_grads_match(graph, binds, ["x", "w0", "w1"])

    def test_scalar_gelu_gradient(self):
        x = dc.leaf("x", ())
        graph = dc.Graph(dc.gelu(x))
        assert_grads_match(graph, {"x": np.array(0.3)}, ["x"])

    def test_unreachable_leaf_gradient_is_zero(self):
        x = dc.leaf("x", (3,))
        z = dc.leaf("z", (2,))
        graph = dc.Graph(dc.mean(dc.mul(x, x)))
        grads = graph.gradient({"x": np.ones(3), "z": np.ones(2)},
                               wrt=["x", "z"])
        np.testing.assert_array_equal(grads["z"], np.zeros(2))
        assert grads["z"].shape == (2,)

    def test_seed_gives_the_gradient_of_the_weighted_sum(self):
        x = dc.leaf("x", (3, 2))
        per_row = dc.mean(dc.mul(x, x), axis=1)
        X = np.random.default_rng(12).normal(size=(3, 2))
        seed = np.array([1.0, 2.0, -0.5])
        val, grads = dc.Graph(per_row).value_and_grad(
            {"x": X}, wrt=["x"], seed=seed)
        np.testing.assert_array_equal(val, (X * X).mean(axis=1))
        np.testing.assert_allclose(grads["x"], seed[:, None] * X,
                                   rtol=1e-15)
        with pytest.raises(GraphError, match="seed shape"):
            dc.Graph(per_row).value_and_grad({"x": X}, wrt=["x"],
                                             seed=np.ones(2))


class TestCosine:
    def _cos(self, a_val, b_val):
        a = dc.leaf("a", a_val.shape)
        b = dc.leaf("b", b_val.shape)
        return dc.Graph(dc.cosine_similarity(a, b)), \
            {"a": a_val, "b": b_val}

    def test_identical_vectors(self):
        g, binds = self._cos(np.array([1.0, 2.0, -3.0]),
                             np.array([1.0, 2.0, -3.0]))
        assert abs(g.evaluate(binds) - 1.0) <= 1e-12

    def test_antiparallel(self):
        g, binds = self._cos(np.array([1.0, -2.0]), np.array([-1.0, 2.0]))
        assert abs(g.evaluate(binds) + 1.0) <= 1e-12

    def test_orthogonal(self):
        g, binds = self._cos(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert g.evaluate(binds) == 0.0

    def test_range_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.normal(size=5) * 10.0 ** rng.integers(-6, 6)
            b = rng.normal(size=5) * 10.0 ** rng.integers(-6, 6)
            g, binds = self._cos(a, b)
            assert -1.0 - 1e-12 <= g.evaluate(binds) <= 1.0 + 1e-12

    def test_zero_norm_guard_value_and_gradient(self):
        g, binds = self._cos(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        val, grads = g.value_and_grad(binds, wrt=["a", "b"])
        assert val == 0.0
        np.testing.assert_array_equal(grads["a"], np.zeros(3))
        np.testing.assert_array_equal(grads["b"], np.zeros(3))

    def test_flattens_matrices(self):
        rng = np.random.default_rng(8)
        A, B = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        g, binds = self._cos(A, B)
        expect = (A.ravel() @ B.ravel()) / (
            np.linalg.norm(A) * np.linalg.norm(B))
        np.testing.assert_allclose(g.evaluate(binds), expect, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        g, binds = self._cos(rng.normal(size=4), rng.normal(size=4))
        assert_grads_match(g, binds, ["a", "b"])


def test_cosine_rows_vjp_reads_the_saved_norms_bit_for_bit():
    def recomputed(g, y, a, b, needs):
        """The VJP as it reads with the row norms computed again."""
        fa = a.reshape(a.shape[0], -1)
        fb = b.reshape(b.shape[0], -1)
        na = np.sqrt((fa * fa).sum(axis=1))
        nb = np.sqrt((fb * fb).sum(axis=1))
        guarded = (na < dc.NORM_EPS) | (nb < dc.NORM_EPS)
        na = np.where(guarded, 1.0, na)
        nb = np.where(guarded, 1.0, nb)
        c = np.where(guarded, 0.0, y)
        gv = np.where(guarded, 0.0, g)[:, None]
        da = gv * (fb / (na * nb)[:, None]
                   - c[:, None] * fa / (na * na)[:, None])
        db = gv * (fa / (na * nb)[:, None]
                   - c[:, None] * fb / (nb * nb)[:, None])
        return (da.reshape(a.shape) if needs[0] else None,
                db.reshape(b.shape) if needs[1] else None)

    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(6, 3, 4)), rng.normal(size=(6, 3, 4))
    a[1] = 0.0           # guarded: a zero row
    b[4] = 1e-14         # guarded: a norm below NORM_EPS
    op = dc._CosineRows()
    y, saved = op.forward(a, b)
    np.testing.assert_array_equal(y, dc.row_cosines(a, b))
    assert y[1] == y[4] == 0.0
    g = rng.normal(size=6)
    for needs in ((True, True), (True, False), (False, True)):
        got = op.vjp(g, y, [a, b], needs, saved)
        for part, want in zip(got, recomputed(g, y, a, b, needs)):
            if want is None:
                assert part is None
            else:
                np.testing.assert_array_equal(part, want)


class TestConv1d:
    def _naive_conv(self, x, w, padding, dilation, groups):
        # independent loop implementation
        B, Cin, T = x.shape
        Cout, Cg, K = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        Tp = xp.shape[-1]
        span = (K - 1) * dilation + 1
        Tout = Tp - span + 1
        out = np.zeros((B, Cout, Tout))
        per_out = Cout // groups
        for b in range(B):
            for co in range(Cout):
                gidx = co // per_out
                for t in range(Tout):
                    acc = 0.0
                    for ci in range(Cg):
                        for k in range(K):
                            acc += (w[co, ci, k] *
                                    xp[b, gidx * Cg + ci, t + k * dilation])
                    out[b, co, t] = acc
        return out

    @pytest.mark.parametrize("padding,dilation,groups", [
        (0, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 2), (2, 2, 4),
    ])
    def test_forward_matches_naive(self, padding, dilation, groups):
        rng = np.random.default_rng(21)
        cin, cout = 4, 8
        xv = rng.normal(size=(2, cin, 10))
        wv = rng.normal(size=(cout, cin // groups, 3))
        x = dc.leaf("x", xv.shape)
        w = dc.leaf("w", wv.shape)
        g = dc.Graph(dc.conv1d(x, w, padding=padding, dilation=dilation,
                               groups=groups))
        got = g.evaluate({"x": xv, "w": wv})
        want = self._naive_conv(xv, wv, padding, dilation, groups)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("padding,dilation,groups,K,cout", [
        (2, 2, 2, 3, 6),   # dilated grouped
        (0, 1, 1, 3, 6),   # no padding
        (0, 1, 4, 1, 4),   # kernel 1, one output per group: basis gating
        (2, 1, 1, 5, 6),   # kernel 5, same padding: residual transform
        (1, 1, 1, 3, 8),   # the seqconv model's first layer
        (0, 3, 2, 2, 2),   # dilation without padding
        (3, 1, 1, 1, 4),   # kernel 1 with padding wider than its span
    ])
    def test_gradients_match_finite_differences(self, padding, dilation,
                                                groups, K, cout):
        rng = np.random.default_rng(22)
        xv = rng.normal(size=(2, 4, 9))
        wv = rng.normal(size=(cout, 4 // groups, K))
        x = dc.leaf("x", xv.shape)
        w = dc.leaf("w", wv.shape)
        y = dc.conv1d(x, w, padding=padding, dilation=dilation, groups=groups)
        g = dc.Graph(dc.mean(dc.mul(y, y)))
        assert_grads_match(g, {"x": xv, "w": wv}, ["x", "w"])


def _window_columns(x, K, padding, dilation, groups):
    """im2col columns (B, G, Cin/G * K, Tout) from a sliding window view."""
    from numpy.lib.stride_tricks import sliding_window_view
    B, cin, T = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    tout = T + 2 * padding - dilation * (K - 1)
    win = sliding_window_view(xp, (K - 1) * dilation + 1, axis=2)
    win = win[..., ::dilation].reshape(B, groups, cin // groups, tout, K)
    return win.transpose(0, 1, 2, 4, 3).reshape(B, groups, -1, tout)


class TestSeqKernels:
    """normalize's sums and conv1d's columns against the numpy expressions
    they replace, bit for bit where the seq models' values must not move."""

    @pytest.mark.parametrize("B", [1, 20, 32, 90, 100, 120])
    def test_channel_sums_are_add_reduce_bit_for_bit(self, B):
        rng = np.random.default_rng(B)
        for C in (6, 8, 16, 18):
            for T in (1, 2, 12):
                x = rng.normal(size=(B, C, T))
                np.testing.assert_array_equal(
                    dc._axis_sum(x, 1), np.add.reduce(x, 1, keepdims=True),
                    err_msg=f"shape {x.shape}")

    def test_channel_sums_without_time_take_add_reduce(self, monkeypatch):
        # einsum and np.add.reduce disagree in the last bits when T = 1
        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum called")
        x = np.random.default_rng(0).normal(size=(20, 16, 1))
        monkeypatch.setattr(np, "einsum", no_einsum)
        np.testing.assert_array_equal(dc._axis_sum(x, 1),
                                      np.add.reduce(x, 1, keepdims=True))

    def test_time_sums_of_a_row_do_not_depend_on_its_batch(self):
        x = np.random.default_rng(1).normal(size=(101, 18, 12))
        full = dc._axis_sum(x, -1)
        np.testing.assert_allclose(full, np.add.reduce(x, -1, keepdims=True),
                                   rtol=1e-14, atol=1e-14)
        for lo, hi in [(0, 1), (3, 10), (7, 8), (50, 101)]:
            np.testing.assert_array_equal(dc._axis_sum(x[lo:hi], -1),
                                          full[lo:hi])

    @pytest.mark.parametrize("K", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("groups", [1, 2, 6])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_im2col_columns_are_window_columns(self, K, dilation, groups,
                                               padding):
        rng = np.random.default_rng(K * 100 + dilation * 10 + groups)
        x = rng.normal(size=(5, 6, 12))
        w = rng.normal(size=(6, 6 // groups, K))
        op = dc._Conv1d(padding, dilation, groups)
        _, cols = op.forward(x, w)
        np.testing.assert_array_equal(
            cols, _window_columns(x, K, padding, dilation, groups))

    @pytest.mark.parametrize("axis,T", [(-1, 2), (-1, 12), (1, 1)])
    def test_normalize_gradients_match_finite_differences(self, axis, T):
        rng = np.random.default_rng(T)
        X = rng.normal(size=(3, 4, T))
        x = dc.leaf("x", X.shape)
        graph = dc.Graph(dc.sum_(dc.mul(dc.normalize(x, axis=axis),
                                        dc.constant(rng.normal(size=X.shape)))))
        assert_grads_match(graph, {"x": X}, ["x"])


def _seq_block(x, w):
    """conv -> normalize -> GeLU, the ops that save values for their VJPs."""
    h = dc.gelu(dc.normalize(dc.conv1d(x, w, padding=1), axis=1))
    return dc.normalize(h)


def _residual_fit(d, T, hidden, output=None):
    """The parameters of a one-restart residual transform fit in front of a
    frozen seqconv model with the given output, and a function that gives a
    fresh cache of the fit's loss graphs (`dc.graphs` of `mindtrain._loss`),
    its training step and its validation pass, each on a dict of rows."""
    from mindkit.mindtrain import MindConfig, _loss
    from mindkit.models import build_model
    from mindkit.transforms import TransformSpec, init_transform

    model = build_model("seqconv", d, seq_len=T, hidden=hidden, output=output,
                        seed=2)
    t = init_transform(TransformSpec("residual", intercept=False), d, T,
                       np.random.default_rng(3))
    cfg = MindConfig(lam=0.1, similarity="cosine")
    params = {k: v[None] for k, v in t.params.items()}

    def fit():
        graph_for = dc.graphs(lambda B: _loss(model, t, cfg, params, B))

        def step(rows):
            return graph_for(len(rows["x"])).value_and_grad(
                {**params, **rows}, wrt=params, seed=np.ones(1), check=False)

        def loss(rows):
            return graph_for(len(rows["x"])).evaluate({**params, **rows},
                                                      check=False)
        return graph_for, step, loss
    return params, fit


class TestSavedValues:
    """Forward sweeps hand saved values to their own reverse sweep only."""

    def _bindings(self, seed):
        rng = np.random.default_rng(seed)
        return {"x": rng.normal(size=(3, 4, 7)),
                "w": rng.normal(size=(5, 4, 3))}

    def test_no_leak_between_sweeps_or_graphs_sharing_nodes(self):
        x, w = dc.leaf("x", (3, 4, 7)), dc.leaf("w", (5, 4, 3))
        h = _seq_block(x, w)
        loss = dc.Graph(dc.mean(dc.mul(h, h)))
        other = dc.Graph(dc.sum_(dc.abs_(h)))
        first, second = self._bindings(1), self._bindings(2)
        loss.evaluate(first)
        other.value_and_grad(first, wrt=["x", "w"])
        val, grads = loss.value_and_grad(second, wrt=["x", "w"])

        fx, fw = dc.leaf("x", (3, 4, 7)), dc.leaf("w", (5, 4, 3))
        fh = _seq_block(fx, fw)
        fresh = dc.Graph(dc.mean(dc.mul(fh, fh)))
        want_val, want = fresh.value_and_grad(second, wrt=["x", "w"])
        assert val == want_val
        for name in ("x", "w"):
            np.testing.assert_array_equal(grads[name], want[name])

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Every array of a sweep comes from the graph's buffers, so the
        small graphs below exercise what large ones do."""
        monkeypatch.setattr(dc, "POOL_MIN_VALUES", 1)

    @staticmethod
    def _conv(x, w):
        return dc.conv1d(x, w, padding=1)

    @staticmethod
    def _unpooled(fn):
        """fn() with every array from np.empty: the reference."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dc, "POOL_MIN_VALUES", float("inf"))
            return fn()

    OUTPUTS = {
        "gelu": lambda x, w: dc.gelu(TestSavedValues._conv(x, w)),
        "reshape of gelu": lambda x, w: dc.reshape(
            dc.gelu(TestSavedValues._conv(x, w)), (3, 35)),
        # a view of one conv output, read after a second conv of its size
        "reshape of conv": lambda x, w: dc.add(
            dc.reshape(TestSavedValues._conv(dc.scale(x, 2.0), w), (15, 7)),
            dc.reshape(TestSavedValues._conv(x, w), (15, 7))),
        "relu of normalize": lambda x, w: dc.relu(dc.normalize(
            TestSavedValues._conv(x, w), axis=1)),
        # the view is made first and read last, after a GeLU of its size
        "view read after later ops": lambda x, w: dc.mul(
            dc.reshape(dc.gelu(dc.scale(TestSavedValues._conv(x, w), 2.0)),
                       (3, 35)),
            dc.reshape(dc.gelu(TestSavedValues._conv(x, w)), (3, 35))),
    }

    @pytest.mark.parametrize("kind", sorted(OUTPUTS))
    def test_results_survive_the_next_sweep(self, pooled, kind):
        def graph():
            x, w = dc.leaf("x", (3, 4, 7)), dc.leaf("w", (5, 4, 3))
            return dc.Graph(self.OUTPUTS[kind](x, w))

        g = graph()
        first, second = self._bindings(1), self._bindings(2)
        seed = np.linspace(-1.0, 1.0, int(np.prod(g.output.shape))) \
            .reshape(g.output.shape)
        value = g.evaluate(first)
        val, grads = g.value_and_grad(first, wrt=["x", "w"], seed=seed)
        g.value_and_grad(second, wrt=["x", "w"], seed=seed)
        g.evaluate(second)

        want_val, want = self._unpooled(lambda: graph().value_and_grad(
            first, wrt=["x", "w"], seed=seed))
        np.testing.assert_array_equal(value, want_val)
        np.testing.assert_array_equal(val, want_val)
        for name in ("x", "w"):
            np.testing.assert_array_equal(grads[name], want[name])

    def test_leaf_gradient_reached_through_views_survives(self, pooled):
        # the gelu VJPs write graph buffers, and reshape hands leaf a a
        # view of one; the value reads the first gelu through a view made
        # before the second gelu runs
        def graph():
            a, b = dc.leaf("a", (3, 4, 7)), dc.leaf("b", (3, 4, 7))
            first = dc.gelu(dc.reshape(a, (3, 28)))
            return dc.Graph(dc.sum_(dc.mul(
                dc.gelu(b), dc.reshape(first, (3, 4, 7)))))

        rng = np.random.default_rng(5)
        first = {"a": rng.normal(size=(3, 4, 7)),
                 "b": rng.normal(size=(3, 4, 7))}
        second = {k: rng.normal(size=v.shape) for k, v in first.items()}
        g = graph()
        value = g.evaluate(first)
        _, grads = g.value_and_grad(first, wrt=["a", "b"])
        g.value_and_grad(second, wrt=["a", "b"])
        want_val, want = self._unpooled(
            lambda: graph().value_and_grad(first, wrt=["a", "b"]))
        assert value == want_val
        for name in ("a", "b"):
            np.testing.assert_array_equal(grads[name], want[name])

    def test_interleaved_graphs_sharing_nodes_match_fresh_ones(self, pooled):
        def graphs():
            x, w = dc.leaf("x", (3, 4, 7)), dc.leaf("w", (5, 4, 3))
            h = _seq_block(x, w)
            return (dc.Graph(dc.mean(dc.mul(h, h))),
                    dc.Graph(dc.sum_(dc.relu(dc.reshape(h, (3, 35))))))

        shared = graphs()
        for step in range(4):
            binds = self._bindings(10 + step)
            for k, g in enumerate(shared[::-1] if step % 2 else shared):
                fresh = graphs()[1 - k if step % 2 else k]
                val, grads = g.value_and_grad(binds, wrt=["x", "w"])
                want_val, want = self._unpooled(
                    lambda: fresh.value_and_grad(binds, wrt=["x", "w"]))
                assert val == want_val == g.evaluate(binds)
                for name in ("x", "w"):
                    np.testing.assert_array_equal(grads[name], want[name])

    def test_problem_train_and_validation_graphs_interleaved(self, pooled):
        params, fit = _residual_fit(3, 8, (4,))
        for v in params.values():  # leave the identity start
            v += np.random.default_rng(4).normal(scale=0.1, size=v.shape)

        rng = np.random.default_rng(6)
        X = rng.normal(size=(11, 3, 8))
        fc = rng.uniform(size=11)
        train, val = slice(0, 5), slice(5, 11)
        _, shared_step, shared_loss = fit()
        got, wanted = [], []
        for step in range(3):
            X[train] += 0.1
            tr = {"x": X[train], "fc": fc[train]}
            va = {"x": X[val], "fc": fc[val]}
            got.append((*shared_step(tr), shared_loss(va)))
            wanted.append((*self._unpooled(lambda: fit()[1](tr)),
                           self._unpooled(lambda: fit()[2](va))))
        # every step's results are checked after the later steps' sweeps
        for (loss, grads, val_loss), (want_loss, want, want_val) in zip(
                got, wanted):
            np.testing.assert_array_equal(loss, want_loss)
            np.testing.assert_array_equal(val_loss, want_val)
            for name in params:
                np.testing.assert_array_equal(grads[name], want[name])

    @pytest.mark.parametrize("pool_all", [False, True])
    def test_sweeps_for_two_target_sets_match_fresh_graphs(self, monkeypatch,
                                                           pool_all):
        # one graph keeps a reverse plan per target set; leaf v is never a
        # target and x only in one of the two sets
        if pool_all:
            monkeypatch.setattr(dc, "POOL_MIN_VALUES", 1)

        def graph():
            x, w = dc.leaf("x", (3, 4, 7)), dc.leaf("w", (5, 4, 3))
            h = dc.mul(_seq_block(x, w), dc.leaf("v", (3, 5, 7)))
            return dc.Graph(dc.mean(dc.cosine_rows(h, dc.gelu(h))))

        shared = graph()
        for step in range(3):
            binds = {**self._bindings(20 + step), "v": np.random.default_rng(
                30 + step).normal(size=(3, 5, 7))}
            for wrt in (["x", "w"], ["w"]):
                val, grads = shared.value_and_grad(binds, wrt=wrt)
                value = shared.evaluate(binds)
                want_val, want = self._unpooled(
                    lambda: graph().value_and_grad(binds, wrt=wrt))
                assert val == want_val == value
                assert sorted(grads) == sorted(wrt)
                for name in wrt:
                    np.testing.assert_array_equal(grads[name], want[name])

    def test_ops_are_not_written_during_a_sweep(self):
        x, w = dc.leaf("x", (3, 4, 7)), dc.leaf("w", (5, 4, 3))
        h = _seq_block(x, w)
        graph = dc.Graph(dc.mean(dc.cosine_rows(h, dc.gelu(h))))
        ops = [n.op for n in graph.nodes if n.op is not None]
        before = [dict(vars(op)) for op in ops]
        graph.evaluate(self._bindings(3))
        graph.value_and_grad(self._bindings(4), wrt=["x", "w"])
        assert [dict(vars(op)) for op in ops] == before


class TestBufferPool:
    """A pooled buffer is handed out again only once nothing but the pool
    refers to it."""

    @pytest.fixture(autouse=True)
    def pooled(self, monkeypatch):
        monkeypatch.setattr(dc, "POOL_MIN_VALUES", 1)

    def test_idle_buffer_is_handed_out_again(self):
        bufs = dc._Buffers()
        a = bufs.empty((3, 4))
        del a
        b = bufs.empty((4, 3))
        assert len(bufs.bufs) == 1 and b.base is bufs.bufs[0]
        c = bufs.empty((12,))  # b still refers to the first buffer
        assert len(bufs.bufs) == 2 and not np.shares_memory(b, c)

    def test_buffer_under_a_reshape_view_is_not_handed_out(self):
        bufs = dc._Buffers()
        view = bufs.empty((3, 4)).reshape(2, 6)
        view[...] = 1.0
        bufs.empty((3, 4))[...] = 2.0
        assert len(bufs.bufs) == 2
        np.testing.assert_array_equal(view, 1.0)
        del view
        bufs.empty((3, 4))
        assert len(bufs.bufs) == 2

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_buffer_under_saved_conv_columns_is_not_handed_out(self, kernel):
        # kernel 1: the saved columns are a view of the input itself
        bufs = dc._Buffers()
        rng = np.random.default_rng(0)
        x = bufs.empty((2, 3, 5))
        x[...] = rng.normal(size=x.shape)
        w = rng.normal(size=(4, 3, kernel))
        op = dc._Conv1d(padding=kernel // 2, dilation=1, groups=1)
        out, cols = op.forward(x, w, empty=bufs.empty)
        want = cols.copy()
        del x, out
        for _ in range(3):
            bufs.empty((2, 3, 5))[...] = np.nan
            bufs.empty(cols.shape)[...] = np.nan
        np.testing.assert_array_equal(cols, want)

    def test_buffer_under_a_window_view_is_not_handed_out(self):
        from numpy.lib.stride_tricks import sliding_window_view
        bufs = dc._Buffers()
        x = bufs.empty((2, 7))
        x[...] = np.arange(14.0).reshape(2, 7)
        win = sliding_window_view(x, 3, axis=1)
        want = win.copy()
        del x
        bufs.empty((2, 7))[...] = np.nan
        assert len(bufs.bufs) == 2
        np.testing.assert_array_equal(win, want)

    def test_results_held_by_the_caller_do_not_pin_buffers(self):
        # the output and a's gradient are written by GeLU into buffers
        a = dc.leaf("a", (3, 4))
        g = dc.Graph(dc.gelu(dc.reshape(a, (4, 3))))
        seed = np.ones((4, 3))

        def sweeps(k):
            binds = {"a": np.full((3, 4), 0.1 * k)}
            return g.evaluate(binds), g.value_and_grad(binds, ["a"], seed)

        held = [sweeps(0)]
        count = len(g._bufs.bufs)
        held += [sweeps(k) for k in range(1, 10)]
        assert len(g._bufs.bufs) == count
        value, (val, grads) = held[0]
        np.testing.assert_array_equal(value, val)
        assert not np.shares_memory(value, val)

    def test_problem_pool_does_not_grow_over_sweeps(self):
        graph_for, step, loss = _residual_fit(3, 8, (4,))[1]()
        rng = np.random.default_rng(6)
        X, fc = rng.normal(size=(11, 3, 8)), rng.uniform(size=11)

        def sweep():  # one training step and one validation pass
            return (*step({"x": X[:5], "fc": fc[:5]}),
                    loss({"x": X[5:], "fc": fc[5:]}))

        def pools():
            return {B: (len(g._bufs.bufs),
                        sum(b.nbytes for b in g._bufs.bufs))
                    for B in (5, 6) for g in [graph_for(B)]}

        results = [sweep()]
        assert graph_for.cache_info().currsize == 2  # the graphs of 5 and 6
        before = pools()
        assert sorted(before) == [5, 6] and all(n for n, _ in before.values())
        for _ in range(20):
            X[:5] += 0.01
            results.append(sweep())  # results held by the caller
        assert pools() == before

    def test_graphs_build_each_key_once_on_one_pool_per_cache(self):
        built = []

        def build(n):
            built.append(n)
            return dc.gelu(dc.leaf("x", (n,)))

        graph_for, other = dc.graphs(build), dc.graphs(build)
        big, small = graph_for(4), graph_for(3)
        assert graph_for(4) is big and built == [4, 3]
        assert small._bufs is big._bufs
        mine = other(3)
        assert mine is not small and built == [4, 3, 3]
        assert mine._bufs is not small._bufs
        assert dc.Graph(build(3))._bufs is not small._bufs
        # the small graph's sweep takes the idle buffer the big one left
        big.value_and_grad({"x": np.ones(4)}, ["x"], np.ones(4))
        count = len(big._bufs.bufs)
        assert count
        small.value_and_grad({"x": np.ones(3)}, ["x"], np.ones(3))
        assert len(big._bufs.bufs) == count
        mine.evaluate({"x": np.ones(3)})
        assert len(big._bufs.bufs) == count
        # dropping the function frees its graphs and their pool
        gone = weakref.ref(big)
        graph_for = big = small = None
        assert gone() is None

    def test_smallest_idle_buffer_that_fits_is_handed_out(self):
        bufs = dc._Buffers()
        large, mid, small = (bufs.empty((n,)) for n in (40, 20, 10))
        assert [b.size for b in bufs.bufs] == [10, 20, 40]
        del large, mid
        got = bufs.empty((3, 4))  # small is live: the 20-value buffer
        assert got.shape == (3, 4) and got.base is bufs.bufs[1]
        last = bufs.empty((15,))  # got holds the 20
        assert last.base is bufs.bufs[2]
        fresh = bufs.empty((5,))  # nothing idle: a new buffer, kept sorted
        assert [b.size for b in bufs.bufs] == [5, 10, 20, 40]
        assert fresh.base is bufs.bufs[0]

    def test_buffers_that_arrays_refer_to_are_never_handed_out(self):
        bufs = dc._Buffers()
        rng = np.random.default_rng(1)
        x = bufs.empty((2, 3, 9))
        x[...] = rng.normal(size=x.shape)
        op = dc._Conv1d(padding=1, dilation=1, groups=1)
        w = rng.normal(size=(4, 3, 3))
        out, cols = op.forward(x, w, empty=bufs.empty)
        g = bufs.empty(out.shape)
        g[...] = rng.normal(size=g.shape)
        dx, dw = op.vjp(g, out, [x, w], (True, True), cols, empty=bufs.empty)
        view = bufs.empty((6, 10)).reshape(60)[7:30]  # a view of a view
        view[...] = 1.0
        held = {"cols": cols, "dx": dx, "view": view}
        want = {k: v.copy() for k, v in held.items()}
        del x, out, g
        for n in (1, 20, 54, 60, 72, 108, 200):
            new = bufs.empty((n,))
            assert not any(np.shares_memory(new, v) for v in held.values())
            new[...] = np.nan
        for k, v in held.items():
            np.testing.assert_array_equal(v, want[k], err_msg=k)

    def test_escape_copies_prefix_views(self):
        bufs = dc._Buffers()
        bufs.empty((20,))  # dropped at once: idle
        part = bufs.empty((2, 5))  # a prefix of the 20-value buffer
        part[...] = np.arange(10.0).reshape(2, 5)
        for a in (part, part.reshape(10)[3:], part.T):
            out = bufs.escape(a)
            assert not np.shares_memory(out, bufs.bufs[0])
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, a)
        own = np.ones(3)
        assert bufs.escape(own) is own


# Each op with the shapes of its inputs: every op of diffcore, conv1d
# with and without padding, dilation and groups, normalize over channels
# and over time, broadcasting binary ops, reductions over an axis and over
# all.
READ_OPS = {
    "conv1d": (lambda x, w: dc.conv1d(x, w, padding=1), (3, 4, 7), (5, 4, 3)),
    "conv1d grouped": (lambda x, w: dc.conv1d(x, w, dilation=2, groups=2),
                       (3, 4, 9), (6, 2, 3)),
    "conv1d kernel 1": (dc.conv1d, (3, 4, 7), (5, 4, 1)),
    "normalize channels": (lambda x: dc.normalize(x, axis=1), (3, 4, 7)),
    "normalize time": (dc.normalize, (3, 4, 7)),
    "gelu": (dc.gelu, (3, 4, 7)),
    "relu": (dc.relu, (3, 4, 7)),
    "sigmoid": (dc.sigmoid, (3, 4, 7)),
    "abs": (dc.abs_, (3, 4, 7)),
    "scale": (lambda x: dc.scale(x, -1.5), (3, 4, 7)),
    "reshape": (lambda x: dc.reshape(x, (3, 28)), (3, 4, 7)),
    "add": (dc.add, (3, 4, 7), (4, 1)),
    "sub": (dc.sub, (3, 4, 7), (4, 1)),
    "mul": (dc.mul, (3, 4, 7), (4, 1)),
    "matmul": (dc.matmul, (3, 5), (5, 2)),
    "matmul stacked": (dc.matmul, (2, 3, 5), (2, 5, 2)),
    "dot_rows": (dc.dot_rows, (3, 4, 7), (3, 4, 7)),
    "cosine_rows": (dc.cosine_rows, (3, 4, 7), (3, 4, 7)),
    "mean axis": (lambda x: dc.mean(x, axis=1), (3, 4, 7)),
    "mean": (dc.mean, (3, 4, 7)),
    "sum axis": (lambda x: dc.sum_(x, axis=2), (3, 4, 7)),
    "sum": (dc.sum_, (3, 4, 7)),
    "dot": (dc.dot, (3, 4, 7), (3, 4, 7)),
    "norm": (dc.norm, (3, 4, 7)),
    "cosine_similarity": (dc.cosine_similarity, (3, 4, 7), (3, 4, 7)),
    "bce": (dc.bce_with_logits, (3, 5), (3, 5)),
}


def _op_classes():
    """Every op class of diffcore: the classes with a vjp."""
    return [c for c in vars(dc).values()
            if isinstance(c, type) and hasattr(c, "vjp")]


class TestDeclaredReads:
    """A VJP gets a placeholder for each value that its op declares it
    does not read; NaN placeholders show any read the declarations missed.

    Each op reads op nodes (scales by 1, whose VJPs read nothing), and only
    a product with a constant, whose VJP reads only the constant, reads its
    output. So each value the op's VJP reads is dropped unless the op
    declares the read. Every array is pooled here (POOL_MIN), and none in
    TestDeclaredReadsUnpooled: a graph drops the same values either way.
    """

    POOL_MIN = 1

    @pytest.fixture(autouse=True)
    def pool_min(self, monkeypatch):
        monkeypatch.setattr(dc, "POOL_MIN_VALUES", self.POOL_MIN)

    @staticmethod
    def _graph(name):
        build, *shapes = READ_OPS[name]
        leaves = [dc.leaf(f"a{k}", shape) for k, shape in enumerate(shapes)]
        out = build(*(dc.scale(a, 1.0) for a in leaves))
        weights = np.random.default_rng(5).normal(size=out.shape)
        return dc.Graph(dc.sum_(dc.mul(out, dc.constant(weights))))

    @staticmethod
    def _sweeps(graph):
        """Values and gradients of two bindings, for every set of
        gradient targets."""
        names = sorted(graph.leaves)
        targets = [[n for k, n in enumerate(names) if mask >> k & 1]
                   for mask in range(1, 2 ** len(names))]
        out = []
        for seed in range(2):
            rng = np.random.default_rng(seed)
            binds = {n: rng.normal(size=graph.leaves[n].shape)
                     for n in names}
            for wrt in targets:
                out.append((graph.value_and_grad(binds, wrt=wrt),
                            graph.evaluate(binds)))
        return out

    @pytest.mark.parametrize("name", sorted(READ_OPS))
    def test_gradients_match_sweeps_that_read_everything(self, name,
                                                         monkeypatch):
        with pytest.MonkeyPatch.context() as mp:
            for op in _op_classes():
                mp.setattr(op, "reads", lambda self, needs: (
                    (True,) * len(needs), True, True))
            want = self._sweeps(self._graph(name))
        made = []
        monkeypatch.setattr(dc, "_placeholder", lambda shape: (
            made.append(shape), np.full(shape, np.nan))[1])
        got = self._sweeps(self._graph(name))
        assert made  # the product with the constant gives way, at least
        for ((val, grads), value), ((want_val, want_grads), want_value) in \
                zip(got, want):
            assert val == want_val == value == want_value
            assert sorted(grads) == sorted(want_grads)
            for leaf, g in grads.items():
                assert np.all(np.isfinite(g)), leaf
                np.testing.assert_array_equal(g, want_grads[leaf])

    def test_conv_columns_are_kept_only_for_a_weight_gradient(self):
        graph = self._graph("conv1d")
        conv = next(i for i, n in enumerate(graph.nodes)
                    if isinstance(n.op, dc._Conv1d))
        for wrt, kept in ((["a0"], False), (["a1"], True),
                          (["a0", "a1"], True)):
            graph.value_and_grad({"a0": np.ones((3, 4, 7)),
                                  "a1": np.ones((5, 4, 3))}, wrt=wrt)
            forward, _ = graph._plans[frozenset(wrt)]
            assert next(step[5] for step in forward
                        if step[0] == conv) is kept, wrt


class TestDeclaredReadsUnpooled(TestDeclaredReads):
    POOL_MIN = float("inf")


def test_every_op_declares_its_reads():
    ops = _op_classes()
    assert {dc._Conv1d, dc._Cosine, dc._CosineRows} <= set(ops)
    for op in ops:
        assert callable(getattr(op, "reads", None)), op.__name__
    covered = {type(n.op) for name in READ_OPS
               for n in TestDeclaredReads._graph(name).nodes}
    assert set(ops) <= covered


def test_residual_training_pool_holds_no_more_than_per_node_liveness():
    """The residual transform's training graph at the benchmark's sizes
    (B=90, seqconv d=6, T=12) holds 16 buffers of 4,950,720 bytes in all
    after three sweeps when every array is dropped after its last use, as
    measured; an array held by a sweep plan would pin more."""
    graph_for, step, _ = _residual_fit(6, 12, (8,))[1]()
    rng = np.random.default_rng(6)
    X, fc = rng.normal(size=(90, 6, 12)), rng.uniform(size=90)
    for _ in range(3):
        step({"x": X, "fc": fc})
    bufs = graph_for(90)._bufs.bufs
    assert len(bufs) <= 16
    assert sum(b.nbytes for b in bufs) <= 4_950_720


def test_residual_fit_shares_one_pool_that_keeps_what_the_vjps_read():
    """The graphs of a residual fit at transforms-seq's sizes (B=100,
    seqconv d=6, T=12, 90 validation rows) share one pool, which holds 10
    buffers of 4,348,800 bytes after a training sweep and a validation
    pass, as measured. With one pool per graph, exact-size reuse and every
    forward value kept until its own VJP, the training graph held 16
    buffers of 5,500,800 bytes (5.25 MiB) and the validation graph 6 of
    1,710,720 bytes (1.63 MiB)."""
    graph_for, step, loss = _residual_fit(6, 12, (8,), "probability")[1]()
    rng = np.random.default_rng(6)
    X, fc = rng.normal(size=(190, 6, 12)), rng.uniform(size=190)
    step({"x": X[:100], "fc": fc[:100]})
    loss({"x": X[100:], "fc": fc[100:]})
    assert graph_for.cache_info().currsize == 2  # the graphs of 90 and 100
    pools = {id(g._bufs): g._bufs for g in map(graph_for, (90, 100))}
    assert len(pools) == 1
    bufs = next(iter(pools.values())).bufs
    assert len(bufs) <= 10
    assert sum(b.nbytes for b in bufs) <= 4_348_800


class TestStability:
    def test_bce_with_logits_extreme_values(self):
        z = dc.leaf("z", (4,))
        t = dc.constant(np.array([1.0, 0.0, 1.0, 0.0]))
        g = dc.Graph(dc.mean(dc.bce_with_logits(z, t)))
        binds = {"z": np.array([500.0, -500.0, -500.0, 500.0])}
        val, grads = g.value_and_grad(binds, wrt=["z"])
        assert np.isfinite(val)
        assert np.all(np.isfinite(grads["z"]))
        # saturated-correct entries cost ~0, saturated-wrong cost ~|z|
        assert abs(val - 250.0) < 1e-6

    def test_bce_matches_direct_formula_in_safe_range(self):
        rng = np.random.default_rng(9)
        zv = rng.normal(size=20)
        tv = rng.integers(0, 2, size=20).astype(float)
        z = dc.leaf("z", (20,))
        g = dc.Graph(dc.mean(dc.bce_with_logits(z, dc.constant(tv))))
        p = 1.0 / (1.0 + np.exp(-zv))
        want = float(np.mean(-(tv * np.log(p) + (1 - tv) * np.log(1 - p))))
        np.testing.assert_allclose(g.evaluate({"z": zv}), want, rtol=1e-10)

    def test_gelu_matches_erf_formula(self):
        from math import erf, sqrt
        xv = np.linspace(-4, 4, 41)
        x = dc.leaf("x", xv.shape)
        got = dc.Graph(dc.gelu(x)).evaluate({"x": xv})
        want = np.array([0.5 * v * (1 + erf(v / sqrt(2))) for v in xv])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @staticmethod
    def _gelu_and_derivative(xv):
        """GeLU of each entry and its gradient under a seed of ones, so
        each entry is the saved derivative times 1."""
        graph = dc.Graph(dc.gelu(dc.leaf("x", xv.shape)))
        y, grads = graph.value_and_grad({"x": xv}, wrt=["x"],
                                        seed=np.ones_like(xv))
        return y, grads["x"]

    def test_gelu_and_its_derivative_match_erfc_to_the_last_bits(self):
        from math import erfc, exp, pi, sqrt
        xv = np.linspace(-40.0, 40.0, 160_001)
        cdf = np.array([0.5 * erfc(-v / sqrt(2)) for v in xv])
        pdf = np.array([exp(-0.5 * v * v) / sqrt(2 * pi) for v in xv])
        got, dydx = self._gelu_and_derivative(xv)
        err = np.abs(got - xv * cdf) / np.maximum(1.0, np.abs(xv))
        assert err.max() <= 4.5e-16
        assert np.abs(dydx - (cdf + xv * pdf)).max() <= 4.5e-16

    def test_gelu_is_finite_and_signed_at_extreme_inputs(self):
        # warnings are errors in this suite, so no overflow may warn
        xv = np.array([1e300, -1e300, 1e50, -1e50, 40.0, -40.0, 1e-300,
                       -1e-300, 5e-324, 0.0, -0.0])
        got, dydx = self._gelu_and_derivative(xv)
        big = np.abs(xv) >= 40.0
        np.testing.assert_array_equal(got[big], np.where(xv[big] > 0,
                                                         xv[big], 0.0))
        np.testing.assert_array_equal(dydx[big], np.where(xv[big] > 0,
                                                          1.0, 0.0))
        np.testing.assert_array_equal(got[~big], 0.5 * xv[~big])
        np.testing.assert_array_equal(dydx[~big], 0.5)
        # at -0.0, Phi is 1/2 and the output keeps the sign
        assert got[-1] == 0.0 and np.signbit(got[-1])


class TestValidation:
    def test_unbound_leaf_rejected(self):
        x = dc.leaf("x", (2,))
        y = dc.leaf("y", (2,))
        g = dc.Graph(dc.dot(x, y))
        with pytest.raises(GraphError, match="unbound"):
            g.evaluate({"x": np.ones(2)})

    def test_shape_mismatch_rejected_at_build(self):
        for a, b in (((2, 3), (4, 5)), ((2, 2, 3), (2, 4, 5)),
                     ((2, 2, 3), (3, 3, 5)), ((2, 2, 3), (3, 5)),
                     ((2, 2, 2, 3), (2, 2, 3, 5))):
            with pytest.raises(GraphError):
                dc.matmul(dc.leaf("a", a), dc.leaf("b", b))

    def test_shape_mismatch_rejected_at_bind(self):
        x = dc.leaf("x", (2,))
        g = dc.Graph(dc.mean(x))
        with pytest.raises(GraphError):
            g.evaluate({"x": np.ones(3)})

    def test_nonfinite_binding_rejected(self):
        x = dc.leaf("x", (2,))
        g = dc.Graph(dc.mean(x))
        for bad in (np.nan, np.inf, -np.inf):
            binds = {"x": np.array([1.0, bad])}
            with pytest.raises(GraphError, match="finite"):
                g.evaluate(binds)
            with pytest.raises(GraphError, match="finite"):
                g.value_and_grad(binds, wrt=["x"])

    def test_gradient_requires_scalar_output(self):
        x = dc.leaf("x", (3,))
        g = dc.Graph(dc.relu(x))
        with pytest.raises(GraphError, match="scalar"):
            g.gradient({"x": np.ones(3)}, wrt=["x"])


def _random_graph(rng):
    """One random composite graph over 2-4 leaves, scalar output."""
    B, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    x = dc.leaf("x", (B, d))
    w = dc.leaf("w", (d, d))
    leaves = {"x": rng.normal(size=(B, d)), "w": rng.normal(size=(d, d))}
    h = dc.matmul(x, w)
    ops = rng.permutation(["relu", "gelu", "sigmoid", "normalize", "abs",
                           "mul", "add"])[:int(rng.integers(2, 5))]
    for op in ops:
        if op == "relu":
            h = dc.relu(h)
        elif op == "gelu":
            h = dc.gelu(h)
        elif op == "sigmoid":
            h = dc.sigmoid(h)
        elif op == "normalize":
            h = dc.normalize(h)
        elif op == "abs":
            h = dc.abs_(h)
        elif op == "mul":
            h = dc.mul(h, h)
        elif op == "add":
            h = dc.add(h, x)
    tail = rng.integers(0, 3)
    if tail == 0:
        out = dc.mean(dc.cosine_rows(h, x))
    elif tail == 1:
        out = dc.mean(dc.dot_rows(h, x))
    else:
        out = dc.scale(dc.sum_(dc.abs_(h)), 1.0 / (B * d))
    return dc.Graph(out), leaves


def test_fuzzed_composite_graphs_match_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        graph, binds = _random_graph(rng)
        assert_grads_match(graph, binds, list(binds))
