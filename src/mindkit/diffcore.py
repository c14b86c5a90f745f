"""Reverse-mode automatic differentiation over dense float64 arrays.

Leaves are named placeholders; interior nodes apply primitive operations.
A Graph freezes the DAG reachable from one output node, checks shapes at
construction time, and evaluates or differentiates under a leaf binding.
Evaluation is pure: identical bindings give bit-identical results.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import Iterable, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GraphError

NORM_EPS = 1e-12       # zero-norm guard used by the cosine primitives
_BN_EPS = 1e-5         # variance floor inside the normalization primitive
_PHI_SCALE = float(1.0 / np.sqrt(2.0 * np.pi))
# Phi(-|x|) = exp(-x^2/2) P(|x|) / Q(|x|): Hart's algorithm 5666, with the
# coefficients that West (2005, "Better approximations to cumulative normal
# functions") prints, lowest degree first; both are divided by Q's leading
# 8.83883476483184e-02, so that Q is monic
_HART_P = tuple(c / 8.83883476483184e-02 for c in (
    220.206867912376, 221.213596169931, 112.079291497871, 33.912866078383,
    6.37396220353165, 0.700383064443688, 3.52624965998911e-02))
_HART_Q = tuple(c / 8.83883476483184e-02 for c in (
    440.413735824752, 793.826512519948, 637.333633378831, 296.564248779674,
    86.7807322029461, 16.064177579207, 1.75566716318264))
_HART_CLAMP = 40.0  # exp(-40^2/2) underflows: Phi is exactly 0 or 1 beyond


def tensor(data) -> np.ndarray:
    """Coerce to a float64 ndarray, rejecting non-finite entries."""
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise GraphError("tensor requires finite values (NaN/Inf rejected)")
    return arr


def _broadcast(sa, sb):
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError as exc:
        raise GraphError(f"shapes {sa} and {sb} do not broadcast") from exc


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast up from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    # one axis at a time, so that a stacked gradient such as (R, B, d, T)
    # -> (R, 1, d, 1) adds up in the order of the unstacked (B, d, T) -> (d, 1)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity per leading-axis row, flattening trailing axes.

    Rows where either side has L2 norm below NORM_EPS get cosine 0.
    """
    return _CosineRows().forward(a, b)[0]


# ---------------------------------------------------------------------------
# primitive operations
#
# Each op exposes forward(*values) and vjp(g, y, xs, needs, saved) where
# `needs` is a tuple of bools marking which parent gradients the caller will
# use; an op may return None in unneeded slots to skip work. An op whose
# class sets `saves = True` returns (value, saved) from forward instead of the
# value alone, and the graph hands that `saved` back to its vjp in the same
# sweep (None otherwise). An op whose class sets `buffered = True` takes every
# large array it writes, scratch included, from the `empty` keyword of both
# methods, which the graph points at its own buffers (np.empty by default).
# Every op declares reads(needs) -> (inputs, output, saved): whether its vjp,
# called with `needs`, reads the values of each input, of its output and of
# what its forward saved. Every graph drops a value after its last use: a
# value that no vjp of a sweep reads is dropped once the forward sweep is
# done with it, and a saved value that no vjp reads is not kept; a vjp gets
# a read-only zero-stride placeholder of the same shape in place of a
# dropped value (`.shape`, `.ndim` and `.size` stay readable).
# Ops are stateless: nothing is written to an op during a sweep, so graphs
# may share nodes.
# ---------------------------------------------------------------------------


def _reads_shapes(self, needs):
    """reads() of a vjp that reads only shapes."""
    return (False,) * len(needs), False, False


def _reads_crossed(self, needs):
    """reads() of a bilinear op: each input's gradient reads the other."""
    return (needs[1], needs[0]), False, False


def _reads_input(self, needs):
    """reads() of a unary op whose gradient reads its input."""
    return (needs[0],), False, False


def _placeholder(shape: tuple) -> np.ndarray:
    """What a vjp gets in place of a value it does not read."""
    return np.broadcast_to(np.float64(0.0), shape)


class _Add:
    reads = _reads_shapes

    def forward(self, a, b):
        return a + b

    def vjp(self, g, y, xs, needs, saved):
        a, b = xs
        da = _unbroadcast(g, a.shape) if needs[0] else None
        db = _unbroadcast(g, b.shape) if needs[1] else None
        return da, db


class _Sub:
    reads = _reads_shapes

    def forward(self, a, b):
        return a - b

    def vjp(self, g, y, xs, needs, saved):
        a, b = xs
        da = _unbroadcast(g, a.shape) if needs[0] else None
        db = _unbroadcast(-g, b.shape) if needs[1] else None
        return da, db


class _Mul:
    reads = _reads_crossed

    def forward(self, a, b):
        return a * b

    def vjp(self, g, y, xs, needs, saved):
        a, b = xs
        da = _unbroadcast(g * b, a.shape) if needs[0] else None
        db = _unbroadcast(g * a, b.shape) if needs[1] else None
        return da, db


class _Scale:
    reads = _reads_shapes

    def __init__(self, c: float):
        self.c = float(c)

    def forward(self, x):
        return self.c * x

    def vjp(self, g, y, xs, needs, saved):
        return (self.c * g if needs[0] else None,)


class _MatMul:
    reads = _reads_crossed

    def forward(self, a, b):
        return a @ b

    def vjp(self, g, y, xs, needs, saved):
        a, b = xs
        da = g @ b.T if needs[0] else None
        db = a.T @ g if needs[1] else None
        return da, db


class _Conv1d:
    """Grouped, dilated 1-D convolution with symmetric zero padding.

    Input (B, Cin, T), weight (Cout, Cin // groups, K); stride is fixed at 1.
    The forward pass lays the zero-padded input out as window columns
    (B, G, Cin/G * K, Tout), as in im2col, and runs one batched GEMM
    against the weight; the columns are saved for the weight gradient.
    """

    saves = buffered = True

    def __init__(self, padding: int, dilation: int, groups: int):
        self.padding = int(padding)
        self.dilation = int(dilation)
        self.groups = int(groups)

    def reads(self, needs):  # dx reads w, dw the columns; x only its shape
        return (False, needs[0]), False, needs[1]

    def forward(self, x, w, empty=np.empty):
        B, cin, T = x.shape
        cout, cg, K = w.shape
        G, p, d = self.groups, self.padding, self.dilation
        if p:
            xp = empty((B, cin, T + 2 * p))
            xp[:, :, :p] = 0.0
            xp[:, :, p + T:] = 0.0
            xp[:, :, p:p + T] = x
        else:
            xp = x
        tout = T + 2 * p - d * (K - 1)
        if K == 1:  # the input is its own columns
            cols = xp.reshape(B, G, cg, tout)
        else:  # one copy of a (B, Cin, K, Tout) strided view of xp
            sb, sc, st = xp.strides
            cols = empty((B, G, cg * K, tout))
            cols.reshape(B, cin, K, tout)[...] = as_strided(
                xp, (B, cin, K, tout), (sb, sc, d * st, st), writeable=False)
        out = empty((B, cout, tout))
        np.matmul(w.reshape(G, cout // G, cg * K), cols,
                  out=out.reshape(B, G, cout // G, tout))
        return out, cols

    def vjp(self, g, y, xs, needs, cols, empty=np.empty):
        x, w = xs
        B, cin, T = x.shape
        cout, cg, K = w.shape
        G, p, d = self.groups, self.padding, self.dilation
        tout = y.shape[-1]
        # a broadcast upstream gradient would push matmul off its BLAS path
        gg = np.ascontiguousarray(g).reshape(B, G, cout // G, tout)
        dx = dw = None
        if needs[1]:
            per_row = empty((B, G, cout // G, cg * K))
            np.matmul(gg, cols.swapaxes(2, 3), out=per_row)
            dw = per_row.sum(axis=0).reshape(w.shape)
        if needs[0]:
            wg = w.reshape(G, cout // G, cg * K)
            dcols = empty((B, G, cg * K, tout))
            np.matmul(wg.transpose(0, 2, 1), gg, out=dcols)
            # col2im into a time-major buffer, so each tap is one block add
            taps = dcols.reshape(B, cin, K, tout).transpose(2, 3, 0, 1)
            dxp = empty((T + 2 * p, B, cin))
            dxp.fill(0.0)
            for k in range(K):
                dxp[k * d:k * d + tout] += taps[k]
            dx = empty((B, cin, T))
            np.copyto(dx, dxp[p:p + T].transpose(1, 2, 0))
        return dx, dw


class _Relu:
    buffered = True
    reads = _reads_input

    def forward(self, x, empty=np.empty):
        return np.maximum(x, 0.0, out=empty(x.shape))

    def vjp(self, g, y, xs, needs, saved, empty=np.empty):
        if not needs[0]:
            return (None,)
        return (np.multiply(g, xs[0] > 0, out=empty(g.shape)),)


class _Gelu:
    """Exact Gaussian-CDF form: x * Phi(x). Its derivative
    Phi(x) + x * phi(x) is saved for the VJP."""

    saves = buffered = True

    def reads(self, needs):
        return (False,), False, needs[0]

    def forward(self, x, empty=np.empty):
        # a = min(|x|, 40), so that no finite x overflows
        a = np.abs(x, out=empty(x.shape))
        np.minimum(a, _HART_CLAMP, out=a)
        v = np.multiply(a, _HART_P[6], out=empty(x.shape))
        for c in _HART_P[5:0:-1]:
            v += c
            v *= a
        v += _HART_P[0]
        q = np.add(a, _HART_Q[6], out=empty(x.shape))
        for c in _HART_Q[5::-1]:
            q *= a
            q += c
        v /= q
        # q becomes exp(-x^2/2), phi(x), then the derivative; v becomes
        # Phi(-|x|), then Phi(x)
        np.multiply(a, a, out=q)
        q *= -0.5
        np.exp(q, out=q)
        v *= q
        q *= _PHI_SCALE
        np.subtract(0.5, v, out=v)
        np.copysign(v, x, out=v)
        v += 0.5
        q *= x
        q += v
        return np.multiply(x, v, out=a), q

    def vjp(self, g, y, xs, needs, dydx, empty=np.empty):
        if not needs[0]:
            return (None,)
        return (np.multiply(g, dydx, out=empty(g.shape)),)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), with exp taken only of -|x| so it cannot
    overflow."""
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


class _Sigmoid:
    def reads(self, needs):
        return (False,), needs[0], False

    def forward(self, x):
        return _sigmoid(x)

    def vjp(self, g, y, xs, needs, saved):
        return (g * y * (1.0 - y) if needs[0] else None,)


def _axis_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """x summed over one axis, kept as a length-1 axis.

    np.add.reduce pays a large fixed cost to reduce a short axis; einsum
    does not. Over a middle axis einsum adds the same slices in the same
    order, so the bits are np.add.reduce's, except with only unit axes
    after it, where np.add.reduce is kept. Over the trailing axis the bits
    differ in the last place, but each row is still summed on its own (a
    dot with ones would be quicker, but BLAS sums a batch's tail rows in
    another order, so a row's sum would depend on its batch).
    """
    axis %= x.ndim
    n, inner = x.shape[axis], math.prod(x.shape[axis + 1:])
    kept = x.shape[:axis] + (1,) + x.shape[axis + 1:]
    if axis == x.ndim - 1:
        return np.einsum("it->i", x.reshape(-1, n)).reshape(kept)
    if inner > 1:
        return np.einsum("ict->it", x.reshape(-1, n, inner)).reshape(kept)
    return np.add.reduce(x, axis, keepdims=True)


class _Normalize:
    """Zero-mean unit-variance rescaling along one axis (default trailing).

    Statistics come from the values present in the call; no state is kept,
    so evaluation stays pure and per-slice outputs are independent. The
    reciprocal standard deviation is saved for the VJP.
    """

    saves = buffered = True

    def __init__(self, axis=-1):
        self.axis = axis

    def reads(self, needs):
        return (False,), needs[0], needs[0]

    def forward(self, x, empty=np.empty):
        n = x.shape[self.axis]
        mu = _axis_sum(x, self.axis) / n
        xc = np.subtract(x, mu, out=empty(x.shape))
        sq = np.multiply(xc, xc, out=empty(x.shape))
        var = _axis_sum(sq, self.axis) / n
        sd = np.sqrt(var + _BN_EPS)
        xc /= sd
        return xc, 1.0 / sd

    def vjp(self, g, y, xs, needs, inv, empty=np.empty):
        if not needs[0]:
            return (None,)
        n = g.shape[self.axis]
        gm = _axis_sum(g, self.axis) / n
        tmp = np.multiply(g, y, out=empty(y.shape))
        gym = _axis_sum(tmp, self.axis) / n
        out = np.subtract(g, gm, out=empty(y.shape))
        out -= np.multiply(y, gym, out=tmp)
        out *= inv
        return (out,)


def _spread(g: np.ndarray, shape: tuple, axis: int) -> np.ndarray:
    """A gradient reduced over `axis`, copied back out over `shape` (a
    plain copy costs a fraction of np.broadcast_to at these sizes)."""
    out = np.empty(shape)
    np.copyto(out, g.reshape(shape[:axis] + (1,) + shape[axis + 1:]))
    return out


class _Mean:
    reads = _reads_shapes

    def __init__(self, axis):
        self.axis = axis

    def forward(self, x):
        # np.mean's arithmetic without its Python wrapper
        n = x.size if self.axis is None else x.shape[self.axis]
        return np.add.reduce(x, self.axis) / n

    def vjp(self, g, y, xs, needs, saved):
        if not needs[0]:
            return (None,)
        x = xs[0]
        if self.axis is None:
            return (np.full(x.shape, g / x.size),)
        return (_spread(g / x.shape[self.axis], x.shape, self.axis),)


class _Sum:
    reads = _reads_shapes

    def __init__(self, axis):
        self.axis = axis

    def forward(self, x):
        return np.sum(x, axis=self.axis)

    def vjp(self, g, y, xs, needs, saved):
        if not needs[0]:
            return (None,)
        x = xs[0]
        if self.axis is None:
            return (np.full(x.shape, g),)
        return (_spread(g, x.shape, self.axis),)


class _Abs:
    reads = _reads_input

    def forward(self, x):
        return np.abs(x)

    def vjp(self, g, y, xs, needs, saved):
        return (g * np.sign(xs[0]) if needs[0] else None,)


class _Dot:
    reads = _reads_crossed

    def forward(self, a, b):
        return np.asarray(np.vdot(a, b))

    def vjp(self, g, y, xs, needs, saved):
        a, b = xs
        da = g * b if needs[0] else None
        db = g * a if needs[1] else None
        return da, db


class _DotRows:
    """Per-row inner product over flattened trailing axes: (B, ...) -> (B,)."""

    reads = _reads_crossed

    def forward(self, a, b):
        fa = a.reshape(a.shape[0], -1)
        fb = b.reshape(b.shape[0], -1)
        return (fa * fb).sum(axis=1)

    def vjp(self, g, y, xs, needs, saved):
        a, b = xs
        gcol = g.reshape(-1, *([1] * (a.ndim - 1)))
        da = gcol * b if needs[0] else None
        db = gcol * a if needs[1] else None
        return da, db


class _Norm:
    def reads(self, needs):
        return (needs[0],), needs[0], False

    def forward(self, x):
        return np.asarray(np.sqrt(np.vdot(x, x)))

    def vjp(self, g, y, xs, needs, saved):
        if not needs[0]:
            return (None,)
        denom = max(float(y), 1e-300)
        return (g * xs[0] / denom,)


class _Cosine:
    """Whole-tensor cosine similarity with a zero-norm guard.

    If either norm is below NORM_EPS the value is 0 and the gradient is 0,
    so optimization never sees an undefined direction.
    """

    def reads(self, needs):  # both norms read both inputs
        return (True, True), True, False

    def forward(self, a, b):
        na = float(np.sqrt(np.vdot(a, a)))
        nb = float(np.sqrt(np.vdot(b, b)))
        if na < NORM_EPS or nb < NORM_EPS:
            return np.asarray(0.0)
        return np.asarray(np.vdot(a, b) / (na * nb))

    def vjp(self, g, y, xs, needs, saved):
        a, b = xs
        na = float(np.sqrt(np.vdot(a, a)))
        nb = float(np.sqrt(np.vdot(b, b)))
        if na < NORM_EPS or nb < NORM_EPS:
            da = np.zeros_like(a) if needs[0] else None
            db = np.zeros_like(b) if needs[1] else None
            return da, db
        c = float(y)
        da = g * (b / (na * nb) - c * a / (na * na)) if needs[0] else None
        db = g * (a / (na * nb) - c * b / (nb * nb)) if needs[1] else None
        return da, db


class _CosineRows:
    """Per-row cosine similarity: (B, ...) x (B, ...) -> (B,), guarded rows
    -> 0. The row norms and the guard are saved for the VJP."""

    saves = True

    def reads(self, needs):  # each gradient reads both rows and both norms
        return (True, True), True, True

    def forward(self, a, b):
        fa = a.reshape(a.shape[0], -1)
        fb = b.reshape(b.shape[0], -1)
        na = np.sqrt((fa * fa).sum(axis=1))
        nb = np.sqrt((fb * fb).sum(axis=1))
        dots = (fa * fb).sum(axis=1)
        guarded = (na < NORM_EPS) | (nb < NORM_EPS)
        denom = np.where(guarded, 1.0, na * nb)
        return np.where(guarded, 0.0, dots / denom), (na, nb, guarded)

    def vjp(self, g, y, xs, needs, saved):
        a, b = xs
        na, nb, guarded = saved
        fa = a.reshape(a.shape[0], -1)
        fb = b.reshape(b.shape[0], -1)
        na = np.where(guarded, 1.0, na)
        nb = np.where(guarded, 1.0, nb)
        c = np.where(guarded, 0.0, y)
        gv = np.where(guarded, 0.0, g)[:, None]
        da = db = None
        if needs[0]:
            da = gv * (fb / (na * nb)[:, None] - c[:, None] * fa / (na * na)[:, None])
            da = da.reshape(a.shape)
        if needs[1]:
            db = gv * (fa / (na * nb)[:, None] - c[:, None] * fb / (nb * nb)[:, None])
            db = db.reshape(b.shape)
        return da, db


class _BceLogits:
    """Numerically stable elementwise binary cross-entropy on logits."""

    def reads(self, needs):
        return (needs[0] or needs[1], needs[0]), False, False

    def forward(self, z, t):
        return np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))

    def vjp(self, g, y, xs, needs, saved):
        z, t = xs
        dz = None
        dt = None
        if needs[0]:
            dz = g * (_sigmoid(z) - t)
        if needs[1]:
            dt = g * (-z)
        return dz, dt


class _Reshape:
    reads = _reads_shapes

    def __init__(self, shape):
        self.shape = tuple(shape)

    def forward(self, x):
        return x.reshape(self.shape)

    def vjp(self, g, y, xs, needs, saved):
        return (g.reshape(xs[0].shape) if needs[0] else None,)


# ---------------------------------------------------------------------------
# nodes and builders
# ---------------------------------------------------------------------------


class Node:
    """One vertex of the computation DAG."""

    __slots__ = ("op", "parents", "shape", "name", "value")

    def __init__(self, op, parents, shape, name=None, value=None):
        self.op = op
        self.parents = parents
        self.shape = tuple(shape)
        self.name = name
        self.value = value

    def __repr__(self):
        if self.name is not None:
            return f"Node(leaf {self.name!r}, shape={self.shape})"
        if self.op is None:
            return f"Node(const, shape={self.shape})"
        return f"Node({type(self.op).__name__}, shape={self.shape})"


def leaf(name: str, shape: Iterable[int]) -> Node:
    """A named placeholder bound to a value at evaluation time."""
    return Node(None, (), tuple(int(s) for s in shape), name=name)


def constant(value) -> Node:
    """A fixed tensor embedded in the graph; no gradient flows into it."""
    arr = tensor(value)
    return Node(None, (), arr.shape, value=arr)


def add(a: Node, b: Node) -> Node:
    return Node(_Add(), (a, b), _broadcast(a.shape, b.shape))


def sub(a: Node, b: Node) -> Node:
    return Node(_Sub(), (a, b), _broadcast(a.shape, b.shape))


def mul(a: Node, b: Node) -> Node:
    return Node(_Mul(), (a, b), _broadcast(a.shape, b.shape))


def scale(x: Node, c: float) -> Node:
    return Node(_Scale(c), (x,), x.shape)


def matmul(a: Node, b: Node) -> Node:
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise GraphError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return Node(_MatMul(), (a, b), (a.shape[0], b.shape[1]))


def conv1d(x: Node, w: Node, padding: int = 0, dilation: int = 1,
           groups: int = 1) -> Node:
    if len(x.shape) != 3 or len(w.shape) != 3:
        raise GraphError("conv1d expects x (B, Cin, T) and w (Cout, Cin/groups, K)")
    B, cin, T = x.shape
    cout, cg, K = w.shape
    if dilation < 1 or padding < 0 or groups < 1:
        raise GraphError("conv1d: dilation >= 1, padding >= 0, groups >= 1")
    if cin % groups or cout % groups:
        raise GraphError("conv1d: groups must divide both channel counts")
    if cg != cin // groups:
        raise GraphError(f"conv1d: weight expects {cin // groups} input channels per group, got {cg}")
    tout = T + 2 * padding - dilation * (K - 1)
    if tout < 1:
        raise GraphError("conv1d: kernel span exceeds padded input length")
    return Node(_Conv1d(padding, dilation, groups), (x, w), (B, cout, tout))


def relu(x: Node) -> Node:
    return Node(_Relu(), (x,), x.shape)


def gelu(x: Node) -> Node:
    return Node(_Gelu(), (x,), x.shape)


def sigmoid(x: Node) -> Node:
    return Node(_Sigmoid(), (x,), x.shape)


def normalize(x: Node, axis: int = -1) -> Node:
    if len(x.shape) < 1 or not -len(x.shape) <= axis < len(x.shape):
        raise GraphError("normalize axis out of range")
    if x.shape[axis] < 1:
        raise GraphError("normalize expects a nonempty axis")
    return Node(_Normalize(axis), (x,), x.shape)


def _reduced(x: Node, axis: int, what: str) -> tuple[int, tuple]:
    """A reduction axis checked against x, and the reduced shape."""
    axis = int(axis)
    if not -len(x.shape) <= axis < len(x.shape):
        raise GraphError(f"{what} axis {axis} out of range for shape {x.shape}")
    axis %= len(x.shape)
    return axis, x.shape[:axis] + x.shape[axis + 1:]


def mean(x: Node, axis: int | None = None) -> Node:
    if axis is None:
        return Node(_Mean(None), (x,), ())
    axis, out = _reduced(x, axis, "mean")
    return Node(_Mean(axis), (x,), out)


def sum_(x: Node, axis: int | None = None) -> Node:
    if axis is None:
        return Node(_Sum(None), (x,), ())
    axis, out = _reduced(x, axis, "sum")
    return Node(_Sum(axis), (x,), out)


def abs_(x: Node) -> Node:
    return Node(_Abs(), (x,), x.shape)


def dot(a: Node, b: Node) -> Node:
    if int(np.prod(a.shape)) != int(np.prod(b.shape)):
        raise GraphError("dot expects operands with equal element counts")
    return Node(_Dot(), (a, b), ())


def dot_rows(a: Node, b: Node) -> Node:
    if a.shape != b.shape or len(a.shape) < 1:
        raise GraphError("dot_rows expects equal shapes with a leading batch axis")
    return Node(_DotRows(), (a, b), (a.shape[0],))


def norm(x: Node) -> Node:
    return Node(_Norm(), (x,), ())


def cosine_similarity(a: Node, b: Node) -> Node:
    if int(np.prod(a.shape)) != int(np.prod(b.shape)):
        raise GraphError("cosine_similarity expects equal element counts")
    return Node(_Cosine(), (a, b), ())


def cosine_rows(a: Node, b: Node) -> Node:
    if a.shape != b.shape or len(a.shape) < 1:
        raise GraphError("cosine_rows expects equal shapes with a leading batch axis")
    return Node(_CosineRows(), (a, b), (a.shape[0],))


def bce_with_logits(z: Node, t: Node) -> Node:
    if z.shape != t.shape:
        raise GraphError("bce_with_logits expects matching shapes")
    return Node(_BceLogits(), (z, t), z.shape)


def reshape(x: Node, shape: Iterable[int]) -> Node:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != int(np.prod(x.shape)):
        raise GraphError(f"cannot reshape {x.shape} to {shape}")
    return Node(_Reshape(shape), (x,), shape)


# ---------------------------------------------------------------------------
# graph: freezing, evaluation, reverse sweep
# ---------------------------------------------------------------------------


def _topo(output: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(output, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


# Arrays of at least this many float64 values (128 KiB, glibc's default
# mmap threshold) come from a graph's buffer pool; glibc would hand them
# back to the OS when freed and page-fault them in again on the next sweep.
# Smaller ones come from malloc's heap, which is cheaper than bookkeeping.
# The rule is per array: every graph, whatever its size, drops each value
# after its last use.
POOL_MIN_VALUES = 2 ** 14


def _idle_refs() -> int:
    """sys.getrefcount of a pooled buffer that nothing else refers to, read
    in the loop shape of _Buffers.empty (the count depends on the CPython
    version, which may borrow the loop's references)."""
    bufs = [np.empty(1)]
    for buf in bufs:
        if buf.size >= 1:
            return sys.getrefcount(buf)


_IDLE_REFS = _idle_refs()


class _Buffers:
    """The large arrays of the sweeps of one fit's graphs, kept from sweep
    to sweep.

    Ops take them through `empty`, which hands out a prefix view of the
    smallest idle buffer that fits. A buffer is idle once nothing but this
    pool refers to it: every array made from one (a view, saved columns, a
    gradient) holds a reference to it, so a live array is never
    overwritten, and values that are never live at the same time share
    memory (Chen et al., 2016). The sweeps drop each array after its last
    use. Handing out is not atomic, so no two sweeps of graphs that share a
    pool may run at the same time.
    """

    def __init__(self):
        self.bufs: list[np.ndarray] = []  # smallest first

    def empty(self, shape) -> np.ndarray:
        n = math.prod(shape)
        if n < POOL_MIN_VALUES:
            return np.empty(shape)
        for buf in self.bufs:
            if buf.size >= n and sys.getrefcount(buf) == _IDLE_REFS:
                return buf[:n].reshape(shape)
        buf = np.empty(n)
        self.bufs.append(buf)
        self.bufs.sort(key=len)
        return buf[:n].reshape(shape)

    def escape(self, a):
        """`a`, copied if it lives in one of the buffers."""
        if any(a.base is buf for buf in self.bufs):
            return np.array(a, order="C")
        return a

    def add(self, a, b):
        """a + b for two gradients of one node."""
        if a.shape != b.shape:
            return a + b
        return np.add(a, b, out=self.empty(a.shape))


class Graph:
    """A frozen DAG with one scalar-or-tensor output node.

    The large arrays of its sweeps come from a buffer pool (see _Buffers),
    its own or one shared by the graphs of a `graphs` cache. So neither one
    graph nor two graphs that share a pool may be swept by two threads at
    once. Only the output value and the leaf gradients leave a sweep, and
    they never share memory with the buffers. Every sweep drops each value
    after its last use, as far as the reads that each op declares allow.
    Sweeps run from plans, one built on the first sweep for each set of
    gradient targets (`evaluate`'s set is empty). Plans hold node indices,
    bound methods and placeholders, never values.
    """

    def __init__(self, output: Node):
        self.output = output
        self.nodes = _topo(output)
        self._index = {id(n): i for i, n in enumerate(self.nodes)}
        self.leaves = {n.name: n for n in self.nodes if n.name is not None}
        self._bufs = _Buffers()
        self._leaf_plan = [(i, n.name, n.shape)
                           for i, n in enumerate(self.nodes)
                           if n.name is not None]
        self._const_plan = [i for i, n in enumerate(self.nodes)
                            if n.name is None and n.op is None]
        self._plans: dict[frozenset, tuple[list, list]] = {}

    # -- forward ------------------------------------------------------------

    def _forward(self, bindings: Mapping[str, np.ndarray], plan: list,
                 check: bool) -> tuple[list, list]:
        """Node values plus, parallel to them, what each op saved for its
        VJP in this sweep (None where an op saves nothing or the plan does
        not keep it), swept by a forward plan."""
        vals: list = [None] * len(self.nodes)
        saved: list = [None] * len(self.nodes)
        for i, name, shape in self._leaf_plan:
            if name not in bindings:
                raise GraphError(f"unbound leaf {name!r}")
            val = (tensor(bindings[name]) if check
                   else np.asarray(bindings[name], dtype=np.float64))
            if val.shape != shape:
                raise GraphError(
                    f"leaf {name!r} expects shape {shape}, got {val.shape}")
            vals[i] = val
        for i in self._const_plan:
            vals[i] = self.nodes[i].value
        empty = self._bufs.empty
        for i, forward, pv, buffered, saves, keep, drops in plan:
            xs = [vals[j] for j in pv]
            for j, stub in drops:
                vals[j] = stub
            vals[i] = forward(*xs, empty=empty) if buffered else forward(*xs)
            xs = None
            if saves:  # forward returned (value, saved)
                vals[i], saved[i] = vals[i]
                if not keep:
                    saved[i] = None
        return vals, saved

    def evaluate(self, bindings: Mapping[str, np.ndarray],
                 check: bool = True) -> np.ndarray:
        """Output value under a binding; pure, so equal bindings give
        bit-identical results. With `check` false the bindings are not
        checked for non-finite values: the caller has checked them."""
        return self._bufs.escape(
            self._forward(bindings, self._plan(frozenset())[0], check)[0][-1])

    # -- reverse ------------------------------------------------------------

    def _plan(self, wrt: frozenset) -> tuple[list, list]:
        """The forward and VJP steps of a sweep for gradients of `wrt`,
        built on the first sweep for `wrt`.

        The forward steps are one per op node, in node order, as (index,
        forward, parent indices, buffered, saves, keeps what it saved,
        (node, placeholder) pairs dropped before the step). The VJP steps
        are one per op node that depends on a leaf in `wrt`, last node
        first, as (index, vjp, parent indices, needs, (slot, parent) pairs
        that receive a gradient, buffered, the nodes dropped before the
        step). An op node's value that no VJP reads gives way to a
        placeholder after its last forward reader, and a saved array that
        no VJP reads is not kept; so with no targets, every value but the
        output's is dropped after its last reader. Every reader of a node
        dropped before a VJP step has run its VJP, and a dropped node has
        none to run.
        """
        plan = self._plans.get(wrt)
        if plan is not None:
            return plan
        nodes, index = self.nodes, self._index
        ops = [(i, n.op, tuple(index[id(p)] for p in n.parents))
               for i, n in enumerate(nodes) if n.op is not None]
        needed = [n.name in wrt for n in nodes]
        for i, _, pv in ops:
            needed[i] = any(needed[j] for j in pv)
        steps, after = [], len(nodes)
        read, keep = [False] * len(nodes), [False] * len(nodes)
        for i, op, pv in reversed(ops):
            if needed[i]:
                needs = tuple(needed[j] for j in pv)
                inputs, read_y, keep[i] = op.reads(needs)
                read[i] |= read_y
                for j, r in zip(pv, inputs):
                    read[j] |= r
                steps.append((
                    i, op.vjp, pv, needs,
                    tuple((k, j) for k, j in enumerate(pv) if needed[j]),
                    getattr(op, "buffered", False),
                    tuple(range(i + 1, after))))
                after = i
        drops: list[list] = [[] for _ in nodes]
        for j, i in {j: i for i, _, pv in ops for j in pv}.items():
            if nodes[j].op is not None and not read[j]:
                drops[i].append((j, _placeholder(nodes[j].shape)))
        forward = [(i, op.forward, pv, getattr(op, "buffered", False),
                    getattr(op, "saves", False), keep[i], tuple(drops[i]))
                   for i, op, pv in ops]
        plan = self._plans[wrt] = forward, steps
        return plan

    def value_and_grad(self, bindings: Mapping[str, np.ndarray],
                       wrt: Iterable[str], seed=None, check: bool = True):
        """Forward value plus d(output)/d(leaf) for each requested leaf.

        With `seed`, an array of the output's shape, the gradients are
        those of sum(seed * output): ones give the gradient of the sum of
        a vector of losses, such as one loss per stacked restart. `check`
        is as for `evaluate`.
        """
        if seed is None:
            if self.output.shape != ():
                raise GraphError("gradient requires a scalar-valued output")
            seed = np.asarray(1.0)
        elif np.shape(seed) != self.output.shape:
            raise GraphError(f"seed shape {np.shape(seed)} differs from the "
                             f"output shape {self.output.shape}")
        wrt = frozenset(wrt)
        for name in wrt:
            if name not in bindings and name not in self.leaves:
                raise GraphError(f"gradient target {name!r} has no binding")
        forward, steps = self._plan(wrt)
        bufs = self._bufs
        empty = bufs.empty
        vals, saved = self._forward(bindings, forward, check)
        value = bufs.escape(vals[-1])
        grads: list = [None] * len(self.nodes)
        grads[-1] = np.asarray(seed, dtype=np.float64)
        for i, vjp, pv, needs, targets, buffered, drops in steps:
            # The gradients of dropped nodes are kept (a leaf's is a
            # result); node i's value, saved arrays and gradient are dead
            # once its own VJP has run.
            for j in drops:
                vals[j] = saved[j] = None
            args = (grads[i], vals[i], [vals[j] for j in pv], needs,
                    saved[i])
            vals[i] = saved[i] = grads[i] = None
            parts = vjp(*args, empty=empty) if buffered else vjp(*args)
            args = None
            for k, j in targets:
                grads[j] = (parts[k] if grads[j] is None
                            else bufs.add(grads[j], parts[k]))
            parts = None
        vals = saved = None  # the nodes below the last VJP step are dead
        out: dict[str, np.ndarray] = {}
        for name in wrt:
            node = self.leaves.get(name)
            if node is None:
                out[name] = np.zeros(np.asarray(bindings[name]).shape)
            else:
                g = grads[self._index[id(node)]]
                out[name] = (np.zeros(node.shape) if g is None
                             else np.ascontiguousarray(bufs.escape(g)))
        return value, out

    def gradient(self, bindings: Mapping[str, np.ndarray],
                 wrt: Iterable[str]) -> dict[str, np.ndarray]:
        return self.value_and_grad(bindings, wrt)[1]


def graphs(build):
    """A cached key -> Graph(build(key)) function, such as a fit's loss graph
    per batch size; its graphs share one buffer pool, and no other graph
    does. Dropping the function frees the graphs and their pool."""
    pool = _Buffers()

    @functools.cache
    def graph(key) -> Graph:
        g = Graph(build(key))
        g._bufs = pool
        return g
    return graph
