"""Replay single diffcore ops at the exact shapes of a workload's loss graphs.

The shapes come from the public `Graph.nodes` of the loss graphs that the
traced run saw differentiated inside transform fits. Each op node is
rebuilt on its own with the public `dc.*` builders: parents that were
constants (frozen model weights) stay constants with the same values, the
others become leaves bound to seeded normal draws. Forward time is the
median time of `evaluate` on the one-op graph; VJP time is the median time
of `value_and_grad` on the op followed by a sum, minus `evaluate` on that
same graph, differentiating only the parents the real graph needed.

Values are per loss-graph sweep: the sum over every node of that label in
the most-used loss graph that has one. A label the workload never runs
reads 0. FLOP and byte counts are computed from array sizes for the
forward pass (8-byte floats, each operand and the output read or written
once); they are not measured.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

LABELS = ("conv1d.seq", "conv1d.basis", "conv1d.residual", "normalize.seq",
          "normalize.residual", "gelu", "relu", "matmul.mlp", "sigmoid",
          "abs", "dot_rows", "cosine_rows", "mean")
COSTED = ("conv1d.seq", "conv1d.basis", "conv1d.residual", "matmul.mlp")

_SIMPLE = {"_Gelu": "gelu", "_Relu": "relu", "_Sigmoid": "sigmoid",
           "_Abs": "abs", "_DotRows": "dot_rows",
           "_CosineRows": "cosine_rows", "_Mean": "mean"}


def _is_constant(node) -> bool:
    return node.op is None and node.name is None


def classify(node, graph) -> str | None:
    """Replay label of one op node, or None if it is not replayed.

    A conv whose weight is a constant is the frozen seqconv model's; a
    trainable grouped conv is basis gating; a trainable ungrouped conv is
    the residual transform. The model normalizes over channels (axis 1),
    the residual transform over time.
    """
    kind = type(node.op).__name__
    if kind == "_Conv1d":
        if _is_constant(node.parents[1]):
            return "conv1d.seq"
        return "conv1d.basis" if node.op.groups > 1 else "conv1d.residual"
    if kind == "_Normalize":
        return "normalize.seq" if node.op.axis == 1 else "normalize.residual"
    if kind == "_MatMul":
        x = graph.leaves.get("x")
        return "matmul.mlp" if x is not None and len(x.shape) == 2 else None
    return _SIMPLE.get(kind)


def _rebuild(dc, node, parents):
    op, kind = node.op, type(node.op).__name__
    if kind == "_Conv1d":
        return dc.conv1d(*parents, padding=op.padding, dilation=op.dilation,
                         groups=op.groups)
    if kind == "_Normalize":
        return dc.normalize(parents[0], axis=op.axis)
    if kind == "_Mean":
        return dc.mean(parents[0], axis=op.axis)
    builders = {"_Gelu": dc.gelu, "_Relu": dc.relu, "_Sigmoid": dc.sigmoid,
                "_Abs": dc.abs_, "_MatMul": dc.matmul,
                "_DotRows": dc.dot_rows, "_CosineRows": dc.cosine_rows}
    return builders[kind](*parents)


def _needed(graph, wrt) -> dict[int, bool]:
    need: dict[int, bool] = {}
    for node in graph.nodes:
        if node.name is not None:
            need[id(node)] = node.name in wrt
        else:
            need[id(node)] = any(need[id(p)] for p in node.parents)
    return need


def _time_us(fn, samples: int = 7, sample_s: float = 0.003) -> float:
    """Median microseconds per call over `samples` timed batches."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    reps = max(1, int(sample_s / once))
    per_call = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - start) / reps)
    return statistics.median(per_call) * 1e6


def _cost(node) -> tuple[int, int]:
    """Forward FLOPs and bytes of a conv1d or matmul node, from shapes."""
    a, b = (p.shape for p in node.parents)
    out = node.shape
    if type(node.op).__name__ == "_Conv1d":
        batch, _, _ = a
        cout, cg, k = b
        flops = 2 * batch * cout * out[-1] * cg * k
    else:
        flops = 2 * a[0] * a[1] * b[1]
    size = int(np.prod(a)) + int(np.prod(b)) + int(np.prod(out))
    return flops, 8 * size


def replay(loss_graphs: dict, seed: int = 0) -> tuple[dict, dict]:
    """Returns (metrics, details) for every label; see the module doc."""
    from mindkit import diffcore as dc

    rng = np.random.default_rng(seed)
    ranked = sorted(loss_graphs.values(), key=lambda e: -e["calls"])
    metrics: dict[str, float] = {}
    details: dict[str, dict] = {}
    for label in LABELS:
        fwd = vjp = 0.0
        flops = nbytes = 0
        for entry in ranked:
            graph = entry["graph"]
            nodes = [n for n in graph.nodes
                     if n.op is not None and classify(n, graph) == label]
            if not nodes:
                continue
            need = _needed(graph, entry["wrt"])
            shapes = []
            for node in nodes:
                parents, binds, wrt = [], {}, []
                for i, p in enumerate(node.parents):
                    if _is_constant(p):
                        parents.append(dc.constant(p.value))
                        continue
                    name = f"p{i}"
                    parents.append(dc.leaf(name, p.shape))
                    binds[name] = rng.standard_normal(p.shape)
                    if need[id(p)]:
                        wrt.append(name)
                out = _rebuild(dc, node, parents)
                single = dc.Graph(out)
                summed = dc.Graph(dc.sum_(out))
                fwd += _time_us(lambda: single.evaluate(binds))
                if wrt:
                    vjp += max(0.0, _time_us(
                        lambda: summed.value_and_grad(binds, wrt))
                        - _time_us(lambda: summed.evaluate(binds)))
                if label in COSTED:
                    f, b = _cost(node)
                    flops += f
                    nbytes += b
                shapes.append({"in": [list(p.shape) for p in node.parents],
                               "out": list(node.shape), "grad_of": wrt})
            details[label] = {"loss_graph_leaves": sorted(graph.leaves),
                              "loss_graph_calls": entry["calls"],
                              "nodes": shapes}
            break
        metrics[f"diffcore.op.{label}.fwd_us"] = fwd
        metrics[f"diffcore.op.{label}.vjp_us"] = vjp
        if label in COSTED:
            metrics[f"diffcore.op.{label}.flops"] = flops
            metrics[f"diffcore.op.{label}.bytes"] = nbytes
    return metrics, details
