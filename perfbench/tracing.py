"""Span tracing of mindkit from outside the package.

A Tracer replaces public functions and methods of the mindkit modules with
wrappers that record spans (name, start, end, parent span, run id) in
memory. Every binding of a wrapped function is replaced, including the
copies that `from .x import name` made in other mindkit modules, so that a
call such as `predict(...)` inside `mindkit.mindtrain` is traced too. The
package itself is not edited; `uninstall` restores every binding.

Self time of a span is its duration minus the time covered by its direct
child spans. Per-layer metrics are derived from the spans after the run.
"""
from __future__ import annotations

import functools
import json
import math
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name). An attribute "Class.method" patches the
# class, which every caller reaches through attribute lookup.
SPAN_TARGETS = (
    ("cli", "main", "cli.main"),
    ("schemas", "read_json", "schemas.read_json"),
    ("schemas", "write_json", "schemas.write_json"),
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "save_dataset", "data.save_dataset"),
    ("data", "load_dataset", "data.load_dataset"),
    ("models", "train", "models.train"),
    ("models", "predict", "models.predict"),
    ("models", "load_model", "models.load_model"),
    ("diffcore", "Graph.__init__", "diffcore.graph_build"),
    ("diffcore", "Graph.evaluate", "diffcore.evaluate"),
    ("diffcore", "Graph.value_and_grad", "diffcore.value_and_grad"),
    ("optim", "Adam.step", "optim.adam_step"),
    ("transforms", "clamp_gates", "transforms.clamp_gates"),
    ("transforms", "gating_channels", "transforms.gating_channels"),
    ("transforms", "apply_gating", "transforms.apply"),
    ("transforms", "apply_residual", "transforms.apply"),
    ("transforms", "apply_basis_gating", "transforms.apply"),
    ("mindtrain", "train_transform", "mindtrain.train_transform"),
    ("mindtrain", "multi_restart", "mindtrain.multi_restart"),
    ("mindtrain", "tune_lambda", "mindtrain.tune_lambda"),
    ("analysis", "sanity_check", "analysis.sanity_check"),
    ("analysis", "restart_baseline", "analysis.restart_baseline"),
    ("analysis", "integrated_gradients", "analysis.integrated_gradients"),
    ("analysis", "saliency_scores", "analysis.saliency_scores"),
    ("analysis", "spearman", "analysis.spearman"),
)

# Called once per leaf binding in every sweep: counted, not timed.
COUNT_TARGETS = (("diffcore", "tensor", "diffcore.tensor"),)

MODULES = ("cli", "schemas", "data", "models", "diffcore", "optim",
           "transforms", "mindtrain", "analysis")

FIT = "mindtrain.train_transform"
STEP = "diffcore.value_and_grad"


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self.missing: list[str] = []     # targets the package no longer has
        # loss graphs differentiated inside transform fits, by signature
        self.loss_graphs: dict[tuple, dict] = {}
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name,
               time.perf_counter(), math.nan]
        self.spans.append(rec)
        self._stack.append(sid)
        self._open[name] += 1
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        import mindkit  # noqa: F401  (loads every module that gets patched)
        from mindkit import cli  # noqa: F401
        mods = {k: v for k, v in sys.modules.items()
                if k == "mindkit" or k.startswith("mindkit.")}
        hooks = {"models.train": _on_train, "mindtrain.train_transform":
                 _on_fit, "mindtrain.multi_restart": _on_multi_restart,
                 "diffcore.value_and_grad": _on_value_and_grad}
        targets = [(t, False) for t in SPAN_TARGETS] \
            + [(t, True) for t in COUNT_TARGETS]
        for (mod, attr, name), count_only in targets:
            module = mods.get(f"mindkit.{mod}")
            owner, _, member = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, member, None) if holder else None
            if original is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            if count_only:
                wrapper = self._count_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, hooks.get(name))
            if owner:
                self._patch(holder, member, wrapper)
                continue
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        sched = getattr(mods["mindkit.optim"], "PlateauSchedule", None)
        if sched is None:
            self.missing.append("optim.PlateauSchedule.update")
        else:
            self._patch(sched, "update", _halving_counter(self,
                                                          sched.update))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _on_train(tracer, args, kwargs, result):
    tracer.counts["models.train.epochs"] += len(result[1]["val_loss"])


def _on_fit(tracer, args, kwargs, result):
    diag = result[1]
    curve = diag.val_curve
    tracer.counts["mindtrain.epochs"] += diag.epochs
    if curve:
        best = min(range(len(curve)), key=curve.__getitem__)
        tracer.counts["mindtrain.best_epochs"] += best + 1
    if tracer.inside("mindtrain.tune_lambda"):
        tracer.counts["mindtrain.tune.fits"] += 1


def _on_multi_restart(tracer, args, kwargs, result):
    tracer.counts["mindtrain.restarts_failed"] += len(result.failed)


def _on_value_and_grad(tracer, args, kwargs, result):
    if not tracer.inside(FIT):
        return
    graph = args[0]
    wrt = frozenset(kwargs["wrt"] if "wrt" in kwargs else args[2])
    sig = (len(graph.nodes),) + tuple(sorted(
        (name, node.shape) for name, node in graph.leaves.items()))
    entry = tracer.loss_graphs.get(sig)
    if entry is None:
        tracer.loss_graphs[sig] = {"graph": graph, "wrt": wrt, "calls": 1}
    else:
        entry["calls"] += 1


def _halving_counter(tracer, update):
    @functools.wraps(update)
    def wrapper(self, loss, opt):
        before = opt.lr
        keep_going = update(self, loss, opt)
        if opt.lr < before:
            tracer.counts["optim.lr_halvings"] += 1
        return keep_going

    return wrapper


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, _, start, end in spans]


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, traced_wall: float) -> tuple[dict, dict]:
    """Per-layer values from the recorded spans and counters.

    Returns (metrics, table): metrics maps name -> value; table maps each
    span name to its count, total and self seconds.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for (sid, parent, name, start, end), own in zip(spans, selfs):
        row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += own

    def calls(name):
        return table.get(name, {}).get("count", 0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    in_fit = [False] * len(spans)
    steps_ms = []
    for sid, parent, name, start, end in spans:
        in_fit[sid] = name == FIT or (parent is not None and in_fit[parent])
        if name == STEP and in_fit[sid]:
            steps_ms.append((end - start) * 1e3)
    epochs = tracer.counts["mindtrain.epochs"]
    graphs = [len(e["graph"].nodes) for e in tracer.loss_graphs.values()]
    top = sum(end - start for _, parent, _, start, end in spans
              if parent is None)
    c = tracer.counts
    m = {
        "schemas.read_json.calls": calls("schemas.read_json"),
        "schemas.read_json_s": self_s("schemas.read_json"),
        "schemas.write_json.calls": calls("schemas.write_json"),
        "schemas.write_json_s": self_s("schemas.write_json"),
        "data.generate_synthetic_s": self_s("data.generate_synthetic"),
        "data.save_dataset_s": self_s("data.save_dataset"),
        "data.load_dataset.calls": calls("data.load_dataset"),
        "data.load_dataset_s": self_s("data.load_dataset"),
        "models.train_s": self_s("models.train"),
        "models.train.epochs": c["models.train.epochs"],
        "models.predict.calls": calls("models.predict"),
        "models.predict_s": self_s("models.predict"),
        "models.load_model_s": self_s("models.load_model"),
        "diffcore.graph_builds": calls("diffcore.graph_build"),
        "diffcore.graph_build_s": self_s("diffcore.graph_build"),
        "diffcore.evaluate.calls": calls("diffcore.evaluate"),
        "diffcore.evaluate_s": self_s("diffcore.evaluate"),
        "diffcore.value_and_grad.calls": calls("diffcore.value_and_grad"),
        "diffcore.value_and_grad_s": self_s("diffcore.value_and_grad"),
        "diffcore.tensor.calls": c["diffcore.tensor"],
        "diffcore.nodes_per_loss_graph":
            statistics.median(graphs) if graphs else 0,
        "optim.adam_step.calls": calls("optim.adam_step"),
        "optim.adam_step_s": self_s("optim.adam_step"),
        "optim.lr_halvings": c["optim.lr_halvings"],
        "transforms.clamp_gates.calls": calls("transforms.clamp_gates"),
        "transforms.clamp_gates_s": self_s("transforms.clamp_gates"),
        "transforms.gating_channels_s": self_s("transforms.gating_channels"),
        "transforms.apply_s": self_s("transforms.apply"),
        "mindtrain.fits": calls(FIT),
        "mindtrain.train_transform_s": self_s(FIT),
        "mindtrain.fit_steps": len(steps_ms),
        "mindtrain.epochs": epochs,
        "mindtrain.step_ms_p50": _quantile(steps_ms, 50),
        "mindtrain.step_ms_p99": _quantile(steps_ms, 99),
        "mindtrain.useful_epoch_ratio":
            c["mindtrain.best_epochs"] / epochs if epochs else 0.0,
        "mindtrain.tune.fits": c["mindtrain.tune.fits"],
        "mindtrain.restarts_failed": c["mindtrain.restarts_failed"],
        "mindtrain.multi_restart_s": self_s("mindtrain.multi_restart"),
        "analysis.sanity_check_s": self_s("analysis.sanity_check"),
        "analysis.restart_baseline_s": self_s("analysis.restart_baseline"),
        "analysis.integrated_gradients_s":
            self_s("analysis.integrated_gradients"),
        "analysis.saliency_scores_s": self_s("analysis.saliency_scores"),
        "analysis.spearman.calls": calls("analysis.spearman"),
        "trace.spans": len(spans),
        "trace.coverage": top / traced_wall if traced_wall > 0 else 0.0,
    }
    for module in MODULES:
        m[f"selftime.{module}_s"] = sum(
            row["self_s"] for name, row in table.items()
            if name.split(".", 1)[0] == module)
    return m, table


# ---------------------------------------------------------------------------
# import cost, read from -X importtime in fresh interpreters
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")
IMPORT_PACKAGES = ("numpy", "scipy", "jsonschema")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing mindkit and each of its dependencies.

    A package's cost is the cumulative time of its outermost entries: the
    lines for that package that no other line of the same package encloses.
    """
    entries = []  # [level, name, cumulative_us, parent_index]
    pending: list[int] = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        level = len(match.group(3)) // 2
        idx = len(entries)
        entries.append([level, match.group(4), int(match.group(2)), None])
        while pending and entries[pending[-1]][0] > level:
            entries[pending.pop()][3] = idx
        pending.append(idx)

    def package(name):
        return name.split(".", 1)[0]

    def outermost(i):
        pkg, parent = package(entries[i][1]), entries[i][3]
        while parent is not None:
            if package(entries[parent][1]) == pkg:
                return False
            parent = entries[parent][3]
        return True

    totals = Counter()
    for i, (_, name, cum, _) in enumerate(entries):
        if package(name) in ("mindkit",) + IMPORT_PACKAGES and outermost(i):
            totals[package(name)] += cum
    out = {"cli.import_s": totals["mindkit"] / 1e6}
    for pkg in IMPORT_PACKAGES:
        out[f"cli.import.{pkg}_s"] = totals[pkg] / 1e6
    return out


def import_costs(env: dict, repeats: int, timeout: float) -> dict[str, float]:
    """Median over fresh interpreters of the cost of `import mindkit.cli`."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mindkit.cli"],
            env=env, capture_output=True, text=True, timeout=timeout,
            check=True)
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
