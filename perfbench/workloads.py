"""The three benchmark workloads.

All three are closed loops: one caller waits for each call to finish, with
`threads=1` and BLAS pinned to one thread. Each workload has a set-up that
runs in a fresh interpreter (`run.py --setup-only`, timed as `setup_s`),
a `prepare` step in the benchmark process, and a timed `iterate`.

pipeline-mlp
    The README pipeline on the MLP (d=14, n=900, hidden 16): gen-data,
    train-model, tune-lambda, train-transform (8 restarts), score,
    baselines (IG, 128 steps) and sanity-check, each a fresh
    `python -m mindkit.cli` process. Tiny graphs, so per-node dispatch,
    graph rebuilds, Adam, clamping, imports and schema validation dominate;
    there is no conv1d. Set-up writes the config files.
sanity-seqconv
    Acceptance criterion 09 in-process: a reference `multi_restart`, then
    `restart_baseline` and `sanity_check` over both layers of a frozen
    seqconv model (d=6, T=12, hidden 8). Dominated by conv1d, normalize and
    GeLU forwards and input-gradient VJPs at batch 100. Set-up generates the
    data and fits the model.
transforms-seq
    The same frozen model, fitted with basis gating (chebyshev and pulse:
    a grouped kernel-1 conv fed by `gating_channels`) and with the residual
    transform (kernel-5 convs that need weight and input gradients).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

PLANTED = (0, 1)
README_BETA = [0.0, 0.0, 1.5, -1.3, 1.7, 0.04, -0.04, 0.04, -0.04,
               0.04, -0.04, 0.04, -0.04, 0.04]
SEQ_D, SEQ_T, SEQ_HIDDEN = 6, 12, (8,)
SEQ_OTHERS = [j for j in range(SEQ_D) if j not in PLANTED]
MIN_ACCURACY = 0.85  # criterion 09: the check only means something then


@dataclass
class Outcome:
    """Operations, checks and measurements of one timed pass (or set-up).

    An operation is a restart, a CLI call or an output check; a failed one
    is counted, never dropped. A criterion is a statistical acceptance
    inequality (criteria 09 and 11) that the seed code misses on some
    seeds; it is recorded and reported with every result but is not an
    operation, so that the benchmark can run on any seed.
    """
    wall_s: float = 0.0
    fit_rows: float = 0.0
    fit_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    criteria: list = field(default_factory=list)
    cmd_s: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    undefined_rho: int = 0
    notes: dict = field(default_factory=dict)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        self.ops(1, 0 if ok else 1)

    def criterion(self, name: str, met: bool, detail: str = "") -> None:
        self.criteria.append({"criterion": name, "met": bool(met),
                              "detail": detail})


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): file_digest(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def array_digest(values) -> str:
    import numpy as np
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[int, str]:
    """Run a child process to the end; returns (exit code, stderr).

    subprocess's own timeout polls with sleeps of up to 50 ms, which would
    round every timing; here a timer kills a child that overruns and the
    wait itself blocks.
    """
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.daemon = True
    timer.start()
    try:
        _, err = proc.communicate()
    finally:
        timer.cancel()
    if proc.returncode == -signal.SIGKILL:
        err += f"\nkilled after {timeout:.0f} s"
    return proc.returncode, err


def _defined_mean(rhos) -> float:
    """Mean over the defined rank correlations; NaN if none is defined."""
    vals = [r for r in rhos if r is not None and not math.isnan(r)]
    return statistics.fmean(vals) if vals else math.nan


def _undefined(rhos) -> int:
    return sum(1 for r in rhos if r is None or math.isnan(r))


def _planted_lowest(score) -> bool:
    return bool(score[list(PLANTED)].max() < score[SEQ_OTHERS].min())


def _time_mean_gates(gates, basis):
    """Per-feature gate on the time mean of a (d, channels) basis gating.

    Each channel is weighted by its share of the constant direction: for
    chebyshev that is the first channel alone, for pulse every window
    equally; a residual channel holds none of it. The higher chebyshev
    channels carry only noise and shape that the labels do not depend on,
    so their gates are left to chance on some seeds.
    """
    import numpy as np
    const = np.full(basis.T, basis.T ** -0.5)
    share = (basis.vectors @ const) ** 2
    return gates[:, :basis.K] @ share


# ---------------------------------------------------------------------------
# pipeline-mlp
# ---------------------------------------------------------------------------


class PipelineMLP:
    name = "pipeline-mlp"
    setup_repeats = 10
    COMMANDS = ("gen-data", "train-model", "tune-lambda", "train-transform",
                "score", "baselines", "sanity-check")
    SIZES = {
        "full": {"n": 900, "hidden": 16, "train_epochs": 100,
                 "mind_epochs": 60, "restarts": 8, "top_k": 5,
                 "ig_steps": 128, "shuffles": 5},
        "toy": {"n": 300, "hidden": 4, "train_epochs": 30, "mind_epochs": 20,
                "restarts": 2, "top_k": 1, "ig_steps": 4, "shuffles": 1},
    }

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, out: Path, seed: int) -> None:
        """Write the four config files of the README pipeline."""
        s = self.size
        mind = {"similarity": "inner_product", "weight_decay": 0.01,
                "max_epochs": s["mind_epochs"]}
        docs = {
            "gen.json": {"n": s["n"], "d": len(README_BETA),
                         "planted": list(PLANTED), "beta": README_BETA,
                         "label_noise": 0.0},
            "train.json": {"max_epochs": s["train_epochs"], "lr": 0.02},
            "mind.json": mind,
            "full.json": {**mind, "restarts": s["restarts"],
                          "top_k": s["top_k"]},
        }
        out.mkdir(parents=True, exist_ok=True)
        for name, doc in docs.items():
            (out / name).write_text(json.dumps(doc) + "\n")

    def prepare(self, setup_dir: Path, seed: int, outcome: Outcome) -> dict:
        return {"configs": setup_dir, "seed": seed}

    def _argv(self, cmd: str, ctx: dict, w: Path) -> list[str]:
        cfg, seed, s = ctx["configs"], ctx["seed"], self.size
        data = ["--data", str(w / "data" / "data.csv")]
        model = ["--model", str(w / "model" / "model.json")]
        report = ["--report", str(w / "report" / "report.json")]
        if cmd == "gen-data":
            return [cmd, "--config", str(cfg / "gen.json"),
                    "--seed", str(seed), "--out", str(w / "data")]
        if cmd == "train-model":
            return [cmd, *data, "--arch", "mlp", "--hidden", str(s["hidden"]),
                    "--config", str(cfg / "train.json"),
                    "--seed", str(seed + 1), "--out", str(w / "model")]
        if cmd == "tune-lambda":
            return [cmd, *data, *model, "--config", str(cfg / "mind.json"),
                    "--seed", str(seed + 2), "--out", str(w / "tune")]
        if cmd == "train-transform":
            lam = json.loads((w / "tune" / "tune.json").read_text())["lambda"]
            return [cmd, *data, *model, "--kind", "gating",
                    "--config", str(cfg / "full.json"), "--lam", repr(lam),
                    "--seed", str(seed + 3), "--out", str(w / "transform")]
        if cmd == "score":
            return [cmd, "--manifest", str(w / "transform" / "manifest.json"),
                    "--out", str(w / "report")]
        if cmd == "baselines":
            return [cmd, *data, *model, *report,
                    "--steps", str(s["ig_steps"]), "--out", str(w / "baselines")]
        return [cmd, *data, *model, *report, "--config", str(cfg / "full.json"),
                "--shuffles", str(s["shuffles"]), "--seed", str(seed + 4),
                "--out", str(w / "sanity")]

    @staticmethod
    def _in_process(argv: list[str]) -> tuple[int, str]:
        from mindkit import cli
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a traceback is a failed call, reported below
            return 1, traceback.format_exc()
        return rc, err.getvalue()

    def iterate(self, ctx: dict, work: Path, *, in_process: bool, env: dict,
                timeout: float) -> Outcome:
        out = Outcome()
        work.mkdir(parents=True)
        start = time.perf_counter()
        for i, cmd in enumerate(self.COMMANDS):
            argv = self._argv(cmd, ctx, work)
            t0 = time.perf_counter()
            if in_process:
                rc, err = self._in_process(argv)
            else:
                rc, err = run_child([sys.executable, "-m", "mindkit.cli",
                                     *argv], env, timeout - (t0 - start))
            out.cmd_s[cmd] = time.perf_counter() - t0
            if rc != 0:
                out.ops(len(self.COMMANDS) - i, len(self.COMMANDS) - i)
                out.check(f"{cmd} exits 0", False, err.strip()[-400:])
                out.wall_s = time.perf_counter() - start
                return out
            out.ops(1)
        out.wall_s = time.perf_counter() - start
        try:
            self._check(out, work)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.check("artifacts readable", False, repr(exc))
        return out

    def _check(self, out: Outcome, w: Path) -> None:
        def load(*parts):
            return json.loads(w.joinpath(*parts).read_text())

        truth = load("data", "truth.json")
        planted = truth["invariant_features"]
        strong = [j for j, v in enumerate(truth["weights"]) if abs(v) >= 1.0]
        tune = load("tune", "tune.json")
        manifest = load("transform", "manifest.json")
        report = load("report", "report.json")
        sanity = load("sanity", "sanity.json")
        n_train = len(load("data", "data.sidecar.json")["splits"]["train"])

        scores = report["score_mean"]
        low = [scores[j] for j in planted]
        high = [scores[j] for j in strong]
        detail = f"planted {low}, strong {high}"
        out.check("score reproduces the manifest", report == manifest)
        out.check("planted features score below every strong feature",
                  None not in low + high and max(low) < min(high), detail)
        out.criterion("tune-lambda is feasible", tune["feasible"],
                      f"lambda {tune['lambda']}")
        out.criterion("planted scores < 0.05",
                      None not in low and max(low) < 0.05, detail)
        out.criterion("strong scores > 0.5",
                      None not in high and min(high) > 0.5, detail)
        runs = manifest["restarts"]["runs"]
        cfg = manifest["config"]
        out.ops(self.size["restarts"], len(manifest["restarts"]["failed"]))
        # lambda is tuned on one restart, so the others can land just past
        # a limit on some seeds
        w1_max = max(r["w1"] for r in runs)
        cos_max = max(r["cosine"] for r in runs)
        out.criterion(f"every restart W1 <= {cfg['w1_limit']} and cosine <= "
                      f"{cfg['cosine_limit']}", w1_max <= cfg["w1_limit"]
                      and cos_max <= cfg["cosine_limit"],
                      f"max W1 {w1_max:.4f}, max cosine {cos_max:.4f}")
        rhos = [r for layer in sanity["layers"] for r in layer.get("rhos", [])]
        out.undefined_rho = _undefined(rhos)
        out.notes["null_rho_mean_layers"] = [
            layer["layer"] for layer in sanity["layers"]
            if layer["rho_mean"] is None]
        out.fit_rows = float(sum(r["epochs"] for r in runs) * n_train)
        out.fit_s = out.cmd_s["train-transform"]
        out.hashes = tree_digests(w)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# library workloads on the frozen seqconv model
# ---------------------------------------------------------------------------


class _SeqWorkload:
    setup_repeats = 3
    SETUP_SIZES = {"full": {"n": 600, "train_epochs": 120},
                   "toy": {"n": 300, "train_epochs": 40}}

    def __init__(self, size: str):
        self.setup_size = self.SETUP_SIZES[size]
        self.size = self.SIZES[size]

    def _dataset(self, seed: int):
        import mindkit as mk
        return mk.generate_synthetic(mk.SyntheticSpec(
            n=self.setup_size["n"], d=SEQ_D, seq_len=SEQ_T, planted=PLANTED,
            label_noise=0.0, seed=seed))[0]

    def setup(self, out: Path, seed: int) -> None:
        """Generate the data and fit the seqconv model (criterion 09)."""
        import mindkit as mk
        ds = self._dataset(seed)
        model = mk.build_model("seqconv", SEQ_D, seq_len=SEQ_T,
                               hidden=SEQ_HIDDEN, output="probability",
                               seed=seed + 1)
        fitted, _ = mk.train(model, ds, mk.TrainConfig(
            lr=0.02, max_epochs=self.setup_size["train_epochs"],
            seed=seed + 1))
        out.mkdir(parents=True, exist_ok=True)
        mk.save_model(fitted, out / "model.json")

    def prepare(self, setup_dir: Path, seed: int, outcome: Outcome) -> dict:
        import numpy as np
        import mindkit as mk
        ds = self._dataset(seed)
        model = mk.load_model(setup_dir / "model.json")
        Xva, yva = ds.split("validation")
        acc = float(np.mean((mk.predict(model, Xva) > 0.5) == (yva > 0.5)))
        outcome.criterion(f"model accuracy > {MIN_ACCURACY}",
                          acc > MIN_ACCURACY, f"{acc:.3f}")
        return {"ds": ds, "model": model, "seed": seed,
                "n_train": len(ds.split("train")[0])}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SanitySeqconv(_SeqWorkload):
    name = "sanity-seqconv"
    SIZES = {
        "full": {"restarts": 8, "top_k": 5, "max_epochs": 60,
                 "instances": 5, "shuffles": 5},
        "toy": {"restarts": 3, "top_k": 2, "max_epochs": 20,
                "instances": 2, "shuffles": 2},
    }

    def iterate(self, ctx: dict, work: Path, **_) -> Outcome:
        import mindkit as mk
        s, seed = self.size, ctx["seed"]
        model, ds = ctx["model"], ctx["ds"]
        tspec = mk.TransformSpec("gating", intercept=False)
        cfg = mk.MindConfig(lam=0.002, similarity="inner_product",
                            max_epochs=s["max_epochs"], restarts=s["restarts"],
                            top_k=s["top_k"], seed=seed + 2)
        out = Outcome()
        start = time.perf_counter()
        ref = mk.multi_restart(model, tspec, ds, cfg, threads=1)
        fitted = time.perf_counter()
        reference = ref.feature_scores()
        base = mk.restart_baseline(model, tspec, ds, cfg, reference,
                                   instances=s["instances"], seed=seed + 3,
                                   threads=1)
        layers = mk.sanity_check(model, tspec, ds, cfg, reference,
                                 shuffles=s["shuffles"], seed=seed + 3,
                                 threads=1)
        out.wall_s = time.perf_counter() - start
        out.fit_s = fitted - start
        out.fit_rows = float(sum(d.epochs for d in ref.diagnostics)
                             * ctx["n_train"])

        out.ops(s["restarts"], len(ref.failed))
        out.ops(s["instances"], base.failures)
        for o in layers:
            out.ops(s["shuffles"], o.failures)
        out.undefined_rho = _undefined(base.rhos) + sum(
            _undefined(o.rhos) for o in layers)
        by_layer = {o.layer: o for o in layers}
        head, early = by_layer["head_w"], layers[0]
        # Undefined rank correlations (constant scores) are counted above
        # and left out of each summary, which then covers the defined ones.
        b, h, e = (_defined_mean(x.rhos) for x in (base, head, early))
        out.check("reference: planted gates below all others",
                  _planted_lowest(reference),
                  f"{[round(float(v), 3) for v in reference]}")
        out.check("baseline: every instance fitted",
                  len(base.rhos) == s["instances"], f"{len(base.rhos)}")
        out.check("every shuffle of every layer fitted",
                  all(len(o.rhos) == s["shuffles"] for o in layers),
                  f"{[len(o.rhos) for o in layers]}")
        out.criterion("shuffled head rho <= baseline rho - 0.3",
                      h <= b - 0.3, f"head {h:.3f}, baseline {b:.3f}")
        out.criterion(f"shuffled {early.layer} rho < baseline rho", e < b,
                      f"{early.layer} {e:.3f}, baseline {b:.3f}")
        out.hashes = {"reference": array_digest(ref.samples),
                      "baseline": array_digest(base.rhos),
                      **{o.layer: array_digest(o.rhos) for o in layers}}
        out.notes.update(baseline_rho=b, head_rho=h, early_rho=e)
        return out


class TransformsSeq(_SeqWorkload):
    name = "transforms-seq"
    SIZES = {
        "full": {"basis": {"restarts": 4, "top_k": 3, "max_epochs": 60},
                 "residual": {"restarts": 2, "top_k": 2, "max_epochs": 40}},
        "toy": {"basis": {"restarts": 1, "top_k": 1, "max_epochs": 40},
                "residual": {"restarts": 1, "top_k": 1, "max_epochs": 20}},
    }

    def _fits(self, seed: int):
        import mindkit as mk
        b, r = self.size["basis"], self.size["residual"]
        for kind in ("chebyshev", "pulse"):
            yield (f"basis.{kind}",
                   mk.TransformSpec("basis", intercept=False,
                                    basis=mk.make_basis(kind, SEQ_T)),
                   mk.MindConfig(lam=0.002, similarity="inner_product",
                                 seed=seed + 2, **b))
        yield ("residual", mk.TransformSpec("residual", intercept=False),
               mk.MindConfig(lam=0.1, similarity="cosine", seed=seed + 2, **r))

    def iterate(self, ctx: dict, work: Path, **_) -> Outcome:
        import numpy as np
        import mindkit as mk
        out = Outcome()
        start = time.perf_counter()
        for label, tspec, cfg in self._fits(ctx["seed"]):
            t0 = time.perf_counter()
            res = mk.multi_restart(ctx["model"], tspec, ctx["ds"], cfg,
                                   threads=1)
            dt = time.perf_counter() - t0
            out.notes[f"fit.{label}_s"] = dt
            out.fit_s += dt
            out.fit_rows += float(sum(d.epochs for d in res.diagnostics)
                                  * ctx["n_train"])
            out.ops(cfg.restarts, len(res.failed))
            # The planted features are the ones the model ignores, so they
            # must score lowest: for the residual net the lowest input-output
            # correlation (it may rewrite them); for basis gating the
            # smallest gate on the time mean, the part of each series that
            # the labels are drawn from.
            if tspec.kind == "residual":
                score = res.rho_mean
            else:
                score = _time_mean_gates(res.mean, tspec.basis)
                avg = res.feature_scores()
                out.criterion(f"{label}: planted channel-averaged gates "
                              "below all others", _planted_lowest(avg),
                              f"{np.round(avg, 3).tolist()}")
            out.check(f"{label}: planted features score below all others",
                      _planted_lowest(score),
                      f"{np.round(score, 3).tolist()}")
            out.hashes[label] = array_digest(res.samples)
        out.wall_s = time.perf_counter() - start
        return out


WORKLOADS = {w.name: w for w in (PipelineMLP, SanitySeqconv, TransformsSeq)}
