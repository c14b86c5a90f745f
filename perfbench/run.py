"""mindkit benchmark: end-to-end timings and a traced per-module run.

Run from the root of the repository:

    python3 perfbench/run.py --workload pipeline-mlp --seed 1 --seconds 20 --trace 0

`--trace 0` sets the workload up several times in fresh interpreters, then
runs whole timed iterations until the next one would end after `--seconds`
(at least one), checks every output, and reports the end-to-end metrics
named in BENCHMARK.json. `--trace 1` runs one untraced and one traced
iteration in-process, replays the loss graphs' ops, reads import costs from
`-X importtime`, and reports the per-layer metrics. The last line of
standard output is one JSON object; everything else (metric table, checks,
environment) comes before it and is saved under `.perfbench/results/`.
"""
from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0      # every run must end within 180 s
IMPORT_PROBES = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(
        workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every workload for the self-test")
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)
    return p


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def code_digest(*roots: Path) -> str:
    """Digest of the Python sources under the given directories."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    dirty = subprocess.run(["git", "status", "--porcelain",
                            "--untracked-files=no", "--", "src"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def environment(seed: int) -> dict:
    from importlib import metadata

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "jsonschema": metadata.version("jsonschema"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "mindkit_sources_sha256": code_digest(SRC / "mindkit"),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _setup(args, workload, work: Path, env: dict, t_start: float):
    """Set the workload up in fresh interpreters; returns (times, dir)."""
    times, digests = [], []
    for k in range(workload.setup_repeats):
        target = work / f"setup{k}"
        left = DEADLINE_S - (time.perf_counter() - t_start)
        t0 = time.perf_counter()
        rc, err = workloads.run_child(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--setup-only", str(target)], env, left)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{err}")
        digests.append(workloads.tree_digests(target))
    return times, target, digests


def _hash_checks(outcome, iterations, args) -> None:
    """Same seed and same code must give byte-identical outputs: across the
    iterations of this run, and against the first run saved for them."""
    first = iterations[0].hashes
    if len(iterations) > 1:
        same = all(it.hashes == first for it in iterations[1:])
        outcome.check("outputs identical across iterations", same)
    code = code_digest(SRC / "mindkit", Path(__file__).resolve().parent)
    store = OUT / "hashes" / (f"{args.workload}-{args.size}-seed{args.seed}-"
                              f"{code}.json")
    if store.exists():
        saved = json.loads(store.read_text())
        diff = sorted(k for k in set(saved) | set(first)
                      if saved.get(k) != first.get(k))
        outcome.check("outputs identical to an earlier run with this seed",
                      not diff, ", ".join(diff[:5]))
    elif all(c["ok"] for it in iterations for c in it.checks):
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")


def run_untraced(args, workload, ctx, work, env, t_start):
    iterations = []
    t0 = time.perf_counter()
    while True:
        left = DEADLINE_S - (time.perf_counter() - t_start)
        iterations.append(workload.iterate(
            ctx, work / f"it{len(iterations)}", in_process=False, env=env,
            timeout=left))
        used = time.perf_counter() - t0
        typical = statistics.median(it.wall_s for it in iterations)
        if used + typical > args.seconds:
            return iterations


def run_traced(args, workload, ctx, work, env):
    import opreplay
    import tracing

    import mindkit.cli  # noqa: F401  (imports stay out of the overhead)
    plain = workload.iterate(ctx, work / "plain", in_process=True, env=env,
                             timeout=DEADLINE_S)
    tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-"
                                   f"{os.getpid()}")
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = workload.iterate(ctx, work / "traced", in_process=True,
                                  env=env, timeout=DEADLINE_S)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    layer, table = tracing.layer_metrics(tracer, traced_wall)
    layer["analysis.undefined_rho"] = traced.undefined_rho
    layer["trace.overhead_s"] = traced.wall_s - plain.wall_s
    layer["trace.overhead_ratio"] = (traced.wall_s - plain.wall_s) \
        / plain.wall_s
    layer.update(tracing.import_costs(env, IMPORT_PROBES, DEADLINE_S))
    replayed, details = opreplay.replay(tracer.loss_graphs, seed=args.seed)
    layer.update(replayed)
    return [plain, traced], layer, {
        "span_table": table, "op_replay": details,
        "op_replay_note": "fwd_us and vjp_us are measured by replaying "
                          "one-op graphs; flops and bytes are computed from "
                          "array sizes, not measured",
        "untraced_targets": tracer.missing, "tracer": tracer}


def _finite(value):
    """JSON has no NaN: a metric that could not be measured reads null."""
    return value if math.isfinite(value) else None


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def _print_misses(label: str, misses: list, key: str) -> None:
    for name in dict.fromkeys(m[key] for m in misses):
        same = [m for m in misses if m[key] == name]
        print(f"  {label} {name} ({len(same)}x): {same[0]['detail']}")


def end_to_end_metrics(workload, setup_times, iterations, attempted,
                       failed) -> dict:
    """name -> (median value, unit, sample count) over the timed passes.

    A pass whose checks failed gives no `wall_s` sample.
    """
    good = [it for it in iterations if it.failed == 0]
    timed = [it for it in iterations if it.fit_s > 0]
    out = {
        "wall_s": (_median(it.wall_s for it in good), "s", len(good)),
        "setup_s": (_median(setup_times), "s", len(setup_times)),
        "fit_rows_per_s": (_median(it.fit_rows / it.fit_s for it in timed),
                           "rows/s", len(timed)),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB", 1),
        "pass_ratio": (1.0 - failed / attempted, "1", attempted),
        "fail_ratio": (failed / attempted, "1", attempted),
        "analysis.undefined_rho": (_median(it.undefined_rho
                                           for it in iterations),
                                   "count", len(iterations)),
    }
    for cmd in iterations[0].cmd_s:
        samples = [it.cmd_s[cmd] for it in iterations if cmd in it.cmd_s]
        out[f"cmd.{cmd}_s"] = (_median(samples), "s", len(samples))
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "mindkit" / "__init__.py").is_file():
        print(f"perfbench: no mindkit package under {SRC}; run from the "
              "root of a mindkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.size)
    if args.setup_only:
        workload.setup(Path(args.setup_only), args.seed)
        return 0

    t_start = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_outcome = workloads.Outcome()
    extra: dict = {}
    try:
        setup_times, setup_dir, digests = _setup(args, workload, work, env,
                                                 t_start)
        run_outcome.check("set-ups identical",
                          all(d == digests[0] for d in digests))
        ctx = workload.prepare(setup_dir, args.seed, run_outcome)
        if args.trace:
            iterations, layer, extra = run_traced(args, workload, ctx, work,
                                                  env)
        else:
            iterations = run_untraced(args, workload, ctx, work, env, t_start)
        _hash_checks(run_outcome, iterations, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [run_outcome] + iterations
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    checks = [c for o in outcomes for c in o.checks]
    criteria = [c for o in outcomes for c in o.criteria]
    e2e = end_to_end_metrics(workload, setup_times, iterations, attempted,
                             failed)
    if args.trace:
        declared, values = spec["per_layer"], layer
    else:
        declared, values = spec["end_to_end"], {k: v[0] for k, v in e2e.items()}
    metrics = {m["name"]: {"value": _finite(values[m["name"]]),
                           "unit": m["unit"]} for m in declared}

    env_record = environment(args.seed)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env_record,
        # in a traced run the passes ran in-process, one of them traced
        "end_to_end": {k: {"value": v, "unit": u, "n": n}
                       for k, (v, u, n) in e2e.items()},
        "per_layer": layer if args.trace else None,
        "attempted": attempted, "failed": failed,
        "checks": checks, "criteria": criteria,
        "setup_s_samples": setup_times,
        "passes": [{"wall_s": it.wall_s, "cmd_s": it.cmd_s, "fit_rows": it.fit_rows,
                    "fit_s": it.fit_s, "undefined_rho": it.undefined_rho,
                    "notes": it.notes, "hashes": it.hashes}
                   for it in iterations],
    }
    if args.trace:
        spans = results / f"{stem}.spans.jsonl"
        extra.pop("tracer").write_spans(spans)
        result.update(extra, spans_file=str(spans.relative_to(ROOT)))
    path = results / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(iterations)}")
    if args.trace:
        for m in declared:
            print(f"  {m['name']:<40} {_fmt(layer[m['name']]):>12} "
                  f"{m['unit']}")
        if extra["untraced_targets"]:
            print("  not traced (missing in mindkit): "
                  + ", ".join(extra["untraced_targets"]))
    else:
        for name, (value, unit, n) in e2e.items():
            print(f"  {name:<28} {_fmt(value):>12} {unit:<7} n={n}")
    bad = [c for c in checks if not c["ok"]]
    print(f"  checks: {len(checks) - len(bad)}/{len(checks)} passed; "
          f"operations failed {failed}/{attempted}")
    _print_misses("FAILED", bad, "check")
    missed = [c for c in criteria if not c["met"]]
    print(f"  statistical criteria (recorded, not failures): "
          f"{len(criteria) - len(missed)}/{len(criteria)} met")
    _print_misses("missed", missed, "criterion")
    print("  environment: " + ", ".join(
        f"{k}={v}" for k, v in env_record.items() if k != "blas_threads"))
    print(f"  result: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not bad and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
