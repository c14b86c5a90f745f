"""Command-line surface tying the pipeline together.

Every subcommand is deterministic under a fixed --seed, validates its
inputs, writes schema-validated JSON artifacts into --out, and reports
failures as a structured JSON error on stderr with exit code 1.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import analysis, mindtrain, schemas
from . import transforms as tf
from .data import (Dataset, SyntheticSpec, generate_synthetic, load_dataset,
                   save_dataset)
from .errors import DataError, MindkitError
from .mindtrain import MindConfig
from .models import (ARCHITECTURES, OUTPUT_KINDS, TrainConfig, build_model,
                     load_model, save_model, train)
from .transforms import TransformSpec, make_basis, save_transform


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # FileExistsError, NotADirectoryError
        raise DataError(
            f"cannot create output directory {out}: {exc}") from exc
    return out


def _sidecar_path(data_path, sidecar) -> Path:
    if sidecar is not None:
        return Path(sidecar)
    data_path = Path(data_path)
    return data_path.parent / (data_path.stem + ".sidecar.json")


def _load_data(args) -> Dataset:
    return load_dataset(args.data, _sidecar_path(args.data, args.sidecar))


def _from_json(hint, value):
    """A JSON value as the annotated type `hint`, with lists turned into
    tuples where the hint asks for one; TypeError when it does not fit.
    An int passes for a float, a bool for nothing but a bool."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        for arm in args:
            try:
                return _from_json(arm, value)
            except TypeError:
                pass
    elif origin in (list, tuple) and isinstance(value, list):
        if origin is list or args[-1] is Ellipsis:
            return origin(_from_json(args[0], v) for v in value)
        if len(value) == len(args):
            return tuple(_from_json(a, v) for a, v in zip(args, value))
    elif origin is None:
        accepted = (int, float) if hint is float else hint
        if isinstance(value, accepted) \
                and (hint is bool or not isinstance(value, bool)):
            return value
    raise TypeError(f"{value!r} is not {hint}")


def _config_from_json(cls, path, overrides: dict | None = None):
    """Build a config dataclass from an optional JSON file plus CLI
    overrides (None-valued overrides are ignored)."""
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # UnicodeDecodeError too
            raise DataError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataError(f"config {path} must hold a JSON object")
    allowed = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise DataError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    for key, value in doc.items():
        try:
            doc[key] = _from_json(hints[key], value)
        except TypeError:
            raise DataError(
                f"{cls.__name__} key {key!r} must be {allowed[key]}, "
                f"got {json.dumps(value)}") from None
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    return cls(**doc)


def _transform_spec(args, dataset: Dataset) -> TransformSpec:
    basis = None
    if args.kind == "basis":
        if dataset.seq_len is None:
            raise DataError("basis transforms need sequence data")
        basis = make_basis(args.basis, dataset.seq_len, args.basis_k)
    intercept = args.intercept
    if intercept is None:
        intercept = args.kind == "gating"  # hidden-space intercept off
    return TransformSpec(kind=args.kind, intercept=intercept, basis=basis)


def _mind_config(args) -> MindConfig:
    overrides = {"seed": args.seed, "lam": getattr(args, "lam", None)}
    return _config_from_json(MindConfig, args.config, overrides)


def _parse_list(text: str, flag: str, kind) -> list:
    """Comma-separated finite floats or, for kind int, positive integers;
    blank items are skipped and at least one value is required."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or not all(np.isfinite(values)) \
            or kind is int and min(values) < 1:
        want = "positive int" if kind is int else "finite float"
        raise DataError(f"{flag} expects comma-separated {want} values, "
                        f"got {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> None:
    spec = _config_from_json(SyntheticSpec, args.config, {"seed": args.seed})
    dataset, truth = generate_synthetic(spec)
    out = _outdir(args)
    save_dataset(dataset, out / "data.csv", out / "data.sidecar.json")
    schemas.write_json(out / "truth.json", truth)
    print(f"wrote {out / 'data.csv'} ({dataset.n} instances, "
          f"{dataset.d} features)")


def _cmd_train_model(args) -> None:
    dataset = _load_data(args)
    config = _config_from_json(
        TrainConfig, args.config,
        {"seed": args.seed,
         "adversarial": True if args.adversarial else None})
    output = args.output
    if output is None:
        output = "probability" if dataset.task == "classification" \
            else "regression"
    hidden = tuple(_parse_list(args.hidden, "--hidden", int)) \
        if args.hidden else ()
    model = build_model(args.arch, dataset.d, seq_len=dataset.seq_len,
                        hidden=hidden, output=output,
                        kernel_size=args.kernel_size,
                        seed=config.seed)
    fitted, history = train(model, dataset, config)
    out = _outdir(args)
    save_model(fitted, out / "model.json")
    schemas.write_json(out / "history.json", {
        "schema": "mindkit.train/1", "kind": fitted.kind,
        "adversarial": config.adversarial,
        "history": schemas.jsonsafe(history),
    })
    print(f"wrote {out / 'model.json'} "
          f"(final val loss {history['val_loss'][-1]:.6g})")


def _cmd_train_transform(args) -> None:
    dataset = _load_data(args)
    model = load_model(args.model)
    config = _mind_config(args)
    tspec = _transform_spec(args, dataset)
    result = mindtrain.multi_restart(model, tspec, dataset, config,
                                     threads=args.threads)
    out = _outdir(args)
    save_transform(result.transforms[0], out / "transform.json")
    channel_names = tspec.basis.channel_names() if tspec.basis else None
    report = analysis.build_report(result, config, dataset.feature_names,
                                   channel_names)
    schemas.write_json(out / "manifest.json", report)
    failed = "; ".join(f"{r}: {reason}" for r, reason
                       in zip(result.failed, result.failure_reasons))
    print(f"wrote {out / 'manifest.json'} "
          f"(selected restarts {result.selected}, failed [{failed}])")


def _cmd_tune_lambda(args) -> None:
    dataset = _load_data(args)
    model = load_model(args.model)
    config = _mind_config(args)
    tspec = _transform_spec(args, dataset)
    tuned = mindtrain.tune_lambda(model, tspec, dataset, config)
    out = _outdir(args)
    save_transform(tuned.transform, out / "transform.json")
    schemas.write_json(out / "tune.json", {
        "schema": "mindkit.tune/1",
        "lambda": schemas.jsonsafe(tuned.lam),
        "feasible": tuned.feasible,
        "trace": schemas.jsonsafe(tuned.trace),
    })
    state = "feasible" if tuned.feasible else "INFEASIBLE (closest shown)"
    print(f"lambda = {tuned.lam:g} [{state}]")


def _read_report(path) -> dict:
    """A mindkit.report/2 document whose per-feature lists, and channel
    grid, hold one entry per feature."""
    report = schemas.read_json(path, expect="mindkit.report/2")
    lists = [report[k] for k in ("score_mean", "score_std",
                                 "correlation_mean", "correlation_std",
                                 "correlation_undefined")]
    channels = report.get("channels")
    rows = []
    if channels:
        lists += [channels["score_mean"], channels["score_std"]]
        rows = channels["score_mean"] + channels["score_std"]
    n = len(report["features"])
    if any(len(v) != n for v in lists) \
            or any(len(row) != len(channels["names"]) for row in rows):
        raise DataError(f"report {path} does not hold one score per "
                        f"feature (and channel) for its {n} features")
    return report


def _cmd_score(args) -> None:
    manifest = _read_report(args.manifest)
    out = _outdir(args)
    schemas.write_json(out / "report.json", manifest)
    features = manifest["features"]
    columns = ["feature", "score_mean", "score_std",
               "correlation_mean", "correlation_std", "correlation_undefined"]
    channel_block = manifest.get("channels")
    if channel_block:
        for name in channel_block["names"]:
            columns += [f"{name}_mean", f"{name}_std"]
    try:
        with open(out / "report.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for j, feat in enumerate(features):
                row = [feat, manifest["score_mean"][j],
                       manifest["score_std"][j],
                       manifest["correlation_mean"][j],
                       manifest["correlation_std"][j],
                       manifest["correlation_undefined"][j]]
                if channel_block:
                    for k in range(len(channel_block["names"])):
                        row += [channel_block["score_mean"][j][k],
                                channel_block["score_std"][j][k]]
                writer.writerow(["" if v is None else v for v in row])
    except OSError as exc:
        raise DataError(f"cannot write {out / 'report.csv'}: {exc}") from exc
    print(f"wrote {out / 'report.json'} and {out / 'report.csv'}")


def _cmd_oracle(args) -> None:
    beta = np.array(_parse_list(args.beta, "--beta", float))
    if args.moment_csv is not None:
        try:
            moment = np.loadtxt(args.moment_csv, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read --moment-csv: {exc}") from exc
    elif args.data is not None:
        dataset = _load_data(args)
        X, _ = dataset.split("train")
        if X.ndim == 3:
            X = np.swapaxes(X, 1, 2).reshape(-1, X.shape[1])
        moment = analysis.second_moment(X)
    else:
        moment = np.eye(beta.size)
    if moment.shape != (beta.size, beta.size):
        raise DataError(f"--beta has {beta.size} coefficients but the moment "
                        f"matrix is {moment.shape[0]}x{moment.shape[1]}")
    sol = analysis.closed_form_gating(
        analysis.ClosedFormInputs(beta, moment, args.lam))
    print("g = (" + ", ".join(f"{v:g}" for v in sol.gates) + ")")
    if sol.degenerate:
        print("degenerate problem: ridge-regularized solve", file=sys.stderr)
    if args.out is not None:
        out = _outdir(args)
        schemas.write_json(out / "oracle.json", {
            "schema": "mindkit.oracle/1", "lambda": args.lam,
            "gates": schemas.jsonsafe(sol.gates),
            "unclamped": schemas.jsonsafe(sol.unclamped),
            "degenerate": sol.degenerate,
        })


def _reference_scores(path, dataset: Dataset) -> np.ndarray:
    report = _read_report(path)
    if report["features"] != dataset.feature_names:
        raise DataError("report features do not match the dataset; "
                        "was the reference trained on this data?")
    scores = report["score_mean"]
    if any(v is None for v in scores):
        raise DataError("reference report carries undefined scores")
    return np.array(scores, dtype=np.float64)


def _cmd_sanity_check(args) -> None:
    dataset = _load_data(args)
    model = load_model(args.model)
    config = _mind_config(args)
    tspec = _transform_spec(args, dataset)
    reference = _reference_scores(args.report, dataset)
    base = analysis.restart_baseline(model, tspec, dataset, config, reference,
                                     instances=args.shuffles,
                                     seed=config.seed, threads=args.threads)
    outcomes = analysis.sanity_check(model, tspec, dataset, config, reference,
                                     shuffles=args.shuffles,
                                     seed=config.seed, threads=args.threads)
    out = _outdir(args)
    schemas.write_json(out / "sanity.json", {
        "schema": "mindkit.sanity/2",
        "baseline": {"rho_mean": schemas.jsonsafe(base.rho_mean),
                     "rho_std": schemas.jsonsafe(base.rho_std),
                     "undefined": base.undefined,
                     "failures": base.failures},
        "layers": [{"layer": o.layer,
                    "rho_mean": schemas.jsonsafe(o.rho_mean),
                    "rho_std": schemas.jsonsafe(o.rho_std),
                    "rhos": schemas.jsonsafe(o.rhos),
                    "undefined": o.undefined,
                    "failures": o.failures} for o in outcomes],
    })
    print(f"baseline rho {base.rho_mean:.3f} +- {base.rho_std:.3f} "
          f"({base.undefined} undefined)")
    for o in outcomes:
        print(f"shuffled {o.layer}: rho {o.rho_mean:.3f} +- {o.rho_std:.3f} "
              f"({o.undefined} undefined, {o.failures} failures)")


def _cmd_baselines(args) -> None:
    dataset = _load_data(args)
    model = load_model(args.model)
    X, _ = dataset.split(args.split)
    sal = analysis.saliency_scores(model, X)
    ig = analysis.integrated_gradients_scores(model, X, steps=args.steps)
    gap = analysis.completeness_gap(model, X, steps=args.steps)
    rho, p = analysis.spearman(sal, ig)
    table = [{"pair": ["saliency", "integrated_gradients"], "rho": rho, "p": p}]
    if args.report is not None:
        mind = _reference_scores(args.report, dataset)
        # gates near 1 mean "needed"; flip sign so large-means-important
        # baselines are directly comparable
        for name, scores in (("saliency", sal), ("integrated_gradients", ig)):
            rho, p = analysis.spearman(1.0 - mind, scores)
            table.append({"pair": ["inverted_mind", name], "rho": rho, "p": p})
    out = _outdir(args)
    schemas.write_json(out / "baselines.json", schemas.jsonsafe({
        "schema": "mindkit.baselines/1",
        "features": dataset.feature_names,
        "saliency": sal, "integrated_gradients": ig,
        "ig_steps": args.steps, "completeness_gap": gap,
        "spearman": table,
    }))
    print(f"wrote {out / 'baselines.json'} (completeness gap {gap:.2e})")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--sidecar", default=None,
                   help="split sidecar JSON (default: <data>.sidecar.json)")


def _add_transform_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model checkpoint JSON")
    p.add_argument("--kind", choices=("gating", "residual", "basis"),
                   default="gating")
    p.add_argument("--basis", choices=("chebyshev", "pulse"),
                   default="chebyshev", help="basis family for --kind basis")
    p.add_argument("--basis-k", type=int, default=None,
                   help="basis size (default: 3 chebyshev, 4 pulse)")
    p.add_argument("--intercept", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="per-feature intercept (default: on for gating, "
                        "off for basis)")
    p.add_argument("--config", default=None, help="MindConfig JSON")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expects a positive int, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so main() reports them like any other failure;
    subcommand parsers inherit this class."""

    def error(self, message):
        raise DataError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mindkit",
        description="Discover which inputs a trained model is invariant to.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic data with "
                                        "planted invariances")
    p.add_argument("--config", required=True, help="SyntheticSpec JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-model", help="fit a model to a dataset")
    _add_data_args(p)
    p.add_argument("--arch", choices=ARCHITECTURES, default="mlp")
    p.add_argument("--output", choices=OUTPUT_KINDS, default=None,
                   help="output distribution (default: by task)")
    p.add_argument("--hidden", default=None,
                   help="comma-separated hidden sizes")
    p.add_argument("--kernel-size", type=_positive_int, default=3)
    p.add_argument("--config", default=None, help="TrainConfig JSON")
    p.add_argument("--adversarial", action="store_true",
                   help="train with projected-gradient input perturbations")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_model)

    p = sub.add_parser("train-transform",
                       help="fit an invariance transform to a frozen model")
    _add_data_args(p)
    _add_transform_args(p)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes for restart chunks")
    p.add_argument("--lam", type=float, default=None,
                   help="override the config's penalty weight")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_transform)

    p = sub.add_parser("tune-lambda",
                       help="smallest penalty weight meeting the W1/cosine "
                            "limits")
    _add_data_args(p)
    _add_transform_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tune_lambda)

    p = sub.add_parser("score", help="emit the per-feature score report and "
                                     "plot-ready CSV")
    p.add_argument("--manifest", required=True,
                   help="manifest.json from train-transform")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("oracle", help="closed-form gates for a linear model")
    p.add_argument("--beta", required=True, help="comma-separated coefficients")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--moment-csv", default=None,
                   help="second-moment matrix CSV (default: identity)")
    p.add_argument("--data", default=None,
                   help="compute the moment matrix from this dataset's "
                        "train split")
    p.add_argument("--sidecar", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sanity-check",
                       help="layer-shuffle randomization check of a score "
                            "report")
    _add_data_args(p)
    _add_transform_args(p)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes for restart chunks")
    p.add_argument("--report", required=True,
                   help="reference report/manifest JSON")
    p.add_argument("--shuffles", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sanity_check)

    p = sub.add_parser("baselines",
                       help="gradient attribution baselines and rank "
                            "agreement")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--report", default=None,
                   help="score report to correlate against")
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--split", choices=("train", "validation", "test"),
                   default="validation")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_baselines)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a usage error leaves no parsed args; the first word names the command
    command = next((a for a in argv if not a.startswith("-")), "mindkit")
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except MindkitError as exc:
        print(json.dumps({"schema": "mindkit.error/1",
                          "error": type(exc).__name__,
                          "message": str(exc),
                          "command": command}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
