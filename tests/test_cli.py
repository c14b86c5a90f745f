"""Command-line surface: artifacts, determinism, and structured errors."""
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mindkit
import mindkit.mindtrain as mt
from mindkit.cli import main
from mindkit.data import SyntheticSpec
from mindkit.errors import TrainingError
from mindkit.mindtrain import MindConfig
from mindkit.models import TrainConfig
from mindkit.schemas import validate_artifact


def run_ok(argv):
    assert main(argv) == 0


def read(path):
    return json.loads(path.read_text())


def structured_error(capsys, argv, command):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["schema"] == "mindkit.error/1"
    assert doc["command"] == command
    return doc


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One planted-feature run of gen-data -> train-model ->
    train-transform -> score, shared by the artifact tests."""
    root = tmp_path_factory.mktemp("pipeline")
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps({"n": 300, "d": 5, "planted": [0],
                                   "label_noise": 0.0}))
    run_ok(["gen-data", "--config", str(gen_cfg), "--seed", "17",
            "--out", str(root / "data")])
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps({"max_epochs": 60, "lr": 0.02}))
    run_ok(["train-model", "--data", str(root / "data" / "data.csv"),
            "--arch", "mlp", "--hidden", "8", "--config", str(train_cfg),
            "--seed", "5", "--out", str(root / "model")])
    mind_cfg = root / "mind.json"
    mind_cfg.write_text(json.dumps({
        "lam": 0.05, "similarity": "inner_product", "weight_decay": 0.01,
        "max_epochs": 40, "restarts": 3, "top_k": 2}))
    run_ok(["train-transform", "--data", str(root / "data" / "data.csv"),
            "--model", str(root / "model" / "model.json"),
            "--kind", "gating", "--config", str(mind_cfg), "--seed", "3",
            "--out", str(root / "transform")])
    run_ok(["score", "--manifest", str(root / "transform" / "manifest.json"),
            "--out", str(root / "score")])
    return {
        "root": root,
        "data": root / "data" / "data.csv",
        "truth": root / "data" / "truth.json",
        "model": root / "model" / "model.json",
        "history": root / "model" / "history.json",
        "mind_cfg": mind_cfg,
        "manifest": root / "transform" / "manifest.json",
        "report": root / "score" / "report.json",
        "report_csv": root / "score" / "report.csv",
    }


class TestOracle:
    def test_prints_uncorrelated_solution(self, capsys):
        run_ok(["oracle", "--beta", "1,2", "--lam", "1.0"])
        assert "g = (0.5, 0.875)" in capsys.readouterr().out

    def test_writes_validating_artifact(self, tmp_path, capsys):
        run_ok(["oracle", "--beta", "1,2", "--lam", "1.0",
                "--out", str(tmp_path)])
        capsys.readouterr()
        doc = read(tmp_path / "oracle.json")
        assert validate_artifact(doc) == "mindkit.oracle/1"
        assert doc["gates"] == [0.5, 0.875]
        assert doc["degenerate"] is False

    def test_degenerate_moment_warns_on_stderr(self, tmp_path, capsys):
        moment = tmp_path / "moment.csv"
        moment.write_text("1.0,1.0\n1.0,1.0\n")
        run_ok(["oracle", "--beta", "1,1", "--lam", "0.5",
                "--moment-csv", str(moment), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert "degenerate" in captured.err
        assert read(tmp_path / "oracle.json")["degenerate"] is True

    def test_bad_beta_is_a_structured_error(self, capsys):
        doc = structured_error(
            capsys, ["oracle", "--beta", "1,abc", "--lam", "1.0"], "oracle")
        assert doc["error"] == "DataError"

    @pytest.mark.parametrize("argv", [
        ["oracle", "--beta", "1,2", "--lam", "abc"],
        ["oracle", "--beta", "1,2"],
    ])
    def test_usage_error_is_one_json_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        doc = json.loads(lines[0])
        assert validate_artifact(doc) == "mindkit.error/1"
        assert doc["command"] == "oracle"
        assert "--lam" in doc["message"]

    def test_moment_matrix_must_match_beta(self, tmp_path, capsys):
        moment = tmp_path / "m.csv"
        moment.write_text("1,0\n0,1\n")
        doc = structured_error(capsys, ["oracle", "--beta", "1,2,3", "--lam",
                                        "0.1", "--moment-csv", str(moment)],
                               "oracle")
        assert "2x2" in doc["message"]
        doc = structured_error(capsys, ["oracle", "--beta", "1,2", "--lam",
                                        "0.1", "--moment-csv",
                                        str(tmp_path / "absent.csv")],
                               "oracle")
        assert "--moment-csv" in doc["message"]

    @pytest.mark.parametrize("lam", ["inf", "nan", "-inf"])
    def test_non_finite_lambda_is_a_structured_error(self, tmp_path, capsys,
                                                     lam):
        doc = structured_error(capsys, ["oracle", "--beta", "1,2",
                                        f"--lam={lam}",
                                        "--out", str(tmp_path / "o")],
                               "oracle")
        assert doc["error"] == "AnalysisError"
        assert "finite" in doc["message"]
        assert not (tmp_path / "o").exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--help"])
        assert exc.value.code == 0
        assert "--beta" in capsys.readouterr().out

    def test_console_entry_point(self, tmp_path):
        """Run the `mindkit` script that pyproject.toml declares the way an
        installed console script does, in a fresh process, so the test
        needs no install and checks this checkout rather than whatever
        `mindkit` is first on PATH."""
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["mindkit"]
        module, attr = target.split(":")
        launcher = (f"import sys; from {module} import {attr}; "
                    f"sys.argv[0] = 'mindkit'; sys.exit({attr}())")
        src = str(Path(mindkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(*argv):
            return subprocess.run([sys.executable, "-c", launcher, *argv],
                                  capture_output=True, text=True,
                                  timeout=120, cwd=tmp_path, env=env)

        out = run("oracle", "--beta", "1,2", "--lam", "1.0")
        assert out.returncode == 0, out.stderr
        assert "g = (0.5, 0.875)" in out.stdout
        # The exit status is what the script adds over calling main().
        out = run("oracle", "--beta", "1,abc", "--lam", "1.0")
        assert out.returncode == 1
        lines = out.stderr.strip().splitlines()
        assert len(lines) == 1, out.stderr
        assert validate_artifact(json.loads(lines[0])) == "mindkit.error/1"


def _loaded_after(code, packages):
    """The stripped stdout of a fresh interpreter that runs `code` and
    then prints the modules of `packages` it has loaded."""
    src = str(Path(mindkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in "
         f"{tuple(packages)!r}))"],
        capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_skips_scipy():
    """mindkit needs no scipy (its GeLU computes the Gaussian CDF
    itself); the process pool is imported only for `--threads` > 1, and
    artifacts are checked without jsonschema."""
    assert _loaded_after("import mindkit.cli", (
        "scipy", "jsonschema", "concurrent", "multiprocessing")) == "[]"


def test_sanity_check_on_an_mlp_skips_scipy(pipeline, tmp_path):
    """sanity.json carries no p-values, so the command never computes one."""
    cfg = tmp_path / "mind.json"
    cfg.write_text(json.dumps({"lam": 0.05, "similarity": "inner_product",
                               "max_epochs": 4, "restarts": 3, "top_k": 2}))
    argv = ["sanity-check", "--data", str(pipeline["data"]),
            "--model", str(pipeline["model"]),
            "--report", str(pipeline["manifest"]), "--config", str(cfg),
            "--shuffles", "2", "--out", str(tmp_path / "sanity")]
    code = f"from mindkit.cli import main; assert main({argv!r}) == 0"
    # the command's own report lines come first
    assert _loaded_after(code, ("scipy",)).splitlines()[-1] == "[]"
    # a rho inside (-1, 1) is one whose p-value would need scipy
    rhos = [r for e in read(tmp_path / "sanity" / "sanity.json")["layers"]
            for r in e["rhos"]]
    assert any(r is not None and abs(r) < 1.0 for r in rhos)


def test_mlp_pipeline_commands_skip_scipy(tmp_path):
    """The commands before baselines and sanity-check, in one process."""
    (tmp_path / "gen.json").write_text(json.dumps(
        {"n": 120, "d": 4, "planted": [0]}))
    (tmp_path / "train.json").write_text(json.dumps({"max_epochs": 2}))
    (tmp_path / "mind.json").write_text(json.dumps(
        {"similarity": "inner_product", "max_epochs": 2, "restarts": 2,
         "top_k": 1}))
    data = ["--data", str(tmp_path / "data" / "data.csv")]
    model = ["--model", str(tmp_path / "model" / "model.json")]
    mind = ["--config", str(tmp_path / "mind.json")]
    argvs = [
        ["gen-data", "--config", str(tmp_path / "gen.json"),
         "--out", str(tmp_path / "data")],
        ["train-model", *data, "--arch", "mlp", "--hidden", "4",
         "--config", str(tmp_path / "train.json"),
         "--out", str(tmp_path / "model")],
        ["tune-lambda", *data, *model, *mind, "--out", str(tmp_path / "tune")],
        ["train-transform", *data, *model, *mind,
         "--out", str(tmp_path / "transform")],
        ["score", "--manifest", str(tmp_path / "transform" / "manifest.json"),
         "--out", str(tmp_path / "report")],
    ]
    code = ("from mindkit.cli import main; "
            f"assert all(main(a) == 0 for a in {argvs!r})")
    assert _loaded_after(code, ("scipy",)).splitlines()[-1] == "[]"
    assert (tmp_path / "report" / "report.json").exists()


def test_baselines_on_an_mlp_skips_scipy(pipeline, tmp_path):
    """The Spearman p-values come from an in-house Student-t tail."""
    argv = ["baselines", "--data", str(pipeline["data"]),
            "--model", str(pipeline["model"]),
            "--report", str(pipeline["manifest"]), "--steps", "16",
            "--out", str(tmp_path / "base")]
    code = f"from mindkit.cli import main; assert main({argv!r}) == 0"
    assert _loaded_after(code, ("scipy",)).splitlines()[-1] == "[]"
    # a p strictly inside (0, 1) is one that the tail computed
    table = read(tmp_path / "base" / "baselines.json")["spearman"]
    assert any(row["p"] is not None and 0.0 < row["p"] < 1.0
               for row in table)


def test_seq_pipeline_commands_skip_scipy(tmp_path):
    """Every command of the pipeline on a seqconv model, whose GeLU needs
    the Gaussian CDF, in one process."""
    (tmp_path / "gen.json").write_text(json.dumps(
        {"n": 120, "d": 3, "seq_len": 6, "planted": [0]}))
    (tmp_path / "train.json").write_text(json.dumps({"max_epochs": 2}))
    (tmp_path / "mind.json").write_text(json.dumps(
        {"max_epochs": 2, "restarts": 2, "top_k": 1}))
    data = ["--data", str(tmp_path / "data" / "data.csv")]
    model = ["--model", str(tmp_path / "model" / "model.json")]
    mind = ["--config", str(tmp_path / "mind.json")]
    report = ["--report", str(tmp_path / "report" / "report.json")]
    argvs = [
        ["gen-data", "--config", str(tmp_path / "gen.json"),
         "--out", str(tmp_path / "data")],
        ["train-model", *data, "--arch", "seqconv", "--hidden", "4",
         "--config", str(tmp_path / "train.json"),
         "--out", str(tmp_path / "model")],
        ["tune-lambda", *data, *model, *mind, "--out", str(tmp_path / "tune")],
        ["train-transform", *data, *model, *mind,
         "--out", str(tmp_path / "transform")],
        ["score", "--manifest", str(tmp_path / "transform" / "manifest.json"),
         "--out", str(tmp_path / "report")],
        ["baselines", *data, *model, *report, "--steps", "4",
         "--out", str(tmp_path / "base")],
        ["sanity-check", *data, *model, *report, *mind, "--shuffles", "1",
         "--out", str(tmp_path / "sanity")],
    ]
    code = ("from mindkit.cli import main; "
            f"assert all(main(a) == 0 for a in {argvs!r})")
    assert _loaded_after(code, ("scipy",)).splitlines()[-1] == "[]"
    assert (tmp_path / "sanity" / "sanity.json").exists()


@pytest.mark.parametrize("shuffles", ["0", "-1"])
def test_shuffles_below_one_is_a_usage_error(shuffles, capsys):
    assert main(["sanity-check", "--data", "d.csv", "--model", "m.json",
                 "--report", "r.json", f"--shuffles={shuffles}",
                 "--out", "o"]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    doc = json.loads(lines[0])
    assert validate_artifact(doc) == "mindkit.error/1"
    assert "--shuffles" in doc["message"] and "positive" in doc["message"]


@pytest.mark.parametrize("command", ["train-transform", "sanity-check"])
@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_threads_below_one_is_a_usage_error(command, threads, capsys):
    report = ["--report", "r.json"] if command == "sanity-check" else []
    assert main([command, "--data", "d.csv", "--model", "m.json", *report,
                 f"--threads={threads}", "--out", "o"]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    doc = json.loads(lines[0])
    assert validate_artifact(doc) == "mindkit.error/1"
    assert doc["command"] == command
    assert "--threads" in doc["message"] and "positive" in doc["message"]


class TestGenData:
    def test_deterministic_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n": 40, "d": 3, "seq_len": 4,
                                   "duplicates": [[0, 2]]}))
        for name in ("a", "b"):
            run_ok(["gen-data", "--config", str(cfg), "--seed", "9",
                    "--out", str(tmp_path / name)])
        capsys.readouterr()
        for fname in ("data.csv", "data.sidecar.json", "truth.json"):
            assert (tmp_path / "a" / fname).read_bytes() \
                == (tmp_path / "b" / fname).read_bytes()
        truth = read(tmp_path / "a" / "truth.json")
        assert validate_artifact(truth) == "mindkit.truth/1"
        assert truth["duplicates"] == [[0, 2]]

    def test_planted_weight_recorded_as_zero(self, pipeline):
        truth = read(pipeline["truth"])
        assert truth["weights"][0] == 0.0
        assert truth["invariant_features"] == [0]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n": 40, "d": 3, "bogus": 1}))
        doc = structured_error(
            capsys, ["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "o")], "gen-data")
        assert "bogus" in doc["message"]


class TestTrainModel:
    def test_artifacts_validate(self, pipeline):
        assert validate_artifact(read(pipeline["model"])) == "mindkit.model/1"
        hist = read(pipeline["history"])
        assert validate_artifact(hist) == "mindkit.train/1"
        assert len(hist["history"]["val_loss"]) >= 1

    def test_deterministic_checkpoint(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"max_epochs": 60, "lr": 0.02}))
        run_ok(["train-model", "--data", str(pipeline["data"]),
                "--arch", "mlp", "--hidden", "8", "--config", str(cfg),
                "--seed", "5", "--out", str(tmp_path / "again")])
        capsys.readouterr()
        assert (tmp_path / "again" / "model.json").read_bytes() \
            == pipeline["model"].read_bytes()

    def test_sidecar_without_task_is_a_structured_error(self, pipeline,
                                                        tmp_path, capsys):
        side = tmp_path / "side.json"
        doc = read(pipeline["data"].parent / "data.sidecar.json")
        del doc["task"]
        side.write_text(json.dumps(doc))
        assert main(["train-model", "--data", str(pipeline["data"]),
                     "--sidecar", str(side), "--out", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        doc = json.loads(lines[0])
        assert doc["error"] == "DataError" and doc["command"] == "train-model"
        assert doc["message"] == (f"{side}: artifact does not match "
                                  "mindkit.dataset/1: /task: required field "
                                  "is missing")
        assert not (tmp_path / "o").exists()

    def test_missing_data_is_a_structured_error(self, tmp_path, capsys):
        doc = structured_error(
            capsys, ["train-model", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")], "train-model")
        assert doc["error"] == "DataError"

    @pytest.mark.parametrize("fault", ["missing", "directory", "non-utf8",
                                       "oversized field"])
    def test_unreadable_data_beside_a_sidecar_is_a_structured_error(
            self, pipeline, tmp_path, capsys, fault):
        data = tmp_path / "data.csv"
        if fault == "directory":
            data.mkdir()
        elif fault == "non-utf8":
            data.write_bytes(b"instance_id,f0,label\n\xff\xfe,1.0,0\n")
        elif fault == "oversized field":
            data.write_text("instance_id,f0,label\n" + "1" * 200_000 + ",1,0\n")
        assert main(["train-model", "--data", str(data), "--sidecar",
                     str(pipeline["data"].parent / "data.sidecar.json"),
                     "--out", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        doc = json.loads(lines[0])
        assert doc["schema"] == "mindkit.error/1"
        assert doc["error"] == "DataError" and doc["command"] == "train-model"
        if fault != "non-utf8":  # decoding follows the locale
            assert doc["message"].startswith(f"cannot read {data}: ")
        assert not (tmp_path / "o").exists()


class TestTransformPipeline:
    def test_planted_feature_flagged(self, pipeline):
        report = read(pipeline["report"])
        assert validate_artifact(report) == "mindkit.report/2"
        scores = report["score_mean"]
        assert scores[0] < 0.05  # the generating model ignores feature 0
        assert all(s > scores[0] + 0.1 for s in scores[1:])

    def test_plot_csv_matches_report(self, pipeline):
        report = read(pipeline["report"])
        with open(pipeline["report_csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["feature"] for r in rows] == report["features"]
        got = [float(r["score_mean"]) for r in rows]
        assert got == pytest.approx(report["score_mean"], abs=1e-12)

    def test_deterministic_manifest(self, pipeline, tmp_path, capsys):
        run_ok(["train-transform", "--data", str(pipeline["data"]),
                "--model", str(pipeline["model"]), "--kind", "gating",
                "--config", str(pipeline["mind_cfg"]), "--seed", "3",
                "--out", str(tmp_path / "again")])
        capsys.readouterr()
        assert (tmp_path / "again" / "manifest.json").read_bytes() \
            == pipeline["manifest"].read_bytes()

    def test_failed_restart_reason_printed(self, pipeline, tmp_path, capsys,
                                           monkeypatch):
        real = mt._init_restart
        def fails_at_restart_one(tspec, dataset, config, restart):
            transform, run = real(tspec, dataset, config, restart)
            if restart == 1:
                run.error = "synthetic failure"
            return transform, run
        monkeypatch.setattr(mt, "_init_restart", fails_at_restart_one)
        run_ok(["train-transform", "--data", str(pipeline["data"]),
                "--model", str(pipeline["model"]), "--kind", "gating",
                "--config", str(pipeline["mind_cfg"]), "--seed", "3",
                "--out", str(tmp_path / "o")])
        assert "failed [1: synthetic failure]" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", [
        lambda m: m["score_mean"].pop(),
        lambda m: m["correlation_std"].append(0.5),
        lambda m: m.update(channels={"names": ["a", "b"],
                                     "score_mean": [[1.0, 1.0]] * 5,
                                     "score_std": [[0.0]] * 5}),
    ], ids=["short score_mean", "long correlation_std", "ragged channels"])
    def test_score_rejects_lists_not_matching_features(self, pipeline,
                                                       tmp_path, capsys,
                                                       damage):
        manifest = read(pipeline["manifest"])
        damage(manifest)
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(manifest))
        doc = structured_error(capsys, ["score", "--manifest", str(bad),
                                        "--out", str(tmp_path / "o")],
                               "score")
        assert doc["error"] == "DataError"
        assert "one score per feature" in doc["message"]

    def test_transform_checkpoint_validates(self, pipeline):
        doc = read(pipeline["root"] / "transform" / "transform.json")
        assert validate_artifact(doc) == "mindkit.transform/1"
        assert doc["kind"] == "gating"

    def test_score_rejects_wrong_schema(self, pipeline, capsys):
        doc = structured_error(
            capsys, ["score", "--manifest", str(pipeline["truth"]),
                     "--out", str(pipeline["root"] / "bad")], "score")
        assert "mindkit.report/2" in doc["message"]


# Malformed inputs that reach past argument parsing; each must end in one
# mindkit.error/1 line naming the offending key or file, never a traceback.
BAD_MIND_CONFIGS = [("lam", "abc"), ("restarts", 2.5),
                    ("clip_similarity_at_zero", "yes")]


class TestMalformedInputs:
    def _one_error_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        doc = json.loads(lines[0])
        assert validate_artifact(doc) == "mindkit.error/1"
        assert doc["command"] == "train-transform"
        return doc

    def _train_transform(self, pipeline, tmp_path, config, model=None):
        return ["train-transform", "--data", str(pipeline["data"]),
                "--model", str(model or pipeline["model"]),
                "--config", str(config), "--out", str(tmp_path / "o")]

    @pytest.mark.parametrize("key,value", BAD_MIND_CONFIGS)
    def test_wrongly_typed_config_value(self, pipeline, tmp_path, capsys,
                                        key, value):
        cfg = tmp_path / "mind.json"
        cfg.write_text(json.dumps({key: value}))
        doc = self._one_error_line(
            capsys, self._train_transform(pipeline, tmp_path, cfg))
        assert doc["error"] == "DataError"
        assert repr(key) in doc["message"]

    def test_negative_batch_size_config(self, pipeline, tmp_path, capsys):
        # once ran every epoch with zero steps and wrote a "fitted" transform
        cfg = tmp_path / "mind.json"
        cfg.write_text(json.dumps({"batch_size": -5}))
        doc = self._one_error_line(
            capsys, self._train_transform(pipeline, tmp_path, cfg))
        assert doc["error"] == "TrainingError"
        assert "batch_size" in doc["message"]
        assert not (tmp_path / "o").exists()

    def test_non_finite_lambda(self, pipeline, tmp_path, capsys):
        # --lam inf once failed every restart behind a numpy warning
        doc = self._one_error_line(capsys, self._train_transform(
            pipeline, tmp_path, pipeline["mind_cfg"]) + ["--lam", "inf"])
        assert doc["error"] == "TrainingError"
        assert "lambda must be finite" in doc["message"]
        cfg = tmp_path / "mind.json"
        cfg.write_text('{"lam": NaN}')
        doc = self._one_error_line(
            capsys, self._train_transform(pipeline, tmp_path, cfg))
        assert "lambda must be finite" in doc["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sidecar,message", [
        pytest.param('[1, 2]', "artifact lacks a 'schema' field",
                     id='[1, 2]'),
        pytest.param({"train": 5}, "/splits/train: expected array, got 5",
                     id='{"splits": {"train": 5}}'),
        pytest.param([1], "/splits: expected object, got [1]",
                     id='{"splits": [1]}')])
    def test_malformed_sidecar(self, pipeline, tmp_path, capsys, sidecar,
                               message):
        side = tmp_path / "side.json"
        side.write_text(sidecar if isinstance(sidecar, str) else json.dumps(
            {"schema": "mindkit.dataset/1", "task": "classification",
             "splits": sidecar}))
        doc = self._one_error_line(capsys, self._train_transform(
            pipeline, tmp_path, pipeline["mind_cfg"])
            + ["--sidecar", str(side)])
        assert doc["error"] == "DataError"
        assert doc["message"].startswith(f"{side}: ")
        assert doc["message"].endswith(message)

    def test_model_checkpoint_without_params(self, pipeline, tmp_path,
                                             capsys):
        model = read(pipeline["model"])
        del model["params"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model))
        doc = self._one_error_line(capsys, self._train_transform(
            pipeline, tmp_path, pipeline["mind_cfg"], model=bad))
        assert doc["error"] == "DataError"
        assert "params" in doc["message"]


@pytest.mark.parametrize("command,artifact,pointer,value", [
    ("train-transform", "model", "/input_dim", "3"),
    ("train-transform", "model", "/params/w0/shape/0", 2.5),
    ("score", "manifest", "/restarts/selected", "0"),
    ("score", "manifest", "/score_mean/1", True),
])
def test_artifact_breaking_its_schema_names_the_path(
        pipeline, tmp_path, capsys, command, artifact, pointer, value):
    doc = read(pipeline[artifact])
    *parents, last = pointer.strip("/").split("/")
    node = doc
    for part in parents:
        node = node[part]
    node[int(last) if isinstance(node, list) else last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    if command == "score":
        argv = ["score", "--manifest", str(bad)]
    else:
        argv = ["train-transform", "--data", str(pipeline["data"]),
                "--model", str(bad), "--config", str(pipeline["mind_cfg"])]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err, captured.err
    err = json.loads(lines[0])
    assert validate_artifact(err) == "mindkit.error/1"
    assert (err["command"], err["error"]) == (command, "DataError")
    assert f"does not match {doc['schema']}: {pointer}: " in err["message"]
    assert not (tmp_path / "o").exists()


NAN, INF = float("nan"), float("inf")
# Config values that once passed validation, or ended in a traceback: each
# must end in one mindkit.error/1 line naming the first key.
BAD_CONFIG_VALUES = [
    ("gen-data", {"strong_lo": NAN}),
    ("gen-data", {"strong_hi": INF}),
    ("gen-data", {"strong_lo": 3.0, "strong_hi": 2.0}),
    ("gen-data", {"indicator_beta": -INF}),
    ("gen-data", {"beta": [0.0, NAN, 1.0]}),
    ("gen-data", {"label_noise": -0.1}),
    ("gen-data", {"split_fracs": [-0.5, 0.2, 0.1]}),
    ("gen-data", {"split_fracs": [0.9, 0.9, 0.1]}),
    ("gen-data", {"split_fracs": [1.0, 0.0, 0.0]}),  # no validation rows
    *[("train-model", {key: NAN}) for key in
      ("lr", "min_delta", "lr_floor", "pgd_eps", "pgd_step")],
    ("train-model", {"min_delta": -1e-4}),
    ("train-model", {"lr_floor": -1.0}),
    ("train-model", {"pgd_step": 0.0}),
    ("train-model", {"patience": 0}),
    *[("train-transform", {key: NAN}) for key in
      ("lr", "w1_limit", "cosine_limit", "min_delta", "lr_floor",
       "weight_decay")],
    ("train-transform", {"min_delta": -1e-4}),
    ("train-transform", {"lr_floor": -1.0}),
    ("train-transform", {"weight_decay": -0.01}),
    ("train-transform", {"patience": 0}),
]


@pytest.mark.parametrize("command,doc", BAD_CONFIG_VALUES,
                         ids=lambda v: json.dumps(v) if isinstance(v, dict)
                         else v)
def test_bad_config_value_is_one_json_line(pipeline, tmp_path, capsys,
                                           command, doc):
    cfg = tmp_path / "cfg.json"
    if command == "gen-data":
        cfg.write_text(json.dumps({"n": 40, "d": 3, **doc}))
        argv = ["gen-data"]
    else:
        cfg.write_text(json.dumps(doc))
        argv = [command, "--data", str(pipeline["data"])]
        if command == "train-transform":
            argv += ["--model", str(pipeline["model"])]
    assert main(argv + ["--config", str(cfg), "--out",
                        str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert validate_artifact(err) == "mindkit.error/1"
    assert err["command"] == command
    assert err["error"] == ("DataError" if command == "gen-data"
                            else "TrainingError")
    assert next(iter(doc)) in err["message"]
    assert not (tmp_path / "o").exists()


SEED_COMMANDS = ("gen-data", "train-model", "train-transform", "tune-lambda",
                 "sanity-check")


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_negative_seed_is_one_json_line(pipeline, tmp_path, capsys, command,
                                        where):
    cfg = tmp_path / "cfg.json"
    doc = {"n": 40, "d": 3} if command == "gen-data" else {}
    cfg.write_text(json.dumps({**doc, "seed": -5} if where == "config"
                              else doc))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command != "gen-data":
        argv += ["--data", str(pipeline["data"])]
    if command not in ("gen-data", "train-model"):
        argv += ["--model", str(pipeline["model"])]
    if command == "sanity-check":
        argv += ["--report", str(pipeline["report"])]
    if where == "flag":
        argv += ["--seed", "-1"]
    assert main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert validate_artifact(err) == "mindkit.error/1"
    assert err["command"] == command
    assert err["error"] == ("DataError" if command == "gen-data"
                            else "TrainingError")
    assert "seed must be nonnegative" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kernel_size", ["0", "-2"])
def test_kernel_size_below_one_is_a_usage_error(pipeline, tmp_path, capsys,
                                                kernel_size):
    assert main(["train-model", "--data", str(pipeline["data"]),
                 "--arch", "seqconv", f"--kernel-size={kernel_size}",
                 "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    doc = json.loads(lines[0])
    assert validate_artifact(doc) == "mindkit.error/1"
    assert doc["command"] == "train-model"
    assert "--kernel-size" in doc["message"] and "positive" in doc["message"]


# Seeded fuzz over malformed CLI inputs, in the style of acceptance
# criterion 01: a fixed seed draws bad elements into list-valued config
# fields, wrongly typed config values, and bad --hidden / --beta lists. The
# first six cases are fixed reproductions of defects this test guards.
FUZZ_SEED = 20261018
FUZZ_CASES = 48

# a JSON value of the wrong type for each config annotation
WRONG_FOR = {
    "int": ["x", 1.5, True, None, [1], {"k": 1}],
    "float": ["x", True, None, [0.5], {"k": 1}],
    "float | None": ["x", True, [0.5], {"k": 1}],
    "int | None": ["x", 1.5, True, [1]],
    "str": [3, 1.5, True, None, ["a"]],
    "bool": ["yes", 1, 0.0, None, [True]],
    "list[float] | None": ["x", 3, True, {"k": 1}],
    "tuple[int, ...]": ["x", 3, True, {"k": 1}],
    "tuple[tuple[int, int], ...]": ["x", 3, True, {"k": 1}],
    "tuple[float, float, float]": ["x", 3, True, {"k": 1}],
}
# list-valued SyntheticSpec fields: a valid value and bad element draws
LIST_FIELDS = {
    "split_fracs": ([0.7, 0.15, 0.15], ["a", None, True, [0.1], {"k": 1}]),
    "planted": ([0], ["a", 0.5, None, True, [0]]),
    "missing": ([1], ["a", 1.5, None, False, [1]]),
    "beta": ([0.0, 1.0, -1.0], ["x", None, True, [1.0]]),
    "duplicates": ([[1, 2]], [[1], [1, "a"], [1, 2, 2], 1, "x", [0.5, 1]]),
}
BAD_TOKENS = {"--hidden": ["x", "1.5", "-2", "0", "4e", "1e3"],
              "--beta": ["x", "nan", "inf", "-inf", "1e400", "1..2", "0x1"]}


def _draw_malformed(rng, root):
    """Yield (argv, command) for one seeded malformed call per draw."""
    def gen_data(doc, i):
        path = root / f"gen{i}.json"
        path.write_text(json.dumps(doc))
        return ["gen-data", "--config", str(path), "--out",
                str(root / "o")], "gen-data"

    yield gen_data({"n": 40, "d": 3, "split_fracs": ["a", 0.2, 0.1]}, "r")
    yield ["train-model", "--data", str(root / "data.csv"), "--hidden",
           "4,x", "--out", str(root / "o")], "train-model"
    # oversized specs, refused before anything is allocated
    for i, size in enumerate(({"n": 10 ** 18, "d": 4},
                              {"n": 100, "d": 10 ** 15},
                              {"n": 100, "d": 4, "seq_len": 10 ** 14})):
        yield gen_data(size, f"big{i}")
    # an oversized architecture, refused before its weights are allocated
    yield ["train-model", "--data", str(root / "data.csv"), "--arch", "mlp",
           "--hidden", "1000000000000", "--out", str(root / "o")], \
        "train-model"
    configs = {"gen-data": SyntheticSpec, "train-model": TrainConfig,
               "train-transform": MindConfig}
    for i in range(FUZZ_CASES):
        kind = int(rng.integers(4))
        if kind == 0:  # a bad element in a list-valued field
            key = str(rng.choice(sorted(LIST_FIELDS)))
            good, bad = LIST_FIELDS[key]
            value = list(good)
            value[int(rng.integers(len(value)))] = \
                bad[int(rng.integers(len(bad)))]
            yield gen_data({"n": 40, "d": 3, key: value}, i)
        elif kind == 1:  # a wrongly typed value for one config field
            command = str(rng.choice(sorted(configs)))
            field = rng.choice(dataclasses.fields(configs[command]))
            wrong = WRONG_FOR[field.type]
            doc = {"n": 40, "d": 3} if command == "gen-data" else {}
            doc[field.name] = wrong[int(rng.integers(len(wrong)))]
            path = root / f"cfg{i}.json"
            path.write_text(json.dumps(doc))
            argv = [command, "--config", str(path), "--out", str(root / "o")]
            if command != "gen-data":
                argv += ["--data", str(root / "data.csv")]
            if command == "train-transform":
                argv += ["--model", str(root / "model.json")]
            yield argv, command
        else:  # a bad --hidden or --beta list
            flag = "--hidden" if kind == 2 else "--beta"
            tokens = ["4", "2"][:int(rng.integers(3))]
            bad = BAD_TOKENS[flag]
            tokens.insert(int(rng.integers(len(tokens) + 1)),
                          bad[int(rng.integers(len(bad)))])
            text = ",".join(tokens)
            if flag == "--hidden":
                yield ["train-model", "--data", str(root / "data.csv"),
                       "--hidden", text, "--out", str(root / "o")], \
                    "train-model"
            else:
                yield ["oracle", "--beta", text, "--lam", "0.1"], "oracle"


def test_fuzzed_malformed_inputs_are_one_json_line(pipeline, tmp_path,
                                                   capsys):
    for name in ("data.csv", "data.sidecar.json"):
        shutil.copy(pipeline["data"].parent / name, tmp_path / name)
    shutil.copy(pipeline["model"], tmp_path / "model.json")
    rng = np.random.default_rng(FUZZ_SEED)
    for argv, command in _draw_malformed(rng, tmp_path):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1, argv
        assert "Traceback" not in err, argv
        lines = err.strip().splitlines()
        assert len(lines) == 1, (argv, err)
        doc = json.loads(lines[0])
        assert validate_artifact(doc) == "mindkit.error/1"
        assert doc["command"] == command, argv


# Seeded fuzz over file faults at the CLI: each draw gives one subcommand
# one faulty file, and every other input a good one. The first two cases are
# fixed reproductions of defects this test guards.
FILE_FUZZ_SEED = 20261019
FILE_FUZZ_CASES = 40

# the file inputs of each subcommand, --out included
FILE_SLOTS = {
    "gen-data": ("--config", "--out"),
    "train-model": ("--data", "--config", "--out"),
    "train-transform": ("--data", "--model", "--config", "--out"),
    "tune-lambda": ("--data", "--model", "--config", "--out"),
    "score": ("--manifest", "--out"),
    "oracle": ("--data", "--out"),
    "sanity-check": ("--data", "--model", "--config", "--report", "--out"),
    "baselines": ("--data", "--model", "--report", "--out"),
}
FILE_FAULTS = {
    "--data": ("missing", "directory", "empty"),
    "--config": ("truncated", "non-utf8", "directory", "missing"),
    "--model": ("truncated", "non-utf8", "directory"),
    "--manifest": ("truncated", "non-utf8", "directory"),
    "--report": ("truncated", "non-utf8", "directory"),
    "--out": ("file",),
}
# a good --config per command; "mind" serves the MindConfig commands
FILE_CONFIGS = {
    "gen-data": {"n": 40, "d": 3},
    "train-model": {"max_epochs": 1},
    "mind": {"lam": 0.05, "similarity": "inner_product", "max_epochs": 1,
             "restarts": 1, "top_k": 1},
}


def _good_files(root, pipeline):
    """Each file flag's valid value, plus each command's other flags."""
    for name in ("data.csv", "data.sidecar.json"):
        shutil.copy(pipeline["data"].parent / name, root / name)
    shutil.copy(pipeline["model"], root / "model.json")
    shutil.copy(pipeline["manifest"], root / "manifest.json")
    for name, doc in FILE_CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    good = {"--data": root / "data.csv", "--model": root / "model.json",
            "--manifest": root / "manifest.json",
            "--report": root / "manifest.json"}
    extra = {"oracle": ["--beta", "1,1,1,1,1", "--lam", "0.1"],
             "sanity-check": ["--shuffles", "1"],
             "baselines": ["--steps", "2"]}
    return good, extra


def _file_fault(rng, root, i, flag, fault, good):
    """A path at which `fault` happens for `flag`."""
    if flag == "--out":  # an existing file
        return good["--data"]
    if flag == "--data":
        path = root / f"fault{i}.csv"
        shutil.copy(good["--data"].with_name("data.sidecar.json"),
                    root / f"fault{i}.sidecar.json")
        if fault == "directory":
            path.mkdir()
        elif fault == "empty":
            path.write_text("")
        return path
    path = root / f"fault{i}.json"
    source = good.get(flag, root / "mind.json")
    if fault == "directory":
        path.mkdir()
    elif fault == "non-utf8":
        path.write_bytes(b"\xff\xfe" + source.read_bytes())
    elif fault == "truncated":
        text = source.read_text()
        path.write_text(text[:int(rng.integers(1, len(text) - 1))])
    return path


def _draw_file_faults(rng, root, pipeline):
    """Yield (argv, command, faulty path) for one seeded file fault per
    draw."""
    good, extra = _good_files(root, pipeline)

    def argv(i, command, flag, path):
        args = [command, *extra.get(command, [])]
        for slot in FILE_SLOTS[command]:
            if slot == flag:
                args += [slot, str(path)]
            elif slot == "--out":
                args += [slot, str(root / f"out{i}")]
            elif slot == "--config":
                name = command if command in FILE_CONFIGS else "mind"
                args += [slot, str(root / f"{name}.json")]
            else:
                args += [slot, str(good[slot])]
        return args, command, path

    bad = _file_fault(rng, root, "r", "--config", "non-utf8", good)
    yield argv("r0", "train-model", "--config", bad)
    yield argv("r1", "train-model", "--out", good["--data"])
    # a directory where an artifact inside --out should go
    for i, (command, name) in enumerate((("gen-data", "truth.json"),
                                         ("gen-data", "data.csv"),
                                         ("score", "report.csv"))):
        out = root / f"dir{i}"
        (out / name).mkdir(parents=True)
        yield argv(f"d{i}", command, "--out", out)[0], command, out / name
    for i in range(FILE_FUZZ_CASES):
        command = str(rng.choice(sorted(FILE_SLOTS)))
        flag = str(rng.choice(FILE_SLOTS[command]))
        fault = str(rng.choice(FILE_FAULTS[flag]))
        yield argv(i, command, flag,
                   _file_fault(rng, root, i, flag, fault, good))


def test_fuzzed_file_faults_are_one_json_line(pipeline, tmp_path, capsys):
    rng = np.random.default_rng(FILE_FUZZ_SEED)
    seen = set()
    for argv, command, path in _draw_file_faults(rng, tmp_path, pipeline):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1, argv
        assert "Traceback" not in err, argv
        lines = err.strip().splitlines()
        assert len(lines) == 1, (argv, err)
        doc = json.loads(lines[0])
        assert validate_artifact(doc) == "mindkit.error/1"
        assert doc["command"] == command, argv
        assert str(path) in doc["message"], (argv, doc["message"])
        seen.add(command)
    assert seen == set(FILE_SLOTS)


class TestTuneLambda:
    def test_writes_trace_and_transform(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "mind.json"
        cfg.write_text(json.dumps({"similarity": "inner_product",
                                   "max_epochs": 4}))
        run_ok(["tune-lambda", "--data", str(pipeline["data"]),
                "--model", str(pipeline["model"]), "--config", str(cfg),
                "--seed", "2", "--out", str(tmp_path / "tune")])
        out = capsys.readouterr().out
        assert "lambda =" in out
        doc = read(tmp_path / "tune" / "tune.json")
        assert validate_artifact(doc) == "mindkit.tune/1"
        assert len(doc["trace"]) >= 1
        assert isinstance(doc["feasible"], bool)
        assert (tmp_path / "tune" / "transform.json").exists()

    def test_failed_grid_point_is_traced(self, pipeline, tmp_path, capsys,
                                         monkeypatch):
        real = mt._init_restart
        def fails_at_first_lambda(tspec, dataset, config, restart):
            transform, run = real(tspec, dataset, config, restart)
            if config.lam == mt.LAMBDA_GRID_LO:
                run.error = "synthetic failure"
            return transform, run
        monkeypatch.setattr(mt, "_init_restart", fails_at_first_lambda)
        cfg = tmp_path / "mind.json"
        cfg.write_text(json.dumps({"similarity": "inner_product",
                                   "max_epochs": 4}))
        run_ok(["tune-lambda", "--data", str(pipeline["data"]),
                "--model", str(pipeline["model"]), "--config", str(cfg),
                "--seed", "2", "--out", str(tmp_path / "tune")])
        capsys.readouterr()
        doc = read(tmp_path / "tune" / "tune.json")
        assert validate_artifact(doc) == "mindkit.tune/1"
        assert doc["trace"][0] == {
            "lambda": mt.LAMBDA_GRID_LO, "w1": None, "cosine": None,
            "val_loss": None, "feasible": False,
            "error": "synthetic failure"}
        assert len(doc["trace"]) >= 2
        assert doc["lambda"] > mt.LAMBDA_GRID_LO

    def test_threads_is_a_usage_error(self, pipeline, tmp_path, capsys):
        assert main(["tune-lambda", "--data", str(pipeline["data"]),
                     "--model", str(pipeline["model"]), "--threads", "2",
                     "--out", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        doc = json.loads(lines[0])
        assert validate_artifact(doc) == "mindkit.error/1"
        assert doc["command"] == "tune-lambda"
        assert "--threads" in doc["message"]


class TestSanityCheck:
    def test_mismatched_reference_is_an_error(self, pipeline, tmp_path,
                                              capsys):
        manifest = read(pipeline["manifest"])
        manifest["features"] = [f"other{i}" for i in range(5)]
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps(manifest))
        doc = structured_error(
            capsys, ["sanity-check", "--data", str(pipeline["data"]),
                     "--model", str(pipeline["model"]),
                     "--report", str(bad), "--config",
                     str(pipeline["mind_cfg"]),
                     "--out", str(tmp_path / "o")], "sanity-check")
        assert "do not match" in doc["message"]

    def test_smoke_writes_validating_artifact(self, pipeline, tmp_path,
                                              capsys):
        cfg = tmp_path / "mind.json"
        cfg.write_text(json.dumps({
            "lam": 0.05, "similarity": "inner_product", "max_epochs": 4,
            "restarts": 3, "top_k": 2}))
        run_ok(["sanity-check", "--data", str(pipeline["data"]),
                "--model", str(pipeline["model"]),
                "--report", str(pipeline["manifest"]),
                "--config", str(cfg), "--shuffles", "1", "--seed", "0",
                "--out", str(tmp_path / "sanity")])
        out = capsys.readouterr().out
        assert "baseline rho" in out
        doc = read(tmp_path / "sanity" / "sanity.json")
        assert validate_artifact(doc) == "mindkit.sanity/2"
        assert [e["layer"] for e in doc["layers"]] == ["w0", "w1"]


class TestBaselines:
    def test_attribution_tables(self, pipeline, tmp_path, capsys):
        run_ok(["baselines", "--data", str(pipeline["data"]),
                "--model", str(pipeline["model"]),
                "--report", str(pipeline["manifest"]),
                "--steps", "512", "--out", str(tmp_path / "base")])
        capsys.readouterr()
        doc = read(tmp_path / "base" / "baselines.json")
        assert validate_artifact(doc) == "mindkit.baselines/1"
        assert doc["ig_steps"] == 512
        assert len(doc["saliency"]) == 5
        assert len(doc["integrated_gradients"]) == 5
        assert doc["completeness_gap"] < 1e-3
        pairs = [tuple(row["pair"]) for row in doc["spearman"]]
        assert ("saliency", "integrated_gradients") in pairs
        assert len(pairs) == 3


@pytest.fixture(scope="module")
def seq_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("seq")
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps({"n": 200, "d": 3, "seq_len": 6}))
    run_ok(["gen-data", "--config", str(gen_cfg), "--seed", "11",
            "--out", str(root / "data")])
    tcfg = root / "t.json"
    tcfg.write_text(json.dumps({"max_epochs": 10}))
    run_ok(["train-model", "--data", str(root / "data" / "data.csv"),
            "--arch", "seqconv", "--hidden", "4", "--config", str(tcfg),
            "--seed", "4", "--out", str(root / "model")])
    mcfg = root / "m.json"
    mcfg.write_text(json.dumps({"lam": 0.05, "max_epochs": 6, "restarts": 2,
                                "top_k": 2}))
    return root, mcfg


class TestSequenceTransforms:
    def test_basis_kind_reports_channels(self, seq_pipeline, tmp_path,
                                         capsys):
        root, mcfg = seq_pipeline
        run_ok(["train-transform", "--data", str(root / "data" / "data.csv"),
                "--model", str(root / "model" / "model.json"),
                "--kind", "basis", "--basis", "pulse", "--basis-k", "3",
                "--config", str(mcfg), "--seed", "6",
                "--out", str(tmp_path / "basis")])
        capsys.readouterr()
        man = read(tmp_path / "basis" / "manifest.json")
        assert man["score_kind"] == "gates_by_channel"
        assert man["channels"]["names"] == ["window0", "window1", "window2"]
        tr = read(tmp_path / "basis" / "transform.json")
        assert tr["kind"] == "basis"
        assert tr["basis"] == {"kind": "pulse", "K": 3, "T": 6,
                               "residual_channel": False}

    def test_residual_kind_reports_correlations(self, seq_pipeline, tmp_path,
                                                capsys):
        root, mcfg = seq_pipeline
        run_ok(["train-transform", "--data", str(root / "data" / "data.csv"),
                "--model", str(root / "model" / "model.json"),
                "--kind", "residual", "--config", str(mcfg), "--seed", "6",
                "--out", str(tmp_path / "res")])
        capsys.readouterr()
        man = read(tmp_path / "res" / "manifest.json")
        assert man["score_kind"] == "correlation"

    def test_basis_on_vector_data_rejected(self, pipeline, tmp_path, capsys):
        doc = structured_error(
            capsys, ["train-transform", "--data", str(pipeline["data"]),
                     "--model", str(pipeline["model"]), "--kind", "basis",
                     "--out", str(tmp_path / "o")], "train-transform")
        assert "sequence" in doc["message"]
