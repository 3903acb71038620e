"""Command-line surface: flags, exit codes, and file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothcert
from smoothcert.classifiers import probit_halfspace_classifier, save_classifier
from smoothcert.cli import cli_main
from smoothcert.synthetic import make_two_clusters, save_dataset_csv


@pytest.fixture
def workspace(tmp_path):
    xs, ys = make_two_clusters(8, seed=1, separation=3.0, spread=0.3)
    data = tmp_path / "d.csv"
    save_dataset_csv(xs, ys, data)
    clf = tmp_path / "c.json"
    # class 1 on the +x side, matching the cluster labels
    save_classifier(probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5), clf)
    return tmp_path, data, clf


def certify_args(data, clf, out, extra=()):
    return ["certify", "--mode", "ds", "--sigma0", "0.25",
            "--alpha-step", "1e-4", "--iters", "100", "--n", "1",
            "--n0", "100", "--n-cert", "2000", "--alpha-fail", "0.001",
            "--dataset", str(data), "--classifier", str(clf),
            "--out", str(out), *extra]


class TestCertify:
    def test_reference_invocation_writes_files(self, workspace, capsys):
        tmp, data, clf = workspace
        out = tmp / "r.csv"
        code = cli_main(certify_args(data, clf, out, ["--seed", "3"]))
        assert code == 0
        assert out.exists()
        metrics = json.loads((tmp / "r.csv.metrics.json").read_text())
        assert metrics["metrics"]["n_inputs"] == 8
        assert "ACR" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, workspace):
        tmp, data, clf = workspace
        code = cli_main(certify_args(data, clf, tmp / "r.csv",
                                     ["--frobnicate", "1"]))
        assert code == 2

    def test_missing_subcommand_is_usage_error(self):
        assert cli_main([]) == 2

    def test_runtime_error_exits_one(self, workspace):
        tmp, data, clf = workspace
        code = cli_main(certify_args(data, tmp / "missing.json", tmp / "r.csv"))
        assert code == 1

    def test_non_finite_flag_fails_before_writing(self, workspace):
        tmp, data, clf = workspace
        out = tmp / "r.csv"
        code = cli_main(certify_args(data, clf, out)
                        + ["--alpha-step", "inf"])
        assert code == 1
        assert not out.exists()

    def test_non_finite_classifier_fails_before_writing(self, workspace):
        tmp, data, _ = workspace
        clf = tmp / "nan.json"
        clf.write_text(json.dumps({"kind": "probit_halfspace", "w": [1.0, 0.0],
                                   "b": float("nan"), "s": 0.5}))
        out = tmp / "r.csv"
        args = certify_args(data, clf, out)
        args[args.index("ds")] = "fixed"
        assert cli_main(args) == 1
        assert not out.exists()

    def test_byte_identical_reruns(self, workspace):
        tmp, data, clf = workspace
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp / name
            assert cli_main(certify_args(data, clf, out, ["--seed", "11"])) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_env_seed_override(self, workspace, monkeypatch):
        tmp, data, clf = workspace
        monkeypatch.setenv("CERTSMOOTH_SEED", "99")
        out_env = tmp / "env.csv"
        assert cli_main(certify_args(data, clf, out_env)) == 0
        monkeypatch.delenv("CERTSMOOTH_SEED")
        out_flag = tmp / "flag.csv"
        assert cli_main(certify_args(data, clf, out_flag,
                                     ["--seed", "99"])) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_memory_out_written(self, workspace):
        tmp, data, clf = workspace
        out = tmp / "r.csv"
        mem = tmp / "m.jsonl"
        code = cli_main(certify_args(data, clf, out,
                                     ["--memory-out", str(mem)]))
        assert code == 0
        assert mem.exists() and mem.read_text().count("\n") > 0

    def test_memory_carries_between_campaigns(self, workspace):
        tmp, data, clf = workspace
        mem1, mem2 = tmp / "m1.jsonl", tmp / "m2.jsonl"
        assert cli_main(certify_args(data, clf, tmp / "a.csv",
                                     ["--memory-out", str(mem1)])) == 0
        assert cli_main(certify_args(data, clf, tmp / "b.csv",
                                     ["--memory-in", str(mem1),
                                      "--memory-out", str(mem2)])) == 0
        n1 = mem1.read_text().count("\n")
        n2 = mem2.read_text().count("\n")
        assert n2 == 2 * n1

    def test_ds_l1_mode(self, workspace):
        tmp, data, clf = workspace
        out = tmp / "l1.csv"
        code = cli_main(["certify", "--mode", "ds_l1", "--sigma0", "0.5",
                         "--iters", "10", "--n", "16", "--n0", "100",
                         "--n-cert", "1000", "--alpha-fail", "0.001",
                         "--seed", "4", "--dataset", str(data),
                         "--classifier", str(clf), "--out", str(out)])
        assert code == 0
        metrics = json.loads((tmp / "l1.csv.metrics.json").read_text())
        assert metrics["metrics"]["n_inputs"] == 8


class TestReport:
    def test_recomputed_acr_matches_campaign_json(self, workspace, capsys):
        tmp, data, clf = workspace
        out = tmp / "r.csv"
        assert cli_main(certify_args(data, clf, out, ["--seed", "5"])) == 0
        campaign = json.loads((tmp / "r.csv.metrics.json").read_text())
        capsys.readouterr()
        assert cli_main(["report", "--in", str(out)]) == 0
        recomputed = json.loads(capsys.readouterr().out)
        assert recomputed["acr"] == pytest.approx(
            campaign["metrics"]["acr"], abs=1e-9)

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert cli_main(["report", "--in", str(tmp_path / "nope.csv")]) == 1


class TestOptimizeSigma:
    def test_prints_trace(self, workspace, capsys):
        _, _, clf = workspace
        code = cli_main(["optimize-sigma", "--classifier", str(clf),
                         "--point", "1.0,0.0", "--sigma0", "0.25",
                         "--iters", "5", "--n", "64", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "iter,sigma,proxy_radius,top_class"
        assert len(lines) == 1 + 6 + 1  # header, K+1 rows, summary
        assert lines[-1].startswith("sigma_star=")


class TestTrainDemo:
    def test_tiny_demo_runs(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        code = cli_main(["train-demo", "--seeds", "1", "--seed", "0",
                         "--epochs", "2", "--n-train", "24", "--n-test", "10",
                         "--n-cert", "400", "--out-json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["runs"]) == 1
        text = capsys.readouterr().out
        assert "acr_fixed" in text and "acr_ds" in text


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs about a second of start-up; only scipy.special is used
    src = str(Path(smoothcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, smoothcert.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
