"""Command-line surface: flags, exit codes, and file outputs."""

import csv
import functools
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import smoothcert
from smoothcert import classifiers, cli, memory, pipeline
from smoothcert.classifiers import (ClassifierHandle,
                                    probit_halfspace_classifier, save_classifier)
from smoothcert.cli import cli_main
from smoothcert.pipeline import CampaignConfig
from smoothcert.sigma_opt import RETURN_BEST_ITERATE, RETURN_FAITHFUL, SigmaOptConfig
from smoothcert.smoothing import GaussianCertConfig
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


def src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(smoothcert.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def certify_args(data, clf, out, extra=()):
    return ["certify", "--mode", "ds", "--sigma0", "0.25",
            "--alpha-step", "1e-4", "--iters", "100", "--n", "1",
            "--n0", "100", "--n-cert", "2000", "--alpha-fail", "0.001",
            "--dataset", str(data), "--classifier", str(clf),
            "--out", str(out), *extra]


REGION = json.dumps({"center": [0.0, 0.0], "radius": 0.1, "prediction": 1,
                     "sigma": 0.25, "norm": "l2"}) + "\n"


def snapshot(tmp):
    """Every entry of a directory, with the bytes of each file."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in tmp.iterdir()}


def no_work(*args, **kwargs):
    raise AssertionError("work ran")


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

    def test_inconsistent_mlp_shapes_fail_before_writing(self, workspace, capsys):
        tmp, data, _ = workspace
        clf = tmp / "mlp.json"
        clf.write_text(json.dumps({"kind": "mlp", "w1": [[1.0, 0.0]],
                                   "b1": [0.0, 0.0, 0.0],
                                   "w2": [[1.0], [-1.0]], "b2": [0.0, 0.0]}))
        out = tmp / "r.csv"
        args = certify_args(data, clf, out)
        args[args.index("ds")] = "fixed"
        assert cli_main(args) == 1
        assert not out.exists()
        assert "b1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,center,norm,message", [
        ("ds", [0.0, 0.0], "l1", "needs l2 regions of dim 2, the memory holds "
                                 "l1 regions of dim 2"),
        ("ds_l1", [0.0, 0.0], "l2", "needs l1 regions of dim 2, the memory holds "
                                    "l2 regions of dim 2"),
        ("ds", [0.0, 0.0, 0.0], "l2", "needs l2 regions of dim 2, the memory "
                                      "holds l2 regions of dim 3"),
        ("ds", [0.0, 0.0], "linf", "bad region on line 1: unknown norm 'linf'"),
    ])
    def test_unfit_memory_fails_before_any_work(self, workspace, monkeypatch,
                                                capsys, mode, center, norm,
                                                message):
        tmp, data, clf = workspace
        mem = tmp / "m.jsonl"
        mem.write_text(json.dumps({"center": center, "radius": 0.5,
                                   "prediction": 1, "sigma": 0.25,
                                   "norm": norm}) + "\n")
        calls = []
        probs = ClassifierHandle.probs
        monkeypatch.setattr(ClassifierHandle, "probs",
                            lambda self, pts: calls.append(1) or probs(self, pts))
        out = tmp / "r.csv"
        args = certify_args(data, clf, out, ["--memory-in", str(mem)])
        args[args.index("ds")] = mode
        assert cli_main(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists() and calls == []

    @pytest.mark.parametrize("data,clf,message", [
        (None, {"kind": "probit_halfspace", "w": [1.0, 0.0, 0.0], "b": 0.0, "s": 0.5},
         "dataset dim 2 does not match classifier dim 3"),
        ("0.5,0.5,1\n2\n", None, "line 2: need at least one feature and a label"),
        (None, {"w": [1.0, 0.0], "b": 0.0, "s": 0.5},
         "classifier config must be an object with a 'kind' field"),
        (None, {"kind": "probit_halfspace", "w": [1.0, 0.0], "b": 0.0, "s": 0.5,
                "sigma": 0.25}, "unexpected keyword argument 'sigma'"),
        (None, {"kind": "probit_halfspace", "w": [1.0, 0.0], "b": 0.0},
         "missing 1 required positional argument: 's'"),
    ], ids=["dim_mismatch", "one_field_line", "classifier_without_kind",
            "classifier_extra_key", "classifier_missing_key"])
    def test_unfit_input_fails_before_writing(self, workspace, capsys, data, clf,
                                              message):
        tmp, data_path, clf_path = workspace
        if data is not None:
            data_path = tmp / "bad.csv"
            data_path.write_text(data)
        if clf is not None:
            clf_path = tmp / "bad.json"
            clf_path.write_text(json.dumps(clf))
        out = tmp / "r.csv"
        assert cli_main(certify_args(data_path, clf_path, out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sigma0_outside_the_ascent_bounds_fails_before_writing(self, workspace,
                                                                  capsys):
        tmp, data, clf = workspace
        out = tmp / "r.csv"
        args = certify_args(data, clf, out)
        args[args.index("--sigma0") + 1] = "3.0"
        assert cli_main(args) == 1
        assert "sigma0 3.0 lies outside [0.001, 2.0]" in capsys.readouterr().err
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

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_bad_memory_on_a_pipe_fails(self, workspace):
        tmp, data, clf = workspace
        out = tmp / "r.csv"
        bad = json.dumps({"center": [0.0, 0.0], "radius": -1.0, "prediction": 1,
                          "sigma": 0.25, "norm": "l2"}) + "\n"
        run = subprocess.run(
            [sys.executable, "-m", "smoothcert",
             *certify_args(data, clf, out, ["--memory-in", "/dev/stdin"])],
            input=bad, env=src_env(), capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        assert ("/dev/stdin: bad region on line 1: center, radius and sigma must be "
                "finite and radius >= 0") in run.stderr
        assert not out.exists()

    @pytest.mark.parametrize("extra,first,second", [
        (["--memory-out", "r.csv"], "--out", "--memory-out"),
        (["--metrics-out", "r.csv"], "--out", "--metrics-out"),
        (["--metrics-out", "m.json", "--memory-out", "m.json"], "--metrics-out",
         "--memory-out"),
        (["--memory-out", "r.csv.metrics.json"], "--metrics-out", "--memory-out"),
        (["--memory-out", "link.jsonl"], "--out", "--memory-out"),
        (["--out", "d.csv"], "--dataset", "--out"),
        (["--metrics-out", "c.json"], "--classifier", "--metrics-out"),
        (["--memory-out", "d.csv"], "--dataset", "--memory-out"),
        (["--out", "m.jsonl"], "--memory-in", "--out"),
        (["--metrics-out", "m.jsonl"], "--memory-in", "--metrics-out"),
        (["--out", "link.csv"], "--dataset", "--out"),
    ], ids=["out_memory", "out_metrics", "metrics_memory", "default_metrics_memory",
            "symlink", "out_dataset", "metrics_classifier", "memory_dataset",
            "out_memory_in", "metrics_memory_in", "symlink_dataset"])
    def test_outputs_naming_one_file_fail_before_any_work(self, workspace, monkeypatch,
                                                          capsys, extra, first, second):
        tmp, data, clf = workspace
        (tmp / "m.jsonl").write_text(REGION)
        (tmp / "link.jsonl").symlink_to(tmp / "r.csv")
        (tmp / "link.csv").symlink_to(data)
        before = snapshot(tmp)
        monkeypatch.setattr(classifiers, "load_classifier", no_work)
        args = certify_args(data, clf, tmp / "r.csv",
                            ["--memory-in", str(tmp / "m.jsonl")]
                            + [str(tmp / v) if v.endswith(("csv", "json", "jsonl")) else v
                               for v in extra])
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{first} and {second} name the same file" in captured.err
        assert snapshot(tmp) == before

    @pytest.mark.parametrize("flag", ["--out", "--metrics-out", "--memory-out"])
    def test_output_in_a_missing_directory_fails_before_any_work(self, workspace,
                                                                 monkeypatch, capsys, flag):
        tmp, data, clf = workspace
        mem = tmp / "m.jsonl"
        mem.write_text(REGION)
        before = snapshot(tmp)
        monkeypatch.setattr(classifiers, "load_classifier", no_work)
        args = certify_args(data, clf, tmp / "r.csv",
                            ["--memory-in", str(mem), "--memory-out", str(mem)])
        args += [flag, str(tmp / "missing" / "x")]
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: the directory of {tmp / 'missing' / 'x'} does not exist" in captured.err
        assert snapshot(tmp) == before

    @pytest.mark.parametrize("flag", ["--out", "--metrics-out", "--memory-out"])
    def test_output_naming_a_directory_fails_before_any_work(self, workspace, monkeypatch,
                                                             capsys, flag):
        tmp, data, clf = workspace
        mem = tmp / "m.jsonl"
        mem.write_text(REGION)
        (tmp / "outdir").mkdir()
        before = snapshot(tmp)
        monkeypatch.setattr(classifiers, "load_classifier", no_work)
        args = certify_args(data, clf, tmp / "r.csv",
                            ["--memory-in", str(mem), "--memory-out", str(mem)])
        args += [flag, str(tmp / "outdir")]
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: {tmp / 'outdir'} is a directory" in captured.err
        assert snapshot(tmp) == before  # --memory-in included, byte for byte

    def test_failed_results_write_leaves_memory_in_untouched(self, workspace, capsys):
        tmp, data, clf = workspace
        mem = tmp / "m.jsonl"
        assert cli_main(certify_args(data, clf, tmp / "a.csv",
                                     ["--memory-out", str(mem)])) == 0
        (tmp / "outdir").mkdir()
        before = snapshot(tmp)
        capsys.readouterr()
        assert cli_main(certify_args(data, clf, tmp / "outdir",
                                     ["--memory-in", str(mem),
                                      "--memory-out", str(mem)])) == 1
        assert capsys.readouterr().out == ""
        assert snapshot(tmp) == before

    @pytest.mark.parametrize("flags", [("--memory-in",), ("--memory-out",),
                                       ("--memory-in", "--memory-out")])
    def test_fixed_mode_rejects_the_memory_flags_before_any_work(
            self, workspace, monkeypatch, capsys, flags):
        tmp, data, clf = workspace
        mem = tmp / "m.jsonl"
        assert cli_main(certify_args(data, clf, tmp / "a.csv",
                                     ["--memory-out", str(mem)])) == 0
        before = mem.read_bytes()
        capsys.readouterr()
        monkeypatch.setattr(cli, "run_campaign", no_work)
        monkeypatch.setattr(memory, "load_memory", no_work)
        paths = {"--memory-in": mem, "--memory-out": tmp / "m2.jsonl"}
        args = certify_args(data, clf, tmp / "r.csv",
                            [v for flag in flags for v in (flag, str(paths[flag]))])
        args[args.index("ds")] = "fixed"
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--memory-in and --memory-out need --mode ds or ds_l1" in captured.err
        assert mem.read_bytes() == before
        assert not any((tmp / name).exists()
                       for name in ("r.csv", "r.csv.metrics.json", "m2.jsonl"))

    def test_memory_out_may_update_memory_in(self, workspace):
        tmp, data, clf = workspace
        mem = tmp / "m.jsonl"
        assert cli_main(certify_args(data, clf, tmp / "a.csv",
                                     ["--memory-out", str(mem)])) == 0
        n1 = mem.read_text().count("\n")
        assert cli_main(certify_args(data, clf, tmp / "b.csv",
                                     ["--memory-in", str(mem),
                                      "--memory-out", str(mem)])) == 0
        assert mem.read_text().count("\n") == 2 * n1

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

    @pytest.mark.parametrize("flags, cert, opt", [
        (["--iters", "7", "--n-cert", "300", "--seed", "5"],
         {"n_cert": 300, "seed": 5}, {"iters_k": 7}),
        # every budget and ascent flag off its default pins each flag's field
        (["--n0", "50", "--n-cert", "300", "--alpha-fail", "0.01", "--seed", "5",
          "--alpha-step", "2e-4", "--iters", "7", "--n", "3", "--sigma-min", "0.01",
          "--sigma-max", "1.5", "--grad-mode", "analytic", "--return-mode", "best_iterate"],
         {"n0": 50, "n_cert": 300, "alpha_fail": 0.01, "seed": 5},
         {"step_alpha": 2e-4, "iters_k": 7, "n_samples": 3, "sigma_min": 0.01,
          "sigma_max": 1.5, "grad_mode": "analytic", "return_mode": "best_iterate"}),
    ], ids=["some_flags", "all_flags"])
    def test_config_echoes_the_campaign_settings(self, workspace, flags, cert, opt):
        tmp, data, clf = workspace
        out = tmp / "r.csv"
        assert cli_main(["certify", "--mode", "ds", "--sigma0", "0.25", *flags,
                         "--dataset", str(data), "--classifier", str(clf),
                         "--out", str(out)]) == 0
        config = json.loads((tmp / "r.csv.metrics.json").read_text())["config"]
        cfg = CampaignConfig(mode="ds", sigma0=0.25, cert=GaussianCertConfig(**cert),
                             opt=SigmaOptConfig(**opt))
        assert config == json.loads(json.dumps(asdict(cfg))) | {
            "dataset": str(data), "classifier": str(clf)}
        # every setting left out is the library default
        assert config["opt"] | config["cert"] == (
            asdict(SigmaOptConfig()) | asdict(GaussianCertConfig()) | opt | cert)

REPORT_HEADER = ("idx,label,prediction,correct,radius,sigma_star,p_lower,"
                 "adjusted_by_memory\n")


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

    def test_non_finite_row_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(REPORT_HEADER +
                        "0,1,1,1,0.5,0.25,0.99,0\n"
                        "1,0,0,1,nan,0.25,0.99,0\n")
        assert cli_main(["report", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3" in captured.err and "finite" in captured.err

    @pytest.mark.parametrize("row,message", [
        ("1,1,1,1,-5.0,0.25,0.99,0", "radius must be finite and >= 0"),
        ("1,1,ABSTAIN,0,3.0,0.25,0.4,0", "an ABSTAIN row must carry radius 0"),
        ("1,1,1,1,0.5,-0.25,0.99,0", "sigma_star must be positive and finite"),
        ("1,1,1,1,0.5,0.25,7.5,0", "p_lower must lie in [0, 1]"),
        ("1,-3,1,0,0.5,0.25,0.99,0", "label and prediction must be class indices"),
        ("1,1,-3,0,0.5,0.25,0.99,0", "label and prediction must be class indices"),
        ("1,1,1,0,0.5,0.25,0.99,0", "correct must be 1 exactly when"),
        ("1,1,1,1,0.5,0.25,0.99,2", "adjusted_by_memory must be 0 or 1"),
        ("1,one,1,1,0.5,0.25,0.99,0", "invalid literal for int()"),
        ("1,1,1,1,0.5,0.25,0.99", "expected 8 fields"),
    ], ids=["negative_radius", "abstain_with_radius", "negative_sigma_star",
            "p_lower_above_one", "negative_label", "negative_prediction",
            "correct_mismatch", "adjusted_not_a_flag", "label_not_an_integer",
            "row_of_the_wrong_width"])
    def test_row_certify_cannot_write_is_runtime_error(self, tmp_path, capsys,
                                                        row, message):
        path = tmp_path / "r.csv"
        path.write_text(REPORT_HEADER + "0,1,1,1,0.5,0.25,0.99,0\n" + row + "\n")
        assert cli_main(["report", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: line 3: {message}" in captured.err

    def test_wrong_header_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(REPORT_HEADER.replace("p_lower", "p_low") +
                        "0,1,1,1,0.5,0.25,0.99,0\n")
        assert cli_main(["report", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: unexpected report header" in captured.err

    def test_overlap_events_left_out(self, workspace, capsys):
        # the flipped classifier re-predicts every stored center, so every
        # region of the second campaign overlaps a differently-predicted one
        tmp, data, clf = workspace
        flipped = tmp / "flipped.json"
        save_classifier(probit_halfspace_classifier([-1.0, 0.0], 0.0, 0.5), flipped)
        mem, out = tmp / "m.jsonl", tmp / "r.csv"
        assert cli_main(certify_args(data, clf, tmp / "a.csv",
                                     ["--memory-out", str(mem)])) == 0
        assert cli_main(certify_args(data, flipped, out,
                                     ["--memory-in", str(mem)])) == 0
        campaign = json.loads((tmp / "r.csv.metrics.json").read_text())["metrics"]
        assert campaign["overlap_events"] > 0
        capsys.readouterr()
        assert cli_main(["report", "--in", str(out)]) == 0
        recomputed = json.loads(capsys.readouterr().out)
        del campaign["overlap_events"]
        assert recomputed == campaign

    def test_non_finite_radii_grid_is_runtime_error(self, workspace, capsys):
        tmp, data, clf = workspace
        out = tmp / "r.csv"
        assert cli_main(certify_args(data, clf, out, ["--seed", "5"])) == 0
        capsys.readouterr()
        assert cli_main(["report", "--in", str(out), "--radii", "0.5,nan,0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "radii grid" in captured.err


@pytest.mark.parametrize("command,flag,bad", [
    ("certify", "--radii", "0,abc"), ("report", "--radii", "0,x"),
    ("optimize-sigma", "--point", "1.0,x")])
def test_list_that_does_not_parse_names_its_flag(workspace, monkeypatch, capsys,
                                                 command, flag, bad):
    tmp, data, clf = workspace
    (tmp / "r.csv").write_text(REPORT_HEADER + "0,1,1,1,0.5,0.25,0.99,0\n")
    before = snapshot(tmp)
    monkeypatch.setattr(classifiers, "load_classifier", no_work)
    args = {"certify": certify_args(data, clf, tmp / "out.csv"),
            "report": ["report", "--in", str(tmp / "r.csv")],
            "optimize-sigma": ["optimize-sigma", "--classifier", str(clf),
                               "--sigma0", "0.25"]}[command]
    assert cli_main(args + [flag, bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{flag}: could not convert string to float: '{bad.split(',')[1]}'"
            in captured.err)
    assert snapshot(tmp) == before


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

    def test_start_outside_the_bounds_is_projected(self, workspace, capsys):
        _, _, clf = workspace
        code = cli_main(["optimize-sigma", "--classifier", str(clf),
                         "--point", "1.0,0.0", "--sigma0", "3.0",
                         "--iters", "5", "--n", "64", "--seed", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        sigmas = [float(line.split(",")[1]) for line in lines[1:-1]]
        assert sigmas[0] == 2.0 and max(sigmas) <= 2.0
        assert float(lines[-1].split()[0].split("=")[1]) <= 2.0

    @pytest.mark.parametrize("seed", [5, 2**40 + 3])
    @pytest.mark.parametrize("n", [1, 32])
    @pytest.mark.parametrize("mode", [RETURN_FAITHFUL, RETURN_BEST_ITERATE])
    def test_sigma_star_is_the_one_a_one_row_campaign_certifies(self, workspace, capsys,
                                                                seed, n, mode):
        tmp, data, clf = workspace
        row = data.read_text().splitlines()[0]
        (tmp / "one.csv").write_text(row + "\n")
        flags = ["--sigma0", "0.25", "--iters", "10", "--alpha-step", "0.05",
                 "--n", str(n), "--return-mode", mode, "--seed", str(seed)]
        assert cli_main(["certify", "--mode", "ds", "--n-cert", "1000",
                         "--dataset", str(tmp / "one.csv"), "--classifier", str(clf),
                         "--out", str(tmp / "r.csv"), *flags]) == 0
        with open(tmp / "r.csv", newline="") as fh:
            (record,) = csv.DictReader(fh)
        capsys.readouterr()
        point = row.rsplit(",", 1)[0]
        assert cli_main(["optimize-sigma", "--classifier", str(clf),
                         f"--point={point}", *flags]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.split()[0] == f"sigma_star={record['sigma_star']}"

    def test_point_with_a_negative_first_coordinate_parses_in_the_equals_form(
            self, workspace, monkeypatch, capsys):
        _, _, clf = workspace
        points, optimize_sigma = [], cli.optimize_sigma

        def record(c, x, *args):
            points.append(x.tolist())
            return optimize_sigma(c, x, *args)

        monkeypatch.setattr(cli, "optimize_sigma", record)
        args = ["optimize-sigma", "--classifier", str(clf), "--sigma0", "0.25", "--iters", "2"]
        assert cli_main(args + ["--point=-2.5,0.4"]) == 0
        assert points == [[-2.5, 0.4]]
        assert capsys.readouterr().out.startswith("iter,sigma,proxy_radius,top_class\n")
        assert cli_main(args + ["--point", "-2.5,0.4"]) == 2  # read as a flag, not a value
        assert "--point: expected one argument" in capsys.readouterr().err

    def test_point_of_the_wrong_dimension_is_runtime_error(self, workspace, capsys):
        _, _, clf = workspace
        code = cli_main(["optimize-sigma", "--classifier", str(clf),
                         "--point", "1.0,0.0,0.0", "--sigma0", "0.25"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --point has 3 coordinates, the classifier takes 2\n"


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

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_seed_counts_that_do_no_work_are_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "demo.json"
        code = cli_main(["train-demo", "--seeds", value, "--out-json", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"need --seeds >= 1, got {value}" in captured.err
        assert not out.exists()

    @pytest.fixture
    def demo_calls(self, monkeypatch):
        """The keyword arguments of every ``run_training_demo`` call."""
        calls = []

        @functools.wraps(cli.run_training_demo)
        def demo(**kwargs):
            calls.append(kwargs)
            return {"seed": kwargs["seed"], "acr_fixed": 0.5, "acr_ds": 0.75}

        monkeypatch.setattr(cli, "run_training_demo", demo)
        return calls

    def test_every_size_flag_reaches_the_demo(self, demo_calls):
        assert cli_main(["train-demo", "--seeds", "2", "--seed", "3", "--epochs", "2",
                         "--n-train", "24", "--n-test", "10", "--n-cert", "400"]) == 0
        sizes = {"epochs": 2, "n_train": 24, "n_test": 10, "n_cert": 400}
        assert demo_calls == [{"seed": 3} | sizes, {"seed": 4} | sizes]

    @pytest.mark.parametrize("flag,name,value", [
        (None, None, None), ("--epochs", "epochs", 2), ("--n-train", "n_train", 24),
        ("--n-test", "n_test", 10), ("--n-cert", "n_cert", 400)])
    def test_a_flag_left_out_passes_nothing(self, demo_calls, flag, name, value):
        given = [flag, str(value)] if flag else []
        assert cli_main(["train-demo", "--seed", "3", *given]) == 0
        assert demo_calls == [{"seed": 3} | ({name: value} if flag else {})]

    @pytest.mark.parametrize("flag,value,message", [
        ("--n-train", "0", "need n_train >= 1, n_test >= 1 and epochs >= 0, got 0, 60 and 1"),
        ("--n-test", "0", "need n_train >= 1, n_test >= 1 and epochs >= 0, got 120, 0 and 1"),
        ("--epochs", "-3", "need n_train >= 1, n_test >= 1 and epochs >= 0, got 120, 60 and -3"),
        ("--n-cert", "99", "n_cert must be >= n0, got 99 < 100")])
    def test_sizes_that_do_no_work_are_rejected_before_training(self, monkeypatch,
                                                                tmp_path, capsys,
                                                                flag, value, message):
        def ran(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(pipeline, "train_batch", ran)
        out = tmp_path / "demo.json"
        args = ["train-demo", "--seeds", "2", "--epochs", "1", flag, value]
        assert cli_main(args + ["--out-json", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("target,problem", [
        ("missing/x.json", "the directory of {} does not exist"),
        ("outdir", "{} is a directory")], ids=["missing_directory", "directory"])
    def test_unwritable_out_json_fails_before_training(self, monkeypatch, tmp_path,
                                                        capsys, target, problem):
        monkeypatch.setattr(pipeline, "train_batch", no_work)
        (tmp_path / "outdir").mkdir()
        before = snapshot(tmp_path)
        out = tmp_path / target
        assert cli_main(["train-demo", "--epochs", "1", "--n-train", "4", "--n-test", "2",
                         "--n-cert", "100", "--out-json", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out-json: {problem.format(out)}\n"
        assert snapshot(tmp_path) == before


class TestSeedRange:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("work ran")

        for name in ("run_campaign", "run_training_demo", "optimize_sigma"):
            monkeypatch.setattr(cli, name, ran)

    def command_args(self, command, data, clf, out):
        return {"certify": certify_args(data, clf, out),
                "optimize-sigma": ["optimize-sigma", "--classifier", str(clf),
                                   "--point", "1.0,0.0", "--sigma0", "0.25"],
                "train-demo": ["train-demo", "--epochs", "1", "--out-json", str(out)],
                }[command]

    @pytest.mark.parametrize("command", ["certify", "optimize-sigma", "train-demo"])
    @pytest.mark.parametrize("flag,env,shown", [
        (["--seed", "-1"], None, -1), (["--seed", str(2**64)], None, 2**64),
        ([], "-5", -5)], ids=["minus_one", "two_to_the_64", "env_minus_five"])
    def test_seed_outside_the_range_fails_before_any_work(self, workspace, monkeypatch,
                                                          capsys, no_work, command, flag,
                                                          env, shown):
        tmp, data, clf = workspace
        out = tmp / "out"
        monkeypatch.delenv("CERTSMOOTH_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("CERTSMOOTH_SEED", env)
        assert cli_main(self.command_args(command, data, clf, out) + flag) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"seed must lie in [0, 2**64), got {shown}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "optimize-sigma", "train-demo"])
    @pytest.mark.parametrize("env", ["abc", "1.5", ""])
    def test_env_seed_that_is_not_an_integer_is_named(self, workspace, monkeypatch,
                                                      capsys, no_work, command, env):
        tmp, data, clf = workspace
        out = tmp / "out"
        monkeypatch.setenv("CERTSMOOTH_SEED", env)
        assert cli_main(self.command_args(command, data, clf, out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("CERTSMOOTH_SEED must be an integer seed in [0, 2**64), "
                f"got {env!r}") in captured.err
        assert not out.exists()

    def test_seed_flag_wins_over_a_bad_env_seed(self, workspace, monkeypatch, capsys):
        tmp, data, clf = workspace
        monkeypatch.setenv("CERTSMOOTH_SEED", "abc")
        args = self.command_args("optimize-sigma", data, clf, tmp / "out")
        assert cli_main(args + ["--iters", "2", "--n", "8", "--seed", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_last_demo_seed_outside_the_range_fails_before_training(self, workspace,
                                                                   capsys, no_work):
        tmp, data, clf = workspace
        out = tmp / "out"
        args = self.command_args("train-demo", data, clf, out)
        assert cli_main(args + ["--seeds", "2", "--seed", str(2**64 - 1)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"seed must lie in [0, 2**64), got {2**64}" in captured.err
        assert not out.exists()

    def test_largest_seed_runs(self, workspace, capsys):
        tmp, data, clf = workspace
        args = self.command_args("optimize-sigma", data, clf, tmp / "out")
        assert cli_main(args + ["--iters", "2", "--n", "8", "--seed", str(2**64 - 1)]) == 0
        assert capsys.readouterr().out.startswith("iter,sigma,proxy_radius,top_class\n")


def test_python_dash_m_runs_cli_main(workspace, capsys):
    tmp, data, clf = workspace
    out = tmp / "r.csv"
    assert cli_main(certify_args(data, clf, out, ["--seed", "5"])) == 0
    capsys.readouterr()
    assert cli_main(["report", "--in", str(out)]) == 0
    expected = capsys.readouterr().out
    ok = subprocess.run([sys.executable, "-m", "smoothcert", "report", "--in", str(out)],
                        env=src_env(), capture_output=True, text=True)
    assert (ok.returncode, ok.stdout) == (0, expected)
    usage = subprocess.run([sys.executable, "-m", "smoothcert", "report"],
                           env=src_env(), capture_output=True, text=True)
    assert usage.returncode == 2 and usage.stdout == ""
    assert "--in" in usage.stderr


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs about a second of start-up and scipy.spatial about
    # half a second; only scipy.special is used (the memory screen is numpy)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, smoothcert.cli; "
         "print([m for m in ('scipy.stats', 'scipy.spatial') if m in sys.modules])"],
        env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
