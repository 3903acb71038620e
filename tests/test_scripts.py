"""Smoke runs of the experiment drivers in scripts/ at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import smoothcert

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    src = str(Path(smoothcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          check=True, timeout=300).stdout


def test_make_datasets(tmp_path):
    out = run_script("make_datasets.py", "--out-dir", "data", "--n", "10",
                     cwd=tmp_path)
    assert "wrote" in out
    for name in ("clusters.csv", "annuli.csv", "probit_halfspace.json"):
        assert (tmp_path / "data" / name).stat().st_size > 0
    assert len((tmp_path / "data" / "clusters.csv").read_text().splitlines()) == 10


def test_compare_ds_fixed(tmp_path):
    out = run_script("compare_ds_fixed.py", "--n", "6", "--seeds", "1",
                     "--n-cert", "200", "--iters", "3", cwd=tmp_path)
    lines = out.splitlines()
    assert lines[0].startswith("mode")
    assert [line.split()[0] for line in lines[1:]] == ["fixed", "ds"]


def test_time_memory(tmp_path):
    out = run_script("time_memory.py", "--lattice-sizes", "20", "--random-sizes", "20",
                     "--dense-sizes", "20", "--inserts", "3", "--repeats", "1", cwd=tmp_path)
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["store", "d", "N"]
    assert [line.split()[:3] for line in lines[1:]] == [
        ["lattice", "2", "20"], ["lattice", "16", "20"],
        ["random", "2", "20"], ["random", "16", "20"], ["dense", "2", "20"],
        ["wide", "2", "20"]]


def test_time_votes(tmp_path):
    out = run_script("time_votes.py", "--votes", "100", "70000", "--repeats", "1",
                     cwd=tmp_path)
    lines = out.splitlines()
    assert lines[0].split() == ["classifier", "noise", "votes", "Msamples/s"]
    rows = [line.split()[:3] for line in lines[1:]]
    kinds = ["constant", "affine_softmax", "hard_halfspace", "probit_halfspace",
             "nested_ball", "mlp"]
    assert rows == [[k, noise, n] for k in kinds for noise in ("gaussian", "uniform")
                    for n in ("100", "70000")]
    assert all(float(line.split()[3]) > 0 for line in lines[1:])
