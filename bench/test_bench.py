"""Structure tests for the benchmark, at smoke size.

Run from the repo root with ``python3 -m pytest bench``. They check that
every workload prints every metric BENCHMARK.json names, with its unit, and
passes its own correctness gate; they do not look at timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, write_prior_memory  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# A seed no recorded run uses, so fixtures from fresh seeds are exercised.
SEED = 424242


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace, key):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    details = json.loads(proc.stdout.splitlines()[-2])["details"]
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert details["absent_hooks"] == []
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fixed_boundary", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_prior_memory_is_disjoint_and_gate_sees_overlap(tmp_path):
    path = tmp_path / "prior.jsonl"
    write_prior_memory(path, 400, seed=3)
    regions = [json.loads(line) for line in path.read_text().splitlines()]
    centers = np.array([r["center"] for r in regions])
    radii = np.array([r["radius"] for r in regions])
    preds = np.array([r["prediction"] for r in regions])
    assert len(set(preds)) == 2
    assert gate.disjoint_violations(centers, radii, preds) == 0
    i, j = int(np.argmin(preds)), int(np.argmax(preds))
    radii[i] = np.linalg.norm(centers[i] - centers[j])
    assert gate.disjoint_violations(centers, radii, preds) >= 1


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + [
        ("sigma_opt.optimize", "smoothcert.pipeline", "no_such_function"),
        ("memory.load", "smoothcert.no_such_module", "load_memory")])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["smoothcert.pipeline.no_such_function",
                        "smoothcert.no_such_module.load_memory"]
    metrics = t.layer_metrics(runs=1)
    assert metrics["sigma_opt.optimize.calls"] == (0.0, "count")
