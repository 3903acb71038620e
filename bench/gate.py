"""Correctness gate: checks each item's outputs independently of the package.

Certify items must have one finite row per input and a metrics JSON whose
ACR matches the rows. A written memory must reload through ``load_memory``
and pass a numpy pairwise check that differently-predicted balls are
disjoint. Probit rows the memory did not adjust are audited against the
closed-form smoothed probability: a radius above sigma* * Phi^-1(p_A) is a
failed certificate, and more of those than Bin(rows, alpha_fail) allows at
1e-6 fails the item.

Certification counts hard votes, argmax of the soft output, and the argmax
of the probit half-space Phi((w.x - b) / s) is the hard half-space w.x > b.
So the true p_A is the hard half-space's smoothed probability
Phi((w.x - b) / sigma), not the probit's smoothed soft output
Phi((w.x - b) / sqrt(s^2 + sigma^2)), which lies closer to 1/2 and would
flag sound certificates.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import stats

from smoothcert.classifiers import halfspace_smoothed_prob
from smoothcert.memory import load_memory

from workloads import ALPHA_FAIL, BLOCK, PROBIT_B, PROBIT_W, Item

ABSTAIN = "ABSTAIN"
TOL = 1e-9
AUDIT_LEVEL = 1e-6


def _fail(problems: list[str], item: Item, msg: str) -> None:
    problems.append(f"{item.argv[0]} item {item.results or item.demo_json}: {msg}")


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def disjoint_violations(centers: np.ndarray, radii: np.ndarray, preds: np.ndarray) -> int:
    """Pairs of differently-predicted L2 balls with |c_i - c_j| < r_i + r_j."""
    bad = 0
    for lo in range(0, len(centers), BLOCK):
        hi = lo + BLOCK
        dist = np.linalg.norm(centers[lo:hi, None, :] - centers[None, :, :], axis=2)
        reach = radii[lo:hi, None] + radii[None, :]
        cross = preds[lo:hi, None] != preds[None, :]
        bad += int(np.count_nonzero(cross & (dist < reach - TOL)))
    return bad // 2


def _check_memory(item: Item, inserted: int, problems: list[str]) -> None:
    try:
        store = load_memory(item.memory_out)
    except (OSError, ValueError) as exc:
        _fail(problems, item, f"memory does not reload: {exc}")
        return
    if len(store) != item.prior_regions + inserted:
        _fail(problems, item, f"memory holds {len(store)} regions, expected "
                              f"{item.prior_regions + inserted}")
    with open(item.memory_out, encoding="utf-8") as fh:
        regions = [json.loads(line) for line in fh if line.strip()]
    centers = np.array([r["center"] for r in regions], dtype=float)
    radii = np.array([r["radius"] for r in regions], dtype=float)
    preds = np.array([r["prediction"] for r in regions])
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(radii))):
        _fail(problems, item, "memory holds non-finite regions")
    elif (bad := disjoint_violations(centers, radii, preds)):
        _fail(problems, item, f"{bad} differently-predicted region pairs overlap")


def _audit(item: Item, points: np.ndarray, rows: list[dict], problems: list[str]) -> int:
    """Count unadjusted certificates whose radius exceeds the true radius."""
    audited = violations = 0
    for x, row in zip(points, rows):
        if row["prediction"] == ABSTAIN or row["adjusted_by_memory"] != "0":
            continue
        audited += 1
        sigma = float(row["sigma_star"])
        p1 = halfspace_smoothed_prob(list(PROBIT_W), PROBIT_B, x, sigma)
        p_a = p1 if row["prediction"] == "1" else 1.0 - p1
        true_r = sigma * stats.norm.ppf(p_a) if p_a > 0.5 else 0.0
        if float(row["radius"]) > true_r + TOL:
            violations += 1
    if audited:
        allowed = stats.binom.ppf(1.0 - AUDIT_LEVEL, audited, ALPHA_FAIL)
        if violations > allowed:
            _fail(problems, item, f"{violations} of {audited} certificates exceed the "
                                  f"true radius (at most {allowed:.0f} allowed)")
    return violations


def check_certify(item: Item) -> tuple[list[str], float | None, int]:
    """Validate a certify item's outputs; returns (problems, ACR, audit failures)."""
    problems: list[str] = []
    data = np.loadtxt(item.dataset, delimiter=",", ndmin=2)
    points, labels = data[:, :-1], data[:, -1].astype(int)
    try:
        with open(item.results, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(item.metrics, encoding="utf-8") as fh:
            summary = json.load(fh)["metrics"]
    except (OSError, ValueError, KeyError) as exc:
        _fail(problems, item, f"unreadable output: {exc}")
        return problems, None, 0
    if len(rows) != item.rows:
        _fail(problems, item, f"{len(rows)} result rows for {item.rows} inputs")
        return problems, None, 0
    try:
        radius = [float(r["radius"]) for r in rows]
        floats = radius + [float(r["sigma_star"]) for r in rows] + \
            [float(r["p_lower"]) for r in rows]
        ok = [int(r["idx"]) == i and int(r["label"]) == labels[i]
              and int(r["correct"]) == int(r["prediction"] == str(labels[i]))
              and radius[i] >= 0.0
              and (r["prediction"] != ABSTAIN or radius[i] == 0.0)
              for i, r in enumerate(rows)]
    except (KeyError, ValueError) as exc:
        _fail(problems, item, f"malformed result row: {exc}")
        return problems, None, 0
    if not _finite(floats):
        _fail(problems, item, "non-finite value in the results")
    if not all(ok):
        _fail(problems, item, f"{ok.count(False)} inconsistent result rows")
    acr = sum(r for r, row in zip(radius, rows) if row["correct"] == "1") / len(rows)
    reported = float(summary.get("acr", math.nan))
    if summary.get("n_inputs") != item.rows or not abs(reported - acr) <= TOL:
        _fail(problems, item, f"metrics JSON (acr={reported}) disagrees with the rows "
                              f"(acr={acr})")
        reported = None
    if item.memory_out:
        inserted = sum(1 for r in rows if r["prediction"] != ABSTAIN)
        _check_memory(item, inserted, problems)
    violations = _audit(item, points, rows, problems)
    return problems, reported, violations


def check_demo(item: Item) -> tuple[list[str], float | None, int]:
    """Validate a train-demo item; returns (problems, acr_ds, 0)."""
    problems: list[str] = []
    try:
        with open(item.demo_json, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
        acr_ds, acr_fixed = float(runs[0]["acr_ds"]), float(runs[0]["acr_fixed"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        _fail(problems, item, f"unreadable output: {exc}")
        return problems, None, 0
    if len(runs) != 1 or not _finite([acr_ds, acr_fixed]) or min(acr_ds, acr_fixed) < 0:
        _fail(problems, item, f"bad demo result {runs}")
        return problems, None, 0
    return problems, acr_ds, 0


def check(item: Item) -> tuple[list[str], float | None, int]:
    return check_demo(item) if item.demo_json else check_certify(item)
