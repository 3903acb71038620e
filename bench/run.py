#!/usr/bin/env python3
"""smoothcert benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Writes the workload's inputs from the seed under .bench_work/, then drives
the real CLI in one worker process, which also times the set-up of fresh
interpreters between calls, and checks every output. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1. The
line before it holds the details: versions, nproc, commit, per-call times
and any gate findings. --smoke shrinks every workload to a few rows, for
checking the output structure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 150

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "acr": "l2", "peak_rss_mb": "MB"}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "smoothcert").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout; None outside a git tree or without git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_worker(plan: dict, work: Path) -> dict:
    plan_path, result_path = work / "plan.json", work / "worker_result.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path),
                    str(result_path)], check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; checks structure, not timings")
    args = ap.parse_args(argv)
    if not (SRC / "smoothcert" / "cli.py").is_file():
        print(f"error: no smoothcert sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    # Pin native thread pools before numpy is first imported, here and in
    # every child process.
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path[:0] = [str(SRC)]
    import gate
    from workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    items = WORKLOADS[args.workload](work, args.seed, SMOKE if args.smoke else FULL)

    plan = {"items": [{"argv": it.argv, "outputs": it.outputs} for it in items],
            "seconds": args.seconds, "trace": bool(args.trace),
            "spans": str(work / "spans.npz")}
    res = run_worker(plan, work)

    calls = res["calls"]
    setup = res.get("setup_s", [])
    problems: list[str] = []
    acrs, audit_failures = [], 0
    first_digest: dict[int, str] = {}
    item_ok = []
    for item in items:
        found, acr, violations = gate.check(item)
        problems += found
        acrs.append(acr)
        audit_failures += violations
        item_ok.append(not found)
    failed = 0
    for call in calls:
        j = call["item"]
        expected = first_digest.setdefault(j, call["digest"])
        bad = call["rc"] != 0 or call["digest"] != expected or not item_ok[j]
        if call["rc"] != 0:
            problems.append(f"item {j}: command exited {call['rc']}")
        elif call["digest"] != expected:
            problems.append(f"item {j}: a repeat produced different outputs")
        call["ok"] = not bad
        failed += items[j].rows if bad else 0
    attempted = sum(items[c["item"]].rows for c in calls)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        # Work done over time spent in calls, not a median of per-call rates:
        # the machine changes speed in phases of tens of seconds, and the
        # ratio of sums averages over phases where a median picks one.
        done = [c for c in calls if c["ok"]]
        busy = sum(c["wall_s"] for c in done)
        known = [a for a in acrs if a is not None]
        values = {"setup_s": statistics.median(setup),
                  "ops_per_s": sum(items[c["item"]].rows for c in done) / busy
                  if busy else 0.0,
                  "acr": statistics.fmean(known) if known else 0.0,
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "nproc": NPROC, "versions": res["versions"],
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "items": [asdict(it) | {"argv": " ".join(it.argv)} for it in items],
        "calls": [{k: c[k] for k in ("item", "rc", "wall_s", "traced", "ok")}
                  for c in calls],
        "setup_s_samples": setup, "item_acr": acrs,
        "audit_failed_certificates": audit_failures,
        "absent_hooks": res.get("absent", []), "problems": problems,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
