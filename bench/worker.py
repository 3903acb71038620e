"""Run one workload's command calls in a fresh process and time them.

Usage: python3 worker.py PLAN_JSON RESULT_JSON

The plan lists the items (argv and output files), the run length and
whether to trace. Each call goes through ``smoothcert.cli.cli_main`` in this
process. Untraced runs cycle over the items until the run length is spent,
after every item has run once and one has repeated. After each call they
time the set-up of one fresh interpreter, so the set-up samples are spread
over the whole run. Traced runs make blocks of an untraced, a traced and
another untraced call, one block per item and at least OVERHEAD_BLOCKS;
each block gives one sample of the tracing overhead.
Every call records the digest of its output files, so the gate can require
repeats to be byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

import smoothcert.cli as cli
from tracer import Tracer

# No new call starts after this many seconds, so a run on a slow machine
# still ends well inside its time limit.
HARD_STOP_S = 100.0
OVERHEAD_BLOCKS = 4
# A fresh interpreter times its own import of the CLI module: the set-up a
# user waits for before the first cli_main call, without process spawn jitter.
PROBE = ("import time; t0 = time.perf_counter(); import smoothcert.cli; "
         "print(time.perf_counter() - t0)")


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ru_maxrss is not used: Linux carries it over from the forking parent
    through exec, so it would report the peak of run.py.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def _call(item: dict, index: int, traced: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        rc = cli.cli_main(item["argv"])
        wall = perf_counter() - t0
    return {"item": index, "rc": rc, "wall_s": wall, "traced": traced,
            "digest": _digest(item["outputs"])}


def _setup_probe() -> float:
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def run_untraced(items: list[dict], seconds: float) -> tuple[list[dict], list[float]]:
    """Calls and set-up samples, alternating, until ``seconds`` are spent."""
    calls: list[dict] = []
    setup: list[float] = []
    begin = perf_counter()
    while True:
        elapsed = perf_counter() - begin
        if len(calls) > len(items):
            typical = statistics.median(c["wall_s"] for c in calls)
            if elapsed + typical > seconds:
                break
        if len(calls) >= len(items) and elapsed > HARD_STOP_S:
            break
        j = len(calls) % len(items)
        calls.append(_call(items[j], j, traced=False))
        setup.append(_setup_probe())
    return calls, setup


def run_traced(items: list[dict], spans_path: str) -> tuple[list[dict], dict, list]:
    """One untraced, traced, untraced block per item, and at least OVERHEAD_BLOCKS."""
    tracer = Tracer()
    calls: list[dict] = []
    overhead = []
    blocks = max(len(items), OVERHEAD_BLOCKS)
    for b in range(blocks):
        j = b % len(items)
        before = _call(items[j], j, traced=False)
        tracer.run_id = b
        tracer.install()
        try:
            traced = _call(items[j], j, traced=True)
        finally:
            tracer.uninstall()
        after = _call(items[j], j, traced=False)
        calls += [before, traced, after]
        # A linear drift in machine speed cancels out of this ratio.
        untraced_s = (before["wall_s"] + after["wall_s"]) / 2.0
        overhead.append(traced["wall_s"] / untraced_s - 1.0)
    tracer.save(spans_path)
    layers = tracer.layer_metrics(blocks)
    layers["trace.overhead_share"] = (statistics.median(overhead), "ratio")
    return calls, layers, tracer.absent


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    result = {"versions": {"python": platform.python_version(),
                           "numpy": np.__version__, "scipy": scipy.__version__}}
    if plan["trace"]:
        calls, layers, absent = run_traced(plan["items"], plan["spans"])
        result.update(layers=layers, absent=absent)
    else:
        calls, result["setup_s"] = run_untraced(plan["items"], plan["seconds"])
    result["calls"] = calls
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
