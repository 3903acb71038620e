"""Span tracing of smoothcert's layers, hooked in from outside the package.

The tracer replaces the names that callers look up at call time (module
attributes and class methods) with wrappers that record one span per call:
name, start, end, parent span and run id. Spans stay in memory and are
written once, when the run ends. A layer's self time is its span time minus
the time of the spans nested directly inside it.

A hook whose target no longer exists is reported as absent rather than
failing, so the package can fold or rename functions without breaking the
benchmark; the absent layer then reads zero.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "pipeline", "memory", "sigma_opt", "smoothing", "stats",
          "classifiers")

# (span name, owner, attribute). The owner is a module, or "module:Class"
# for a method. The layer is the span name up to the first dot. Functions
# that pipeline imports by name are hooked in pipeline's namespace, since
# that is where the caller looks them up.
HOOKS = [
    ("cli.main", "smoothcert.cli", "cli_main"),
    ("cli.load_classifier", "smoothcert.classifiers", "load_classifier"),
    ("pipeline.campaign", "smoothcert.cli", "run_campaign"),
    ("pipeline.campaign", "smoothcert.pipeline", "run_campaign"),
    ("pipeline.training_demo", "smoothcert.cli", "run_training_demo"),
    ("pipeline.load_dataset", "smoothcert.pipeline", "load_dataset"),
    ("pipeline.report", "smoothcert.pipeline", "emit_report"),
    ("pipeline.train_batch", "smoothcert.pipeline", "train_batch"),
    ("pipeline.trainer_step", "smoothcert.pipeline:GaussianAugmentationTrainer",
     "__call__"),
    ("memory.load", "smoothcert.memory", "load_memory"),
    ("memory.insert", "smoothcert.pipeline", "memory_insert"),
    ("memory.save", "smoothcert.pipeline", "save_memory"),
    ("sigma_opt.optimize", "smoothcert.pipeline", "optimize_sigma"),
    ("sigma_opt.proxy", "smoothcert.sigma_opt", "proxy_radius"),
    ("sigma_opt.proxy", "smoothcert.sigma_opt", "proxy_radius_l1"),
    ("smoothing.certify", "smoothcert.pipeline", "certify_l2"),
    ("smoothing.certify", "smoothcert.pipeline", "certify_l1"),
    ("smoothing.vote", "smoothcert.smoothing", "vote_counts"),
    ("stats.lower_bound", "smoothcert.smoothing", "binom_lower_confidence"),
    ("classifiers.probs", "smoothcert.classifiers:ClassifierHandle", "probs"),
    ("classifiers.grads", "smoothcert.classifiers:ClassifierHandle", "input_grads"),
]


def _count_vote(counts, args, kwargs, result):
    n = kwargs["n"] if "n" in kwargs else args[3]
    counts["vote.samples"] += int(n)


def _count_certify(counts, args, kwargs, result):
    if result.abstained:
        counts["certify.abstain_samples"] += result.samples_used


def _count_probs(counts, args, kwargs, result):
    counts["probs.points"] += len(result)


def _count_campaign(counts, args, kwargs, result):
    store = result[1]
    counts["memory.comparisons"] += store.comparisons
    counts["memory.overlap_events"] += store.overlap_events


# Counts read at the same boundaries as the spans.
COUNTERS = {
    "smoothing.vote": _count_vote,
    "smoothing.certify": _count_certify,
    "classifiers.probs": _count_probs,
    "pipeline.campaign": _count_campaign,
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span store plus the hooks that feed it."""

    def __init__(self):
        self.span_names = sorted({name for name, _, _ in HOOKS})
        self._ids = {name: i for i, name in enumerate(self.span_names)}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = dict.fromkeys(self.span_names, 0)
        self.counts = dict.fromkeys(
            ["vote.samples", "certify.abstain_samples", "probs.points",
             "memory.comparisons", "memory.overlap_events"], 0)
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str):
        sid = self._ids[span]
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(sid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.run.append(self.run_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[span] += 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self._mark_absent(f"{span} (counter)")
            return result

        return traced

    def _mark_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def install(self) -> None:
        for span, owner, attr in HOOKS:
            try:
                target = _resolve(owner)
                fn = getattr(target, attr)
            except (ImportError, AttributeError):
                self._mark_absent(f"{owner}.{attr}")
                continue
            self._saved.append((target, attr, fn))
            setattr(target, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._saved):
            setattr(target, attr, fn)
        self._saved.clear()

    def save(self, path) -> None:
        np.savez_compressed(path, span_names=np.array(self.span_names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            run=np.frombuffer(self.run, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))

    def layer_metrics(self, runs: int) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) pairs; sums are per traced command call."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        k = len(self.span_names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=self_t, minlength=k)

        def sid(span):
            return self._ids[span]

        def n(span):
            return (int(calls[sid(span)]) / runs, "count")

        def own(span):
            return (float(self_s[sid(span)]) / runs, "s")

        def incl(span):
            return (float(total[sid(span)]) / runs, "s")

        def pct(span, q, scale, unit):
            d = dur[names == sid(span)]
            return (float(np.percentile(d, q)) * scale if d.size else 0.0, unit)

        def ratio(a, b, unit="ratio"):
            return (a / b if b else 0.0, unit)

        c = self.counts
        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            ids = [i for i, s in enumerate(self.span_names) if s.split(".")[0] == layer]
            m[f"{layer}.calls"] = (float(calls[ids].sum()) / runs, "count")
            m[f"{layer}.self_s"] = (float(self_s[ids].sum()) / runs, "s")
            m[f"{layer}.errors"] = (float(sum(self.errors[self.span_names[i]]
                                              for i in ids)), "count")
        m.update({
            "stats.lower_bound.calls": n("stats.lower_bound"),
            "stats.lower_bound.self_s": own("stats.lower_bound"),
            "stats.lower_bound.ms_p50": pct("stats.lower_bound", 50, 1e3, "ms"),
            "smoothing.vote.samples": (c["vote.samples"] / runs, "count"),
            "smoothing.vote.samples_per_s": ratio(
                c["vote.samples"], float(total[sid("smoothing.vote")]), "1/s"),
            "smoothing.certify.calls": n("smoothing.certify"),
            "smoothing.certify.self_s": own("smoothing.certify"),
            "smoothing.abstain_sample_share": ratio(c["certify.abstain_samples"],
                                                    c["vote.samples"]),
            "classifiers.probs.calls": n("classifiers.probs"),
            "classifiers.probs.points": (c["probs.points"] / runs, "count"),
            "classifiers.probs.points_per_call": ratio(
                c["probs.points"], int(calls[sid("classifiers.probs")]), "points/call"),
            "classifiers.probs.self_s": own("classifiers.probs"),
            "classifiers.grads.calls": n("classifiers.grads"),
            "sigma_opt.optimize.calls": n("sigma_opt.optimize"),
            "sigma_opt.optimize.self_s": own("sigma_opt.optimize"),
            "sigma_opt.optimize.ms_per_input_p50": pct("sigma_opt.optimize", 50, 1e3,
                                                       "ms"),
            "sigma_opt.proxy.calls": n("sigma_opt.proxy"),
            "sigma_opt.proxy_per_input": ratio(n("sigma_opt.proxy")[0],
                                               n("sigma_opt.optimize")[0], "calls/input"),
            "memory.load_s": incl("memory.load"),
            "memory.insert.calls": n("memory.insert"),
            "memory.insert.us_p50": pct("memory.insert", 50, 1e6, "us"),
            "memory.insert.us_p99": pct("memory.insert", 99, 1e6, "us"),
            "memory.comparisons_per_insert": ratio(
                c["memory.comparisons"], int(calls[sid("memory.insert")]),
                "count/insert"),
            "memory.save_s": incl("memory.save"),
            "memory.overlap_share": ratio(c["memory.overlap_events"],
                                          c["memory.comparisons"]),
            "pipeline.load_dataset_s": incl("pipeline.load_dataset"),
            "pipeline.campaign.self_s": own("pipeline.campaign"),
            "pipeline.report_s": incl("pipeline.report"),
        })
        return m
