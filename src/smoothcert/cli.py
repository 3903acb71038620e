"""Command-line interface.

Subcommands: ``certify`` runs a certification campaign over a dataset CSV,
``optimize-sigma`` replays one row of a finished campaign from its metrics JSON
(the scale-ascent trace, then the certification before the memory step),
``train-demo`` trains the built-in perceptron on synthetic data and compares
data-dependent against fixed-scale certification, and ``report`` recomputes
metrics from an existing results CSV. Exit codes: 0 success, 1 runtime
error, 2 usage error. The environment variable CERTSMOOTH_SEED supplies the
default seed when --seed is not given; every seed lies in [0, 2**64).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from dataclasses import asdict

from .pipeline import (DEFAULT_RADII, MODE_DS, MODE_DS_L1, MODE_FIXED,
                       CampaignConfig, checked_radii_grid, metrics_from_records,
                       read_report_csv, replay_row, run_campaign, run_training_demo)
from .sigma_opt import RETURN_BEST_ITERATE, RETURN_FAITHFUL, SigmaOptConfig
from .smoothing import GaussianCertConfig

__all__ = ["build_parser", "cli_main", "main"]


def _seed(args, count: int = 1) -> int:
    """--seed, else the CERTSMOOTH_SEED environment variable, else 0; it and the
    last of ``count`` seeds from it must lie in [0, 2**64)."""
    env = os.environ.get("CERTSMOOTH_SEED", "0")
    try:
        first = args.seed if args.seed is not None else int(env)
    except ValueError:
        raise ValueError(f"CERTSMOOTH_SEED must be an integer seed in [0, 2**64), got {env!r}")
    for seed in (first, first + count - 1):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return first


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothcert",
        description="Certification of smoothed classifiers with per-input "
                    "noise scales and a sound region memory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="run a certification campaign")
    p_cert.add_argument("--mode", choices=[MODE_FIXED, MODE_DS, MODE_DS_L1], required=True)
    p_cert.add_argument("--dataset", required=True, help="dataset CSV path")
    p_cert.add_argument("--classifier", required=True, help="classifier JSON path")
    p_cert.add_argument("--out", required=True, help="results CSV path")
    p_cert.add_argument("--metrics-out", default=None,
                        help="metrics JSON path (default: <out>.metrics.json)")
    p_cert.add_argument("--memory-in", default=None, help="preload memory JSONL")
    p_cert.add_argument("--memory-out", default=None, help="write memory JSONL")
    p_cert.add_argument("--radii", default=None,
                        help="comma-separated certified-accuracy grid (starts at 0)")
    p_cert.add_argument("--sigma0", type=float, required=True,
                        help="fixed noise scale, or the starting scale in ds modes")
    p_cert.add_argument("--n0", type=int, help="selection samples")
    p_cert.add_argument("--n-cert", type=int, help="estimation samples")
    p_cert.add_argument("--alpha-fail", type=float, help="certification failure probability")
    p_cert.add_argument("--seed", type=int, default=None,
                        help="base seed (default: CERTSMOOTH_SEED or 0)")
    p_cert.add_argument("--alpha-step", dest="step_alpha", metavar="ALPHA_STEP", type=float,
                        help="ascent step size")
    p_cert.add_argument("--iters", dest="iters_k", metavar="ITERS", type=int,
                        help="ascent iterations")
    p_cert.add_argument("--n", dest="n_samples", metavar="N", type=int,
                        help="noise samples per objective value")
    p_cert.add_argument("--sigma-min", type=float)
    p_cert.add_argument("--sigma-max", type=float)
    p_cert.add_argument("--return-mode", choices=[RETURN_FAITHFUL, RETURN_BEST_ITERATE])

    p_opt = sub.add_parser("optimize-sigma", help="replay one row of a finished campaign")
    p_opt.add_argument("--metrics", required=True, help="the campaign's metrics JSON")
    p_opt.add_argument("--row", type=int, required=True, help="row index in its dataset")

    p_demo = sub.add_parser("train-demo",
                            help="train on synthetic annuli and compare "
                                 "data-dependent vs fixed-scale certification")
    p_demo.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p_demo.add_argument("--seed", type=int, default=None, help="first seed")
    p_demo.add_argument("--epochs", type=int, help="epochs per phase (warmup and adaptive)")
    p_demo.add_argument("--n-train", type=int)
    p_demo.add_argument("--n-test", type=int)
    p_demo.add_argument("--n-cert", type=int)
    p_demo.add_argument("--out-json", default=None)

    p_rep = sub.add_parser("report", help="recompute metrics from a results CSV")
    p_rep.add_argument("--in", dest="in_path", required=True)
    p_rep.add_argument("--radii", default=None)
    return parser


def _parse_radii(text: str | None) -> tuple[float, ...]:
    """Comma-separated floats; an entry that does not parse is named by the flag."""
    try:
        return DEFAULT_RADII if text is None else tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--radii: {exc}") from None


def _given(fn, args, **values):
    """``fn(**values)`` plus each flag whose dest names a parameter of ``fn``; a flag
    left out (None) keeps the parameter's default, so no flag restates one."""
    given = {name: v for name in inspect.signature(fn).parameters
             if (v := getattr(args, name, None)) is not None}
    return fn(**given | values)


def _check_outputs(outputs, inputs=()) -> None:
    """Each output (flag, path) given must name a file in an existing directory and
    no file an earlier flag names, save --memory-out naming the --memory-in file."""
    flags: dict[str, str] = {}  # real path -> the first flag naming it
    for flag, path in (*inputs, *outputs):
        first = flags.setdefault(real := os.path.realpath(path), flag) if path else flag
        if path and (flag, path) in outputs:
            if first != flag and (first, flag) != ("--memory-in", "--memory-out"):
                raise ValueError(f"{first} and {flag} name the same file: {path}")
            if (is_dir := os.path.isdir(real)) or not os.path.isdir(os.path.dirname(real)):
                raise ValueError(f"{flag}: {path} is a directory" if is_dir
                                 else f"{flag}: the directory of {path} does not exist")


def _cmd_certify(args) -> int:
    # Looked up at call time, so a hook set on a module attribute sees the call.
    from .classifiers import load_classifier
    from .memory import load_memory
    from .pipeline import emit_report, load_dataset

    metrics_out = args.metrics_out or args.out + ".metrics.json"
    _check_outputs((("--out", args.out), ("--metrics-out", metrics_out),
                    ("--memory-out", args.memory_out)),
                   (("--dataset", args.dataset), ("--classifier", args.classifier),
                    ("--memory-in", args.memory_in)))
    if args.mode == MODE_FIXED and (args.memory_in or args.memory_out):
        raise ValueError("--memory-in and --memory-out need --mode ds or ds_l1")
    cfg = _given(CampaignConfig, args, cert=_given(GaussianCertConfig, args, seed=_seed(args)),
                 opt=_given(SigmaOptConfig, args), radii_grid=_parse_radii(args.radii))
    dataset = load_dataset(args.dataset)
    classifier = load_classifier(args.classifier)
    memory = load_memory(args.memory_in) if args.memory_in else None
    records, memory, metrics = run_campaign(cfg, dataset, classifier, memory)
    config = asdict(cfg) | {"dataset": os.path.abspath(args.dataset),
                            "classifier": os.path.abspath(args.classifier)}
    emit_report(records, metrics, args.out, metrics_out, config_echo=config,
                memory=memory, memory_path=args.memory_out)
    print(f"certified {metrics.n_inputs} inputs: ACR={metrics.acr:.6f} "
          f"abstain_rate={metrics.abstain_rate:.4f} "
          f"overlap_events={metrics.overlap_events}")
    return 0


def _cmd_optimize_sigma(args) -> int:
    from .classifiers import load_classifier  # looked up at call time, as in certify
    from .pipeline import load_dataset

    with open(args.metrics, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        config = payload["config"]
        cfg = CampaignConfig(config["mode"], config["sigma0"], GaussianCertConfig(**config["cert"]),
                             SigmaOptConfig(**config["opt"]), config["radii_grid"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"--metrics: {args.metrics} holds no campaign config ({exc!r})") from None
    for key in ("dataset", "classifier"):  # a path, not a descriptor number or a bool
        if not isinstance(config.get(key), str) or not os.path.isfile(config[key]):
            raise ValueError(f"--metrics: the campaign's {key} {config.get(key)} is not a file")
    scale, trace, out = replay_row(cfg, load_dataset(config["dataset"]),
                                   load_classifier(config["classifier"]), args.row)
    if trace is not None:
        print("iter,sigma,proxy_radius,top_class")
        for e in trace:
            print(f"{e.iteration},{e.sigma!r},{e.proxy_radius!r},{e.top_class}")
        print(f"sigma_star={scale!r} class_flips={trace.class_flips()}")
    prediction = "ABSTAIN" if out.abstained else out.prediction
    print(f"prediction={prediction} p_lower={out.p_lower!r} radius={out.radius!r}")
    return 0


def _cmd_train_demo(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"need --seeds >= 1, got {args.seeds}")
    first = _seed(args, args.seeds)
    _check_outputs([("--out-json", args.out_json)])
    results = []
    for s in range(first, first + args.seeds):
        res = _given(run_training_demo, args, seed=s)
        win = res["acr_ds"] > res["acr_fixed"]
        print(f"seed={s} acr_fixed={res['acr_fixed']:.6f} "
              f"acr_ds={res['acr_ds']:.6f} ds_wins={win}")
        results.append({k: res[k] for k in ("seed", "acr_fixed", "acr_ds")} | {"ds_wins": win})
    wins = sum(r["ds_wins"] for r in results)
    print(f"data-dependent certification won on {wins}/{args.seeds} seeds")
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            json.dump({"runs": results, "wins": wins}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _cmd_report(args) -> int:
    radii = checked_radii_grid(_parse_radii(args.radii))
    metrics = metrics_from_records(read_report_csv(args.in_path), radii)
    payload = asdict(metrics)
    del payload["overlap_events"]  # the results CSV does not carry the count
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


_HANDLERS = {
    "certify": _cmd_certify,
    "optimize-sigma": _cmd_optimize_sigma,
    "train-demo": _cmd_train_demo,
    "report": _cmd_report,
}
_parser = functools.cache(build_parser)  # built by the first cli_main call, not at import


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
