"""Command-line entry points.

Subcommands: generate (dataset files), run-sphere / run-arbitrary
(single self-directed runs), baseline (order-policy comparisons),
verify (the Monte-Carlo battery), and report (full experiment grids).
Every subcommand accepts --config with a JSON file of defaults;
explicit flags win over config values, and config values over the
field defaults of harness.ExperimentConfig, so a single run and a
report grid start from the same values. Exit code 0 means success, 2
means a verification or coverage failure, 1 an execution error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .arbitrary import strong_run
from .datasets import FAMILIES, load_jsonl, save_jsonl
from .geometry import RngStream
from .harness import (
    MODES, ORDERS, STREAM_LEARNER, ExperimentConfig, make_dataset, run_baseline, run_experiment,
    run_verify,
)
from .sphere import make_schedule, run_sphere


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return loaded


def _pick(flag_value: Any, config: dict, key: str, default: Any) -> Any:
    if flag_value is not None:
        return flag_value
    return config.get(key, default)


def _dataset_from_args(args, config: dict):
    if getattr(args, "data", None):
        return load_jsonl(args.data)
    n = int(_pick(args.n, config, "n", 1000))
    d = int(_pick(args.d, config, "d", 5))
    family = _pick(getattr(args, "family", None), config, "family", ExperimentConfig.family)
    raw_params = _pick(getattr(args, "params", None), config, "family_params", {})
    params = json.loads(raw_params) if isinstance(raw_params, str) else dict(raw_params)
    seed = int(_pick(args.seed, config, "seed", 0))
    return make_dataset(family, n, d, params, seed)


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cmd_generate(args) -> int:
    config = _load_config(args.config)
    ds = _dataset_from_args(args, config)
    out = _pick(args.out, config, "out", None)
    if not out:
        raise ValueError("generate needs --out")
    save_jsonl(ds, out)
    print(f"wrote {ds.n} points in dimension {ds.d} to {out}")
    return 0


def _cmd_run_sphere(args) -> int:
    config = _load_config(args.config)
    ds = _dataset_from_args(args, config)
    delta = float(_pick(args.delta, config, "delta", ExperimentConfig.delta))
    c_prime = float(_pick(args.c_prime, config, "c_prime", ExperimentConfig.c_prime))
    c_init = float(_pick(args.c_init, config, "c_init", ExperimentConfig.c_init))
    seed = int(_pick(args.seed, config, "seed", 0))
    schedule = make_schedule(ds.n, ds.d, delta, c_prime)
    res = run_sphere(ds, schedule, RngStream(seed, STREAM_LEARNER), c_init)
    summary = res.transcript.summary()
    print(f"n={ds.n} d={ds.d} T={schedule.T} k={schedule.k} "
          f"fallback={schedule.fallback} mistakes={res.mistakes}")
    payload = {"mode": "sphere", "seed": seed,
               "schedule": {"n": schedule.n, "d": schedule.d, "delta": schedule.delta,
                            "c_prime": schedule.c_prime, "T": schedule.T,
                            "k": schedule.k, "N": schedule.N, "fallback": schedule.fallback},
               "summary": summary,
               "transcript": res.transcript.to_json_dict(include_records=args.records)}
    _write_json(_pick(args.out, config, "out", None), payload)
    return 0


def _cmd_run_arbitrary(args) -> int:
    config = _load_config(args.config)
    ds = _dataset_from_args(args, config)
    eps = float(_pick(args.eps, config, "eps", ExperimentConfig.eps))
    delta = float(_pick(args.delta, config, "delta", ExperimentConfig.delta))
    c_hat = float(_pick(args.c_hat, config, "c_hat", ExperimentConfig.c_hat))
    seed = int(_pick(args.seed, config, "seed", 0))
    res = strong_run(ds, eps, delta, RngStream(seed, STREAM_LEARNER), c_hat)
    print(f"n={ds.n} d={ds.d} coverage={res.coverage:.4f} mistakes={res.mistakes} "
          f"rounds={res.rounds_used} attempts={res.attempts} partial={res.partial}")
    payload = {"mode": "arbitrary", "seed": seed, "eps": eps, "delta": delta,
               "coverage": res.coverage, "rounds_used": res.rounds_used,
               "attempts": res.attempts, "partial": res.partial,
               "summary": res.transcript.summary(),
               "transcript": res.transcript.to_json_dict(include_records=args.records)}
    _write_json(_pick(args.out, config, "out", None), payload)
    return 2 if res.partial else 0


def _cmd_baseline(args) -> int:
    config = _load_config(args.config)
    ds = _dataset_from_args(args, config)
    order = _pick(args.order, config, "order", ExperimentConfig.order)
    seed = int(_pick(args.seed, config, "seed", 0))
    transcript = run_baseline(ds, order, seed)  # also rejects an unknown order from --config
    print(f"n={ds.n} d={ds.d} order={order} mistakes={transcript.mistakes}")
    payload = {"mode": "baseline", "order": order, "seed": seed,
               "summary": transcript.summary(),
               "transcript": transcript.to_json_dict(include_records=args.records)}
    _write_json(_pick(args.out, config, "out", None), payload)
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    seed = int(_pick(args.seed, config, "seed", 0))
    results = run_verify(seed)
    all_pass = all(r["passed"] for r in results)
    width = max(len(r["name"]) for r in results)
    for r in results:
        flag = "pass" if r["passed"] else "FAIL"
        print(f"{r['name']:<{width}}  {flag}  empirical={r['empirical']:.6g} "
              f"bound={r['bound']:.6g} (+3se={3 * r['std_err']:.2g})")
    _write_json(_pick(args.out, config, "out", None),
                {"seed": seed, "all_passed": all_pass, "checks": results})
    return 0 if all_pass else 2


def _cmd_report(args) -> int:
    config = _load_config(args.config)
    if args.mode:
        config["mode"] = args.mode
    if args.seed is not None:
        config["seeds"] = [args.seed]
    if args.out:
        config["out"] = args.out
    cfg = ExperimentConfig.from_dict(config)
    report = run_experiment(cfg)
    for cell in report.cells:
        if "mean_mistakes" in cell:
            print(f"d={cell['d']} n={cell['n']}: mean mistakes {cell['mean_mistakes']:.2f} "
                  f"(median {cell['median_mistakes']:.1f}, coverage {cell['mean_coverage']:.4f}, "
                  f"{cell['trials']} trials)")
    for fit in report.fits:
        print(f"d={fit['d']} fit: ln n r2={fit['log']['r2']:.4f} "
              f"lnln n r2={fit['loglog']['r2']:.4f}")
    for check in report.oracle_results:
        flag = "pass" if check["passed"] else "FAIL"
        print(f"{check['name']}: {flag}")
    for err in report.errors:
        print(f"cell failed: {err}", file=sys.stderr)
    failed_oracle = any(not c["passed"] for c in report.oracle_results)
    return 2 if (report.errors or failed_oracle) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdlc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_data=True):
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--seed", type=int, help="root seed (default 0)")
        p.add_argument("--out", help="output file path")
        if with_data:
            p.add_argument("--data", help="dataset JSONL file (overrides --n/--d/--family)")
            p.add_argument("--n", type=int, help="number of points to generate")
            p.add_argument("--d", type=int, help="ambient dimension")
            p.add_argument("--family", choices=FAMILIES, help="generated dataset family")
            p.add_argument("--params", help="JSON object of family parameters")

    p = sub.add_parser("generate", help="write a dataset JSONL file")
    add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run-sphere", help="self-directed run on a (near-)uniform dataset")
    add_common(p)
    p.add_argument("--delta", type=float, help="failure budget")
    p.add_argument("--c-prime", dest="c_prime", type=float, help="schedule constant")
    p.add_argument("--c-init", dest="c_init", type=float, help="initialization budget constant")
    p.add_argument("--records", action="store_true", help="include per-prediction records in --out")
    p.set_defaults(func=_cmd_run_sphere)

    p = sub.add_parser("run-arbitrary", help="boosted self-directed run on any dataset")
    add_common(p)
    p.add_argument("--eps", type=float, help="tolerated unlabeled fraction")
    p.add_argument("--delta", type=float, help="failure budget")
    p.add_argument("--c-hat", dest="c_hat", type=float, help="weak-run success-rate constant")
    p.add_argument("--records", action="store_true", help="include per-prediction records in --out")
    p.set_defaults(func=_cmd_run_arbitrary)

    p = sub.add_parser("baseline", help="random-order or greedy-order perceptron run")
    add_common(p)
    p.add_argument("--order", choices=ORDERS, help="order policy")
    p.add_argument("--records", action="store_true", help="include per-prediction records in --out")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("verify", help="run the Monte-Carlo verification battery")
    add_common(p, with_data=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="run an experiment grid from a config file")
    add_common(p, with_data=False)
    p.add_argument("--mode", choices=MODES, help="override the config's mode")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
