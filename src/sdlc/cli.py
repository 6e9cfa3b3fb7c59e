"""Command-line entry points.

Subcommands: generate (dataset files), run-sphere / run-arbitrary
(single self-directed runs), baseline (order-policy comparisons),
verify (the Monte-Carlo battery), and report (full experiment grids).

Every subcommand takes its settings from one merge: a flag if given,
else the value in the --config JSON file, else the field default of
harness.ExperimentConfig or, for the single-run keys n, d and seed,
harness.RUN_KEYS. So a single run and a report grid start from the
same values. A config file may hold any ExperimentConfig field and n, d
and seed; each subcommand reads its own (see the README), and every
value is checked. An unknown key, a mistyped value, or one that fails
an ExperimentConfig range check exits 1 before any dataset is drawn.
The three run subcommands go through harness.run_single, as every cell
of a report does.

Exit code 0 means success, 2 a verification or coverage failure or a
failed report cell, 1 an execution error or bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .datasets import FAMILIES, load_jsonl, save_jsonl
from .harness import (
    MODES, ORDERS, RUN_KEYS, ExperimentConfig, make_dataset, run_experiment, run_single, run_verify,
)

# Records that _write_json formats at a time.
_RECORD_BLOCK = 1 << 12
# Stands in for the records in the encoded payload until they are written.
_RECORDS_MARK = "\u0000records\u0000"
_INF = float("inf")
# Settings a flag can set: the ExperimentConfig fields and the single-run keys.
_SETTINGS = {f.name for f in dataclasses.fields(ExperimentConfig)} | set(RUN_KEYS)
# The stdout line of each run mode, filled from its payload fields.
_RUN_LINES = {
    "sphere": "n={n} d={d} T={schedule[T]} k={schedule[k]} fallback={schedule[fallback]} "
              "mistakes={mistakes}",
    "arbitrary": "n={n} d={d} coverage={coverage:.4f} mistakes={mistakes} rounds={rounds_used} "
                 "attempts={attempts} partial={partial}",
    "baseline": "n={n} d={d} order={order} mistakes={mistakes}",
}


def _settings(args) -> tuple[ExperimentConfig, dict]:
    """The subcommand's ExperimentConfig and single-run keys: flags, then --config, then defaults."""
    merged = {}
    if args.config:
        with open(args.config) as fh:
            merged = json.load(fh)
        if not isinstance(merged, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    flags = {k: v for k, v in vars(args).items() if k in _SETTINGS and v is not None}
    if "family_params" in flags:
        flags["family_params"] = json.loads(flags["family_params"])
    return ExperimentConfig.split({**merged, **flags})


def _dataset(args, cfg: ExperimentConfig, run: dict):
    if args.data:
        return load_jsonl(args.data)
    return make_dataset(cfg.family, run["n"], run["d"], cfg.family_params, run["seed"])


def _write_json(path: str | None, payload: dict, records=None) -> None:
    """Write payload as json.dump(payload, fh, indent=2, sort_keys=True) does, and a newline.

    With `records`, a Transcript, payload["transcript"]["records"] is its
    records: the text json.dump writes for one {"index", "margin", "phase",
    "prediction", "truth"} object per prediction, formatted from the
    transcript's columns _RECORD_BLOCK rows at a time instead.
    """
    if not path:
        return
    if records is not None:
        payload = {**payload, "transcript": {**payload["transcript"], "records": _RECORDS_MARK}}
    head, mark, tail = json.dumps(payload, indent=2, sort_keys=True).partition(json.dumps(_RECORDS_MARK))
    with open(path, "w") as fh:
        fh.write(head)
        if mark:
            line = head[head.rfind("\n") + 1:]
            _write_records(fh, records, " " * (len(line) - len(line.lstrip(" "))))
        fh.write(tail + "\n")


def _write_records(fh, transcript, outer: str) -> None:
    """The records list as json.dump writes it when its closing bracket is at indent `outer`."""
    item, key = outer + "  ", outer + "    "
    sep = ""
    fh.write("[")
    for idx, preds, truths, margins, phase in transcript.columns():
        phase_text = json.dumps(phase).replace("{", "{{").replace("}", "}}")
        fields = (("index", "{}"), ("margin", "{}"), ("phase", phase_text),
                  ("prediction", "{}"), ("truth", "{}"))
        template = ("\n" + item + "{{\n" + ",\n".join(f'{key}"{name}": {value}' for name, value in fields)
                    + "\n" + item + "}}")
        for start in range(0, idx.size, _RECORD_BLOCK):
            block = slice(start, start + _RECORD_BLOCK)
            m = margins[block]
            # str(float) is float.__repr__, as json writes a finite float;
            # a block with NaN or an infinity takes json's own spelling.
            finite = -_INF < m.min() and m.max() < _INF
            margin_text = m.tolist() if finite else map(json.dumps, m.tolist())
            fh.write(sep + ",".join(map(template.format, idx[block].tolist(), margin_text,
                                        preds[block].tolist(), truths[block].tolist())))
            sep = ","
    fh.write(f"\n{outer}]" if sep else "]")


def _cmd_generate(args) -> int:
    cfg, run = _settings(args)
    if not cfg.out:
        raise ValueError("generate needs --out")
    ds = _dataset(args, cfg, run)
    save_jsonl(ds, cfg.out)
    print(f"wrote {ds.n} points in dimension {ds.d} to {cfg.out}")
    return 0


def _cmd_run(args) -> int:
    """run-sphere, run-arbitrary and baseline: one harness.run_single call in the subcommand's mode."""
    cfg, run = _settings(args)
    ds = _dataset(args, cfg, run)
    transcript, fields = run_single(cfg, ds, run["seed"])
    print(_RUN_LINES[cfg.mode].format(n=ds.n, d=ds.d, mistakes=transcript.mistakes, **fields))
    payload = {"mode": cfg.mode, "seed": run["seed"], **fields,
               "summary": transcript.summary(), "transcript": transcript.to_json_dict()}
    _write_json(cfg.out, payload, transcript if args.records else None)
    return 2 if fields.get("partial") else 0


def _cmd_verify(args) -> int:
    cfg, run = _settings(args)
    results = run_verify(run["seed"])
    all_pass = all(r["passed"] for r in results)
    width = max(len(r["name"]) for r in results)
    for r in results:
        flag = "pass" if r["passed"] else "FAIL"
        print(f"{r['name']:<{width}}  {flag}  empirical={r['empirical']:.6g} "
              f"bound={r['bound']:.6g} (+3se={3 * r['std_err']:.2g})")
    _write_json(cfg.out, {"seed": run["seed"], "all_passed": all_pass, "checks": results})
    return 0 if all_pass else 2


def _cmd_report(args) -> int:
    if args.seed is not None:  # --seed runs the grid on that one seed
        args.seeds, args.seed = [args.seed], None
    cfg, _ = _settings(args)
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
            p.add_argument("--params", dest="family_params", help="JSON object of family parameters")

    p = sub.add_parser("generate", help="write a dataset JSONL file")
    add_common(p)
    # generate writes the dataset a run-sphere call with the same settings draws.
    p.set_defaults(func=_cmd_generate, mode="sphere")

    p = sub.add_parser("run-sphere", help="self-directed run on a (near-)uniform dataset")
    add_common(p)
    p.add_argument("--delta", type=float, help="failure budget")
    p.add_argument("--c-prime", dest="c_prime", type=float, help="schedule constant")
    p.add_argument("--c-init", dest="c_init", type=float, help="initialization budget constant")
    p.add_argument("--records", action="store_true", help="include per-prediction records in --out")
    p.set_defaults(func=_cmd_run, mode="sphere")

    p = sub.add_parser("run-arbitrary", help="boosted self-directed run on any dataset")
    add_common(p)
    p.add_argument("--eps", type=float, help="tolerated unlabeled fraction")
    p.add_argument("--delta", type=float, help="failure budget")
    p.add_argument("--c-hat", dest="c_hat", type=float, help="weak-run success-rate constant")
    p.add_argument("--records", action="store_true", help="include per-prediction records in --out")
    p.set_defaults(func=_cmd_run, mode="arbitrary")

    p = sub.add_parser("baseline", help="random-order or greedy-order perceptron run")
    add_common(p)
    p.add_argument("--order", choices=ORDERS, help="order policy")
    p.add_argument("--records", action="store_true", help="include per-prediction records in --out")
    p.set_defaults(func=_cmd_run, mode="baseline")

    p = sub.add_parser("verify", help="run the Monte-Carlo verification battery")
    add_common(p, with_data=False)
    p.set_defaults(func=_cmd_verify, mode="verify")

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
