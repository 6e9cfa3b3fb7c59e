#!/usr/bin/env python3
"""Benchmark of the sdlc learners, baselines and oracles.

    python3 bench/run.py --workload separation --seed 0 --seconds 15 --trace 0

Imports `sdlc` from the `src/` directory next to this one, sets up the
workload, then repeats rounds of its operations until `--seconds` have
passed (at least one round). The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end ones, measured untraced. With `--trace 1`
the run alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds. Either way the metrics are exactly those
that BENCHMARK.json lists for that mode. Each run also writes a record
(machine, rounds, problems and, when traced, every span and the tracing
overhead) under `--record-dir`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("separation", "boosted", "cli_pipeline", "verify")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def cap_blas_threads() -> None:
    """Let BLAS use at most as many threads as this process may run on cores."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0, help="workload seed, >= 0 (default 0)")
    p.add_argument("--seconds", type=float, default=15.0, help="how long to repeat rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-dir", default=os.path.join(OUT_DIR, "runs"),
                   help="directory for the run's record file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def manifest_metrics(trace: int) -> list[str]:
    """Names of the metrics BENCHMARK.json asks a run with this `--trace` to print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    return [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]


def probe_setup(args) -> float:
    """Seconds from starting a fresh process until its workload inputs are ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited {code} with {line!r}")
    return ready - start


def untraced(args, workload) -> tuple[dict, dict]:
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    started, rounds = time.perf_counter(), []
    while not rounds or time.perf_counter() - started < args.seconds:
        rounds.append(workload.round())
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
    record = {"setup_probes_s": setups, "rounds": [_round_record(r) for r in rounds]}
    return _result(workload, rounds, [], metrics), record


def traced(args, workload) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds until `--seconds` have passed.

    Reports every per-layer metric of BENCHMARK.json on every workload: a
    layer the workload does not run reads 0. The outcomes that only some
    workloads have (`ROUND_METRICS`) come from the untraced rounds.
    """
    from spans import Tracer, metric_units
    from workloads import ROUND_METRICS

    tracer = Tracer()
    started, plain, rounds, traces = time.perf_counter(), [], [], []
    while not rounds or time.perf_counter() - started < args.seconds:
        plain.append(workload.round())
        tracer.install()
        try:
            tracer.start_round()
            rounds.append(workload.round())
            traces.append(tracer.finish_round())
        finally:
            tracer.uninstall()
    # The traced wall time leaves out what the tracer spent counting and checking.
    walls = [r.wall_s - t["hook_s"] for r, t in zip(rounds, traces)]
    problems = list(tracer.problems)
    problems += [f"summed self times {t['self_total_s']:.6f} s exceed traced wall_s {wall:.6f} s"
                 for wall, t in zip(walls, traces) if t["self_total_s"] > wall + 1e-9]
    layer_metrics = {name: (statistics.median(t["per_layer"][name] for t in traces), unit)
                     for name, unit in metric_units().items()}
    for name, unit in ROUND_METRICS.items():
        layer_metrics[name] = (statistics.median(r.metrics.get(name, 0.0) for r in plain), unit)
    untraced_wall = statistics.median(r.wall_s for r in plain)
    overhead = statistics.median(walls) - untraced_wall
    record = {
        "untraced_wall_s": [r.wall_s for r in plain], "traced_wall_s": walls, "overhead_s": overhead,
        "rounds": [_round_record(r) for r in plain + rounds],
        "traced_rounds": [dict(t, wall_s=wall) for wall, t in zip(walls, traces)],
    }
    print(f"tracing overhead {overhead:+.4f} s on wall_s {untraced_wall:.4f} s", file=sys.stderr)
    return _result(workload, plain + rounds, problems, layer_metrics), record


def _round_record(rnd) -> dict:
    return {"wall_s": rnd.wall_s, "metrics": rnd.metrics, "attempted": rnd.attempted,
            "failed": rnd.failed, "problems": rnd.problems}


def _result(workload, rounds, problems: list[str], metrics: dict) -> dict:
    problems = problems + [p for r in rounds for p in r.problems]
    if any(r.fingerprint != rounds[0].fingerprint for r in rounds):
        problems.append("rounds disagree on their outputs (mistake counts or files)")
    if not any(r.failed for r in rounds):
        problems += workload.final_check()
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "problems": problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    sys.path.insert(0, SRC)
    try:
        import sdlc
    except ImportError as exc:
        print(f"error: cannot import sdlc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(sdlc.__file__).startswith(SRC + os.sep):
        print(f"error: imported sdlc from {sdlc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            result, record = traced(args, workload)
        else:
            result, record = untraced(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = result.pop("problems")
    expected = manifest_metrics(args.trace)
    if set(result["metrics"]) != set(expected):
        print(f"error: the run measured {sorted(result['metrics'])}, BENCHMARK.json lists "
              f"{sorted(expected)}", file=sys.stderr)
        return 3
    result["metrics"] = {name: result["metrics"][name] for name in expected}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "result": result, "problems": problems,
              **record}
    os.makedirs(args.record_dir, exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    with open(os.path.join(args.record_dir, name), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
