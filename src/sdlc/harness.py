"""Experiment grids, scaling fits, and report emission.

One ExperimentConfig describes a grid of (d, n, seed) trials in one of
four modes: the two-arm sphere learner, the boosted arbitrary-dataset
learner, an order-policy baseline, or the Monte-Carlo verification
battery. Every trial derives its randomness from (seed, fixed stream
id), so a config reruns to identical mistake counts; only runtime
fields vary between runs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .arbitrary import DEFAULT_C_HAT, strong_run
from .datasets import LabeledDataset, gen_arbitrary, gen_uniform_sphere
from .geometry import RngStream
from .oracles import (
    greedy_adversarial_order,
    mc_best_mistake_margin,
    mc_disagreement_mass,
    mc_max_margin_tail,
    random_order_run,
    simulate_superlinear,
)
from .sphere import DEFAULT_C_INIT, DEFAULT_C_PRIME, make_schedule, run_sphere
from .transcript import Transcript

# Stream ids keep dataset generation, learner randomness, and baseline
# randomness independent per seed; sphere and baseline trials at the
# same seed therefore consume identical datasets.
STREAM_DATA = 0
STREAM_LEARNER = 1
STREAM_BASELINE = 2
STREAM_VERIFY = 3

MODES = ("sphere", "arbitrary", "baseline", "verify")
ORDERS = ("random", "greedy")
CSV_COLUMNS = ("mode", "d", "n", "seed", "mistakes", "coverage", "runtime_ms")


@dataclass
class ExperimentConfig:
    mode: str
    d_grid: list[int] = field(default_factory=lambda: [5])
    n_grid: list[int] = field(default_factory=lambda: [1000])
    seeds: list[int] = field(default_factory=lambda: [0])
    delta: float = 0.1
    eps: float = 0.01
    c_prime: float = DEFAULT_C_PRIME
    c_init: float = DEFAULT_C_INIT
    c_hat: float = DEFAULT_C_HAT
    alpha_hat: float | None = None
    family: str = "uniform"
    family_params: dict = field(default_factory=dict)
    order: str = "random"
    out: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.d_grid or not self.n_grid or not self.seeds:
            raise ValueError("d_grid, n_grid and seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        for name in ("delta", "eps"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0 and not (name == "eps" and value == 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        _check_order(self.order)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - names
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    config: dict
    rows: list[dict]
    cells: list[dict]
    fits: list[dict]
    oracle_results: list[dict]
    errors: list[dict]

    def to_dict(self, include_runtime: bool = True) -> dict:
        rows = self.rows
        cells = self.cells
        if not include_runtime:
            rows = [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]
            cells = [{k: v for k, v in c.items() if k != "mean_runtime_ms"} for c in cells]
        return {
            "config": self.config,
            "rows": rows,
            "cells": cells,
            "fits": self.fits,
            "oracle_results": self.oracle_results,
            "errors": self.errors,
        }

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(self.to_dict(include_runtime), indent=2, sort_keys=True)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row[k] for k in CSV_COLUMNS})


def fit_scaling(points: list[tuple[float, float]]) -> dict:
    """Least-squares fits of mistakes against ln n and ln ln n.

    Needs at least three distinct n (all >= 2 so ln ln n is defined).
    R-squared of a zero-variance target is 1 by convention: a constant
    mistake count is a perfect fit with slope 0.
    """
    ns = np.array([p[0] for p in points], dtype=float)
    ms = np.array([p[1] for p in points], dtype=float)
    if len(set(ns.tolist())) < 3:
        raise ValueError("need at least 3 distinct n values to fit")
    if np.any(ns < 2):
        raise ValueError("all n must be >= 2")

    def one_fit(x: np.ndarray) -> dict:
        b, a = np.polyfit(x, ms, 1)
        pred = a + b * x
        ss_tot = float(np.sum((ms - ms.mean()) ** 2))
        ss_res = float(np.sum((ms - pred) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        return {"a": float(a), "b": float(b), "r2": r2}

    return {"log": one_fit(np.log(ns)), "loglog": one_fit(np.log(np.log(ns)))}


def _check_order(order: str) -> None:
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")


def make_dataset(family: str, n: int, d: int, params: dict | None, seed: int) -> LabeledDataset:
    """The dataset of one (family, n, d, seed), drawn from stream STREAM_DATA."""
    rng = RngStream(seed, STREAM_DATA)
    if family == "uniform":
        return gen_uniform_sphere(n, d, rng)
    return gen_arbitrary(family, n, d, params, rng)


def run_baseline(ds: LabeledDataset, order: str, seed: int) -> Transcript:
    """One order-policy baseline (one of ORDERS) on stream STREAM_BASELINE."""
    _check_order(order)
    rng = RngStream(seed, STREAM_BASELINE)
    if order == "random":
        return random_order_run(ds, rng)
    return greedy_adversarial_order(ds, rng=rng)


def run_trial(cfg: ExperimentConfig, d: int, n: int, seed: int) -> dict:
    """One (d, n, seed) cell trial; returns a CSV-ready row."""
    start = time.perf_counter()
    ds = make_dataset(cfg.family, n, d, cfg.family_params, seed)
    if cfg.mode == "sphere":
        schedule = make_schedule(n, d, cfg.delta, cfg.c_prime)
        res = run_sphere(ds, schedule, RngStream(seed, STREAM_LEARNER), cfg.c_init)
        mistakes, coverage = res.mistakes, 1.0
    elif cfg.mode == "baseline":
        transcript = run_baseline(ds, cfg.order, seed)
        mistakes, coverage = transcript.mistakes, 1.0
    elif cfg.mode == "arbitrary":
        res = strong_run(ds, cfg.eps, cfg.delta, RngStream(seed, STREAM_LEARNER),
                         cfg.c_hat, cfg.alpha_hat)
        mistakes, coverage = res.mistakes, res.coverage
    else:
        raise ValueError(f"run_trial does not handle mode {cfg.mode!r}")
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return {"mode": cfg.mode, "d": d, "n": n, "seed": seed,
            "mistakes": int(mistakes), "coverage": float(coverage),
            "runtime_ms": round(runtime_ms, 3)}


def run_verify(seed: int = 0) -> list[dict]:
    """The fixed Monte-Carlo battery behind the `verify` subcommand.

    Every configured cell has a non-vacuous analytic bound; the battery
    passes only if every cell's empirical frequency stays within three
    standard errors of its bound.
    """
    root = RngStream(seed, STREAM_VERIFY)
    checks: list[tuple[str, object]] = []
    stream = iter(range(1000))

    def child() -> RngStream:
        return root.child(next(stream))

    for theta in (0.1, math.pi / 4, math.pi / 2):
        checks.append((f"disagreement-mass-mean-theta={theta:.4g}",
                       mc_disagreement_mass(3, theta, 10_000, 1000, child(), check="mean")))
    checks.append(("disagreement-mass-tail-theta=pi/4",
                   mc_disagreement_mass(3, math.pi / 4, 10_000, 1000, child(),
                                        check="tail", tail_delta=0.01)))
    checks.append(("conditional-margin-case1-d3",
                   mc_max_margin_tail(3, math.pi / 2, 100, 0.5, 1, 2000, child())))
    checks.append(("conditional-margin-case1-d6",
                   mc_max_margin_tail(6, math.pi / 3, 40, 0.3, 1, 2000, child())))
    checks.append(("conditional-margin-case2-d4",
                   mc_max_margin_tail(4, 1.0, 50, 0.5, 2, 2000, child())))
    checks.append(("conditional-margin-case2-d2",
                   mc_max_margin_tail(2, math.pi / 4, 30, 0.6, 2, 2000, child())))
    checks.append(("conditional-margin-case2-d2-tight",
                   mc_max_margin_tail(2, math.pi / 2, 5, 0.7, 2, 4000, child())))
    checks.append(("best-mistake-margin-case1",
                   mc_best_mistake_margin(4, 0.5, 10_000, 4.0, 1, 2000, child())))
    checks.append(("best-mistake-margin-case2",
                   mc_best_mistake_margin(4, 0.5, 10_000, 4.0, 2, 2000, child())))
    checks.append(("superlinear-decay",
                   simulate_superlinear(0.125, 1e-6, 1.0, 2.0 / 3.0, 0.1, 10_000, child())))

    results = []
    for name, res in checks:
        results.append({"name": name, "empirical": res.empirical, "bound": res.bound,
                        "std_err": res.std_err, "trials": res.trials,
                        "passed": bool(res.passed), **{f"detail_{k}": v for k, v in res.details.items()}})
    return results


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Execute the full grid; cell failures are recorded, not raised."""
    rows: list[dict] = []
    errors: list[dict] = []
    oracle_results: list[dict] = []

    if cfg.mode == "verify":
        oracle_results = run_verify(cfg.seeds[0])
    else:
        for d in cfg.d_grid:
            for n in cfg.n_grid:
                for seed in cfg.seeds:
                    try:
                        rows.append(run_trial(cfg, d, n, seed))
                    except Exception as exc:  # noqa: BLE001 - cell isolation
                        errors.append({"mode": cfg.mode, "d": d, "n": n,
                                       "seed": seed, "error": f"{type(exc).__name__}: {exc}"})

    cells = []
    for d in cfg.d_grid:
        for n in cfg.n_grid:
            got = [r for r in rows if r["d"] == d and r["n"] == n]
            if not got and cfg.mode == "verify":
                continue
            stats = {"mode": cfg.mode, "d": d, "n": n, "trials": len(got)}
            if got:
                ms = np.array([r["mistakes"] for r in got], dtype=float)
                stats.update({
                    "mean_mistakes": float(ms.mean()),
                    "median_mistakes": float(np.median(ms)),
                    "stderr_mistakes": float(ms.std(ddof=1) / math.sqrt(len(ms))) if len(ms) > 1 else 0.0,
                    "mean_coverage": float(np.mean([r["coverage"] for r in got])),
                    "mean_runtime_ms": float(np.mean([r["runtime_ms"] for r in got])),
                })
            cells.append(stats)

    fits = []
    for d in cfg.d_grid:
        pts = [(c["n"], c["mean_mistakes"]) for c in cells
               if c["d"] == d and c.get("mean_mistakes") is not None]
        if len({p[0] for p in pts}) >= 3 and all(p[0] >= 2 for p in pts):
            fits.append({"mode": cfg.mode, "d": d,
                         "n_values": sorted(p[0] for p in pts), **fit_scaling(pts)})

    report = Report(cfg.to_dict(), rows, cells, fits, oracle_results, errors)
    if cfg.out:
        stem = cfg.out[:-5] if cfg.out.endswith(".json") else cfg.out
        with open(stem + ".json", "w") as fh:
            fh.write(report.to_json())
        report.write_csv(stem + ".csv")
    return report
