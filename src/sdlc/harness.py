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
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .arbitrary import DEFAULT_C_HAT, strong_run
from .datasets import LabeledDataset, check_family_params, gen_arbitrary, gen_uniform_sphere
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
# The keys of a single run that a config file may hold besides the
# ExperimentConfig fields, with their defaults.
RUN_KEYS = {"n": 1000, "d": 5, "seed": 0}
# RngStream masks a seed to 64 bits: a seed outside [0, 2**64) would share
# the streams of one inside.
_SEED_LIMIT = 1 << 64
_NUMBER_TYPES = (int, float)


def _check_int(name: str, value, seed: bool = False) -> None:
    """Reject anything but an int >= 1, or for a seed one in [0, 2**64): no bool, float or string."""
    low, high, text = (0, _SEED_LIMIT, "in [0, 2**64)") if seed else (1, math.inf, ">= 1")
    if type(value) is not int or not low <= value < high:
        raise ValueError(f"{name} must be an integer {text}, got {value!r}")


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
        for name in ("d_grid", "n_grid", "seeds"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{name} must be a nonempty list, got {values!r}")
            for value in values:
                _check_int(f"{name} entry", value, seed=name == "seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        for name in ("delta", "eps", "c_prime", "c_init", "c_hat", "alpha_hat"):
            value = getattr(self, name)
            if type(value) not in _NUMBER_TYPES and not (name == "alpha_hat" and value is None):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("delta", "eps"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0 and not (name == "eps" and value == 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        for name in ("c_prime", "c_init"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.c_hat <= 1.0:
            raise ValueError(f"c_hat must be in (0, 1], got {self.c_hat}")
        if self.alpha_hat is not None and not 0.0 < self.alpha_hat < 1.0:
            raise ValueError(f"alpha_hat must be in (0, 1), got {self.alpha_hat}")
        check_family_params(self.family, self.family_params)
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}, got {self.order!r}")
        if self.out is not None and type(self.out) is not str:
            raise ValueError(f"out must be a path, got {self.out!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - names
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "mode" not in raw:
            raise ValueError(f"config field 'mode' is missing: give one of {MODES}")
        return cls(**raw)

    @classmethod
    def split(cls, raw: dict) -> tuple["ExperimentConfig", dict]:
        """The config of merged settings and its single-run keys, RUN_KEYS defaults filled in.

        Rejects keys that are neither fields nor RUN_KEYS, and checks the
        single-run keys as the grid entries are checked.
        """
        fields = dict(raw)
        run = {key: fields.pop(key, default) for key, default in RUN_KEYS.items()}
        cfg = cls.from_dict(fields)
        for key, value in run.items():
            _check_int(key, value, seed=key == "seed")
        return cfg, run

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


def make_dataset(family: str, n: int, d: int, params: dict | None, seed: int) -> LabeledDataset:
    """The dataset of one (family, n, d, seed), drawn from stream STREAM_DATA."""
    rng = RngStream(seed, STREAM_DATA)
    if family == "uniform":
        return gen_uniform_sphere(n, d, rng)
    return gen_arbitrary(family, n, d, params, rng)


def run_single(cfg: ExperimentConfig, ds: LabeledDataset, seed: int) -> tuple[Transcript, dict]:
    """One run of cfg.mode on ds at seed: the one place a mode picks its learner.

    Returns the transcript and the mode's own payload fields: the sphere
    schedule; the baseline order; or the boosted run's eps, delta,
    coverage, rounds_used, attempts and partial. Numbers are passed on as
    floats, so an integer setting runs and reads as its float.
    """
    delta = float(cfg.delta)
    if cfg.mode == "sphere":
        schedule = make_schedule(ds.n, ds.d, delta, float(cfg.c_prime))
        res = run_sphere(ds, schedule, RngStream(seed, STREAM_LEARNER), float(cfg.c_init))
        return res.transcript, {"schedule": asdict(schedule)}
    if cfg.mode == "arbitrary":
        eps = float(cfg.eps)
        alpha_hat = None if cfg.alpha_hat is None else float(cfg.alpha_hat)
        res = strong_run(ds, eps, delta, RngStream(seed, STREAM_LEARNER), float(cfg.c_hat), alpha_hat)
        return res.transcript, {"eps": eps, "delta": delta, "coverage": res.coverage,
                                "rounds_used": res.rounds_used, "attempts": res.attempts,
                                "partial": res.partial}
    if cfg.mode == "baseline":
        order_run = random_order_run if cfg.order == "random" else greedy_adversarial_order
        return order_run(ds, RngStream(seed, STREAM_BASELINE)), {"order": cfg.order}
    raise ValueError(f"run_single does not handle mode {cfg.mode!r}")


def run_trial(cfg: ExperimentConfig, d: int, n: int, seed: int) -> dict:
    """One (d, n, seed) cell trial; returns a CSV-ready row."""
    start = time.perf_counter()
    transcript, fields = run_single(cfg, make_dataset(cfg.family, n, d, cfg.family_params, seed), seed)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return {"mode": cfg.mode, "d": d, "n": n, "seed": seed,
            "mistakes": int(transcript.mistakes), "coverage": float(fields.get("coverage", 1.0)),
            "runtime_ms": round(runtime_ms, 3)}


def run_verify(seed: int = 0) -> list[dict]:
    """The fixed Monte-Carlo battery behind the `verify` subcommand.

    Every configured cell has a non-vacuous analytic bound; the battery
    passes only if every cell's empirical frequency stays within three
    standard errors of its bound. Check i draws from its own stream
    `child(i)` of (seed, STREAM_VERIFY), so the checks run one per usable
    core and the results do not depend on the core count.
    """
    root = RngStream(seed, STREAM_VERIFY)
    checks: list[tuple[str, object, tuple, dict]] = []
    for theta in (0.1, math.pi / 4, math.pi / 2):
        checks.append((f"disagreement-mass-mean-theta={theta:.4g}",
                       mc_disagreement_mass, (3, theta, 10_000, 1000), {"check": "mean"}))
    checks += [
        ("disagreement-mass-tail-theta=pi/4",
         mc_disagreement_mass, (3, math.pi / 4, 10_000, 1000), {"check": "tail", "tail_delta": 0.01}),
        ("conditional-margin-case1-d3", mc_max_margin_tail, (3, math.pi / 2, 100, 0.5, 1, 2000), {}),
        ("conditional-margin-case1-d6", mc_max_margin_tail, (6, math.pi / 3, 40, 0.3, 1, 2000), {}),
        ("conditional-margin-case2-d4", mc_max_margin_tail, (4, 1.0, 50, 0.5, 2, 2000), {}),
        ("conditional-margin-case2-d2", mc_max_margin_tail, (2, math.pi / 4, 30, 0.6, 2, 2000), {}),
        ("conditional-margin-case2-d2-tight", mc_max_margin_tail, (2, math.pi / 2, 5, 0.7, 2, 4000), {}),
        ("best-mistake-margin-case1", mc_best_mistake_margin, (4, 0.5, 10_000, 4.0, 1, 2000), {}),
        ("best-mistake-margin-case2", mc_best_mistake_margin, (4, 0.5, 10_000, 4.0, 2, 2000), {}),
        ("superlinear-decay", simulate_superlinear, (0.125, 1e-6, 1.0, 2.0 / 3.0, 0.1, 10_000), {}),
    ]
    streams = [root.child(i) for i in range(len(checks))]

    def run(check: tuple[str, object, tuple, dict], rng: RngStream) -> dict:
        name, oracle, args, kwargs = check
        res = oracle(*args, rng=rng, **kwargs)
        return {"name": name, "empirical": res.empirical, "bound": res.bound,
                "std_err": res.std_err, "trials": res.trials,
                "passed": bool(res.passed), **{f"detail_{k}": v for k, v in res.details.items()}}

    # Imported here: concurrent.futures pulls in logging, about 10 ms that
    # every other command would pay at startup.
    from concurrent.futures import ThreadPoolExecutor

    # The oracles spend their time in numpy calls that release the GIL.
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        return list(pool.map(run, checks, streams))


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
