"""The four workloads: their inputs, one round of operations, and output checks.

Every round of a workload performs the same operations on the same inputs,
so rounds must agree on every mistake count and output file
(`Round.fingerprint`). In separation, boosted and cli_pipeline the data
come from a fixed panel of seeds and the seed sets the order of the
independent operations, so that `sd_mistakes`, `boost_mistakes` and every
written byte are the same in every run. In verify the seed sets the seed of
the Monte-Carlo battery. Every data seed lies outside the acceptance seeds
0-49 of the test suite.

Calls go through module attributes (`harness.run_experiment`, not a name
imported from it), so the traced run sees them. The output checks call
`load_jsonl` through the name imported below, which the tracer leaves
alone, so that checking adds no spans.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

from sdlc import arbitrary, cli, datasets, harness
from sdlc.datasets import load_jsonl
from sdlc.geometry import RngStream

SEPARATION_D = 10
SEPARATION_N_GRID = [10**2, 10**3, 10**4, 10**5, 10**6]
SEPARATION_SEEDS = [7001]

# (family, n, d, data seed) of the boosted workload's datasets.
BOOSTED_DATASETS = [
    ("uniform", 10_000, 16, 7101),
    ("clustered", 50_000, 10, 7102),
    ("subspace_degenerate", 20_000, 10, 7103),
]
BOOST_EPS = 0.01
BOOST_DELTA = 0.1
BOOST_C_HAT = 0.3

CLI_N, CLI_D, CLI_SEED = 100_000, 10, 7201
GREEDY_N, GREEDY_D, GREEDY_SEED = 3000, 5, 7202
REPORT_D_GRID = [10]
REPORT_N_GRID = [10**3, 10**4, 10**5]
REPORT_SEEDS = [7203, 7204]

VERIFY_SEED_BASE = 10_000

UNIT_TOL = 1e-9


@dataclass
class Round:
    """One round's timed results; `fingerprint` holds its deterministic outputs."""

    wall_s: float
    metrics: dict[str, float]
    attempted: int
    failed: int
    fingerprint: object
    problems: list[str] = field(default_factory=list)


class Workload:
    def final_check(self) -> list[str]:
        """Checks made once, after the last round and after peak memory has been read."""
        return []


def _sign(values: np.ndarray) -> np.ndarray:
    return np.where(values >= 0.0, 1, -1)


class Separation(Workload):
    """The A1 path: the sphere learner, then the random-order baseline, over a grid of n."""

    def __init__(self, seed: int, workdir: str):
        self.n_grid = list(SEPARATION_N_GRID)
        random.Random(seed).shuffle(self.n_grid)

    def _config(self, mode: str) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(mode=mode, d_grid=[SEPARATION_D], n_grid=self.n_grid,
                                        seeds=list(SEPARATION_SEEDS), order="random")

    def round(self) -> Round:
        t0 = time.perf_counter()
        sphere = harness.run_experiment(self._config("sphere"))
        t1 = time.perf_counter()
        base = harness.run_experiment(self._config("baseline"))
        t2 = time.perf_counter()
        rows = sphere.rows + base.rows
        errors = sphere.errors + base.errors
        top = max(SEPARATION_N_GRID)
        sd_top = _mean_mistakes(sphere.rows, top)
        return Round(
            wall_s=t2 - t0,
            metrics={"sphere_grid_s": t1 - t0, "baseline_grid_s": t2 - t1, "sd_mistakes": sd_top},
            attempted=len(rows) + len(errors),
            failed=len(errors),
            fingerprint=sorted((r["mode"], r["n"], r["seed"], r["mistakes"]) for r in rows),
            problems=self.check(sphere, base),
        )

    def check(self, sphere, base) -> list[str]:
        problems = [f"cell error: {e}" for e in sphere.errors + base.errors]
        problems += [f"coverage {r['coverage']} in {r['mode']} n={r['n']}"
                     for r in sphere.rows + base.rows if r["coverage"] != 1.0]
        for n in SEPARATION_N_GRID:
            cap = 6.0 * SEPARATION_D * math.log(math.log(n))
            mean = _mean_mistakes(sphere.rows, n)
            if not mean <= cap:
                problems.append(f"self-directed mean {mean} at n={n} exceeds 6 d lnln n = {cap:.2f}")
        top = max(SEPARATION_N_GRID)
        sd, rnd = _mean_mistakes(sphere.rows, top), _mean_mistakes(base.rows, top)
        if not sd < rnd:
            problems.append(f"self-directed mean {sd} not below the baseline's {rnd} at n={top}")
        return problems


def _mean_mistakes(rows: list[dict], n: int) -> float:
    values = [r["mistakes"] for r in rows if r["n"] == n]
    return float(np.mean(values)) if values else math.nan


def boost_mistake_cap(d: int, eps: float, delta: float, c_hat: float) -> int:
    """runs_outer * retries * (ceil(5 d ln d) + 1), from the boosting analysis."""
    alpha = 1.0 - 1.0 / (4.0 * d)
    runs_outer = max(1, math.ceil(math.log(1.0 / eps) / math.log(1.0 / alpha)))
    retries = max(1, math.ceil(math.log(runs_outer / delta) / c_hat))
    return runs_outer * retries * (math.ceil(5.0 * d * math.log(d)) + 1)


class Boosted(Workload):
    """strong_run on three dataset families generated during set-up."""

    def __init__(self, seed: int, workdir: str):
        self.inputs = []
        for family, n, d, data_seed in BOOSTED_DATASETS:
            rng = RngStream(data_seed, 0)
            if family == "uniform":
                ds = datasets.gen_uniform_sphere(n, d, rng)
            else:
                ds = datasets.gen_arbitrary(family, n, d, {}, rng)
            self.inputs.append((family, data_seed, ds))
        random.Random(seed).shuffle(self.inputs)

    def round(self) -> Round:
        results, failed, problems = [], 0, []
        t0 = time.perf_counter()
        for family, data_seed, ds in self.inputs:
            try:
                res = arbitrary.strong_run(ds, BOOST_EPS, BOOST_DELTA, RngStream(data_seed, 1),
                                           BOOST_C_HAT)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                failed += 1
                problems.append(f"strong_run on {family}: {type(exc).__name__}: {exc}")
                continue
            results.append((family, ds, res))
        wall = time.perf_counter() - t0
        for family, ds, res in results:
            cap = boost_mistake_cap(ds.d, BOOST_EPS, BOOST_DELTA, BOOST_C_HAT)
            if res.partial or res.coverage < 1.0 - BOOST_EPS:
                problems.append(f"strong_run on {family}: partial, coverage {res.coverage:.4f}")
            if res.mistakes > cap:
                problems.append(f"strong_run on {family}: {res.mistakes} mistakes > cap {cap}")
        return Round(
            wall_s=wall,
            metrics={"boost_mistakes": float(sum(res.mistakes for _, _, res in results))},
            attempted=len(self.inputs),
            failed=failed,
            fingerprint=sorted((family, res.mistakes, res.attempts) for family, _, res in results),
            problems=problems,
        )


class CliPipeline(Workload):
    """generate -> run-sphere, generate -> baseline --order greedy, and report, through cli.main.

    The three chains are independent; the seed sets their order. Rounds
    compare digests of the files they write, and `final_check` parses the
    last round's files after the run's peak memory has been read, so that
    parsing does not count in it.
    """

    def __init__(self, seed: int, workdir: str):
        self.path = {name: os.path.join(workdir, name) for name in (
            "data.jsonl", "small.jsonl", "sphere.json", "greedy.json", "report", "config.json")}
        with open(self.path["config.json"], "w") as fh:
            json.dump({"mode": "sphere", "d_grid": REPORT_D_GRID, "n_grid": REPORT_N_GRID,
                       "seeds": REPORT_SEEDS}, fh)
        p, big, small = self.path, str(CLI_SEED), str(GREEDY_SEED)
        self.chains = [
            [["generate", "--n", str(CLI_N), "--d", str(CLI_D), "--seed", big, "--out", p["data.jsonl"]],
             ["run-sphere", "--data", p["data.jsonl"], "--seed", big, "--records",
              "--out", p["sphere.json"]]],
            [["generate", "--n", str(GREEDY_N), "--d", str(GREEDY_D), "--seed", small,
              "--out", p["small.jsonl"]],
             ["baseline", "--order", "greedy", "--data", p["small.jsonl"], "--seed", small,
              "--records", "--out", p["greedy.json"]]],
            [["report", "--config", p["config.json"], "--out", p["report"]]],
        ]
        random.Random(seed).shuffle(self.chains)

    def round(self) -> Round:
        commands = [argv for chain in self.chains for argv in chain]
        codes = []
        t0 = time.perf_counter()
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        wall = time.perf_counter() - t0
        problems = [f"sdlc {argv[0]} exited {code}" for argv, code in zip(commands, codes) if code != 0]
        return Round(wall_s=wall, metrics={}, attempted=len(codes), failed=len(problems),
                     fingerprint=None if problems else self._digests(), problems=problems)

    def _digests(self) -> list:
        """Digests of the files a round writes, and the report's mistakes (its files hold run times)."""
        digests = []
        for name in ("data.jsonl", "sphere.json", "small.jsonl", "greedy.json"):
            digest = hashlib.sha256()
            with open(self.path[name], "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            digests.append(digest.hexdigest())
        with open(self.path["report"] + ".json") as fh:
            digests.append([row["mistakes"] for row in json.load(fh)["rows"]])
        return digests

    def final_check(self) -> list[str]:
        problems: list[str] = []
        big = self._check_jsonl(self.path["data.jsonl"], CLI_N, CLI_D, problems)
        small = self._check_jsonl(self.path["small.jsonl"], GREEDY_N, GREEDY_D, problems)
        self._check_records(self.path["sphere.json"], big, "run-sphere", problems)
        self._check_records(self.path["greedy.json"], small, "baseline", problems)
        self._check_report(problems)
        return problems

    @staticmethod
    def _check_jsonl(path: str, n: int, d: int, problems: list[str]):
        """Parse with json alone; unit points, labels sign(x . w*), load_jsonl bit-identical."""
        name = os.path.basename(path)
        x, y = np.empty((n, d)), np.empty(n, dtype=np.int64)
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            lines = 1
            for i, line in enumerate(fh):
                lines += 1
                if i < n:
                    record = json.loads(line)
                    x[i], y[i] = record["x"], record["y"]
        if lines != n + 1 or header["n"] != n or header["d"] != d:
            problems.append(f"{name}: {lines} lines, header n={header['n']} d={header['d']}")
            return None
        w_star = np.array(header["ground_truth"], dtype=np.float64)
        if np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) > UNIT_TOL:
            problems.append(f"{name}: a point is not unit-norm")
        if not np.array_equal(y, _sign(x @ w_star)):
            problems.append(f"{name}: a label differs from sign(x . w*)")
        loaded = load_jsonl(path)
        if not (np.array_equal(loaded.points.view(np.uint64), x.view(np.uint64))
                and np.array_equal(loaded.labels, y)):
            problems.append(f"{name}: load_jsonl does not return the file's values bit for bit")
        return y

    @staticmethod
    def _check_records(path: str, labels, command: str, problems: list[str]) -> None:
        """Records cover a permutation of range(n), truths match the file, mistakes add up."""
        if labels is None:
            return
        with open(path) as fh:
            payload = json.load(fh)
        rows = np.array([(r["index"], r["prediction"], r["truth"])
                         for r in payload["transcript"]["records"]], dtype=np.int64).reshape(-1, 3)
        idx, pred, truth = rows.T
        if not np.array_equal(np.sort(idx), np.arange(labels.size)):
            problems.append(f"{command}: records are not a permutation of range({labels.size})")
            return
        if not np.array_equal(truth, labels[idx]):
            problems.append(f"{command}: a recorded truth differs from the file's label")
        wrong = int(np.count_nonzero(pred != truth))
        if payload["summary"]["mistakes"] != wrong:
            problems.append(f"{command}: summary.mistakes {payload['summary']['mistakes']} "
                            f"!= {wrong} records with prediction != truth")

    def _check_report(self, problems: list[str]) -> None:
        """One CSV row per trial, and its mistakes match the JSON rows."""
        stem = self.path["report"]
        with open(stem + ".json") as fh:
            rows = json.load(fh)["rows"]
        with open(stem + ".csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        trials = len(REPORT_D_GRID) * len(REPORT_N_GRID) * len(REPORT_SEEDS)
        if not len(rows) == len(csv_rows) == trials:
            problems.append(f"report: {len(rows)} JSON rows, {len(csv_rows)} CSV rows, "
                            f"{trials} trials")
        key = ("mode", "d", "n", "seed", "mistakes")
        if [tuple(str(r[k]) for k in key) for r in rows] != [tuple(r[k] for k in key) for r in csv_rows]:
            problems.append("report: the CSV rows do not match the JSON rows")


class Verify(Workload):
    """The fixed Monte-Carlo battery, run_verify(seed)."""

    def __init__(self, seed: int, workdir: str):
        self.seed = VERIFY_SEED_BASE + seed

    def round(self) -> Round:
        t0 = time.perf_counter()
        try:
            results = harness.run_verify(self.seed)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            return Round(time.perf_counter() - t0, {}, 1, 1, None,
                         [f"run_verify: {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
        problems = []
        for r in results:
            ok = r["empirical"] <= r["bound"] + 3.0 * r["std_err"]
            if not ok:
                problems.append(f"{r['name']}: empirical {r['empirical']:.6g} > bound "
                                f"{r['bound']:.6g} + 3 std_err {r['std_err']:.3g}")
            if ok != r["passed"]:
                problems.append(f"{r['name']}: reported passed={r['passed']}, recomputed {ok}")
        return Round(wall, {}, len(results), 0, [r["empirical"] for r in results], problems)


WORKLOADS = {
    "separation": Separation,
    "boosted": Boosted,
    "cli_pipeline": CliPipeline,
    "verify": Verify,
}

# Metrics that only some workloads' rounds produce, with their units. The
# traced run reports them on every workload, 0 where the round has none.
ROUND_METRICS = {"sphere_grid_s": "s", "baseline_grid_s": "s",
                 "sd_mistakes": "count", "boost_mistakes": "count"}
