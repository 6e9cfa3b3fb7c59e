"""Spans around the public functions of every sdlc layer, kept in memory.

`Tracer.install()` replaces each traced function in every loaded `sdlc`
module whose namespace holds it (so `sdlc.sphere.margin_perceptron_pass`
is wrapped as well as `sdlc.perceptron.margin_perceptron_pass`), and the
traced methods on their classes. Each call records a span
`[name, start, end, parent]`. After the call, a hook counts the work the
call did and, for learner and transform outputs, checks them against
values recomputed here from the inputs. Hook time is recorded as a
`bench.hook` span, so it is excluded from every layer's self time and
from the traced wall time. `uninstall()` puts the originals back.

A span's self time is its duration minus the durations of its direct
children; `per_layer` sums self times and counts into the metrics that
BENCHMARK.json lists.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np
from sdlc.oracles import superlinear_rounds

HOOK = "bench.hook"

# Span name -> (module, attribute) of the function, or (module, class, method).
TARGETS = {
    "geometry.sample_sphere_batch": ("sdlc.geometry", "sample_sphere_batch"),
    "datasets.gen_uniform_sphere": ("sdlc.datasets", "gen_uniform_sphere"),
    "datasets.gen_arbitrary": ("sdlc.datasets", "gen_arbitrary"),
    "datasets.split_buckets": ("sdlc.datasets", "split_buckets"),
    "datasets.save_jsonl": ("sdlc.datasets", "save_jsonl"),
    "datasets.load_jsonl": ("sdlc.datasets", "load_jsonl"),
    "transcript.predict": ("sdlc.transcript", "LabelOracle", "predict"),
    "transcript.predict_bulk": ("sdlc.transcript", "LabelOracle", "predict_bulk"),
    "transcript.predict_until_mistake": ("sdlc.transcript", "LabelOracle", "predict_until_mistake"),
    "transcript.to_json_dict": ("sdlc.transcript", "Transcript", "to_json_dict"),
    "perceptron.margin_perceptron_pass": ("sdlc.perceptron", "margin_perceptron_pass"),
    "sphere.run_sphere": ("sdlc.sphere", "run_sphere"),
    "sphere.initialize_hypothesis": ("sdlc.sphere", "initialize_hypothesis"),
    "forster.forster_transform": ("sdlc.forster", "forster_transform"),
    "forster.jacobi_eigh": ("sdlc.forster", "jacobi_eigh"),
    "arbitrary.weak_run": ("sdlc.arbitrary", "weak_run"),
    "arbitrary.strong_run": ("sdlc.arbitrary", "strong_run"),
    "oracles.random_order_run": ("sdlc.oracles", "random_order_run"),
    "oracles.greedy_adversarial_order": ("sdlc.oracles", "greedy_adversarial_order"),
    "oracles.mc_disagreement_mass": ("sdlc.oracles", "mc_disagreement_mass"),
    "oracles.mc_max_margin_tail": ("sdlc.oracles", "mc_max_margin_tail"),
    "oracles.mc_best_mistake_margin": ("sdlc.oracles", "mc_best_mistake_margin"),
    "oracles.simulate_superlinear": ("sdlc.oracles", "simulate_superlinear"),
    "harness.run_experiment": ("sdlc.harness", "run_experiment"),
    "harness.run_trial": ("sdlc.harness", "run_trial"),
    "harness.run_verify": ("sdlc.harness", "run_verify"),
    "harness.Report.to_json": ("sdlc.harness", "Report", "to_json"),
    "harness.Report.write_csv": ("sdlc.harness", "Report", "write_csv"),
    "cli.main": ("sdlc.cli", "main"),
}

# Self-time metrics: metric -> the spans whose self times it sums.
SELF_TIMES = {
    "geometry.sample_batch_s": ["geometry.sample_sphere_batch"],
    "datasets.generate_s": ["datasets.gen_uniform_sphere", "datasets.gen_arbitrary"],
    "datasets.split_s": ["datasets.split_buckets"],
    "datasets.save_s": ["datasets.save_jsonl"],
    "datasets.load_s": ["datasets.load_jsonl"],
    "transcript.commit_s": ["transcript.predict", "transcript.predict_bulk",
                            "transcript.predict_until_mistake"],
    "transcript.serialize_s": ["transcript.to_json_dict"],
    "perceptron.pass_s": ["perceptron.margin_perceptron_pass"],
    "sphere.run_s": ["sphere.run_sphere"],
    "sphere.init_s": ["sphere.initialize_hypothesis"],
    "forster.transform_s": ["forster.forster_transform"],
    "forster.eigh_s": ["forster.jacobi_eigh"],
    "arbitrary.weak_run_s": ["arbitrary.weak_run"],
    "oracles.random_order_s": ["oracles.random_order_run"],
    "oracles.greedy_s": ["oracles.greedy_adversarial_order"],
    "oracles.disagreement_s": ["oracles.mc_disagreement_mass"],
    "oracles.margin_tail_s": ["oracles.mc_max_margin_tail"],
    "oracles.best_margin_s": ["oracles.mc_best_mistake_margin"],
    "oracles.superlinear_s": ["oracles.simulate_superlinear"],
    "harness.experiment_s": ["harness.run_experiment", "harness.run_trial", "harness.run_verify"],
    "harness.report_write_s": ["harness.Report.to_json", "harness.Report.write_csv"],
    "cli.self_s": ["cli.main"],
}

COUNTS = [
    "datasets.points_generated", "datasets.jsonl_bytes",
    "transcript.commit_calls", "transcript.predictions", "transcript.offered",
    "perceptron.passes", "perceptron.updates",
    "sphere.init_mistakes", "sphere.train_mistakes", "sphere.cross_mistakes",
    "forster.eigh_calls", "forster.iterations", "forster.extractions",
    "arbitrary.weak_runs", "oracles.mc_points", "cli.out_bytes",
]

# Callers of predict_until_mistake whose reveal ratio is reported.
REVEAL_CALLERS = {
    "perceptron.margin_perceptron_pass": "margin_pass",
    "oracles.random_order_run": "random_order",
    "oracles.greedy_adversarial_order": "greedy",
    "arbitrary.weak_run": "weak_run",
}

# Numerical slack on the isotropy certificate recomputed with eigvalsh.
EIG_SLACK = 1e-12
UNIT_TOL = 1e-9


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, in BENCHMARK.json order."""
    units = {name: "s" for name in SELF_TIMES}
    units.update({name: "count" for name in COUNTS})
    units["datasets.jsonl_bytes"] = units["cli.out_bytes"] = "bytes"
    units.update({f"transcript.reveal_ratio.{c}": "ratio" for c in REVEAL_CALLERS.values()})
    units["arbitrary.coverage_ratio"] = "ratio"
    return units


def _file_size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


class Tracer:
    """Records spans and counts for one round; checks outputs as they pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._origin = 0.0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for name, target in TARGETS.items():
            owner = sys.modules[target[0]]
            if len(target) == 3:
                cls = getattr(owner, target[1])
                original = cls.__dict__[target[2]]
                self._patch(cls, target[2], self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(owner, target[1])
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "sdlc" or mod_name.startswith("sdlc."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def start_round(self) -> None:
        """Start a fresh span list and zero the counts; spans of earlier rounds stay with the caller."""
        self.spans = []
        self.counts.clear()
        self._origin = time.perf_counter()

    def finish_round(self) -> dict:
        """Spans, per-layer metrics, hook time and summed layer self time of the round just ended."""
        totals = self.self_times()
        hook_s = totals.pop(HOOK, 0.0)  # hook spans have no children: self time is duration
        return {"spans": self.spans, "per_layer": self.per_layer(totals), "hook_s": hook_s,
                "self_total_s": sum(totals.values())}

    def _wrap(self, name: str, fn, hook):
        signature = inspect.signature(fn)
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start - self._origin
                spans[index][2] = end - self._origin
            if hook is not None:
                self._run_hook(hook, signature, args, kwargs, result, index)
            return result

        traced.__wrapped__ = fn
        return traced

    def _run_hook(self, hook, signature, args, kwargs, result, index: int) -> None:
        spans = self.spans
        hook_index = len(spans)
        spans.append([HOOK, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        start = time.perf_counter()
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(bound.arguments, result, index)
        finally:
            spans[hook_index][1] = start - self._origin
            spans[hook_index][2] = time.perf_counter() - self._origin

    # -- span structure -----------------------------------------------------

    def _ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def _caller(self, index: int) -> str | None:
        for name in self._ancestors(index):
            if name in REVEAL_CALLERS:
                return REVEAL_CALLERS[name]
        return None

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[i]
        return totals

    def per_layer(self, totals: dict[str, float]) -> dict[str, float]:
        """The round's per-layer metrics, from its self times per span name and its counts."""
        c = self.counts
        out = {metric: sum(totals.get(n, 0.0) for n in names) for metric, names in SELF_TIMES.items()}
        out.update({metric: c[metric] for metric in COUNTS})
        # A ratio with nothing offered reads 0, so that every metric is always reported.
        for caller in REVEAL_CALLERS.values():
            offered = c[f"offered.{caller}"]
            out[f"transcript.reveal_ratio.{caller}"] = c[f"committed.{caller}"] / offered if offered else 0.0
        runs = c["arbitrary.weak_runs"]
        out["arbitrary.coverage_ratio"] = c["coverage_ends"] / runs if runs else 0.0
        return out

    # -- hooks: counts and output checks ------------------------------------

    def _hooks(self) -> dict:
        c = self.counts

        def generated(a, ds, i):
            c["datasets.points_generated"] += ds.n

        def jsonl_io(a, result, i):
            c["datasets.jsonl_bytes"] += _file_size(a["path"])

        def count_commit(committed: int, offered: int) -> None:
            c["transcript.commit_calls"] += 1
            c["transcript.predictions"] += committed
            c["transcript.offered"] += offered

        def predict(a, truth, i):
            count_commit(1, 1)

        def predict_bulk(a, truths, i):
            size = int(np.asarray(a["indices"]).size)
            count_commit(size, size)

        def until_mistake(a, result, i):
            offered, committed = int(np.asarray(a["indices"]).size), int(result[0])
            count_commit(committed, offered)
            caller = self._caller(i)
            if caller is not None:
                c[f"offered.{caller}"] += offered
                c[f"committed.{caller}"] += committed

        def margin_pass(a, result, i):
            c["perceptron.passes"] += 1
            c["perceptron.updates"] += int(result.updated)

        def sphere_run(a, result, i):
            t = result.transcript
            c["sphere.init_mistakes"] += t.mistakes_in_phase("init")
            c["sphere.train_mistakes"] += t.mistakes_in_phase("train-w") + t.mistakes_in_phase("train-v")
            c["sphere.cross_mistakes"] += t.mistakes_in_phase("cross-label")
            self.check_transcript("run_sphere", t, a["ds"], exact=True)

        def transform(a, out, i):
            nested = "forster.forster_transform" in self._ancestors(i)
            if nested:
                c["forster.extractions"] += 1
            else:
                c["forster.iterations"] += out.iterations
            self.check_isotropy(out, float(a["delta"]))

        def eigh(a, result, i):
            c["forster.eigh_calls"] += 1

        def weak(a, result, i):
            c["arbitrary.weak_runs"] += 1
            c["coverage_ends"] += result.terminated_by == "coverage"

        def strong(a, result, i):
            self.check_transcript("strong_run", result.transcript, a["ds"], exact=False)

        def baseline(label):
            def hook(a, transcript, i):
                self.check_transcript(label, transcript, a["ds"], exact=True)
            return hook

        def mc_points(count):
            def hook(a, result, i):
                c["oracles.mc_points"] += count(a)
            return hook

        def superlinear_points(a):
            return a["trials"] * superlinear_rounds(a["rho"], a["kappa"], a["M"], a["delta"])

        def cli_main(a, code, i):
            argv = a["argv"] or []
            if "--out" not in argv:
                return
            out = argv[argv.index("--out") + 1]
            if argv[0] == "report":
                stem = out[:-5] if out.endswith(".json") else out
                c["cli.out_bytes"] += _file_size(stem + ".json") + _file_size(stem + ".csv")
            else:
                c["cli.out_bytes"] += _file_size(out)

        return {
            "datasets.gen_uniform_sphere": generated,
            "datasets.gen_arbitrary": generated,
            "datasets.save_jsonl": jsonl_io,
            "datasets.load_jsonl": jsonl_io,
            "transcript.predict": predict,
            "transcript.predict_bulk": predict_bulk,
            "transcript.predict_until_mistake": until_mistake,
            "perceptron.margin_perceptron_pass": margin_pass,
            "sphere.run_sphere": sphere_run,
            "forster.forster_transform": transform,
            "forster.jacobi_eigh": eigh,
            "arbitrary.weak_run": weak,
            "arbitrary.strong_run": strong,
            "oracles.random_order_run": baseline("random_order_run"),
            "oracles.greedy_adversarial_order": baseline("greedy_adversarial_order"),
            "oracles.mc_disagreement_mass": mc_points(lambda a: a["n"] * a["trials"]),
            "oracles.mc_max_margin_tail": mc_points(lambda a: a["m"] * a["trials"]),
            "oracles.mc_best_mistake_margin": mc_points(lambda a: a["n"] * a["trials"]),
            "oracles.simulate_superlinear": mc_points(superlinear_points),
            "cli.main": cli_main,
        }

    def check_transcript(self, label: str, transcript, ds, exact: bool) -> None:
        """Protocol and label checks recomputed from the points and w*."""
        rows = np.array([(r.index, r.prediction, r.truth) for r in transcript.records()],
                        dtype=np.int64).reshape(-1, 3)
        idx, pred, truth = rows[:, 0], rows[:, 1], rows[:, 2]
        if np.unique(idx).size != idx.size:
            self.problems.append(f"{label}: an index was predicted twice")
        if exact and not np.array_equal(np.sort(idx), np.arange(ds.n)):
            self.problems.append(f"{label}: predicted {idx.size} of {ds.n} indices, not each once")
        if not np.all((pred == 1) | (pred == -1)):
            self.problems.append(f"{label}: a prediction is not +-1")
        expected = np.where(ds.points[idx] @ ds.ground_truth >= 0.0, 1, -1)
        if not np.array_equal(truth, expected):
            self.problems.append(f"{label}: a revealed truth differs from sign(x . w*)")
        wrong = int(np.count_nonzero(pred != truth))
        if transcript.mistakes != wrong:
            self.problems.append(
                f"{label}: mistakes {transcript.mistakes} != {wrong} wrong predictions")

    def check_isotropy(self, out, delta: float) -> None:
        Y = out.transformed_points
        k = out.subspace_dim
        lam_min = float(np.linalg.eigvalsh(Y.T @ Y / Y.shape[0])[0])
        if lam_min < 1.0 / k - delta - EIG_SLACK:
            self.problems.append(
                f"forster_transform: lambda_min {lam_min:.6g} < 1/k - delta = {1.0 / k - delta:.6g}")
        deviation = float(np.max(np.abs(np.linalg.norm(Y, axis=1) - 1.0)))
        if deviation > UNIT_TOL:
            self.problems.append(f"forster_transform: a row norm deviates from 1 by {deviation:.3g}")
