"""The benchmark's tracer and metric list still match the package.

The traced benchmark run looks up every function it wraps by module and
name (`bench/spans.py` TARGETS). A renamed or deleted function would make
every traced run crash; these checks catch it in the test suite instead.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    """Import bench/<name>.py as a private module, leaving sys.path alone."""
    mod_name = f"_bench_{name}"
    if mod_name in sys.modules:
        return sys.modules[mod_name]
    spec = importlib.util.spec_from_file_location(mod_name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[mod_name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    # workloads imports every sdlc module the tracer patches, sdlc.cli included.
    _load("workloads")
    return _load("spans")


def test_every_traced_target_resolves(spans):
    for span, target in spans.TARGETS.items():
        module = importlib.import_module(target[0])
        if len(target) == 3:
            cls = getattr(module, target[1])
            assert target[2] in cls.__dict__, span
            assert callable(cls.__dict__[target[2]]), span
        else:
            assert callable(getattr(module, target[1], None)), span


def test_install_then_uninstall_restores_every_original(spans):
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "sdlc" or name.startswith("sdlc.")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    methods = {span: sys.modules[t[0]].__dict__[t[1]].__dict__[t[2]]
               for span, t in spans.TARGETS.items() if len(t) == 3}
    functions = {span: getattr(sys.modules[t[0]], t[1])
                 for span, t in spans.TARGETS.items() if len(t) == 2}

    tracer = spans.Tracer()
    tracer.install()
    try:
        for span, original in functions.items():
            t = spans.TARGETS[span]
            assert getattr(sys.modules[t[0]], t[1]).__wrapped__ is original, span
        for span, original in methods.items():
            t = spans.TARGETS[span]
            cls = getattr(sys.modules[t[0]], t[1])
            assert cls.__dict__[t[2]].__wrapped__ is original, span
    finally:
        tracer.uninstall()

    for name, mod in modules.items():
        namespace = vars(mod)
        for attr, value in before[name].items():
            assert namespace[attr] is value, f"{name}.{attr}"
    for span, original in methods.items():
        t = spans.TARGETS[span]
        assert getattr(sys.modules[t[0]], t[1]).__dict__[t[2]] is original, span


def test_per_layer_metrics_match_benchmark_json(spans):
    workloads = _load("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(spans.metric_units()) | set(workloads.ROUND_METRICS)
    assert {m["name"] for m in declared} == produced


def test_traced_grids_run_clean(spans):
    # A hook that reads a removed result field would raise inside a cell,
    # which run_experiment records as a cell error.
    from sdlc import harness

    configs = [
        harness.ExperimentConfig(mode="sphere", d_grid=[3], n_grid=[100, 300], seeds=[0, 1]),
        harness.ExperimentConfig(mode="arbitrary", d_grid=[3], n_grid=[300], seeds=[0], eps=0.1,
                                 family="clustered"),
        harness.ExperimentConfig(mode="baseline", d_grid=[3], n_grid=[300], seeds=[0], order="random"),
        harness.ExperimentConfig(mode="baseline", d_grid=[3], n_grid=[300], seeds=[0], order="greedy"),
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.start_round()
        reports = [harness.run_experiment(cfg) for cfg in configs]
        metrics = tracer.finish_round()["per_layer"]
    finally:
        tracer.uninstall()
    assert [report.errors for report in reports] == [[]] * len(configs)
    assert tracer.problems == []
    assert metrics["perceptron.passes"] > 0 and metrics["arbitrary.weak_runs"] > 0
