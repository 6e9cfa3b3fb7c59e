"""Experiment grids, scaling fits, the verification battery, and the CLI."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from sdlc.cli import _RUN_LINES, build_parser, main
from sdlc.datasets import load_jsonl
from sdlc.harness import (
    CSV_COLUMNS,
    MODES,
    RUN_KEYS,
    ExperimentConfig,
    fit_scaling,
    run_experiment,
    run_trial,
    run_verify,
)


# --------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(mode="quantum")
    with pytest.raises(ValueError):
        ExperimentConfig(mode="sphere", n_grid=[])
    with pytest.raises(ValueError):
        ExperimentConfig(mode="sphere", seeds=[1, 1])
    with pytest.raises(ValueError):
        ExperimentConfig(mode="sphere", delta=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="arbitrary", eps=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="baseline", order="sorted")
    for name, value in [("c_prime", 0.0), ("c_prime", math.inf), ("c_init", -1.0),
                        ("c_init", math.nan), ("c_hat", 0.0), ("c_hat", 1.5)]:
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(mode="sphere", **{name: value})
    # Exact types and ranges: no bool, float or string where an int goes,
    # and seeds in [0, 2**64), where RngStream keeps them apart.
    for name, value in [("n_grid", ["1000"]), ("d_grid", [True]), ("seeds", [1.5]),
                        ("seeds", [-1]), ("seeds", [2**64]), ("n_grid", [0]), ("d_grid", 5),
                        ("delta", "0.1"), ("eps", None), ("c_prime", True), ("family", "nope"),
                        ("out", 3)]:
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(mode="sphere", **{name: value})
    for family, params in [("low_margin", {"gama": 0.3}), ("uniform", {"rho": 0.5}),
                           ("clustered", {"num_clusters": 2.7}), ("subspace_degenerate", {"k": 2.0}),
                           ("grid", {"spread": 0.1}), ("uniform", [1])]:
        with pytest.raises(ValueError, match="famil"):
            ExperimentConfig(mode="arbitrary", family=family, family_params=params)
    assert ExperimentConfig(mode="sphere", seeds=[0, 2**64 - 1], c_prime=80).c_prime == 80
    # eps = 1.0 is the explicit "no coverage requirement" setting
    assert ExperimentConfig(mode="arbitrary", eps=1.0).eps == 1.0


def test_readme_config_keys_exist():
    # Every lower-case key the README's "keys it reads" table names is one a
    # config file may hold: a key that left ExperimentConfig leaves the table.
    # Its rows are the parser's subcommands.
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        table = fh.read().split("| subcommand | keys it reads |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()]
    commands = {command.strip().strip("`") for command, _ in rows}
    keys = {key for _, read in rows for key in re.findall(r"`([a-z_]+)`", read)} - commands
    assert commands == set(next(a for a in build_parser()._actions if a.dest == "command").choices)
    assert keys <= {f.name for f in dataclasses.fields(ExperimentConfig)} | set(RUN_KEYS)


def test_config_round_trip_and_unknown_fields():
    cfg = ExperimentConfig(mode="sphere", d_grid=[2, 3], seeds=[4, 5], delta=0.2)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({"mode": "sphere", "horizon": 3})


# ----------------------------------------------------------------------- fits

def test_fit_scaling_recovers_exact_log_law():
    pts = [(n, 3.0 * math.log(n) + 2.0) for n in (10, 100, 1000, 10_000)]
    fit = fit_scaling(pts)
    assert fit["log"]["b"] == pytest.approx(3.0)
    assert fit["log"]["a"] == pytest.approx(2.0)
    assert fit["log"]["r2"] == pytest.approx(1.0)
    assert fit["loglog"]["r2"] < 1.0


def test_fit_scaling_recovers_exact_loglog_law():
    pts = [(n, 5.0 * math.log(math.log(n)) + 1.0) for n in (10, 100, 1000, 10_000)]
    fit = fit_scaling(pts)
    assert fit["loglog"]["b"] == pytest.approx(5.0)
    assert fit["loglog"]["r2"] == pytest.approx(1.0)


def test_fit_scaling_constant_target():
    fit = fit_scaling([(10, 7.0), (100, 7.0), (1000, 7.0)])
    assert fit["log"]["r2"] == 1.0 and fit["loglog"]["r2"] == 1.0
    assert fit["log"]["b"] == pytest.approx(0.0)


def test_fit_scaling_validation():
    with pytest.raises(ValueError):
        fit_scaling([(10, 1.0), (10, 2.0), (100, 3.0)])
    with pytest.raises(ValueError):
        fit_scaling([(1, 1.0), (10, 2.0), (100, 3.0)])


# --------------------------------------------------------------------- trials

def test_run_trial_rows_are_deterministic():
    cfg = ExperimentConfig(mode="sphere", d_grid=[4], n_grid=[500])
    a = run_trial(cfg, 4, 500, 7)
    b = run_trial(cfg, 4, 500, 7)
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert a == b
    assert a["mode"] == "sphere" and a["coverage"] == 1.0
    assert isinstance(a["mistakes"], int)


def test_run_trial_modes():
    row = run_trial(ExperimentConfig(mode="baseline", order="greedy"), 3, 200, 0)
    assert row["coverage"] == 1.0
    row = run_trial(ExperimentConfig(mode="arbitrary", eps=0.1), 3, 200, 0)
    assert 0.9 <= row["coverage"] <= 1.0
    with pytest.raises(ValueError, match="mode must be one of"):
        ExperimentConfig(mode="verify")


def test_every_grid_mode_has_a_single_run_subcommand():
    # The grid measures learners: each mode is one that run-sphere,
    # run-arbitrary or baseline runs alone.
    assert set(_RUN_LINES) == set(MODES)


# ---------------------------------------------------------------- experiments

def test_run_experiment_grid_and_fits(tmp_path):
    out = tmp_path / "rep.json"
    cfg = ExperimentConfig(
        mode="sphere", d_grid=[3], n_grid=[200, 400, 800], seeds=[0, 1],
        out=str(out),
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 6
    assert len(report.cells) == 3
    assert not report.errors
    for cell in report.cells:
        assert cell["trials"] == 2
        assert {"mean_mistakes", "median_mistakes", "stderr_mistakes",
                "mean_coverage", "mean_runtime_ms"} <= set(cell)
    assert len(report.fits) == 1
    fit = report.fits[0]
    assert fit["d"] == 3 and fit["n_values"] == [200, 400, 800]
    assert {"log", "loglog"} <= set(fit)

    assert out.exists()
    csv_path = tmp_path / "rep.csv"
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 7
    parsed = json.loads(out.read_text())
    assert parsed["config"] == cfg.to_dict()


def test_run_experiment_records_cell_failures():
    cfg = ExperimentConfig(mode="baseline", d_grid=[2], n_grid=[50],
                           seeds=[0], family="clustered", family_params={"margin_floor": 0.9})
    report = run_experiment(cfg)
    assert not report.rows
    assert len(report.errors) == 1
    assert report.errors[0]["error"].startswith("InfeasibleParametersError: ")
    assert report.cells[0]["trials"] == 0
    assert not report.fits


def test_report_json_is_deterministic_without_runtime():
    cfg = dict(mode="sphere", d_grid=[4], n_grid=[400], seeds=[0, 1])
    a = run_experiment(ExperimentConfig(**cfg)).to_json(include_runtime=False)
    b = run_experiment(ExperimentConfig(**cfg)).to_json(include_runtime=False)
    assert a == b
    assert "runtime" not in a


# sha256 of json.dumps(run_verify(0), sort_keys=True), computed before the
# blocked Monte-Carlo kernels and the per-core checks: a speed change must
# not move a single result byte.
VERIFY_SEED0_DIGEST = "81d8b9cc8f90c0b06122fb59afac908fd6582f5e37804a77daa2f1af97bb6482"


def test_run_verify_seed0():
    results = run_verify(0)
    assert len(results) == 12
    for check in results:
        assert check["passed"], check["name"]
        assert check["empirical"] <= check["bound"] + 3.0 * check["std_err"] + 1e-12
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_SEED0_DIGEST


# ------------------------------------------------------------------------ CLI

def test_cli_generate_and_load(tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert main(["generate", "--n", "50", "--d", "3", "--out", str(out)]) == 0
    assert "wrote 50 points in dimension 3" in capsys.readouterr().out
    ds = load_jsonl(str(out))
    assert ds.n == 50 and ds.d == 3


@pytest.mark.parametrize("argv, cfg", [
    (["run-sphere"], ExperimentConfig(mode="sphere")),
    (["baseline", "--order", "random"], ExperimentConfig(mode="baseline", order="random")),
    (["baseline", "--order", "greedy"], ExperimentConfig(mode="baseline", order="greedy")),
    (["run-arbitrary"], ExperimentConfig(mode="arbitrary")),
], ids=["run-sphere", "baseline-random", "baseline-greedy", "run-arbitrary"])
def test_cli_and_harness_agree(argv, cfg, tmp_path, capsys):
    # Same seed, same defaults: a CLI run and a harness trial draw the same
    # dataset from the same streams, so they make the same mistakes.
    seed = 11
    out = tmp_path / "run.json"
    code = main([*argv, "--n", "2000", "--d", "5", "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    row = run_trial(cfg, 5, 2000, seed)
    assert json.loads(out.read_text())["summary"]["mistakes"] == row["mistakes"]


def test_module_entry_point_runs_with_the_bare_package(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "ds.jsonl"
    for args in (["--help"], ["generate", "--n", "50", "--d", "3", "--out", str(out)]):
        proc = subprocess.run([sys.executable, "-m", "sdlc.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert load_jsonl(str(out)).n == 50


def test_cli_import_stays_light():
    # Startup time of every CLI call and bench probe: these modules belong
    # inside the functions that need them, or in the tests.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    heavy = ("concurrent.futures", "multiprocessing", "logging", "tracemalloc", "scipy", "hypothesis")
    code = ("import sys, sdlc.cli, sdlc.harness; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_cli_generate_requires_out():
    assert main(["generate", "--n", "10", "--d", "2"]) == 1


def test_cli_run_sphere_payload(tmp_path, capsys):
    data = tmp_path / "ds.jsonl"
    main(["generate", "--n", "300", "--d", "4", "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "run.json"
    code = main(["run-sphere", "--data", str(data), "--out", str(out), "--records"])
    assert code == 0
    assert "fallback=False mistakes=" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert set(payload) == {"mode", "seed", "schedule", "summary", "transcript"}
    assert payload["mode"] == "sphere"
    assert set(payload["schedule"]) == {"n", "d", "delta", "c_prime", "T", "k", "N", "fallback"}
    assert payload["summary"]["predictions"] == 300
    assert len(payload["transcript"]["records"]) == 300


def test_cli_run_sphere_is_reproducible(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["run-sphere", "--n", "400", "--d", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_cli_run_arbitrary(tmp_path, capsys):
    out = tmp_path / "arb.json"
    code = main(["run-arbitrary", "--n", "400", "--d", "3", "--eps", "0.1",
                 "--out", str(out)])
    assert code == 0
    assert "partial=False" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["coverage"] >= 0.9
    assert payload["mode"] == "arbitrary"


def test_cli_run_arbitrary_partial_exits_2(tmp_path, capsys):
    out = tmp_path / "arb.json"
    code = main(["run-arbitrary", "--family", "subspace_degenerate", "--n", "300",
                 "--d", "12", "--seed", "13", "--eps", "0.1", "--delta", "0.1",
                 "--out", str(out)])
    assert code == 2
    assert "partial=True" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["partial"] is True
    assert payload["coverage"] < 0.9


def test_cli_baseline_orders(capsys):
    assert main(["baseline", "--n", "200", "--d", "3", "--order", "greedy"]) == 0
    assert "order=greedy" in capsys.readouterr().out
    assert main(["baseline", "--n", "200", "--d", "3"]) == 0
    assert "order=random" in capsys.readouterr().out


def test_cli_verify_exit_codes(monkeypatch, tmp_path, capsys):
    import sdlc.cli as cli_mod

    def stub_pass(seed=0):
        return [{"name": "stub-check", "empirical": 0.0, "bound": 1.0,
                 "std_err": 0.0, "trials": 100, "passed": True}]

    monkeypatch.setattr(cli_mod, "run_verify", stub_pass)
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    assert "stub-check" in capsys.readouterr().out
    assert json.loads(out.read_text())["all_passed"] is True

    def stub_fail(seed=0):
        return [{"name": "stub-check", "empirical": 1.0, "bound": 0.0,
                 "std_err": 0.0, "trials": 100, "passed": False}]

    monkeypatch.setattr(cli_mod, "run_verify", stub_fail)
    assert main(["verify"]) == 2


def test_cli_report_flags_failures(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "baseline", "d_grid": [2], "n_grid": [50],
        "seeds": [0], "family": "clustered", "family_params": {"margin_floor": 0.9},
    }))
    assert main(["report", "--config", str(cfg)]) == 2
    assert "cell failed" in capsys.readouterr().err


def test_cli_report_happy_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "sphere", "d_grid": [3], "n_grid": [200], "seeds": [0, 1],
    }))
    assert main(["report", "--config", str(cfg)]) == 0
    assert "mean mistakes" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path, capsys):
    assert main(["run-sphere", "--data", "/nonexistent/nowhere.jsonl"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["run-sphere", "--n", "100", "--d", "3", "--c-init", "-1"]) == 1
    assert "c_init must be positive" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "sphere", "d_grid": [3], "n_grid": [100], "c_init": -1}))
    assert main(["report", "--config", str(cfg)]) == 1
    assert "c_init must be positive" in capsys.readouterr().err
    data = tmp_path / "huge_n.jsonl"
    data.write_text('{"d": 2, "n": 1000000000000}\n{"x": [1.0, 0.0], "y": 1}\n')
    assert main(["run-sphere", "--data", str(data)]) == 1
    assert "line 1: bad header" in capsys.readouterr().err


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 30, "d": 2}))
    out = tmp_path / "ds.jsonl"
    assert main(["generate", "--config", str(cfg), "--n", "40",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    ds = load_jsonl(str(out))
    assert ds.n == 40 and ds.d == 2
