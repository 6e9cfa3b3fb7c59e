"""What a CLI run prints and writes, and how its settings are merged and checked.

The digests pin the `--out` files of single runs, taken before the CLI's
run handlers were folded into `harness.run_single`. They leave out
`--records`: the last bits of a margin depend on BLAS blocking (see
tests/test_record_digests.py), while the summaries, schedules and
coverage pinned here do not.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdlc.cli import build_parser, main
from sdlc.datasets import FAMILIES, LabeledDataset, save_jsonl
from sdlc.harness import ORDERS, ExperimentConfig

PINNED_RUNS = [
    (["run-sphere", "--n", "2000", "--d", "5", "--seed", "11"], None, 0,
     "n=2000 d=5 T=94 k=94 fallback=False mistakes=21",
     "94d69b68ba533819352650e952c80d6e198b34e566c763ff6b1ca0045e20ec71"),
    (["run-sphere", "--n", "100", "--d", "5", "--seed", "11"], None, 0,
     "n=100 d=5 T=50 k=25 fallback=True mistakes=5",
     "0fb4b3ed2722489014f9d7f99fe043605a7f38103747e0df0fc4406edbf0b301"),
    (["run-arbitrary", "--n", "400", "--d", "3", "--eps", "0.1", "--seed", "3"], None, 0,
     "n=400 d=3 coverage=0.9150 mistakes=7 rounds=5 attempts=5 partial=False",
     "01fbb977e8bb1d4ab6a806b3e80badc7edcb21446e2f6c2c2e21734dcc887580"),
    (["run-arbitrary", "--family", "subspace_degenerate", "--n", "300", "--d", "12",
      "--seed", "13", "--eps", "0.1", "--delta", "0.1"], None, 2,
     "n=300 d=12 coverage=0.8900 mistakes=51 rounds=30 attempts=30 partial=True",
     "aa586ab7907620d355227458278134251e5518d4312b73467e4c276c1db41104"),
    (["baseline", "--order", "random", "--n", "2000", "--d", "5", "--seed", "11"], None, 0,
     "n=2000 d=5 order=random mistakes=29",
     "5adcb692d5380eb7b1c0e6e432dd8dc346118a0bda83bc6255bcea13ab7285e6"),
    (["baseline", "--order", "greedy", "--n", "300", "--d", "4", "--seed", "11"], None, 0,
     "n=300 d=4 order=greedy mistakes=157",
     "650449c681041cc1845e3085bb5e4ae6b9801ba6f70c366115c232259032eeee"),
    # Settings from a config file; the int c_prime is written as 2.0.
    (["run-sphere"], {"n": 600, "d": 3, "seed": 4, "c_prime": 2, "c_init": 8, "delta": 0.2}, 0,
     "n=600 d=3 T=18 k=18 fallback=False mistakes=5",
     "e3dd8a327e5ca8b67af64646edf04c70bb4952dbd28122f9268a7e86521be3be"),
    (["run-arbitrary", "--family", "clustered", "--params", '{"num_clusters": 3}'],
     {"n": 500, "d": 4, "seed": 2, "eps": 0.05}, 0,
     "n=500 d=4 coverage=0.9540 mistakes=6 rounds=2 attempts=2 partial=False",
     "161990b3be066dc19d416f7380310955cc9efa8c6852313a9494d141843fc018"),
    (["baseline"], {"n": 300, "d": 3, "seed": 9, "order": "greedy", "family": "low_margin",
                    "family_params": {"gamma": 0.2}}, 0,
     "n=300 d=3 order=greedy mistakes=180",
     "a8d8dd41c0ef8432502578dc645917bee818d32bca3b2a98ac8d437dadb61a30"),
]


@pytest.mark.parametrize("argv, config, code, line, digest", PINNED_RUNS,
                         ids=[f"{i}-{run[0][0]}" for i, run in enumerate(PINNED_RUNS)])
def test_run_payloads_are_pinned(argv, config, code, line, digest, tmp_path, capsys):
    out = tmp_path / "run.json"
    argv = [*argv, "--out", str(out)]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == code
    assert capsys.readouterr().out == line + "\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _write_config(tmp_path, config) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def _no_datasets(monkeypatch) -> list:
    """Record every dataset a CLI call or report cell would draw."""
    import sdlc.cli
    import sdlc.harness

    drawn = []
    for module in (sdlc.cli, sdlc.harness):
        monkeypatch.setattr(module, "make_dataset", lambda *a, **k: drawn.append(a))
    return drawn


def _assert_one_line_error(capsys, *needles) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, err


@pytest.mark.parametrize("command", ["generate", "run-sphere", "run-arbitrary", "baseline", "verify"])
def test_unknown_config_key_exits_1(command, tmp_path, monkeypatch, capsys):
    drawn = _no_datasets(monkeypatch)
    cfg = _write_config(tmp_path, {"cprime": 80})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    _assert_one_line_error(capsys, "unknown config fields", "cprime")
    assert not drawn and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run-sphere", "run-arbitrary", "baseline", "generate"])
@pytest.mark.parametrize("config, needle", [
    ({"cprime": 80, "dleta": 0.5}, "['cprime', 'dleta']"),
    ({"n": 2000.9}, "n must be an integer"),
    ({"n": "2000"}, "n must be an integer"),
    ({"d": True}, "d must be an integer"),
    ({"seed": -1}, "seed must be an integer in [0, "),
    ({"seed": 2**64}, "seed must be an integer in [0, "),
    ({"delta": "0.1"}, "delta must be a number"),
    ({"c_prime": False}, "c_prime must be a number"),
    ({"family": "nope"}, "unknown family 'nope'"),
    ({"family": "low_margin", "family_params": {"gama": 0.3}}, "gama"),
    ({"family_params": {"spread": 0.1}}, "family 'uniform' reads no parameters ['spread']"),
    ({"family": "clustered", "family_params": {"num_clusters": 2.7}}, "num_clusters must be an integer"),
    ({"family": "subspace_degenerate", "family_params": {"k": 2.0}}, "k must be an integer"),
    ({"family": "clustered", "family_params": [1]}, "must be a JSON object"),
    ({"order": "sorted"}, "order must be one of"),
    ({"out": 3}, "out must be a path"),
])
def test_bad_single_run_config_exits_1_before_drawing(command, config, needle, tmp_path, monkeypatch,
                                                     capsys):
    drawn = _no_datasets(monkeypatch)
    assert main([command, "--config", _write_config(tmp_path, config)]) == 1
    _assert_one_line_error(capsys, needle)
    assert not drawn


@pytest.mark.parametrize("family", ["uniform", "clustered", "low_margin", "subspace_degenerate", "grid"])
def test_params_must_be_an_object(family, tmp_path, monkeypatch, capsys):
    drawn = _no_datasets(monkeypatch)
    assert main(["generate", "--family", family, "--params", "[1]", "--n", "20", "--d", "3",
                 "--out", str(tmp_path / "ds.jsonl")]) == 1
    _assert_one_line_error(capsys, "family parameters must be a JSON object")
    assert not drawn


@pytest.mark.parametrize("params, name", [
    ('{"spread": NaN}', "spread"),
    ('{"margin_floor": NaN}', "margin_floor"),
    ('{"boundary_offset": Infinity}', "boundary_offset"),
    ('{"spread": -Infinity}', "spread"),
])
def test_clustered_rejects_non_finite_params_before_drawing(params, name, tmp_path, monkeypatch, capsys):
    # JSON's NaN and Infinity pass the type check; the range check names them
    # before any point is drawn.
    import sdlc.datasets

    drawn = []
    monkeypatch.setattr(sdlc.datasets, "_draw_clustered", lambda *a: drawn.append(a))
    out = tmp_path / "ds.jsonl"
    assert main(["generate", "--family", "clustered", "--params", params, "--n", "50", "--d", "3",
                 "--out", str(out)]) == 1
    _assert_one_line_error(capsys, f"{name} must be positive and finite")
    assert not drawn and not out.exists()


@pytest.mark.parametrize("config, needle", [
    ({"n_grid": ["1000"]}, "n_grid entry must be an integer"),
    ({"d_grid": [True]}, "d_grid entry must be an integer"),
    ({"seeds": [1.5]}, "seeds entry must be an integer"),
    ({"seeds": [-1, 2**64 - 1]}, "seeds entry must be an integer in [0, "),
    ({"family": "nope"}, "unknown family 'nope'"),
    ({"n_grid": 1000}, "n_grid must be a nonempty list"),
    ({"family": "low_margin", "family_params": {"gama": 0.3}}, "gama"),
    ({"alpha_hat": 0.9}, "unknown config fields: ['alpha_hat']"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"mode": None}, "config field 'mode' is missing"),
    # every cell would fail alike: checked over the grid before the first one
    ({"mode": "arbitrary", "n_grid": [100], "seeds": [0, 1], "c_hat": 5e-324}, "c_hat is too small"),
    ({"n_grid": [200, 10**12]}, "n=1000000000000 "),
    ({"mode": "baseline", "d_grid": [3, 10**12]}, "d=1000000000000 "),
    ({"family": "low_margin", "family_params": {"gamma": 2.0}}, "gamma must be in (0, 1), got 2.0"),
    ({"family": "subspace_degenerate", "family_params": {"k": 9}}, "must be in [1, d], got 9"),
    ({"family": "clustered", "family_params": {"spread": -1.0}}, "spread must be positive and finite"),
    ({"family": "clustered", "family_params": {"num_clusters": 100}, "n_grid": [50]},
     "num_clusters must be in [1, n]"),
    ({"family": "grid", "d_grid": [1], "n_grid": [500]}, "cannot produce 500 points in dimension 1"),
    ({"n_grid": [3, 100], "seeds": [0, 1]}, "need at least 4 points to schedule, got 3"),
    ({"mode": "verify"}, "mode must be one of ('sphere', 'arbitrary', 'baseline')"),
    # a repeated grid entry would run its cell twice and count it twice in the fit
    ({"mode": "baseline", "n_grid": [200, 200, 400, 800]}, "n_grid entries must be distinct"),
    ({"d_grid": [3, 4, 3]}, "d_grid entries must be distinct"),
    ({"seeds": [5, 5]}, "seeds entries must be distinct"),
])
def test_bad_report_config_exits_1_before_any_cell(config, needle, tmp_path, monkeypatch, capsys):
    drawn = _no_datasets(monkeypatch)
    # A None value leaves the key out of the file.
    config = {"mode": "sphere", "d_grid": [3], "n_grid": [200], **config}
    cfg = _write_config(tmp_path, {k: v for k, v in config.items() if v is not None})
    assert main(["report", "--config", cfg]) == 1
    _assert_one_line_error(capsys, needle)
    assert not drawn


@pytest.mark.parametrize("argv, needle", [
    (["report", "--mode", "nope"], "argument --mode: invalid choice: 'nope'"),
    (["run-sphere", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
    (["nope"], "invalid choice: 'nope'"),
    (["generate", "--nn", "5"], "unrecognized arguments: --nn 5"),
])
def test_usage_errors_exit_1(argv, needle, capsys):
    assert main(argv) == 1
    _assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("argv, config", [
    (["--c-prime", "1e308"], None),
    ([], {"c_prime": 1.7e308}),
])
def test_huge_c_prime_runs_the_fallback(argv, config, tmp_path, capsys):
    if config is not None:
        argv = [*argv, "--config", _write_config(tmp_path, config)]
    assert main(["run-sphere", "--n", "100", "--d", "3", *argv]) == 0
    assert "T=50 k=25 fallback=True" in capsys.readouterr().out


def test_huge_c_init_runs_like_a_large_one(capsys):
    # the initializer's budget is capped at its prefix, so any c_init past
    # it reads alike
    outs = []
    for c_init in ("1e6", "1e300", "1e308"):
        assert main(["run-sphere", "--n", "1000", "--d", "3", "--c-init", c_init]) == 0
        outs.append(capsys.readouterr().out)
    assert len(set(outs)) == 1


def test_c_hat_with_infinite_retries_exits_1(capsys):
    assert main(["run-arbitrary", "--n", "100", "--d", "3", "--c-hat", "5e-324"]) == 1
    _assert_one_line_error(capsys, "c_hat")


@pytest.mark.parametrize("command, size, needle", [
    ("generate", ["--n", "1000000000000", "--d", "5"], "n=1000000000000 "),
    ("run-sphere", ["--d", "1000000000000"], "d=1000000000000 "),
    ("baseline", ["--n", "1000000000000", "--d", "1000000000000"], "n=1000000000000 "),
])
def test_points_larger_than_memory_exit_1_before_drawing(command, size, needle, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, *size, "--out", str(out)]) == 1
    _assert_one_line_error(capsys, needle, "physical memory")
    assert not out.exists()


@pytest.mark.parametrize("argv, needle", [
    (["--family", "low_margin", "--params", '{"gamma": 2.0}'], "gamma must be in (0, 1), got 2.0"),
    # the checks that depend on n and d read the file's
    (["--family", "clustered", "--params", '{"num_clusters": 51}'], "num_clusters must be in [1, n]"),
    (["--family", "subspace_degenerate", "--params", '{"k": 4}'], "must be in [1, d], got 4"),
])
def test_family_values_are_checked_with_data(argv, needle, tmp_path, capsys):
    path = str(tmp_path / "p.jsonl")
    assert main(["generate", "--n", "50", "--d", "3", "--out", path]) == 0
    capsys.readouterr()
    out = tmp_path / "run.json"
    assert main(["run-sphere", "--data", path, *argv, "--out", str(out)]) == 1
    _assert_one_line_error(capsys, needle)
    assert not out.exists()
    # the same values in range run
    assert main(["run-sphere", "--data", path, "--family", "clustered", "--params", '{"num_clusters": 50}']) == 0


def test_run_ignores_a_truth_orthogonal_to_the_data(tmp_path, capsys):
    # Points in the e1-e2 plane, every label +1: consistent with the truth
    # e3 (sign 0 reads +1), which no retained direction can express.
    angles = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    pts = np.stack([np.cos(angles), np.sin(angles), np.zeros(200)], axis=1)
    outs = []
    for name, truth in (("truth", np.array([0.0, 0.0, 1.0])), ("bare", None)):
        path = str(tmp_path / f"{name}.jsonl")
        save_jsonl(LabeledDataset(pts, np.ones(200), truth), path)
        assert main(["run-arbitrary", "--data", path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_one_config_file_serves_a_run_and_a_report(tmp_path, capsys):
    # A single run reads n, d and seed; report reads the grids and ignores them.
    cfg = _write_config(tmp_path, {"mode": "baseline", "n": 300, "d": 3, "seed": 2,
                                   "n_grid": [200], "d_grid": [3], "seeds": [0, 1]})
    assert main(["run-sphere", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("n=300 d=3 ")
    out = tmp_path / "rep"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    assert [row["seed"] for row in json.loads((tmp_path / "rep.json").read_text())["rows"]] == [0, 1]
    assert main(["report", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    assert [row["seed"] for row in json.loads((tmp_path / "rep.json").read_text())["rows"]] == [5]


# ------------------------------------------- config-file and argv fuzzing

_OUT = "<out>"  # stands in for a path in the example's own directory
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.text(max_size=5),
    st.floats(-2.0, 2.0) | st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
    st.lists(st.integers(-1, 6) | st.booleans() | st.text(max_size=2), max_size=3),
)
# Values a subcommand accepts, kept small: n <= 200 and d <= 6, or else
# 10**12, which is rejected before anything is allocated.
_N = st.integers(1, 200) | st.just(10**12)
_D = st.integers(1, 6) | st.just(10**12)
_VALID = {
    "mode": st.sampled_from(["sphere", "arbitrary", "baseline"]),
    "n": _N, "d": _D, "seed": st.integers(0, 2**64 - 1),
    "n_grid": st.lists(_N, min_size=1, max_size=2),
    "d_grid": st.lists(_D, min_size=1, max_size=2),
    "seeds": st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True),
    "delta": st.floats(0.01, 0.99), "eps": st.floats(0.01, 1.0),
    "c_prime": st.floats(0.1, 10.0), "c_init": st.floats(0.1, 20.0), "c_hat": st.floats(0.05, 1.0),
    "family": st.sampled_from(FAMILIES),
    "family_params": st.dictionaries(
        st.sampled_from(["num_clusters", "spread", "gamma", "rho", "k", "x"]),
        st.integers(1, 4) | st.floats(0.05, 0.95), max_size=2),
    "order": st.sampled_from(ORDERS),
    # Never a string but _OUT: a drawn string would be written as a file.
    "out": st.sampled_from([_OUT, None, 3, [_OUT]]),
}
assert set(_VALID) == {f.name for f in dataclasses.fields(ExperimentConfig)} | {"n", "d", "seed"}


@st.composite
def _configs(draw):
    """Keys and values a subcommand accepts, then up to two keys with junk values."""
    config = draw(st.fixed_dictionaries({}, optional=_VALID))
    for key in draw(st.lists(st.sampled_from(sorted(set(_VALID) - {"out"}) + ["cprime"]), max_size=2)):
        config[key] = draw(_JUNK)
    return config


def _flag(key: str) -> str:
    return "--params" if key == "family_params" else "--" + key.replace("_", "-")


# The slowest example took 46 ms (2-core x86 box, Python 3.11): the
# deadline is over 40 times that.
@settings(max_examples=100, deadline=2000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["generate", "run-sphere", "run-arbitrary", "baseline", "report"]),
       config=_configs(), data=st.data())
def test_config_files_never_crash(command, config, data):
    # Settings the subcommand has a flag for (its flags default to None)
    # may move from the file to the command line, as text. An --out there
    # is any text's path, so only the example's own path goes.
    flagged = {k for k, v in vars(build_parser().parse_args([command])).items() if v is None}
    keys = sorted(k for k in flagged & set(config) if k != "out" or config[k] == _OUT)
    on_argv = data.draw(st.sets(st.sampled_from(keys)), label="on argv") if keys else set()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        config = {k: out if v == _OUT else v for k, v in config.items()}
        path = os.path.join(tmp, "cfg.json")
        argv = [command, "--config", path]
        for key in sorted(on_argv):
            value = config.pop(key)
            argv += [_flag(key), value if isinstance(value, str) else json.dumps(value)]
        with open(path, "w") as fh:
            json.dump(config, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 1:
        assert stderr.getvalue().startswith("error: "), stderr.getvalue()
