"""Acceptance battery.

Ten criteria, A1 through A10, each as one test that prints a single
verdict line ("A<k> <name>: PASS|FAIL (measurements)") before asserting,
so the verdict table is visible even when a criterion fails. Run with
`pytest tests/test_acceptance.py -s` to see all ten lines.

A1 compares the self-directed learner with the random-order baseline
over SEPARATION_GRID: the mean-mistake ratio at n = 10^6 and which of
ln n and ln ln n fits each curve better. The grid starts at n = 10^2 so
that, on 20 seeds, the two shape fits are decided by the curves and not
by seed noise.
"""

import json
import math
import time

import numpy as np
import pytest

from sdlc.arbitrary import strong_run, weak_run
from sdlc.cli import main
from sdlc.datasets import ARBITRARY_FAMILIES, gen_arbitrary, gen_uniform_sphere
from sdlc.forster import forster_transform, rip_check, soft_margin_audit
from sdlc.geometry import RngStream, predict_sign, sample_sphere_batch
from sdlc.harness import (
    STREAM_DATA,
    STREAM_LEARNER,
    STREAM_VERIFY,
    ExperimentConfig,
    run_experiment,
)
from sdlc.oracles import (
    mc_best_mistake_margin,
    mc_disagreement_mass,
    mc_max_margin_tail,
    simulate_superlinear,
    superlinear_rounds,
    superlinear_step,
)
from sdlc.transcript import LabelOracle

SEPARATION_GRID = dict(
    d_grid=[10],
    n_grid=[100, 1_000, 10_000, 100_000, 1_000_000],
    seeds=list(range(20)),
)


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


@pytest.fixture(scope="module")
def separation_grids():
    start = time.perf_counter()
    sphere = run_experiment(ExperimentConfig(mode="sphere", **SEPARATION_GRID))
    baseline = run_experiment(ExperimentConfig(mode="baseline", **SEPARATION_GRID))
    elapsed = time.perf_counter() - start
    return sphere, baseline, elapsed


def test_a01_separation(separation_grids):
    sphere, baseline, elapsed = separation_grids
    assert not sphere.errors and not baseline.errors
    s_mean = {c["n"]: c["mean_mistakes"] for c in sphere.cells}
    b_mean = {c["n"]: c["mean_mistakes"] for c in baseline.cells}
    ratio = s_mean[1_000_000] / b_mean[1_000_000]
    s_fit, b_fit = sphere.fits[0], baseline.fits[0]

    clauses = {
        "mean-ratio<=0.6": ratio <= 0.6,
        "self-directed lnln-R2>ln-R2":
            s_fit["loglog"]["r2"] > s_fit["log"]["r2"],
        "baseline ln-R2>lnln-R2":
            b_fit["log"]["r2"] > b_fit["loglog"]["r2"],
        "runtime<10min": elapsed < 600.0,
    }
    ok = all(clauses.values())
    detail = (
        f"mistakes at n=1e6: self-directed {s_mean[1_000_000]:.1f} vs baseline "
        f"{b_mean[1_000_000]:.1f}, ratio {ratio:.3f}; "
        f"self-directed R2 lnln={s_fit['loglog']['r2']:.4f} ln={s_fit['log']['r2']:.4f}; "
        f"baseline R2 ln={b_fit['log']['r2']:.4f} lnln={b_fit['loglog']['r2']:.4f}; "
        f"{elapsed:.0f}s; "
        + ", ".join(f"{k}: {'ok' if v else 'VIOLATED'}" for k, v in clauses.items())
    )
    verdict("A1 separation", ok, detail)
    assert ok, detail


def test_separation_self_directed_meets_absolute_budget(separation_grids):
    # supporting evidence, not an A-criterion: the measured curve sits
    # under 6 d lnln n, the target regime's absolute budget
    sphere, _, _ = separation_grids
    s_mean = {c["n"]: c["mean_mistakes"] for c in sphere.cells}
    for n, mean in s_mean.items():
        assert mean <= 6.0 * 10 * math.log(math.log(n)), (n, mean)


def test_separation_baseline_grows_logarithmically(separation_grids):
    _, baseline, _ = separation_grids
    b_mean = [c["mean_mistakes"] for c in sorted(baseline.cells, key=lambda c: c["n"])]
    assert all(a < b for a, b in zip(b_mean, b_mean[1:]))
    assert baseline.fits[0]["log"]["b"] > 0.0


def test_a02_decay_law():
    need = 10_000
    d = 5
    rng = RngStream(1234, 0)
    start = time.perf_counter()
    cols = {"dots": [], "wx": [], "sx": [], "w_next_dot": [], "w_next_norm": []}
    batch = 0
    got = 0
    while got < need:
        ws = sample_sphere_batch(20_000, d, rng.child(3 * batch))
        stars = sample_sphere_batch(20_000, d, rng.child(3 * batch + 1))
        xs = sample_sphere_batch(20_000, d, rng.child(3 * batch + 2))
        batch += 1
        dots = np.einsum("ij,ij->i", ws, stars)
        stars = np.where(dots[:, None] < 0.0, -stars, stars)  # force theta < pi/2
        dots = np.abs(dots)
        wx = np.einsum("ij,ij->i", ws, xs)
        sx = np.einsum("ij,ij->i", stars, xs)
        mask = (wx * sx < 0.0) & (dots > 1e-9) & (dots < 1.0 - 1e-9)
        w_next = ws[mask] - wx[mask, None] * xs[mask]
        cols["dots"].append(dots[mask])
        cols["wx"].append(wx[mask])
        cols["sx"].append(sx[mask])
        cols["w_next_dot"].append(np.einsum("ij,ij->i", w_next, stars[mask]))
        cols["w_next_norm"].append(np.linalg.norm(w_next, axis=1))
        got += int(mask.sum())

    dots = np.concatenate(cols["dots"])[:need]
    wx = np.concatenate(cols["wx"])[:need]
    nd = np.concatenate(cols["w_next_dot"])[:need]
    nn = np.concatenate(cols["w_next_norm"])[:need]

    sin_t = np.sqrt(1.0 - dots ** 2)
    tan_before = sin_t / dots
    r = np.abs(wx) / sin_t  # ||w|| = 1
    cos_after = nd / nn
    tan_after = np.sqrt(np.maximum(0.0, 1.0 - cos_after ** 2)) / cos_after

    r_bad = int(np.count_nonzero(r > 1.0 + 1e-9))
    mono_bad = int(np.count_nonzero(tan_after > tan_before + 1e-9))
    r_cl = np.minimum(r, 1.0)
    decay_bad = int(np.count_nonzero(
        tan_after ** 2 > (1.0 - r_cl ** 2) * tan_before ** 2 + 1e-9))
    elapsed = time.perf_counter() - start

    ok = r_bad == 0 and mono_bad == 0 and decay_bad == 0 and elapsed < 5.0
    detail = (f"{need} mistake triples: r>1 in {r_bad}, monotonicity violated in "
              f"{mono_bad}, decay factor violated in {decay_bad}; {elapsed:.2f}s")
    verdict("A2 decay law", ok, detail)
    assert ok, detail


def test_a03_disagreement_mass():
    rng = RngStream(0, STREAM_VERIFY)
    start = time.perf_counter()
    results = [
        (theta, mc_disagreement_mass(3, theta, 10_000, 1000, rng.child(i)))
        for i, theta in enumerate((0.1, math.pi / 4, math.pi / 2))
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for _, r in results) and elapsed < 30.0
    detail = "; ".join(
        f"theta={t:.4g}: |mean-target|={r.empirical:.2e} vs 3se={3 * r.std_err:.2e}"
        for t, r in results
    ) + f"; {elapsed:.1f}s"
    verdict("A3 disagreement mass", ok, detail)
    assert ok, detail


def test_a04_anti_concentration():
    rng = RngStream(0, STREAM_VERIFY)
    cells = [
        ("max-margin case1 d=3", lambda r: mc_max_margin_tail(3, math.pi / 2, 100, 0.5, 1, 2000, r)),
        ("max-margin case1 d=6", lambda r: mc_max_margin_tail(6, math.pi / 3, 40, 0.3, 1, 2000, r)),
        ("max-margin case2 d=4", lambda r: mc_max_margin_tail(4, 1.0, 50, 0.5, 2, 2000, r)),
        ("max-margin case2 d=2", lambda r: mc_max_margin_tail(2, math.pi / 4, 30, 0.6, 2, 2000, r)),
        ("max-margin case2 d=2 tight", lambda r: mc_max_margin_tail(2, math.pi / 2, 5, 0.7, 2, 4000, r)),
        ("best-mistake case1", lambda r: mc_best_mistake_margin(4, 0.5, 10_000, 4.0, 1, 2000, r)),
        ("best-mistake case2", lambda r: mc_best_mistake_margin(4, 0.5, 10_000, 4.0, 2, 2000, r)),
    ]
    start = time.perf_counter()
    rows = []
    for i, (name, fn) in enumerate(cells):
        res = fn(rng.child(100 + i))
        assert res.bound < 1.0, f"{name} bound is vacuous"
        rows.append((name, res))
    elapsed = time.perf_counter() - start
    ok = all(r.passed for _, r in rows) and elapsed < 120.0
    detail = "; ".join(
        f"{name}: emp={r.empirical:.4g} bound={r.bound:.4g}" for name, r in rows
    ) + f"; {elapsed:.1f}s"
    verdict("A4 anti-concentration", ok, detail)
    assert ok, detail


def test_a05_superlinear_convergence():
    start = time.perf_counter()
    sim = simulate_superlinear(0.125, 1e-6, 1.0, 2.0 / 3.0, 0.1, 10_000,
                               RngStream(5, STREAM_VERIFY))
    x1 = superlinear_step(1.0, 0.5, 0.01)
    x2 = superlinear_step(x1, 0.5, 0.01)
    T = superlinear_rounds(0.5, 0.01, 1.0, 0.1)
    xi = 1.0
    for _ in range(T):
        xi = superlinear_step(xi, 0.5, 0.01)
    elapsed = time.perf_counter() - start

    det_ok = (abs(x1 - 0.1) < 1e-12
              and abs(x2 - 0.0316227766016838) < 1e-9
              and xi <= math.e ** 2 * 0.01)
    ok = sim.passed and det_ok and elapsed < 10.0
    detail = (f"failure freq {sim.empirical:.4f} <= delta {sim.bound} + 3se "
              f"{3 * sim.std_err:.4f} at T={sim.details['rounds']}; deterministic "
              f"chain xi1={x1:.4g}, xi2={x2:.4g}, xi_T={xi:.4g}; {elapsed:.1f}s")
    verdict("A5 superlinear convergence", ok, detail)
    assert ok, detail


def test_a06_isotropic_position():
    families = ("clustered", "low_margin", "subspace_degenerate", "grid", "uniform")
    start = time.perf_counter()
    worst_slack = math.inf
    checked = 0
    for i in range(50):
        family = families[i % 5]
        d = 2 + i % 9
        n = 100 + 97 * (i % 13)
        rng = RngStream(300 + i, STREAM_DATA)
        if family == "uniform":
            ds = gen_uniform_sphere(n, d, rng)
        else:
            ds = gen_arbitrary(family, n, d, {}, rng)
        out = forster_transform(ds.points, 1.0 / (2.0 * d))
        k = out.subspace_dim
        assert out.rip_report.passed, (i, family)
        assert rip_check(out.transformed_points, 1.0 / (2.0 * k)).passed, (i, family)
        assert out.fraction >= k / d - 1e-12, (i, family)
        if family == "subspace_degenerate":
            planted = max(1, d // 2)
            assert k == planted, (i, d, k)
            assert out.fraction >= 0.79, (i, out.fraction)
        dirs = sample_sphere_batch(1000, k, RngStream(900 + i, STREAM_VERIFY))
        fracs = (np.abs(out.transformed_points @ dirs.T)
                 >= 1.0 / (2.0 * math.sqrt(k))).mean(axis=0)
        worst_slack = min(worst_slack, float(fracs.min()) - 1.0 / (4.0 * k))
        assert float(fracs.min()) >= 1.0 / (4.0 * k), (i, family)
        # the scalar audit agrees with the vectorized sweep
        assert soft_margin_audit(out.transformed_points, dirs[0]) == pytest.approx(
            float(fracs[0]), abs=1e-12)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 50 and elapsed < 120.0
    detail = (f"{checked}/50 datasets in isotropic position; worst soft-margin "
              f"slack over 1000 directions each: {worst_slack:+.4f}; {elapsed:.1f}s")
    verdict("A6 isotropic position", ok, detail)
    assert ok, detail


def test_a07_weak_learner_contract():
    runs = 0
    coverage_hits = 0
    for seed in range(50):
        d = 2 + seed % 9
        n = 200 + 37 * (seed % 11)
        for fi, family in enumerate(ARBITRARY_FAMILIES):
            ds = gen_arbitrary(family, n, d, {}, RngStream(seed, STREAM_DATA).child(fi))
            oracle = LabelOracle(ds)
            res = weak_run(oracle, RngStream(seed, STREAM_LEARNER).child(fi))
            assert res.mistakes <= 5.0 * res.k * math.log(max(res.k, 1)) + 1.0, (seed, family)
            assert res.revealed == len(oracle.transcript), (seed, family)
            for r in oracle.transcript.records():
                assert r.truth == ds.labels[r.index], (seed, family, r.index)
            if res.terminated_by == "coverage":
                coverage_hits += 1
                assert res.revealed >= res.coverage_target, (seed, family)
            runs += 1
    freq = coverage_hits / runs
    ok = runs == 200 and freq >= 0.3
    detail = (f"{runs} runs: mistake bound and label correctness held in all; "
              f"coverage-termination frequency {freq:.2f} >= 0.3")
    verdict("A7 weak learner contract", ok, detail)
    assert ok, detail


def test_a08_strong_learner():
    # C frozen at 0.5 on calibration seeds 1000-1019 before this battery
    # was locked; acceptance runs on seeds 0-49 only.
    d, n, eps, delta = 5, 5000, 0.01, 0.1
    cap = 0.5 * d * d * math.log(d / (eps * delta))
    start = time.perf_counter()
    covered = 0
    worst = 0
    for seed in range(50):
        ds = gen_uniform_sphere(n, d, RngStream(seed, STREAM_DATA))
        res = strong_run(ds, eps, delta, RngStream(seed, STREAM_LEARNER))
        worst = max(worst, res.mistakes)
        assert res.mistakes <= cap, (seed, res.mistakes, cap)
        if res.labeled_count >= math.ceil((1.0 - eps) * n):
            covered += 1
    elapsed = time.perf_counter() - start
    ok = covered >= 45 and elapsed < 300.0
    detail = (f"coverage >= 0.99n in {covered}/50 runs (need 45); worst mistakes "
              f"{worst} <= cap {cap:.1f}; {elapsed:.1f}s")
    verdict("A8 strong learner", ok, detail)
    assert ok, detail


def test_a09_margin_mistake_cap():
    # synthetic 2-D sequences that keep every update at margin exactly
    # beta*||w|| while disagreeing with the fixed normal e1; the update
    # count must stay under ceil((2/beta^2) ln(1/alpha))
    violations = 0
    min_slack = math.inf
    for trial in range(1000):
        gen = RngStream(600 + trial, 0).gen
        alpha = float(gen.uniform(0.05, 0.95))
        beta = float(gen.uniform(0.15, 1.0))
        w = np.array([alpha, math.sqrt(1.0 - alpha * alpha)])
        bound = math.ceil((2.0 / beta ** 2) * math.log(1.0 / alpha))
        updates = 0
        while updates <= bound + 2:
            psi = math.atan2(w[1], w[0])
            step = None
            for cos_val in (beta, -beta):
                for sgn in (1.0, -1.0):
                    phi = psi + sgn * math.acos(cos_val)
                    x = np.array([math.cos(phi), math.sin(phi)])
                    m = float(w @ x)
                    if predict_sign(m) != predict_sign(x[0]):
                        step = (x, m)
                        break
                if step:
                    break
            if step is None:
                break
            x, m = step
            w = w - m * x
            updates += 1
        if updates > bound:
            violations += 1
        min_slack = min(min_slack, bound - updates)
        # precondition bookkeeping: correlation with e1 never dropped
        assert w[0] / np.linalg.norm(w) >= alpha - 1e-9
    ok = violations == 0
    detail = f"1000 sequences: {violations} bound violations; min slack {min_slack}"
    verdict("A9 margin-mistake cap", ok, detail)
    assert ok, detail


def test_a10_determinism(tmp_path):
    cfg = dict(mode="sphere", d_grid=[4], n_grid=[400], seeds=[0, 1])
    rep_a = run_experiment(ExperimentConfig(**cfg)).to_json(include_runtime=False)
    rep_b = run_experiment(ExperimentConfig(**cfg)).to_json(include_runtime=False)
    report_ok = rep_a == rep_b

    payloads = {}
    for cmd, extra in (("run-sphere", ["--n", "500", "--d", "4", "--seed", "3"]),
                       ("run-arbitrary", ["--n", "300", "--d", "3", "--eps", "0.1", "--seed", "2"]),
                       ("baseline", ["--n", "400", "--d", "3", "--seed", "1", "--order", "greedy"])):
        blobs = []
        for run in ("x", "y"):
            out = tmp_path / f"{cmd}-{run}.json"
            assert main([cmd, *extra, "--out", str(out), "--records"]) == 0
            blobs.append(out.read_bytes())
        payloads[cmd] = blobs[0] == blobs[1]
        json.loads(blobs[0])  # emitted files must stay valid JSON

    ok = report_ok and all(payloads.values())
    detail = (f"report JSON identical: {report_ok}; CLI byte-identical re-runs: "
              + ", ".join(f"{k}={v}" for k, v in payloads.items()))
    verdict("A10 determinism", ok, detail)
    assert ok, detail
