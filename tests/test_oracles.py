"""Monte-Carlo verifiers, the decay recurrence, and order baselines."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import sdlc.oracles
from sdlc.datasets import LabeledDataset, predict_labels
from sdlc.errors import InfeasibleParametersError, RegimeError
from sdlc.geometry import RngStream, sample_sphere, sample_sphere_batch
from sdlc.oracles import (
    _BLOCK_POINTS,
    TailCheckResult,
    _best_margin_c,
    greedy_adversarial_order,
    mc_best_mistake_margin,
    mc_disagreement_mass,
    mc_max_margin_tail,
    random_order_run,
    simulate_superlinear,
    superlinear_rounds,
    superlinear_step,
)
from sdlc.perceptron import Hypothesis, update_or_flip
from sdlc.transcript import LabelOracle


def vrng(n=0):
    return RngStream(n, 3)


# ------------------------------------------------------------ TailCheckResult

def test_tail_check_pass_rule():
    assert TailCheckResult(0.10, 0.09, 0.01, 100, {}).passed   # inside 3 sigma
    assert not TailCheckResult(0.13, 0.09, 0.01, 100, {}).passed
    assert TailCheckResult(0.0, 0.0, 0.0, 100, {}).passed


# -------------------------------------------------------- disagreement volume

def test_disagreement_mass_validation():
    with pytest.raises(ValueError):
        mc_disagreement_mass(1, 0.5, 100, 200, vrng())
    with pytest.raises(ValueError):
        mc_disagreement_mass(3, 0.0, 100, 200, vrng())
    with pytest.raises(ValueError):
        mc_disagreement_mass(3, math.pi, 100, 200, vrng())
    with pytest.raises(ValueError):
        mc_disagreement_mass(3, 0.5, 100, 50, vrng())
    with pytest.raises(ValueError):
        mc_disagreement_mass(3, 0.5, 100, 200, vrng(), check="median")


def test_disagreement_mass_orthogonal_directions():
    res = mc_disagreement_mass(3, math.pi / 2, 2000, 300, vrng(1))
    assert res.details["target"] == pytest.approx(0.5)
    assert res.passed
    assert abs(res.details["mean"] - 0.5) <= 5 * res.std_err + 1e-12


def test_disagreement_mass_small_angle():
    res = mc_disagreement_mass(3, 0.01, 5000, 300, vrng(2))
    assert res.details["target"] == pytest.approx(0.01 / math.pi)
    assert res.passed


def test_disagreement_mass_tail_mode():
    res = mc_disagreement_mass(4, math.pi / 4, 1000, 400, vrng(3), check="tail")
    assert res.bound == pytest.approx(0.01)
    assert "threshold" in res.details
    assert res.passed


def test_disagreement_mass_rejects_empty_trials():
    with pytest.raises(ValueError, match="n must be positive"):
        mc_disagreement_mass(3, 0.5, 0, 200, vrng())


def test_disagreement_mass_rejects_a_check_before_drawing():
    rng = vrng()
    with pytest.raises(ValueError, match="check"):
        mc_disagreement_mass(3, 0.5, 10_000, 1000, rng, check="median")
    assert "gen" not in vars(rng)   # the stream's generator was never built


def _frame(d, theta):
    """The parent's unit pair: u = e_1 and v at angle theta from it."""
    u, v = np.zeros(d), np.zeros(d)
    u[1] = 1.0
    v[0], v[1] = -math.sin(theta), math.cos(theta)
    return u, v


def _reference_disagreement_fractions(d, theta, n, trials, rng):
    """Per-trial hit fractions as one draw, normalisation and two matvecs per trial."""
    u, v = _frame(d, theta)
    fractions = np.empty(trials)
    for t in range(trials):
        x = rng.gen.normal(size=(n, d))
        x /= np.linalg.norm(x, axis=1)[:, None]
        fractions[t] = ((x @ u) * (x @ v) <= 0.0).mean()
    return fractions


@pytest.mark.parametrize("check", ["mean", "tail"])
def test_disagreement_mass_matches_per_trial_reference(check, monkeypatch):
    # 3000 points a trial, 600k in all: many blocks, most of them ending inside
    # a trial. At the tail level 0.01 both sides count no exceedance, so the
    # tail check runs at 0.3, where the count is checked.
    monkeypatch.setattr(sdlc.oracles, "TAIL_DELTA", 0.3)
    d, theta, n, trials = 3, math.pi / 4, 3000, 200
    fast = mc_disagreement_mass(d, theta, n, trials, vrng(8), check=check)
    fractions = _reference_disagreement_fractions(d, theta, n, trials, vrng(8))
    p = theta / math.pi
    if check == "mean":
        want = TailCheckResult(abs(float(fractions.mean()) - p), 0.0,
                               float(fractions.std(ddof=1)) / math.sqrt(trials), trials,
                               {"target": p, "mean": float(fractions.mean())})
    else:
        threshold = n * p + math.sqrt(2.0 * p * n * math.log(1.0 / 0.3))
        want = TailCheckResult(float(np.mean(fractions * n > threshold)), 0.3,
                               math.sqrt(0.3 * 0.7 / trials), trials, {"threshold": threshold})
    assert fast.empirical > 0.0
    assert fast == want


def test_disagreement_mass_trial_across_three_blocks():
    d, theta, n, trials = 2, math.pi / 3, 2 * _BLOCK_POINTS + 1, 100
    fast = mc_disagreement_mass(d, theta, n, trials, vrng(9))
    fractions = _reference_disagreement_fractions(d, theta, n, trials, vrng(9))
    p = theta / math.pi
    assert fast == TailCheckResult(abs(float(fractions.mean()) - p), 0.0,
                                   float(fractions.std(ddof=1)) / math.sqrt(trials), trials,
                                   {"target": p, "mean": float(fractions.mean())})


# ------------------------------------------------------- conditioned max margin

def test_max_margin_validation():
    with pytest.raises(InfeasibleParametersError):
        mc_max_margin_tail(3, 1e-5, 10, 0.5, 1, 200, vrng())
    with pytest.raises(ValueError):
        mc_max_margin_tail(3, 0.5, 10, 1.5, 1, 200, vrng())
    with pytest.raises(ValueError):
        mc_max_margin_tail(3, 0.5, 0, 0.5, 1, 200, vrng())
    with pytest.raises(ValueError):
        mc_max_margin_tail(3, 0.5, 10, 0.5, 3, 200, vrng())


def test_max_margin_case1_reference_bound():
    res = mc_max_margin_tail(3, math.pi / 2, 100, 0.5, 1, 200, vrng(0))
    assert res.bound == pytest.approx(math.exp(-50.0 * math.sqrt(0.75)))
    assert res.details["case"] == 1
    assert res.details["threshold"] == pytest.approx(0.5 * math.sin(math.pi / 4))
    assert res.empirical == 0.0
    assert res.passed


def _reference_conditional_samples(total, d, theta, gen):
    """The first `total` unit points of the stream in the disagreement region, as one matrix."""
    u, v = _frame(d, theta)
    out = np.empty((total, d))
    have = 0
    while have < total:
        x = gen.normal(size=(5000, d))
        x /= np.linalg.norm(x, axis=1)[:, None]
        keep = x[(x @ u) * (x @ v) <= 0.0][:total - have]
        out[have:have + len(keep)] = keep
        have += len(keep)
    return out


def test_max_margin_matches_full_matrix_reference_across_chunks():
    # 35000 accepted points at rate 1/2 take several rejection chunks of at
    # most a block of draws each; their boundaries fall inside trials of 7 points.
    d, theta, m, level, trials = 3, math.pi / 2, 7, 0.55, 5000
    fast = mc_max_margin_tail(d, theta, m, level, 1, trials, vrng(6))
    samples = _reference_conditional_samples(m * trials, d, theta, vrng(6).gen)
    best = np.abs(samples[:, 1]).reshape(trials, m).max(axis=1)
    threshold = level * math.sin(theta / 2.0)
    emp = float(np.mean(best <= threshold))
    assert 0.0 < emp < 1.0
    assert fast == TailCheckResult(emp, math.exp(-m * (1.0 - level * level) ** 0.5 / 2.0),
                                   math.sqrt(emp * (1.0 - emp) / trials), trials,
                                   {"threshold": threshold, "case": 1})


def test_max_margin_case2_cells():
    res = mc_max_margin_tail(4, 1.0, 50, 0.5, 2, 500, vrng(4))
    assert res.details["threshold"] == pytest.approx(0.5 * math.sin(1.0))
    assert res.bound == pytest.approx(math.exp(-50.0 * 0.25 ** 2 / 2.0))
    assert res.passed
    tight = mc_max_margin_tail(2, math.pi / 2, 5, 0.7, 2, 800, vrng(5))
    assert tight.passed


# --------------------------------------------------------- best mistake margin

def test_best_mistake_margin_validation():
    with pytest.raises(ValueError):
        mc_best_mistake_margin(4, 0.5, 1000, 0.5, 1, 200, vrng())
    with pytest.raises(RegimeError):
        mc_best_mistake_margin(4, 0.5, 100, 8.0, 2, 200, vrng())


@pytest.mark.parametrize("s", [math.nan, math.inf], ids=["s=nan", "s=inf"])
def test_best_mistake_margin_rejects_non_finite_s(s):
    rng = vrng()
    with pytest.raises(ValueError, match="^s must be finite"):
        mc_best_mistake_margin(4, 0.5, 10_000, s, 1, 200, rng)
    assert "gen" not in vars(rng)


@given(st.integers(2, 200), st.floats(1e-300, 1.0))
@example(2, 1e-300).via("smallest ratio")
@example(200, 1.0).via("largest ratio")
def test_best_margin_c_meets_the_case1_regime(d, ratio):
    # Case 1 needs c >= 2 and exp(-d c / 4) <= ratio; the c it computes
    # meets both, up to the rounding of ln and exp.
    c = _best_margin_c(d, ratio)
    assert c >= 2.0
    assert math.exp(-d * c / 4.0) <= ratio * (1.0 + 1e-12)


def test_best_mistake_margin_rejects_empty_trials():
    with pytest.raises(ValueError):
        mc_best_mistake_margin(4, 0.5, 0, 1.0, 2, 200, vrng())
    with pytest.raises(ValueError):
        mc_best_mistake_margin(4, 0.5, 200, 1.0, 2, 0, vrng())


def _reference_best_margin_result(d, theta, n, s, trials, rng):
    """Case 2 of mc_best_mistake_margin, one draw and normalisation per trial."""
    u, v = _frame(d, theta)
    failures = 0
    threshold = (1.0 - (4.0 * math.pi * s / (n * theta)) ** (2.0 / d)) * math.sin(theta)
    for _ in range(trials):
        x = rng.gen.normal(size=(n, d))
        x /= np.linalg.norm(x, axis=1)[:, None]
        in_region = (x @ u) * (x @ v) <= 0.0
        failures += int(np.where(in_region, np.abs(x @ u), 0.0).max() <= threshold)
    emp = failures / trials
    return TailCheckResult(emp, 2.0 * math.exp(-s / 2.0), math.sqrt(emp * (1.0 - emp) / trials),
                           trials, {"threshold": threshold, "case": 2, "c": None})


def test_best_mistake_margin_matches_per_trial_reference():
    # 200 points a trial, 300k in all: several blocks, most of them ending inside a trial
    d, theta, n, s, trials = 4, 0.5, 200, 1.0, 1500
    fast = mc_best_mistake_margin(d, theta, n, s, 2, trials, vrng(5))
    want = _reference_best_margin_result(d, theta, n, s, trials, vrng(5))
    assert fast.empirical > 0.0
    assert fast == want


def test_best_mistake_margin_trial_across_three_blocks():
    d, theta, n, s, trials = 4, 0.005, 2 * _BLOCK_POINTS + 1, 1.0, 20
    fast = mc_best_mistake_margin(d, theta, n, s, 2, trials, vrng(10))
    want = _reference_best_margin_result(d, theta, n, s, trials, vrng(10))
    assert 0.0 < fast.empirical < 1.0
    assert fast == want


def test_best_mistake_margin_bound_value():
    res = mc_best_mistake_margin(4, 0.5, 10_000, 8.0, 2, 50, vrng(1))
    assert res.bound == pytest.approx(2.0 * math.exp(-4.0))
    assert res.empirical == 0.0 and res.passed
    assert res.details["case"] == 2


def test_best_mistake_margin_case1_picks_c():
    res = mc_best_mistake_margin(4, 0.5, 10_000, 4.0, 1, 200, vrng(2))
    assert res.details["c"] >= 2.0
    assert res.bound == pytest.approx(2.0 * math.exp(-2.0))
    assert res.passed


# ------------------------------------------------------------- kernel memory

_FAR_ABOVE_BLOCK = 4 * _BLOCK_POINTS + 1


@pytest.mark.parametrize("kernel, at_verify, far", [
    (mc_disagreement_mass, (3, math.pi / 4, 10_000, 100), (3, math.pi / 4, _FAR_ABOVE_BLOCK, 100)),
    (mc_best_mistake_margin, (4, 0.5, 10_000, 4.0, 1, 200), (4, 0.5, _FAR_ABOVE_BLOCK, 4.0, 1, 4)),
    (mc_max_margin_tail, (6, math.pi / 3, 40, 0.3, 1, 2000), (6, math.pi / 3, 50_000, 0.3, 1, 4)),
], ids=["disagreement-mass", "best-mistake-margin", "max-margin-tail"])
def test_kernel_peak_memory_does_not_grow_with_n_or_m(kernel, at_verify, far):
    # The n, m and d of run_verify's checks (fewer trials: they size only
    # the O(trials) results), then an n or m far above a block. These peak
    # at 0.8, 0.9 and 1.6 MB. Blocks of 2**18 points and the whole matrix
    # of conditioned samples peaked at 9.9, 15.5 and 24.5 MB at the first sizes.
    kernel(*at_verify, rng=vrng())   # numpy's first-use allocations stay out of the trace
    peaks = []
    for args in (at_verify, far):
        tracemalloc.start()
        try:
            kernel(*args, rng=vrng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 2 * 2**20
    assert abs(peaks[1] - peaks[0]) <= 2**16


# ------------------------------------------------------------ decay recurrence

def test_superlinear_reference_values():
    assert superlinear_rounds(0.5, 0.01, 1.0, 0.1) == 10
    assert superlinear_rounds(0.125, 1e-6, 1.0, 0.1) == 37
    # M + 1 rounds to 1 below about 1e-16: a tiny M reads as one just above it.
    assert superlinear_rounds(0.5, 0.01, 1e-17, 0.1) == superlinear_rounds(0.5, 0.01, 1e-15, 0.1)
    assert superlinear_step(1.0, 0.5, 0.01) == pytest.approx(0.1)
    assert superlinear_step(0.1, 0.5, 0.01) == pytest.approx(0.0316227766016838)


def test_superlinear_deterministic_chain_hits_target():
    rho, kappa = 0.5, 0.01
    T = superlinear_rounds(rho, kappa, 1.0, 0.1)
    xi = 1.0
    for _ in range(T):
        xi = superlinear_step(xi, rho, kappa)
    assert xi <= math.e ** 2 * kappa


def test_superlinear_validation():
    with pytest.raises(ValueError):
        superlinear_rounds(0.0, 0.01, 1.0, 0.1)
    with pytest.raises(ValueError):
        superlinear_rounds(0.5, 1.5, 1.0, 0.1)
    with pytest.raises(ValueError, match="^M must be positive and finite"):
        superlinear_rounds(0.5, 0.01, math.inf, 0.1)   # not an OverflowError from math.ceil
    with pytest.raises(ValueError):
        simulate_superlinear(0.5, 0.01, 1.0, 0.5, 0.1, 200, vrng())
    with pytest.raises(ValueError, match="trials must be positive"):
        simulate_superlinear(0.5, 0.01, 1.0, 0.8, 0.1, 0, vrng())


@pytest.mark.parametrize("args, name", [
    ((0.5, 0.01, math.nan, 0.8, 0.1), "M"),
    ((0.5, 0.01, math.inf, 0.8, 0.1), "M"),
    ((0.5, 0.01, 1.0, math.nan, 0.1), "p_decay"),
    ((0.5, 0.01, 1.0, 0.8, math.nan), "delta"),
], ids=["M=nan", "M=inf", "p_decay=nan", "delta=nan"])
def test_superlinear_rejects_non_finite_arguments_before_drawing(args, name):
    # each is named before the stream's generator is built
    rng = vrng()
    with pytest.raises(ValueError, match=f"^{name} must be"):
        simulate_superlinear(*args, 200, rng)
    assert "gen" not in vars(rng)

def test_superlinear_simulation_within_delta():
    res = simulate_superlinear(0.5, 0.01, 1.0, 2.0 / 3.0, 0.1, 5000, vrng(6))
    assert res.details["rounds"] == 10
    assert res.passed


def test_superlinear_start_below_target():
    res = simulate_superlinear(0.5, 0.5, 0.01, 2.0 / 3.0, 0.1, 200, vrng(7))
    assert res.empirical == 0.0


# ------------------------------------------------------------------ baselines

def test_random_order_consistent_start_never_errs():
    rng = RngStream(7, 2)
    pts = sample_sphere_batch(500, 4, RngStream(7, 0))
    w0 = sample_sphere(4, rng.child(1))
    ds = LabeledDataset(pts, predict_labels(pts, w0), w0)
    transcript = random_order_run(ds, rng)
    assert transcript.mistakes == 0
    assert len(transcript) == 500


def test_random_order_full_coverage_and_phase():
    from sdlc.datasets import gen_uniform_sphere

    ds = gen_uniform_sphere(300, 3, RngStream(5, 0))
    transcript = random_order_run(ds, RngStream(5, 2))
    assert sorted(r.index for r in transcript.records()) == list(range(300))
    assert transcript.phases() == ["random-order"]


def test_random_order_matches_unblocked_reference():
    _check_random_order_against_reference(500)


def test_random_order_matches_unblocked_reference_across_windows():
    # 30 mistakes over 58 windows: the window grows and restarts many times
    _check_random_order_against_reference(20_000)


def _check_random_order_against_reference(n):
    from sdlc.datasets import gen_uniform_sphere

    ds = gen_uniform_sphere(n, 4, RngStream(5, 0))
    rng = RngStream(5, 2)
    fast = random_order_run(ds, rng)

    # reference: same order and start, one oracle call per point
    ref_rng = RngStream(5, 2)
    order = ref_rng.child(0).gen.permutation(ds.n)
    h = Hypothesis(sample_sphere(ds.d, ref_rng.child(1)))
    oracle = LabelOracle(ds)
    for idx in order:
        x = ds.points[idx]
        margin = float(h.w @ x)
        pred = 1 if margin >= 0.0 else -1
        truth = oracle.predict(int(idx), pred, margin, "random-order")
        if truth != pred:
            h = update_or_flip(h, x)

    got = [(r.index, r.prediction, r.truth) for r in fast.records()]
    want = [(r.index, r.prediction, r.truth) for r in oracle.transcript.records()]
    assert got == want


def test_random_order_d1_small():
    ds = LabeledDataset(np.array([[1.0], [-1.0]]), [1, -1], np.array([1.0]))
    transcript = random_order_run(ds, RngStream(0, 2))
    assert transcript.mistakes <= 2


def test_greedy_single_point():
    ds = LabeledDataset(np.array([[1.0, 0.0]]), [1])
    transcript = greedy_adversarial_order(ds, rng=RngStream(0, 2))
    assert len(transcript) == 1
    assert transcript.phases() == ["greedy-order"]


def _cross_polytope(d, copies, w_star):
    """Each of +-e_i repeated `copies` times: |w . x| ties are exact."""
    pts = np.tile(np.vstack([np.eye(d), -np.eye(d)]), (copies, 1))
    return LabeledDataset(pts, predict_labels(pts, w_star), w_star)


@pytest.mark.parametrize("data", ["uniform", "cross_polytope"])
def test_greedy_matches_per_point_reference(data):
    from sdlc.datasets import gen_uniform_sphere

    if data == "uniform":
        ds = gen_uniform_sphere(300, 3, RngStream(8, 0))
    else:
        ds = _cross_polytope(5, 30, sample_sphere(5, RngStream(8, 1)))
    fast = greedy_adversarial_order(ds, rng=RngStream(8, 2))

    # reference: one oracle call per point, smallest |margin| first, ties by index
    h = Hypothesis(sample_sphere(ds.d, RngStream(8, 2).child(1)))
    oracle = LabelOracle(ds)
    remaining = list(range(ds.n))
    while remaining:
        idx = min(remaining, key=lambda j: (abs(float(h.w @ ds.points[j])), j))
        remaining.remove(idx)
        margin = float(h.w @ ds.points[idx])
        pred = 1 if margin >= 0.0 else -1
        if oracle.predict(idx, pred, margin, "greedy-order") != pred:
            h = update_or_flip(h, ds.points[idx])

    got = [(r.index, r.prediction, r.truth) for r in fast.records()]
    want = [(r.index, r.prediction, r.truth) for r in oracle.transcript.records()]
    assert fast.mistakes > 0
    assert got == want


def test_greedy_order_is_harder_than_random():
    from sdlc.datasets import gen_uniform_sphere

    worse = 0
    for seed in range(5):
        ds = gen_uniform_sphere(2000, 5, RngStream(seed, 0))
        rand = random_order_run(ds, RngStream(seed, 2)).mistakes
        greedy = greedy_adversarial_order(ds, rng=RngStream(seed, 2)).mistakes
        if greedy > rand:
            worse += 1
    assert worse == 5
