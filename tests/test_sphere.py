"""Schedule arithmetic, the initializer, and the two-arm sphere run."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sdlc.sphere
from sdlc.datasets import LabeledDataset, gen_uniform_sphere, predict_labels
from sdlc.geometry import RngStream, angle, predict_sign, sample_sphere, sample_sphere_batch, tan_theta
from sdlc.perceptron import Hypothesis, margin_perceptron_pass, update_or_flip
from sdlc.sphere import (
    DEFAULT_C_INIT,
    PHASE_CROSS,
    PHASE_INIT,
    PHASE_TRAIN_V,
    PHASE_TRAIN_W,
    init_prefix_size,
    initialize_hypothesis,
    make_schedule,
    run_sphere,
)
from sdlc.transcript import LabelOracle


# ------------------------------------------------------------------- schedule

def test_schedule_reference_case():
    s = make_schedule(1_000_000, 10, 0.1, 4.0)
    assert (s.T, s.k, s.N, s.fallback) == (242, 242, 2066, False)


def test_schedule_small_cases():
    assert (lambda s: (s.T, s.k, s.N, s.fallback))(make_schedule(8, 1, 0.5, 4.0)) == (3, 2, 2, False)
    assert (lambda s: (s.T, s.k, s.N, s.fallback))(make_schedule(16, 1, 0.5, 4.0)) == (3, 3, 2, False)


def test_schedule_fallback_when_budget_exceeds_data():
    s = make_schedule(8, 5, 0.1)
    assert s.fallback and s.T == 4
    # a budget past the float range is still just more than the data
    for c_prime in (1e308, 1.7976931348623157e308):
        s = make_schedule(100, 3, 0.1, c_prime)
        assert (s.T, s.k, s.N, s.fallback) == (50, 25, 2, True)


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(3, 2, 0.1)
    with pytest.raises(ValueError):
        make_schedule(100, 0, 0.1)
    with pytest.raises(ValueError):
        make_schedule(100, 2, 0.0)
    with pytest.raises(ValueError):
        make_schedule(100, 2, 1.0)
    with pytest.raises(ValueError):
        make_schedule(100, 2, 0.1, 0.0)
    for c_prime in (math.inf, math.nan):
        with pytest.raises(ValueError, match="c_prime must be positive and finite"):
            make_schedule(100, 2, 0.1, c_prime)


def test_run_rejects_nonpositive_c_init():
    # checked up front, so also in fallback mode, which never spends the
    # initializer's budget ceil(c_init * d * ln(1/delta)); NaN and inf too
    for n, d, fallback in ((100, 3, False), (100, 10, True)):
        ds = gen_uniform_sphere(n, d, RngStream(0))
        schedule = make_schedule(n, d, 0.1)
        assert schedule.fallback == fallback
        for c_init in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_init must be positive and finite"):
                run_sphere(ds, schedule, RngStream(0, 1), c_init)


@given(
    st.integers(min_value=4, max_value=10**7),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=1e-6, max_value=0.99),
    st.floats(min_value=0.1, max_value=16.0),
)
def test_schedule_invariants(n, d, delta, c_prime):
    s = make_schedule(n, d, delta, c_prime)
    assert s.T >= 1 and s.k >= 1 and s.N >= 1
    assert s.k <= s.T
    assert 2 * s.k * s.N <= n
    assert 4 * s.k <= n
    t_raw = max(1, math.ceil(c_prime * d * max(math.log(math.log(n)), 1.0) * math.log(1.0 / delta)))
    assert s.fallback == (t_raw > n // 2)


def test_init_prefix_size_examples():
    assert init_prefix_size(100_000) == 25_000
    assert init_prefix_size(100) == 25


# ---------------------------------------------------------------- initializer

def test_initializer_consistent_prefix_makes_no_mistakes():
    d = 4
    w0 = sample_sphere(d, RngStream(42, 5))
    pts = sample_sphere_batch(60, d, RngStream(43, 0))
    ds = LabeledDataset(pts, predict_labels(pts, w0), w0)
    oracle = LabelOracle(ds)
    h = initialize_hypothesis(oracle, np.arange(20), 0.1, RngStream(42, 5))
    # same stream key, so the starting draw equals w0 and never errs
    assert np.array_equal(h.w, w0)
    assert oracle.transcript.mistakes == 0
    assert oracle.transcript.mistakes_in_phase(PHASE_INIT) == 0
    assert sorted(r.index for r in oracle.transcript.records()) == list(range(20))


def test_initializer_respects_mistake_budget():
    d = 3
    ds = gen_uniform_sphere(500, d, RngStream(8, 0))
    oracle = LabelOracle(ds)
    # budget = ceil(0.01 * 3 * ln 2) = 1
    initialize_hypothesis(oracle, np.arange(400), 0.5, RngStream(8, 1), c_init=0.01)
    assert oracle.transcript.mistakes <= 1


def test_initializer_flip_update_preserves_norm():
    ds = gen_uniform_sphere(2000, 6, RngStream(9, 0))
    h = initialize_hypothesis(LabelOracle(ds), np.arange(1000), 0.1, RngStream(9, 1))
    assert h.norm == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("c_init", [DEFAULT_C_INIT, 0.5])
def test_initializer_predicts_in_margin_order_within_budget(c_init):
    # the warm start is self-directed: between consecutive mistakes the
    # init phase predicts in decreasing |margin| order, and it never spends
    # more than ceil(c_init * d * ln(1/delta)) mistakes
    d, delta = 5, 0.1
    ds = gen_uniform_sphere(20_000, d, RngStream(11, 0))
    res = run_sphere(ds, make_schedule(ds.n, d, delta), RngStream(11, 1), c_init)
    init = [r for r in res.transcript.records() if r.phase == PHASE_INIT]
    mistakes = sum(r.prediction != r.truth for r in init)
    assert 1 <= mistakes <= math.ceil(c_init * d * math.log(1.0 / delta))
    for a, b in zip(init, init[1:]):
        if a.prediction == a.truth:
            assert abs(b.margin) <= abs(a.margin), (a, b)


def _margin_order_reference(ds, indices, h, phase, budget=math.inf):
    """The initializer and the fallback arm one point at a time: predict the
    unpredicted point with the largest |w . x| (ties to the lower index),
    update_or_flip on a mistake, stop at the mistake budget or when no
    point is left. One oracle call per point."""
    oracle = LabelOracle(ds)
    remaining = [int(i) for i in indices]
    mistakes = 0
    while remaining and mistakes < budget:
        i = max(remaining, key=lambda j: (abs(float(h.w @ ds.points[j])), -j))
        remaining.remove(i)
        margin = float(h.w @ ds.points[i])
        pred = predict_sign(margin)
        if oracle.predict(i, pred, margin, phase) != pred:
            mistakes += 1
            h = update_or_flip(h, ds.points[i])
    return oracle.transcript, h


def _records(transcript):
    return [(r.index, r.prediction, r.truth, r.phase) for r in transcript.records()]


def _uniform_or_ties(data, n, d, seed):
    if data == "uniform":
        return gen_uniform_sphere(n, d, RngStream(seed, 0))
    # +-e_i repeated: exact |margin| ties, and exact zeros after each update
    w_star = sample_sphere(d, RngStream(seed, 1))
    pts = np.tile(np.vstack([np.eye(d), -np.eye(d)]), (n // (2 * d), 1))
    return LabeledDataset(pts, predict_labels(pts, w_star), w_star)


@pytest.mark.parametrize("c_init", [DEFAULT_C_INIT, 0.2])
@pytest.mark.parametrize("data", ["uniform", "cross_polytope"])
def test_initializer_matches_per_point_reference(data, c_init):
    # the default budget outlasts the prefix; c_init=0.2 (budget 2) stops first
    ds = _uniform_or_ties(data, 400, 4, 21)
    prefix = np.arange(100)
    budget = math.ceil(c_init * ds.d * math.log(1.0 / 0.1))
    start = Hypothesis(sample_sphere(ds.d, RngStream(21, 2)))
    transcript, h = _margin_order_reference(ds, prefix, start, PHASE_INIT, budget)
    oracle = LabelOracle(ds)
    got = initialize_hypothesis(oracle, prefix, 0.1, RngStream(21, 2), c_init)
    assert _records(oracle.transcript) == _records(transcript)
    assert 0 < transcript.mistakes <= budget
    assert np.array_equal(got.w, h.w / h.norm)


@pytest.mark.parametrize("data", ["uniform", "cross_polytope"])
def test_fallback_run_matches_per_point_reference(data):
    ds = _uniform_or_ties(data, 100, 10, 22)
    schedule = make_schedule(ds.n, ds.d, 0.1)
    assert schedule.fallback
    start = Hypothesis(sample_sphere(ds.d, RngStream(22, 2).child(0)))
    transcript, _ = _margin_order_reference(ds, range(ds.n), start, PHASE_TRAIN_W)
    res = run_sphere(ds, schedule, RngStream(22, 2))
    assert _records(res.transcript) == _records(transcript)
    assert transcript.mistakes > 0


def test_initializer_lands_near_truth():
    # with the default budget the trained direction is inside 0.5 rad of
    # the target in nearly every run; tolerate a few stragglers
    hits = 0
    for trial in range(100):
        ds = gen_uniform_sphere(100_000, 5, RngStream(trial, 0))
        prefix = np.arange(init_prefix_size(ds.n))
        h = initialize_hypothesis(LabelOracle(ds), prefix, 0.1, RngStream(trial, 1))
        if angle(h.w, ds.ground_truth) <= 0.5:
            hits += 1
    assert hits >= 95


# ------------------------------------------------------------------ full runs

def test_run_rejects_mismatched_schedule():
    ds = gen_uniform_sphere(100, 3, RngStream(0))
    with pytest.raises(ValueError):
        run_sphere(ds, make_schedule(100, 4, 0.1), RngStream(0, 1))


def test_run_covers_every_index_exactly_once():
    ds = gen_uniform_sphere(3000, 5, RngStream(2, 0))
    res = run_sphere(ds, make_schedule(3000, 5, 0.1), RngStream(2, 1))
    assert len(res.transcript) == 3000
    assert sorted(r.index for r in res.transcript.records()) == list(range(3000))
    assert res.transcript.phases() == [PHASE_INIT, PHASE_TRAIN_W, PHASE_TRAIN_V, PHASE_CROSS]
    assert not res.schedule.fallback


def test_run_mistakes_land_well_under_n():
    ds = gen_uniform_sphere(20_000, 5, RngStream(4, 0))
    res = run_sphere(ds, make_schedule(20_000, 5, 0.1), RngStream(4, 1))
    # generous structural cap: initializer budget + one update per bucket
    cap = math.ceil(10.0 * 5 * math.log(10.0)) + 2 * res.schedule.k
    assert res.mistakes <= cap
    assert res.mistakes < 2000


def test_run_arms_contract_toward_the_truth(monkeypatch):
    # The learner never sees the truth; an observer wrapping the arms'
    # pass measures each update's geometry from outside.
    ds = gen_uniform_sphere(4000, 6, RngStream(3, 0))
    truth = ds.ground_truth
    calls = {PHASE_TRAIN_W: 0, PHASE_TRAIN_V: 0}
    chains = {PHASE_TRAIN_W: [], PHASE_TRAIN_V: []}

    def observed_pass(oracle, indices, h, phase):
        res = margin_perceptron_pass(oracle, indices, h, phase)
        t = calls[phase]
        calls[phase] += 1
        if res.updated:
            x = oracle.points[indices[res.committed[-1]]]
            sin_t = math.sin(angle(h.w, truth))
            r = min(1.0, abs(float(h.w @ x)) / (h.norm * sin_t)) if sin_t > 0 else 0.0
            chains[phase].append((t, r, tan_theta(h.w, truth), tan_theta(res.hypothesis.w, truth)))
        return res

    monkeypatch.setattr(sdlc.sphere, "margin_perceptron_pass", observed_pass)
    res = run_sphere(ds, make_schedule(4000, 6, 0.1), RngStream(3, 1))
    assert chains[PHASE_TRAIN_W] and chains[PHASE_TRAIN_V]
    for chain in chains.values():
        rounds = [t for t, *_ in chain]
        assert rounds == sorted(rounds)
        for _, r, tan_before, tan_after in chain:
            assert 0.0 <= r <= 1.0
            assert tan_after <= tan_before + 1e-9
        tans = [tan_before for _, _, tan_before, _ in chain]
        # each arm only ever updates, so its angle never grows between rounds
        assert all(b <= a + 1e-9 for a, b in zip(tans, tans[1:]))
    train_mistakes = res.transcript.mistakes_in_phase(PHASE_TRAIN_W) + \
        res.transcript.mistakes_in_phase(PHASE_TRAIN_V)
    assert train_mistakes == len(chains[PHASE_TRAIN_W]) + len(chains[PHASE_TRAIN_V])


def test_run_fallback_still_covers():
    ds = gen_uniform_sphere(8, 5, RngStream(5, 0))
    schedule = make_schedule(8, 5, 0.1)
    assert schedule.fallback
    res = run_sphere(ds, schedule, RngStream(5, 1))
    assert sorted(r.index for r in res.transcript.records()) == list(range(8))


def test_run_d1_battery():
    # degenerate dimension: every mistake flips the sign, so totals stay tiny
    for n in (4, 8, 16, 100, 1000):
        for seed in range(20):
            ds = gen_uniform_sphere(n, 1, RngStream(seed, 0))
            res = run_sphere(ds, make_schedule(n, 1, 0.1), RngStream(seed, 1))
            assert sorted(r.index for r in res.transcript.records()) == list(range(n))
            assert res.mistakes <= 12
