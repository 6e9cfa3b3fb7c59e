"""Weak runs, boosting arithmetic, and strong runs on adversarial data."""

import math
import tracemalloc

import numpy as np
import pytest

from sdlc.arbitrary import (
    compute_boost_budget,
    strong_run,
    weak_run,
    weak_sweep_budget,
)
from sdlc.datasets import (
    ARBITRARY_FAMILIES,
    LabeledDataset,
    gen_arbitrary,
    gen_uniform_sphere,
    predict_labels,
)
from sdlc.errors import NoConvergenceError
from sdlc.forster import forster_transform
from sdlc.geometry import RngStream, predict_sign, sample_sphere
from sdlc.perceptron import Hypothesis, update_or_flip
from sdlc.transcript import LabelOracle


# -------------------------------------------------------------------- budgets

def test_weak_sweep_budget_examples():
    assert weak_sweep_budget(1) == 1
    assert weak_sweep_budget(16) == 222
    with pytest.raises(ValueError):
        weak_sweep_budget(0)


def test_boost_budget_reference_values():
    b = compute_boost_budget(16, 0.01, 0.1, c_hat=1.0)
    assert b.alpha == 1.0 - 1.0 / 64.0
    assert b.runs_outer == 293  # ceil(ln(100) / ln(64 / 63))
    assert b.retries_per_round == 8  # ceil(ln(293 / 0.1))

    assert compute_boost_budget(4, 0.95, 0.1).runs_outer == 1
    # the residual fraction tracks the coverage target 1/(4d): in [0.75, 1) for every d >= 1
    assert compute_boost_budget(2, 0.5, 0.1).alpha == pytest.approx(0.875)
    for d in (1, 2, 10, 10**6):
        assert 0.75 <= compute_boost_budget(d, 0.5, 0.1).alpha < 1.0


def test_boost_budget_validation():
    for kwargs in (
        dict(eps=0.0, delta=0.1),
        dict(eps=1.0, delta=0.1),
        dict(eps=0.1, delta=0.0),
        dict(eps=0.1, delta=0.1, c_hat=0.0),
        dict(eps=0.1, delta=0.1, c_hat=1.5),
    ):
        with pytest.raises(ValueError):
            compute_boost_budget(4, **kwargs)


# ------------------------------------------------------------------ weak runs

def test_weak_run_rejects_empty():
    ds = gen_uniform_sphere(10, 3, RngStream(0))
    oracle = LabelOracle(ds)
    oracle.predict_bulk(np.arange(ds.n), np.ones(ds.n), np.zeros(ds.n), "all")
    with pytest.raises(ValueError):
        weak_run(oracle, RngStream(0, 1))


def test_weak_run_perfect_start_covers_in_one_sweep():
    # labels manufactured to agree with the exact unit vector the run
    # will draw in its working frame: zero mistakes, full coverage
    pts = gen_uniform_sphere(400, 4, RngStream(51, 0)).points
    out = forster_transform(pts, 1.0 / 8.0)
    w0 = sample_sphere(out.subspace_dim, RngStream(52, 1).child(0))
    labels = np.ones(400, dtype=np.int64)
    labels[out.retained_indices] = np.where(out.transformed_points @ w0 >= 0.0, 1, -1)
    ds = LabeledDataset(pts, labels)

    oracle = LabelOracle(ds)
    res = weak_run(oracle, RngStream(52, 1))
    assert res.mistakes == 0
    assert res.terminated_by == "coverage"
    assert res.revealed == len(oracle.transcript) == res.working_size == 400
    assert res.coverage_target == pytest.approx(400 / (4.0 * res.k))


def test_weak_run_d1():
    ds = gen_uniform_sphere(30, 1, RngStream(7, 0))
    oracle = LabelOracle(ds)
    res = weak_run(oracle, RngStream(7, 1))
    assert res.k == 1
    assert res.mistakes <= 1
    assert res.revealed == len(oracle.transcript)
    for r in oracle.transcript.records():
        assert r.truth == ds.labels[r.index]


def test_weak_run_battery_labels_and_budget():
    for seed in range(3):
        for fi, family in enumerate(ARBITRARY_FAMILIES):
            ds = gen_arbitrary(family, 300, 4, {}, RngStream(seed, 0).child(fi))
            oracle = LabelOracle(ds)
            res = weak_run(oracle, RngStream(seed, 1).child(fi))
            assert res.mistakes <= weak_sweep_budget(res.k)
            assert res.revealed == len(oracle.transcript)
            for r in oracle.transcript.records():
                assert r.truth == ds.labels[r.index]
            if res.terminated_by == "coverage":
                assert res.revealed >= res.coverage_target


def test_weak_run_skips_already_predicted():
    ds = gen_uniform_sphere(200, 3, RngStream(9, 0))
    oracle = LabelOracle(ds)
    first = weak_run(oracle, RngStream(9, 1).child(0))
    done = {r.index for r in oracle.transcript.records()}
    assert len(done) == first.revealed
    second = weak_run(oracle, RngStream(9, 1).child(1))
    new = [r.index for r in oracle.transcript.records()][first.revealed:]
    assert len(new) == second.revealed
    assert done.isdisjoint(new)


def _weak_run_reference(ds, rng, phase="weak"):
    """weak_run one point at a time: largest |margin| in the working frame
    first, ties by position, one oracle call per point."""
    oracle = LabelOracle(ds)
    indices = np.arange(ds.n)
    out = forster_transform(ds.points, 1.0 / (2.0 * ds.d))
    U, k, orig = out.transformed_points, out.subspace_dim, indices[out.retained_indices]
    h = Hypothesis(sample_sphere(k, rng.child(0)))
    target = U.shape[0] / (4.0 * k)
    remaining = list(range(U.shape[0]))
    labels, mistakes, terminated_by = [], 0, "budget"
    for _ in range(weak_sweep_budget(k)):
        if not remaining:
            break
        while remaining:
            pos = max(remaining, key=lambda p: (abs(float(h.w @ U[p])), -p))
            remaining.remove(pos)
            margin = float(h.w @ U[pos])
            pred = predict_sign(margin)
            truth = oracle.predict(int(orig[pos]), pred, margin, phase)
            labels.append((int(orig[pos]), truth))
            if truth != pred:
                mistakes += 1
                h = update_or_flip(h, U[pos])
                break
        if len(labels) >= target:
            terminated_by = "coverage"
            break
    return oracle.transcript, labels, mistakes, terminated_by


@pytest.mark.parametrize("data", ["uniform", "cross_polytope"])
def test_weak_run_matches_per_point_reference(data):
    if data == "uniform":
        ds = gen_uniform_sphere(200, 3, RngStream(31, 0))
    else:
        # +-e_i repeated: a fixed point of the transform, with exact |margin| ties
        w_star = sample_sphere(4, RngStream(31, 1))
        pts = np.tile(np.vstack([np.eye(4), -np.eye(4)]), (25, 1))
        ds = LabeledDataset(pts, predict_labels(pts, w_star), w_star)
    transcript, labels, mistakes, terminated_by = _weak_run_reference(ds, RngStream(31, 2))
    oracle = LabelOracle(ds)
    fast = weak_run(oracle, RngStream(31, 2))
    got = [(r.index, r.prediction, r.truth, r.phase) for r in oracle.transcript.records()]
    want = [(r.index, r.prediction, r.truth, r.phase) for r in transcript.records()]
    assert got == want
    assert fast.revealed == len(labels)
    assert [(r.index, r.truth) for r in oracle.transcript.records()] == labels
    assert (fast.mistakes, fast.terminated_by) == (mistakes, terminated_by)
    assert mistakes > 0


# ---------------------------------------------------------------- strong runs

def test_strong_run_trivial_eps():
    ds = gen_uniform_sphere(50, 3, RngStream(1, 0))
    res = strong_run(ds, 1.0, 0.1, RngStream(1, 1))
    assert res.budget is None and res.rounds_used == 0 and res.attempts == 0
    assert res.labeled_count == 0 and res.coverage == 0.0
    assert not res.partial and res.mistakes == 0


def test_strong_run_single_point():
    ds = gen_uniform_sphere(1, 3, RngStream(2, 0))
    res = strong_run(ds, 0.5, 0.1, RngStream(2, 1))
    assert res.labeled_count == 1 and res.coverage == 1.0
    assert not res.partial


def test_strong_run_reaches_coverage_on_uniform_data():
    ds = gen_uniform_sphere(2000, 4, RngStream(3, 0))
    res = strong_run(ds, 0.1, 0.1, RngStream(3, 1))
    assert not res.partial
    assert res.coverage >= 0.9
    assert res.rounds_used <= res.budget.runs_outer
    assert res.attempts <= res.budget.runs_outer * res.budget.retries_per_round
    per_run = weak_sweep_budget(ds.d) + 1
    assert res.mistakes <= res.budget.runs_outer * res.budget.retries_per_round * per_run
    seen = [r.index for r in res.transcript.records()]
    assert len(seen) == len(set(seen)) == res.labeled_count


def test_strong_run_phases_name_rounds():
    ds = gen_arbitrary("subspace_degenerate", 600, 5, {}, RngStream(4, 0))
    res = strong_run(ds, 0.05, 0.1, RngStream(4, 1))
    assert not res.partial
    assert all(p.startswith("weak-round-") for p in res.transcript.phases())
    rounds = {int(p.split("-")[-1]) for p in res.transcript.phases()}
    assert len(rounds) <= res.rounds_used


def test_strong_run_respects_attempt_accounting():
    # adversarial-but-small: every family must finish within budget
    for family in ARBITRARY_FAMILIES:
        ds = gen_arbitrary(family, 400, 3, {}, RngStream(5, 0))
        res = strong_run(ds, 0.1, 0.1, RngStream(5, 1))
        assert not res.partial, family
        assert res.attempts >= res.rounds_used - 1


def test_strong_run_returns_partial_when_the_transform_finds_no_certificate():
    ds = gen_arbitrary("subspace_degenerate", 300, 12, {}, RngStream(13, 0))
    res = strong_run(ds, 0.1, 0.1, RngStream(13, 1))
    assert res.partial
    assert res.coverage < 1.0 - 0.1
    assert res.attempts <= res.budget.runs_outer * res.budget.retries_per_round
    wrong = sum(r.prediction != r.truth for r in res.transcript.records())
    assert res.mistakes == wrong
    seen = np.array([r.index for r in res.transcript.records()], dtype=np.int64)
    assert np.unique(seen).size == seen.size == res.labeled_count
    # The boosting stopped because the next weak run's transform fails on
    # what is left, not because a budget ran out.
    remaining = np.setdiff1d(np.arange(ds.n), seen)
    with pytest.raises(NoConvergenceError):
        forster_transform(ds.points[remaining], 1.0 / (2.0 * ds.d))


# ------------------------------------------ what a strong run holds per point

# Bounds on strong_run's peak traced memory above its dataset, in bytes per
# point at n=5*10^4, d=10: the oracle, the transcript, the transform's
# iterate buffer and each weak run's gathered points, index arrays and
# sweep temporaries. Calibrated on data seeds 1000-1039, which read at
# most 181.9 (uniform), 208.5 (clustered) and 300.6 (subspace_degenerate).
# With a new iterate array per whitening step, whole residual and unit-row
# arrays in the extraction test and the frame copied after each stretch,
# the same seeds read at least 246.8, 349.1 and 510.2.
_STRONG_RUN_BYTES_PER_POINT = {"uniform": 210.0, "clustered": 240.0, "subspace_degenerate": 340.0}


@pytest.mark.parametrize("family", list(_STRONG_RUN_BYTES_PER_POINT))
def test_strong_run_working_memory_per_point(family):
    n, d, seed = 50_000, 10, 2000
    rng = RngStream(seed, 0)
    ds = gen_uniform_sphere(n, d, rng) if family == "uniform" else gen_arbitrary(family, n, d, {}, rng)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = strong_run(ds, 0.1, 0.1, RngStream(seed, 1))
        per_point = (tracemalloc.get_traced_memory()[1] - base) / n
    finally:
        tracemalloc.stop()
    assert not result.partial
    assert per_point <= _STRONG_RUN_BYTES_PER_POINT[family], per_point
