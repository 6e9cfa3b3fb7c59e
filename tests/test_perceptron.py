"""Projection update, decay law, and the max-margin pass."""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdlc.datasets import LabeledDataset, predict_labels
from sdlc.errors import DegenerateHypothesisError
from sdlc.geometry import RngStream, angle, predict_signs, sample_sphere_batch, tan_theta
from sdlc.perceptron import (
    Hypothesis,
    _commit_ordered,
    margin_perceptron_pass,
    margin_sweeps,
    max_margin_key,
    update_or_flip,
)
from sdlc.transcript import LabelOracle

R2 = 1.0 / math.sqrt(2.0)


# ----------------------------------------------------------------- Hypothesis

def test_hypothesis_validation():
    with pytest.raises(DegenerateHypothesisError):
        Hypothesis(np.zeros(3))
    with pytest.raises(ValueError):
        Hypothesis(np.array([1.0, np.nan]))
    h = Hypothesis(np.array([3.0, 4.0]))
    assert h.norm == pytest.approx(5.0)
    assert float(h.w @ np.array([0.0, 1.0])) == pytest.approx(4.0)


def test_hypothesis_boundary_prediction_is_positive():
    h = Hypothesis(np.array([1.0, 0.0]))
    boundary = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert predict_signs(boundary @ h.w).tolist() == [1, -1]


# -------------------------------------------------------------------- update

def test_projection_update_example():
    h = Hypothesis(np.array([1.0, 0.0]))
    out = update_or_flip(h, np.array([R2, R2]))
    assert np.allclose(out.w, [0.5, -0.5], atol=1e-15)


def test_projection_orthogonal_is_identity():
    h = Hypothesis(np.array([1.0, 0.0]))
    out = update_or_flip(h, np.array([0.0, 1.0]))
    assert np.allclose(out.w, h.w)


def test_update_or_flip():
    # d=1: every point is parallel to w, so w flips
    assert update_or_flip(Hypothesis(np.array([1.0])), np.array([1.0])).w.tolist() == [-1.0]
    # a parallel point in d=2 would zero w under the projection
    assert update_or_flip(Hypothesis(np.array([0.0, 2.0])), np.array([0.0, 1.0])).w.tolist() == [0.0, -2.0]
    # otherwise it is the projection update
    h, x = Hypothesis(np.array([1.0, 0.0])), np.array([R2, R2])
    assert np.array_equal(update_or_flip(h, x).w, h.w - (h.w @ x) * x)


def test_projection_removes_component():
    rng = RngStream(21)
    for i in range(20):
        w = rng.child(i).gen.normal(size=6)
        x = sample_sphere_batch(1, 6, rng.child(100 + i))[0]
        out = update_or_flip(Hypothesis(w), x)
        assert abs(float(out.w @ x)) <= 1e-12 * np.linalg.norm(w)
        assert out.norm <= np.linalg.norm(w) + 1e-12


# ------------------------------------------------------------------ decay law

def test_decay_law_on_disagreement_mistakes():
    # Randomized triples (w, w*, x) with x drawn from the disagreement
    # wedge. Checks the three facts the mistake-bound analysis rests on:
    # the margin fraction r never exceeds 1, the angle never grows, and
    # tan^2 contracts at least as fast as (1 - r^2).
    rng = RngStream(77)
    d = 5
    collected = 0
    batch = 0
    while collected < 2000:
        ws = sample_sphere_batch(500, d, rng.child(3 * batch))
        stars = sample_sphere_batch(500, d, rng.child(3 * batch + 1))
        xs = sample_sphere_batch(500, d, rng.child(3 * batch + 2))
        batch += 1
        # keep theta strictly inside (0, pi/2)
        dots = np.einsum("ij,ij->i", ws, stars)
        stars = np.where(dots[:, None] < 0.0, -stars, stars)
        dots = np.abs(dots)
        wx = np.einsum("ij,ij->i", ws, xs)
        sx = np.einsum("ij,ij->i", stars, xs)
        mask = (wx * sx < 0.0) & (dots < 1.0 - 1e-9) & (dots > 1e-9)
        for w, w_star, x, m in zip(ws[mask], stars[mask], xs[mask], wx[mask]):
            theta = angle(w, w_star)
            r = abs(m) / math.sin(theta)  # ||w|| = 1
            assert r <= 1.0 + 1e-9
            w_next = w - m * x
            t_before = tan_theta(w, w_star)
            t_after = tan_theta(w_next, w_star)
            assert t_after <= t_before + 1e-9
            bound = (1.0 - min(1.0, r) ** 2) * math.tan(theta) ** 2
            assert t_after * t_after <= bound + 1e-9
            collected += 1
    assert collected >= 2000


# ----------------------------------------------------------------------- pass

def _oracle_for(points, w_truth):
    pts = np.asarray(points, dtype=np.float64)
    return LabelOracle(LabeledDataset(pts, predict_labels(pts, w_truth), w_truth))


def test_pass_empty_indices():
    oracle = _oracle_for(np.eye(2), np.array([1.0, 1.0]))
    h = Hypothesis(np.array([1.0, 0.0]))
    res = margin_perceptron_pass(oracle, np.array([], dtype=np.int64), h)
    assert not res.updated and res.committed.size == 0
    assert res.hypothesis is h


def test_pass_without_mistake_reveals_everything():
    w = np.array([2.0, 1.0, -1.0])
    pts = sample_sphere_batch(40, 3, RngStream(6))
    oracle = _oracle_for(pts, w)
    res = margin_perceptron_pass(oracle, np.arange(40), Hypothesis(w), phase="p")
    assert not res.updated and res.committed.size == 40
    assert sorted(res.committed.tolist()) == list(range(40))
    assert oracle.transcript.mistakes == 0
    assert oracle.all_predicted()


def test_pass_predicts_in_decreasing_margin_order():
    w_truth = np.array([0.0, 1.0])
    h = Hypothesis(np.array([1.0, 0.0]))
    # margins under h: 0.9, 0.5, 0.7, 0.2; truth disagrees on index 3 only
    pts = np.array([
        [0.9, math.sqrt(1 - 0.81)],
        [0.5, math.sqrt(0.75)],
        [0.7, math.sqrt(0.51)],
        [0.2, -math.sqrt(0.96)],
    ])
    oracle = _oracle_for(pts, w_truth)
    res = margin_perceptron_pass(oracle, np.arange(4), h)
    # full sweep: indices 0, 2, 1 agree, then 3 is the mistake
    seen = [rec.index for rec in oracle.transcript.records()]
    assert seen == [0, 2, 1, 3]
    assert res.updated and res.committed.tolist() == [0, 2, 1, 3]


def test_pass_stops_at_first_mistake():
    w_truth = np.array([0.0, 1.0])
    h = Hypothesis(np.array([1.0, 0.0]))
    pts = np.array([
        [0.9, -math.sqrt(1 - 0.81)],   # largest margin, disagrees
        [0.5, math.sqrt(0.75)],
        [0.7, math.sqrt(0.51)],
    ])
    oracle = _oracle_for(pts, w_truth)
    res = margin_perceptron_pass(oracle, np.arange(3), h)
    assert res.committed.tolist() == [0]
    assert oracle.unpredicted_indices().tolist() == [1, 2]


def test_pass_breaks_margin_ties_by_index():
    h = Hypothesis(np.array([1.0, 0.0]))
    pts = np.array([
        [0.6, 0.8],
        [0.6, -0.8],
        [0.8, 0.6],
    ])
    oracle = _oracle_for(pts, h.w)
    margin_perceptron_pass(oracle, np.arange(3), h)
    seen = [rec.index for rec in oracle.transcript.records()]
    assert seen == [2, 0, 1]


def test_pass_flips_on_annihilation():
    # d=1: any mistake point is parallel to w, so the pass flips w
    oracle = _oracle_for(np.array([[1.0]]), np.array([-1.0]))
    res = margin_perceptron_pass(oracle, np.arange(1), Hypothesis(np.array([1.0])))
    assert res.updated and res.committed.tolist() == [0]
    assert res.hypothesis.w.tolist() == [-1.0]


def test_sweeps_score_given_points_and_report_labels():
    # the rows in `points` are scored and updated on in place of the
    # oracle's own points; the transcript lists what was revealed, in order
    w_truth = np.array([0.0, 1.0])
    oracle = _oracle_for(np.array([[R2, R2], [R2, -R2], [-R2, R2]]), w_truth)
    frame = np.array([[0.2, 0.0], [0.9, 0.0], [-0.5, 0.0]])  # margins under h: 0.2, 0.9, -0.5
    h = Hypothesis(np.array([1.0, 0.0]))
    res = next(margin_sweeps(oracle, np.array([0, 1, 2]), h, "", points=frame))
    # order by |margin|: index 1 (0.9, predicted +1, truth -1) is the first mistake
    assert res.updated and res.committed.tolist() == [1]
    assert [(r.index, r.truth) for r in oracle.transcript.records()] == [(1, -1)]
    assert np.array_equal(res.hypothesis.w, update_or_flip(h, frame[1]).w)


def test_sweeps_run_until_a_pass_without_mistake():
    # every pass but the last updates; together they commit each index once
    pts = sample_sphere_batch(120, 3, RngStream(12))
    oracle = _oracle_for(pts, np.array([0.3, -1.0, 0.5]))
    indices = np.arange(0, 120, 2)
    h = Hypothesis(np.array([1.0, 0.0, 0.0]))
    results = list(margin_sweeps(oracle, indices, h, "s"))
    assert len(results) > 1
    assert all(r.updated for r in results[:-1]) and not results[-1].updated
    assert sum(r.committed.size for r in results) == len(oracle.transcript) == indices.size
    assert sorted(r.index for r in oracle.transcript.records()) == indices.tolist()
    # a caller that stops early leaves the rest unpredicted
    oracle = _oracle_for(pts, np.array([0.3, -1.0, 0.5]))
    first = list(islice(margin_sweeps(oracle, indices, h, "s"), 1))
    assert len(oracle.transcript) == first[0].committed.size == results[0].committed.size


@given(st.data())
def test_ordered_kernel_commits_the_stable_argsort_prefix(data):
    # Keys from a small integer range tie heavily; the labels agree with
    # the predictions up to a chosen first mistake (or everywhere), and
    # anything after it may disagree. Window by window, the kernel must
    # commit exactly the stable argsort's prefix through that mistake.
    m = data.draw(st.integers(1, 60), label="m")
    by_key = data.draw(st.booleans(), label="keyed")
    keys = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)), dtype=float)
    margins = np.array(data.draw(st.lists(st.sampled_from([-0.5, 0.0, 0.5]), min_size=m, max_size=m)))
    window = data.draw(st.integers(1, m), label="first window")
    first = data.draw(st.integers(0, m), label="first mistake (m: none)")
    flips = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))

    order = np.argsort(keys, kind="stable") if by_key else np.arange(m)
    preds = predict_signs(margins)
    truth_in_order = preds[order].copy()
    if first < m:
        truth_in_order[first] = -truth_in_order[first]
        after = np.arange(m) > first
        truth_in_order[after & flips] = -truth_in_order[after & flips]
    n = m + 5
    indices = RngStream(m, 9).gen.permutation(n)[:m]
    labels = np.ones(n, dtype=np.int64)
    labels[indices[order]] = truth_in_order
    oracle = LabelOracle(LabeledDataset(np.ones((n, 1)), labels))

    committed, hit = _commit_ordered(
        oracle, indices, margins.__getitem__, "p", window, keys=keys if by_key else None)

    stop = first + 1 if first < m else m
    assert hit == (first < m)
    assert committed.tolist() == order[:stop].tolist()
    assert [r.index for r in oracle.transcript.records()] == indices[order[:stop]].tolist()
    assert np.flatnonzero(oracle.predicted_mask()).tolist() == sorted(indices[order[:stop]].tolist())


def _sweeps_reference(oracle, indices, h, key, rows):
    """Per point: predict the point left with the smallest (key of its margin, position).

    A mistake updates with update_or_flip and ends the stretch. Returns
    each stretch's committed indices, whether a mistake ended it, and w
    after it.
    """
    left = np.arange(indices.size)
    stretches, stretch = [], []
    while left.size:
        at = 0 if key is None else int(np.argsort(key(rows[left] @ h.w), kind="stable")[0])
        pos = left[at]
        left = np.delete(left, at)
        margin = float(rows[pos] @ h.w)
        prediction = 1 if margin >= 0.0 else -1
        stretch.append(int(indices[pos]))
        if oracle.predict(int(indices[pos]), prediction, margin, "s") != prediction:
            h = update_or_flip(h, rows[pos])
            stretches.append((stretch, True, h.w))
            stretch = []
    if stretch:
        stretches.append((stretch, False, h.w))
    return stretches


def _small_integer_rows(gen, m, d):
    """Rows in {-1, 0, 1}^d with at most two nonzeros, so |x|^2 <= 2.

    An update then never lengthens an integer w, so every margin and
    update is exact and |margin| ties are exact ties.
    """
    rows = gen.integers(-1, 2, size=(m, d)).astype(float)
    if d == 3:
        rows[np.arange(m), gen.integers(0, 3, size=m)] = 0.0
    return rows


@given(st.data())
def test_sweeps_match_per_point_reference(data):
    # All three keys, in the dataset's frame or a given one, d = 1 (every
    # update a flip) to 3, labels from a noisy separator so that stretches
    # run past the first window as well as stopping at once; a stretch
    # commits a prefix of what is left or not, as the key order falls.
    key = data.draw(st.sampled_from([max_margin_key, np.abs, None]), label="key")
    m = data.draw(st.integers(1, 400), label="m")
    d = data.draw(st.integers(1, 3), label="d")
    k = data.draw(st.sampled_from([None, 1, 2, 3]), label="frame dimension")
    noise = data.draw(st.sampled_from([0.0, 0.01, 0.2, 0.5]), label="label noise")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    n = m + int(gen.integers(0, 5))
    points = _small_integer_rows(gen, n, d)
    frame = None if k is None else _small_integer_rows(gen, m, k)
    indices = gen.permutation(n)[:m]
    rows = points[indices] if frame is None else frame
    truth = predict_signs(rows @ gen.standard_normal(rows.shape[1]))
    labels = np.ones(n, dtype=np.int64)
    labels[indices] = np.where(gen.random(m) < noise, -truth, truth)
    w0 = gen.integers(-2, 3, size=rows.shape[1]).astype(float)
    w0[0] = w0[0] or 1.0
    ds = LabeledDataset(points, labels)

    oracle = LabelOracle(ds)
    left, got = indices.copy(), []
    for result in margin_sweeps(oracle, indices, Hypothesis(w0), "s", key=key, points=frame):
        got.append((left[result.committed].tolist(), result.updated, result.hypothesis.w))
        left = np.delete(left, result.committed)

    reference = LabelOracle(ds)
    want = _sweeps_reference(reference, indices, Hypothesis(w0), key, rows)
    assert [(c, u) for c, u, _ in got] == [(c, u) for c, u, _ in want]
    assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(got, want))
    assert list(oracle.transcript.records()) == list(reference.transcript.records())
