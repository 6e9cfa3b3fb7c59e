"""Margin-perceptron primitives.

The update rule is the projecting one: on a mistake at x (unit norm),

    w' = w - (w . x) x

which removes x's component from w. It never increases the angle to the
true normal and, when the mistake margin is a fraction r of ||w|| sin(theta),
contracts tan^2(theta) by at least (1 - r^2).

`update_or_flip` is the one mistake rule every learner and baseline
uses: the projection update, or w -> -w when the mistake point is
parallel to w (always so in dimension 1) and the projection would zero
it.

`margin_sweeps` is the one stretch loop, for every prediction order:
commit the points left in stable key order until the first mistake,
update_or_flip, drop what was committed, go on. Its key picks the
order: -|w . x| for the self-directed learners (max_margin_key), |w . x|
for the greedy baseline, and position for the random-order baseline.
Each stretch goes through `_commit_ordered`, which commits one
`np.partition` window at a time, so what a stretch never reaches is
never sorted (nor, in position order, scored).
`margin_perceptron_pass` is the first stretch, with its UpdateRecord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateHypothesisError
from .geometry import angle, predict_signs, tan_theta
from .transcript import LabelOracle

NORM_FLOOR = 1e-300


class Hypothesis:
    """Nonzero weight vector with a cached norm."""

    __slots__ = ("w", "norm")

    def __init__(self, w: np.ndarray):
        w = np.asarray(w, dtype=np.float64)
        norm = float(np.linalg.norm(w))
        if not np.all(np.isfinite(w)):
            raise ValueError("hypothesis has non-finite coordinates")
        if norm < NORM_FLOOR:
            raise DegenerateHypothesisError("hypothesis vector is (numerically) zero")
        self.w = w
        self.norm = norm

    def margin(self, x: np.ndarray) -> float:
        return float(self.w @ x)


@dataclass
class UpdateRecord:
    """Instrumentation for one mistake update, ground truth in hand."""

    point_index: int
    margin: float        # |w . x| at the mistake
    r: float             # margin / (||w|| sin theta)
    tan_before: float
    tan_after: float


def mp_update(h: Hypothesis, x: np.ndarray) -> Hypothesis:
    """Apply w' = w - (w . x) x for a unit-norm mistake point x (Hypothesis rejects w' = 0)."""
    return Hypothesis(h.w - (h.w @ x) * x)


def update_or_flip(h: Hypothesis, x: np.ndarray) -> Hypothesis:
    """Mistake update at x: the projection, or w -> -w when it would zero w.

    The point is then parallel to w, as every point is in dimension 1,
    and flipping w is the norm-preserving move that corrects it.
    """
    if h.w.size > 1:
        try:
            return mp_update(h, x)
        except DegenerateHypothesisError:
            pass
    return Hypothesis(-h.w)


def decay_bound(theta: float, r: float) -> float:
    """Upper bound on tan^2 after a mistake with margin fraction r.

    Valid for theta in [0, pi/2); the factor is (1 - r^2) tan^2(theta).
    """
    if not 0.0 <= theta < math.pi / 2:
        raise ValueError(f"theta must be in [0, pi/2), got {theta}")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"margin fraction r must be in [0, 1], got {r}")
    t = math.tan(theta)
    return (1.0 - r * r) * t * t


def margin_mistake_bound(alpha: float, beta: float) -> float:
    """Cap on updates forced by margin-beta mistakes, starting at correlation alpha.

    If every update point satisfies |x . w| >= beta ||w|| while w keeps
    correlation at least alpha with a unit normal, at most
    (2 / beta^2) ln(1 / alpha) updates can occur.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    return (2.0 / (beta * beta)) * math.log(1.0 / alpha)


# First window of the first stretch, and the floor of every later one,
# which starts from the previous stretch's length. It is small next to
# the sphere initializer's n/4 candidates, of which a stretch mostly
# reveals a few dozen, and three windows cover a sphere-learner bucket at
# n=10^6. Without the floor, a keyed stretch a little longer than a short
# one before it partitions all that is left twice, which cost the boosted
# benchmark 10% of its wall time (2-core box, median of ten pairs).
_PASS_FIRST_WINDOW = 128


def _key_order_windows(keys: np.ndarray | None, size: int, window: int):
    """Positions 0..size-1 in stable ascending-key order, one window at a time.

    With keys None the order is position order. Otherwise each window is
    every not-yet-yielded position whose key is at most the w-th smallest
    among them (so ties come along), stable-sorted by key. Concatenated,
    the windows are np.argsort(keys, kind="stable"). w starts at `window`
    (at least 1) and grows x4 per window.
    """
    w = max(1, window)
    if keys is None:
        start = 0
        while start < size:
            yield np.arange(start, min(start + w, size))
            start += w
            w *= 4
        return
    rest = np.arange(size)
    while rest.size > w:
        rest_keys = keys[rest]
        inside = rest_keys <= np.partition(rest_keys, w - 1)[w - 1]
        take = rest[inside]
        yield take[np.argsort(keys[take], kind="stable")]
        rest = rest[~inside]
        w *= 4
    if rest.size:
        yield rest[np.argsort(keys[rest], kind="stable")]


def _commit_ordered(
    oracle: LabelOracle,
    indices: np.ndarray,
    margins_at,
    phase: str,
    window: int,
    keys: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Commit nonempty `indices` in stable ascending-key order until the first mistake.

    Windows from _key_order_windows go to `predict_until_mistake` in turn,
    predicted from `margins_at(positions)`, the margins of
    indices[positions] under the current hypothesis. That hypothesis is
    fixed until the first mistake, so the committed sequence is exactly
    what one commit of the full stable argsort would reveal. Returns the
    committed positions into `indices`, in commit order, and whether a
    mistake ended the commit (it is then the last position).
    """
    committed = []
    for take in _key_order_windows(keys, indices.size, window):
        margins = margins_at(take)
        revealed, hit = oracle.predict_until_mistake(indices[take], predict_signs(margins), margins, phase)
        committed.append(take[:revealed])
        if hit:
            break
    return np.concatenate(committed), hit


@dataclass
class PassResult:
    hypothesis: Hypothesis
    updated: bool
    committed: np.ndarray  # positions into `indices` in commit order; a mistake is last
    update_record: UpdateRecord | None = None


def max_margin_key(margins: np.ndarray) -> np.ndarray:
    """Sort keys of the self-directed order: largest |w . x| first."""
    return -np.abs(margins)


def margin_sweeps(oracle: LabelOracle, indices: np.ndarray, h: Hypothesis, phase: str,
                  key=max_margin_key, points: np.ndarray | None = None) -> Iterator[PassResult]:
    """Yield one stretch per mistake: commit in key order until the first mistake, update.

    Each stretch commits the not-yet-committed `indices` in stable
    ascending order of key(margins) under the current hypothesis, through
    the windowed kernel, until the first mistake; update_or_flip at that
    point starts the next stretch. key is max_margin_key for the
    self-directed learners, np.abs for the greedy order, and None for
    position order, in which margins are scored lazily, one window at a
    time. `points`, when given, holds the rows that are scored and updated
    on in place of oracle.points[indices] (one row per index, e.g. in a
    transformed frame).

    A stretch's `committed` positions index the `indices` (and `points`)
    it ran on, which shrink by the committed positions before the next
    one: a committed prefix is sliced off, anything else np.delete'd. A
    stretch's first window is the previous stretch's length, at least
    _PASS_FIRST_WINDOW. The sweeps end after a stretch without a mistake,
    which has committed everything left; callers stop them earlier with
    itertools.islice or break.
    """
    indices = np.asarray(indices, dtype=np.int64)

    def rows(pos):
        return oracle.points[indices[pos]] if points is None else points[pos]

    window = _PASS_FIRST_WINDOW
    while indices.size:
        if key is None:
            committed, hit = _commit_ordered(oracle, indices, lambda take: rows(take) @ h.w, phase, window)
        else:
            margins = rows(slice(None)) @ h.w
            committed, hit = _commit_ordered(oracle, indices, margins.__getitem__, phase, window, key(margins))
            # Freed before the yield: kept until the next stretch had
            # allocated its arrays, it raised the sphere initializer's
            # peak RSS at n=10^6 by 4%.
            del margins
        if hit:
            h = update_or_flip(h, rows(committed[-1]))
        yield PassResult(h, hit, committed)
        size = committed.size
        window = max(size, _PASS_FIRST_WINDOW)
        if committed.max() == size - 1:  # a prefix: slice it off without a copy
            indices = indices[size:]
            points = None if points is None else points[size:]
        else:
            indices = np.delete(indices, committed)
            points = None if points is None else np.delete(points, committed, axis=0)


def margin_perceptron_pass(
    oracle: LabelOracle,
    indices: np.ndarray,
    h: Hypothesis,
    phase: str = "",
    ground_truth: np.ndarray | None = None,
    points: np.ndarray | None = None,
) -> PassResult:
    """One max-margin pass: the first stretch of margin_sweeps.

    Points are predicted from the largest absolute margin down (ties by
    position in `indices`) until the first mistake, which triggers
    update_or_flip and ends the pass; the remaining points stay
    unpredicted. With `ground_truth`, an update also carries its
    UpdateRecord.
    """
    indices = np.asarray(indices, dtype=np.int64)
    result = next(margin_sweeps(oracle, indices, h, phase, points=points),
                  PassResult(h, False, np.empty(0, dtype=np.int64)))
    if result.updated and ground_truth is not None:
        pos = result.committed[-1]
        x = oracle.points[indices[pos]] if points is None else points[pos]
        margin = abs(float(h.w @ x))
        sin_t = math.sin(angle(h.w, ground_truth))
        result.update_record = UpdateRecord(
            point_index=int(indices[pos]),
            margin=margin,
            r=min(1.0, margin / (h.norm * sin_t)) if sin_t > 0 else 0.0,
            tan_before=tan_theta(h.w, ground_truth),
            tan_after=tan_theta(result.hypothesis.w, ground_truth),
        )
    return result
