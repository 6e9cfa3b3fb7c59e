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

`_commit_ordered` is the one ordered kernel, which the margin pass and
both order baselines share: it commits candidates in stable
ascending-key order until the first mistake, one `np.partition` window
at a time, so what a stretch never reaches is never sorted (nor, when
scored lazily, scored). `margin_perceptron_pass` is that kernel with key
-|w . x|, then update_or_flip; `margin_sweeps` repeats it over what is
left, re-sorted after each update, for every self-directed learner.
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


# First window of a margin pass. It is small next to the sphere
# initializer's n/4 candidates, of which a pass mostly reveals a few
# dozen, and three windows cover a sphere-learner bucket at n=10^6.
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


def margin_perceptron_pass(
    oracle: LabelOracle,
    indices: np.ndarray,
    h: Hypothesis,
    phase: str = "",
    ground_truth: np.ndarray | None = None,
    points: np.ndarray | None = None,
) -> PassResult:
    """One max-margin pass: predict in decreasing |w . x| order, update once.

    Points are predicted from the largest absolute margin down (ties by
    position in `indices`), through the windowed kernel with key -|w . x|.
    The first mistake triggers update_or_flip and ends the pass; the
    remaining points stay unpredicted. Every prediction made is revealed
    through the oracle and logged. `points`, when given, holds the rows
    that are scored and updated on in place of oracle.points[indices]
    (one row per index, e.g. in a transformed frame).
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return PassResult(h, False, np.empty(0, dtype=np.int64))
    if points is None:
        points = oracle.points[indices]
    margins = points @ h.w
    committed, hit = _commit_ordered(
        oracle, indices, margins.__getitem__, phase, _PASS_FIRST_WINDOW, keys=-np.abs(margins))
    if not hit:
        return PassResult(h, False, committed)
    pos = committed[-1]
    h_next = update_or_flip(h, points[pos])
    record = None
    if ground_truth is not None:
        sin_t = math.sin(angle(h.w, ground_truth))
        margin = abs(float(margins[pos]))
        record = UpdateRecord(
            point_index=int(indices[pos]),
            margin=margin,
            r=min(1.0, margin / (h.norm * sin_t)) if sin_t > 0 else 0.0,
            tan_before=tan_theta(h.w, ground_truth),
            tan_after=tan_theta(h_next.w, ground_truth),
        )
    return PassResult(h_next, True, committed, record)


def margin_sweeps(oracle: LabelOracle, indices: np.ndarray, h: Hypothesis, phase: str,
                  points: np.ndarray | None = None) -> Iterator[PassResult]:
    """Yield margin passes over what earlier passes left, until one makes no mistake.

    Each pass starts from the previous one's hypothesis, and its
    `committed` positions index the shrunken `indices` (and `points`) it
    ran on. The sweeps also end when nothing is left; callers stop them
    earlier with itertools.islice or break.
    """
    indices = np.asarray(indices, dtype=np.int64)
    while indices.size:
        result = margin_perceptron_pass(oracle, indices, h, phase, points=points)
        yield result
        if not result.updated:
            return
        h = result.hypothesis
        indices = np.delete(indices, result.committed)
        if points is not None:
            points = np.delete(points, result.committed, axis=0)
