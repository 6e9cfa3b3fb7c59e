"""Margin-perceptron primitives.

The update rule is the projecting one: on a mistake at x (unit norm),

    w' = w - (w . x) x

which removes x's component from w. It never increases the angle to the
true normal and, when the mistake margin is a fraction r of ||w|| sin(theta),
contracts tan^2(theta) by at least (1 - r^2).

`update_or_flip` is the one mistake rule every learner and baseline
uses: the projection update, or w -> -w when the mistake point is
parallel to w (always so in dimension 1) and the projection would zero
it. `margin_perceptron_pass` is the one ordered kernel: sort by
decreasing |w . x|, predict until the first mistake, update_or_flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHypothesisError
from .geometry import angle, predict_sign, predict_signs, tan_theta
from .transcript import LabelOracle

NORM_FLOOR = 1e-300
NORM_CACHE_RTOL = 1e-12


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

    def predict(self, x: np.ndarray) -> int:
        return predict_sign(float(self.w @ x))

    def margin(self, x: np.ndarray) -> float:
        return float(self.w @ x)

    def norm_consistent(self) -> bool:
        actual = float(np.linalg.norm(self.w))
        return abs(actual - self.norm) <= NORM_CACHE_RTOL * max(actual, self.norm)


@dataclass
class UpdateRecord:
    """Instrumentation for one mistake update, ground truth in hand."""

    point_index: int
    margin: float        # |w . x| at the mistake
    r: float             # margin / (||w|| sin theta)
    tan_before: float
    tan_after: float


def mp_update(h: Hypothesis, x: np.ndarray) -> Hypothesis:
    """Apply w' = w - (w . x) x for a unit-norm mistake point x."""
    w_next = h.w - (h.w @ x) * x
    if float(np.linalg.norm(w_next)) < NORM_FLOOR:
        raise DegenerateHypothesisError(
            "update annihilated the hypothesis (x parallel to w)")
    return Hypothesis(w_next)


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


@dataclass
class PassResult:
    hypothesis: Hypothesis
    updated: bool
    predictions: int     # how many labels this pass revealed
    mistake_index: int | None = None
    update_record: UpdateRecord | None = None
    labels: np.ndarray | None = None  # (predictions, 2): index, revealed label


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
    position in `indices`). The first mistake triggers update_or_flip and
    ends the pass; the remaining points stay unpredicted. Every
    prediction made is revealed through the oracle and logged. `points`,
    when given, holds the rows that are scored and updated on in place
    of oracle.points[indices] (one row per index, e.g. in a transformed
    frame).
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return PassResult(h, False, 0)
    if points is None:
        points = oracle.points[indices]
    margins = points @ h.w
    order = np.argsort(-np.abs(margins), kind="stable")
    ordered, margins = indices[order], margins[order]
    preds = predict_signs(margins)
    revealed, hit = oracle.predict_until_mistake(ordered, preds, margins, phase)
    labels = np.column_stack((ordered[:revealed], preds[:revealed]))
    if not hit:
        return PassResult(h, False, revealed, labels=labels)
    pos = revealed - 1
    labels[pos, 1] = -labels[pos, 1]
    h_next = update_or_flip(h, points[order[pos]])
    record = None
    if ground_truth is not None:
        sin_t = math.sin(angle(h.w, ground_truth))
        margin = abs(float(margins[pos]))
        record = UpdateRecord(
            point_index=int(ordered[pos]),
            margin=margin,
            r=min(1.0, margin / (h.norm * sin_t)) if sin_t > 0 else 0.0,
            tan_before=tan_theta(h.w, ground_truth),
            tan_after=tan_theta(h_next.w, ground_truth),
        )
    return PassResult(h_next, True, revealed, int(ordered[pos]), record, labels)
