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
`margin_perceptron_pass` is the first stretch.

`score_rows` scores points[idx] @ w a block of rows at a time, so no
learner gathers all the rows it scores into one array.

Nothing here reads the true separator: a learner sees the points, and a
label only after predicting it. An observer that holds the truth can
measure each update's geometry from outside (geometry.tan_theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateHypothesisError
from .geometry import predict_signs, row_blocks
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


def update_or_flip(h: Hypothesis, x: np.ndarray) -> Hypothesis:
    """Mistake update at a unit-norm x: w' = w - (w . x) x, or w -> -w where w' would be zero.

    The point is then parallel to w, as every point is in dimension 1,
    and flipping w is the norm-preserving move that corrects it.
    """
    if h.w.size > 1:
        try:
            return Hypothesis(h.w - (h.w @ x) * x)
        except DegenerateHypothesisError:
            pass
    return Hypothesis(-h.w)


def score_rows(points: np.ndarray, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """points[idx] @ w, one geometry.row_blocks block of idx at a time.

    Only one block of gathered rows exists at a time. On the separation
    grid (d=10, n up to 10^6) the margins equal, bit for bit, those of
    one product over all the rows on one BLAS thread, whether the blocks
    run on one thread or two. That one product split across two threads
    differs from both in the last bit of a few margins in 10^6.
    """
    out = np.empty(len(idx))
    for block in row_blocks(len(idx)):
        np.matmul(points[idx[block]], w, out=out[block])
    return out


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
    (at least 1) and grows x2 per window in position order, x4 in key
    order. A position window costs only its own rows, so the smaller step
    offers fewer points past the mistake; a key window partitions all
    that is left, so fewer, larger windows pay there.
    """
    w = max(1, window)
    if keys is None:
        start = 0
        while start < size:
            yield np.arange(start, min(start + w, size))
            start += w
            w *= 2
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
    time. `points`, when given, is the frame that is scored and updated
    on in place of oracle.points: row i holds indices[i], e.g. in a
    transformed frame. The frame is never copied or written; rows are
    scored through score_rows and a shrinking int32 position array into
    it, and `indices` keep their integer dtype (int32 saves half the
    bytes).

    A stretch's `committed` positions index the `indices` left when it
    ran, which shrink by the committed positions before the next one: a
    committed prefix is sliced off, anything else dropped through one
    mask, shared with the frame's positions. A stretch's first window is
    the previous stretch's length, at least _PASS_FIRST_WINDOW. The
    sweeps end after a stretch without a mistake, which has committed
    everything left; callers stop them earlier with itertools.islice or
    break.
    """
    indices = np.asarray(indices)
    frame = oracle.points if points is None else points
    # The frame's row of each index left: the index itself in oracle.points.
    rows = indices if points is None else np.arange(indices.size, dtype=np.int32)

    def margins_at(pos):
        """Margins under h of the rows at positions pos, or of every row when pos is None."""
        return score_rows(frame, h.w, rows if pos is None else rows[pos])

    window = _PASS_FIRST_WINDOW
    while indices.size:
        if key is None:
            committed, hit = _commit_ordered(oracle, indices, margins_at, phase, window)
        else:
            margins = margins_at(None)
            committed, hit = _commit_ordered(oracle, indices, margins.__getitem__, phase, window, key(margins))
            # Freed before the yield: kept until the next stretch had
            # allocated its arrays, it raised the sphere initializer's
            # peak RSS at n=10^6 by 4%.
            del margins
        if hit:
            h = update_or_flip(h, frame[rows[committed[-1]]])
        yield PassResult(h, hit, committed)
        size = committed.size
        window = max(size, _PASS_FIRST_WINDOW)
        if committed.max() == size - 1:  # a prefix: slice it off without a copy
            rest = slice(size, None)
        else:
            rest = np.ones(indices.size, dtype=bool)
            rest[committed] = False
        indices = indices[rest]
        rows = indices if points is None else rows[rest]


def margin_perceptron_pass(
    oracle: LabelOracle,
    indices: np.ndarray,
    h: Hypothesis,
    phase: str = "",
) -> PassResult:
    """One max-margin pass: the first stretch of margin_sweeps.

    Points are predicted from the largest absolute margin down (ties by
    position in `indices`) until the first mistake, which triggers
    update_or_flip and ends the pass; the remaining points stay
    unpredicted.
    """
    return next(margin_sweeps(oracle, indices, h, phase),
                PassResult(h, False, np.empty(0, dtype=np.int64)))
