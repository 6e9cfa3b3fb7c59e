"""Self-directed learner for uniform-sphere data.

The run has four phases. A prefix of a quarter of the points trains a
starting direction self-directedly: repeated max-margin passes (predict
in decreasing |w.x| order, projection update on the first mistake,
re-sort) until a mistake budget is spent or the prefix runs out. The
remaining points are split into 2k random buckets feeding two
independent arms; each arm consumes one bucket per round with a single
max-margin pass (predict in decreasing |w.x| order, update once on the
first mistake). Finally each arm labels everything the other arm
trained on, so no bucket's labels ever feed back into the hypothesis
that predicts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datasets import LabeledDataset, split_buckets
from .geometry import RngStream, predict_signs, sample_sphere
from .perceptron import Hypothesis, UpdateRecord, margin_perceptron_pass
from .transcript import LabelOracle, Transcript

DEFAULT_C_PRIME = 4.0
DEFAULT_C_INIT = 10.0

PHASE_INIT = "init"
PHASE_TRAIN_W = "train-w"
PHASE_TRAIN_V = "train-v"
PHASE_CROSS = "cross-label"


@dataclass(frozen=True)
class SphereSchedule:
    """Budget and bucket plan for one run.

    T is the per-arm update budget ceil(c_prime * d * max(lnln n, 1) *
    ln(1/delta)), clamped to n/2. The bucket count k matches T but is
    further clamped to n/4 so buckets keep at least two points; when even
    the clamped budget exceeds half the data there is nothing to schedule
    and the run degrades to a single re-sorting arm (fallback).
    """

    n: int
    d: int
    delta: float
    c_prime: float
    T: int
    k: int
    N: int
    fallback: bool


def make_schedule(n: int, d: int, delta: float, c_prime: float = DEFAULT_C_PRIME) -> SphereSchedule:
    if n < 4:
        raise ValueError(f"need at least 4 points to schedule, got {n}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c_prime <= 0.0:
        raise ValueError(f"c_prime must be positive, got {c_prime}")
    loglog = math.log(math.log(n))
    t_raw = math.ceil(c_prime * d * max(loglog, 1.0) * math.log(1.0 / delta))
    t_raw = max(1, t_raw)
    T = min(t_raw, n // 2)
    k = max(1, min(T, n // 4))
    N = n // (2 * k)
    return SphereSchedule(
        n=n, d=d, delta=delta, c_prime=c_prime, T=T, k=k, N=N,
        fallback=t_raw > n // 2,
    )


def init_prefix_size(n: int) -> int:
    """Points reserved for the initializer: a quarter of the data, n // 4.

    The margin-ordered initializer spends a mistake only when the most
    confident prediction still left is wrong, so a larger prefix buys a
    better starting direction rather than more mistakes.
    """
    return max(1, n // 4)


def initialize_hypothesis(
    oracle: LabelOracle,
    prefix: np.ndarray,
    delta: float,
    rng: RngStream,
    c_init: float = DEFAULT_C_INIT,
) -> Hypothesis:
    """Train a starting direction on the reserved prefix, self-directed.

    Starts from a random unit vector and runs max-margin passes over the
    unpredicted prefix points (margin_perceptron_pass): each pass predicts
    in decreasing |w.x| order until the first mistake, applies the
    projection update, and the next pass re-sorts under the new direction.
    A mistake point parallel to w (certain at d=1) flips w instead
    (update_or_flip). Stops once the mistake budget
    ceil(c_init * d * ln(1/delta)) is spent or the
    prefix is exhausted; any unpredicted prefix points are left for the
    final labeling phase. Returns the direction as a unit vector, or the
    starting vector unchanged when no update happened.
    """
    d = oracle.d
    budget = math.ceil(c_init * d * math.log(1.0 / delta))
    h = Hypothesis(sample_sphere(d, rng))
    rest = np.asarray(prefix, dtype=np.int64)
    mistakes = 0
    while rest.size and mistakes < budget:
        result = margin_perceptron_pass(oracle, rest, h, PHASE_INIT)
        if not result.updated:
            break
        h = result.hypothesis
        mistakes += 1
        rest = np.delete(rest, result.committed)
    if mistakes == 0:
        return h
    return Hypothesis(h.w / h.norm)


@dataclass
class SphereRunResult:
    transcript: Transcript
    schedule: SphereSchedule
    hypothesis_w: Hypothesis
    hypothesis_v: Hypothesis | None

    @property
    def mistakes(self) -> int:
        return self.transcript.mistakes


def _fallback_run(oracle: LabelOracle, rng: RngStream) -> Hypothesis:
    """Single arm over the whole set, re-sorting by margin after every update."""
    h = Hypothesis(sample_sphere(oracle.d, rng.child(0)))
    while not oracle.all_predicted():
        h = margin_perceptron_pass(oracle, oracle.unpredicted_indices(), h, PHASE_TRAIN_W).hypothesis
    return h


def run_sphere(
    ds: LabeledDataset,
    schedule: SphereSchedule,
    rng: RngStream,
    c_init: float = DEFAULT_C_INIT,
    instrument: Callable[[str, int, UpdateRecord], None] | None = None,
) -> SphereRunResult:
    """Run the two-arm self-directed learner over one dataset.

    Predicts every index exactly once. The instrument callback, when
    given (and the dataset carries ground truth), receives an
    UpdateRecord per training update - diagnostics only, the learner
    never reads the truth itself.
    """
    if ds.n != schedule.n or ds.d != schedule.d:
        raise ValueError("schedule does not match the dataset shape")
    oracle = LabelOracle(ds)

    if schedule.fallback:
        h = _fallback_run(oracle, rng)
        return SphereRunResult(oracle.transcript, schedule, h, None)

    prefix_size = init_prefix_size(ds.n)
    prefix = np.arange(prefix_size, dtype=np.int64)
    h0 = initialize_hypothesis(oracle, prefix, schedule.delta, rng.child(0), c_init)
    h_w = h_v = h0

    rest = np.arange(prefix_size, ds.n, dtype=np.int64)
    buckets = split_buckets(rest.size, 2 * schedule.k, rng.child(1))
    truth = ds.ground_truth if instrument is not None else None

    for t in range(schedule.k):
        bucket_w = rest[buckets[t]]
        res_w = margin_perceptron_pass(oracle, bucket_w, h_w, PHASE_TRAIN_W, truth)
        h_w = res_w.hypothesis
        if instrument is not None and res_w.update_record is not None:
            instrument("w", t, res_w.update_record)

        bucket_v = rest[buckets[schedule.k + t]]
        res_v = margin_perceptron_pass(oracle, bucket_v, h_v, PHASE_TRAIN_V, truth)
        h_v = res_v.hypothesis
        if instrument is not None and res_v.update_record is not None:
            instrument("v", t, res_v.update_record)

    # Cross-labeling: w labels what v trained on, v labels what w trained
    # on, so no point is ever predicted by a hypothesis its label touched.
    w_side = rest[np.concatenate([buckets[t] for t in range(schedule.k)])]
    v_side = rest[np.concatenate([buckets[schedule.k + t] for t in range(schedule.k)])]
    # Prefix points the initializer never reached (its budget ran out) go to w.
    mask = oracle.predicted_mask()
    for todo, h in ((v_side, h_w), (w_side, h_v), (prefix, h_w)):
        todo = todo[~mask[todo]]
        margins = oracle.points[todo] @ h.w
        oracle.predict_bulk(todo, predict_signs(margins), margins, PHASE_CROSS)

    assert oracle.all_predicted()
    return SphereRunResult(oracle.transcript, schedule, h_w, h_v)
