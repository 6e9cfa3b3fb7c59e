"""Self-directed learner for uniform-sphere data.

The run has four phases. A prefix of a quarter of the points trains a
starting direction self-directedly: the max-margin stretches of
`perceptron.margin_sweeps` (predict in decreasing |w.x| order until the
first mistake, projection update, re-sort) until a mistake budget is
spent or the prefix runs out. The remaining points are split into 2k
random buckets feeding two independent arms; each arm consumes one
bucket per round with a single max-margin pass, the first stretch of
those sweeps. Finally each arm labels everything the other arm trained
on, so no bucket's labels ever feed back into the hypothesis that
predicts it. When the update budget exceeds half the data, one arm runs
the sweeps over the whole set instead (the fallback).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .datasets import LabeledDataset, split_buckets
from .geometry import RngStream, predict_signs, sample_sphere
from .perceptron import Hypothesis, margin_perceptron_pass, margin_sweeps, score_rows
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
    if not (math.isfinite(c_prime) and c_prime > 0.0):
        raise ValueError(f"c_prime must be positive and finite, got {c_prime}")
    loglog = math.log(math.log(n))
    # Capped at n before ceil: any budget over n // 2 means the fallback,
    # and a huge c_prime makes the product overflow to inf.
    t_raw = max(1, math.ceil(min(c_prime * d * max(loglog, 1.0) * math.log(1.0 / delta), n)))
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
    unpredicted prefix points (margin_sweeps): each pass predicts
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
    # Capped at the prefix size before ceil: every stretch commits at
    # least one point, and a huge c_init makes the product overflow.
    budget = math.ceil(min(c_init * d * math.log(1.0 / delta), prefix.size))
    h = Hypothesis(sample_sphere(d, rng))
    updated = False
    for result in islice(margin_sweeps(oracle, prefix, h, PHASE_INIT), budget):
        h = result.hypothesis
        updated |= result.updated
    return Hypothesis(h.w / h.norm) if updated else h


@dataclass
class SphereRunResult:
    transcript: Transcript
    schedule: SphereSchedule

    @property
    def mistakes(self) -> int:
        return self.transcript.mistakes


def run_sphere(
    ds: LabeledDataset,
    schedule: SphereSchedule,
    rng: RngStream,
    c_init: float = DEFAULT_C_INIT,
) -> SphereRunResult:
    """Run the two-arm self-directed learner over one dataset.

    Predicts every index exactly once. The learner reads the points and
    the labels it has predicted, never the dataset's true separator: the
    same points and labels with or without it give the same transcript.
    """
    if ds.n != schedule.n or ds.d != schedule.d:
        raise ValueError("schedule does not match the dataset shape")
    if not (math.isfinite(c_init) and c_init > 0.0):
        raise ValueError(f"c_init must be positive and finite, got {c_init}")
    oracle = LabelOracle(ds)

    if schedule.fallback:
        # A single arm over the whole set, re-sorting by margin after every update.
        h = Hypothesis(sample_sphere(ds.d, rng.child(0)))
        for _ in margin_sweeps(oracle, np.arange(ds.n, dtype=np.int32), h, PHASE_TRAIN_W):
            pass
        return SphereRunResult(oracle.transcript, schedule)

    prefix_size = init_prefix_size(ds.n)
    prefix = np.arange(prefix_size, dtype=np.int32)
    h0 = initialize_hypothesis(oracle, prefix, schedule.delta, rng.child(0), c_init)
    h = {"w": h0, "v": h0}

    # The buckets split the points after the prefix: shifted in place, they hold dataset indices.
    buckets = split_buckets(ds.n - prefix_size, 2 * schedule.k, rng.child(1))
    for bucket in buckets:
        bucket += prefix_size

    for t in range(schedule.k):
        for arm, bucket, phase in (("w", t, PHASE_TRAIN_W), ("v", schedule.k + t, PHASE_TRAIN_V)):
            h[arm] = margin_perceptron_pass(oracle, buckets[bucket], h[arm], phase).hypothesis

    # Cross-labeling: w labels what v trained on, v labels what w trained
    # on, so no point is ever predicted by a hypothesis its label touched.
    # Prefix points the initializer never reached (its budget ran out) go to w.
    mask = oracle.predicted_mask()
    for parts, arm in ((buckets[schedule.k:], "w"), (buckets[:schedule.k], "v"), ([prefix], "w")):
        todo = np.concatenate([part[~mask[part]] for part in parts])
        margins = score_rows(oracle.points, h[arm].w, todo)
        oracle.predict_bulk(todo, predict_signs(margins), margins, PHASE_CROSS)

    assert oracle.all_predicted()
    return SphereRunResult(oracle.transcript, schedule)
