"""Self-directed learning of arbitrary separable datasets.

A weak run puts the remaining points into isotropic position (recursing
into a dense subspace when the data is degenerate), starts from a random
unit guess in the working dimension k, and repeatedly predicts in order
of decreasing margin, updating on each mistake. Anti-concentration in
isotropic position makes a correct-on-a-1/(4k)-fraction run likely, and
an outer boosting loop retries and stacks weak runs until all but an
eps-fraction of the dataset is labeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .datasets import LabeledDataset
from .errors import NoConvergenceError
from .forster import forster_transform
from .geometry import RngStream, sample_sphere
from .perceptron import Hypothesis, margin_sweeps
from .transcript import LabelOracle, Transcript

PHASE_WEAK = "weak"
DEFAULT_C_HAT = 0.3


@dataclass
class WeakRunResult:
    """One weak-learner attempt over a working set U of retained points."""

    revealed: int  # labels revealed; the oracle's transcript holds them
    mistakes: int
    terminated_by: str  # "coverage" | "budget"
    k: int
    working_size: int

    @property
    def coverage_target(self) -> float:
        return self.working_size / (4.0 * self.k)


def weak_sweep_budget(k: int) -> int:
    """Max-margin sweeps (and hence mistakes) allowed per weak run."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return max(1, math.ceil(5.0 * k * math.log(k)))


def weak_run(oracle: LabelOracle, rng: RngStream, phase: str = PHASE_WEAK) -> WeakRunResult:
    """Predict a chunk of the still-unlabeled points, aiming at a 1/(4k) fraction.

    Steps: isotropize the unpredicted points at delta = 1/(2d) (keeping
    at least a k/d fraction in working dimension k), draw w uniformly from
    the unit sphere of that subspace, then margin_sweeps over the retained
    points in the working frame (decreasing |w . x| order until a mistake,
    update_or_flip, re-sort, repeat). Terminates by coverage once the
    revealed labels number at least |U|/(4k), or by budget after 5 k ln k
    sweeps (one sweep minimum, so k = 1 still gets its sign-fixing update).
    """
    indices = oracle.unpredicted_indices()
    if indices.size == 0:
        raise ValueError("weak_run needs at least one unpredicted point")

    # Before the first prediction the transform reads the oracle's points
    # in place (it never writes them), not a gathered copy.
    out = forster_transform(oracle.points if indices.size == oracle.n else oracle.points[indices],
                            1.0 / (2.0 * oracle.d))
    U = out.transformed_points
    k = out.subspace_dim
    orig = indices[out.retained_indices]
    m = U.shape[0]

    h = Hypothesis(sample_sphere(k, rng.child(0)))
    budget = weak_sweep_budget(k)
    target = m / (4.0 * k)
    revealed = mistakes = 0
    terminated_by = "budget"
    for result in islice(margin_sweeps(oracle, orig, h, phase, points=U), budget):
        mistakes += int(result.updated)
        revealed += result.committed.size
        if revealed >= target:
            terminated_by = "coverage"
            break
    return WeakRunResult(revealed, mistakes, terminated_by, k, m)


@dataclass(frozen=True)
class BoostBudget:
    """Outer-loop budget for boosting weak runs to (1 - eps) coverage."""

    eps: float
    delta: float
    alpha: float
    c: float
    runs_outer: int
    retries_per_round: int


def compute_boost_budget(
    d: int,
    eps: float,
    delta: float,
    c_hat: float = DEFAULT_C_HAT,
) -> BoostBudget:
    """Round and retry counts for the boosting loop.

    alpha = 1 - 1/(4d) is the residual fraction a successful round leaves
    behind: a weak run aims at a 1/(4k) share of what is left, and k <= d.
    It lies in [0.75, 1) for every d >= 1. c is the per-attempt success
    probability the retry count insures against. eps = 1 asks for no
    coverage: its one round stops before its first weak run.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0.0 < c_hat <= 1.0:
        raise ValueError(f"c_hat must be in (0, 1], got {c_hat}")
    alpha = 1.0 - 1.0 / (4.0 * d)
    runs_outer = max(1, math.ceil(math.log(1.0 / eps) / math.log(1.0 / alpha)))
    retries_raw = math.log(runs_outer / delta) / c_hat
    if not math.isfinite(retries_raw):
        raise ValueError(f"c_hat is too small for a finite retry count ln(rounds/delta)/c_hat, got {c_hat}")
    return BoostBudget(eps, delta, alpha, c_hat, runs_outer, max(1, math.ceil(retries_raw)))


@dataclass
class StrongRunResult:
    """Boosted run: transcript plus coverage and budget accounting."""

    transcript: Transcript
    budget: BoostBudget
    rounds_used: int
    attempts: int
    labeled_count: int
    n: int
    partial: bool

    @property
    def coverage(self) -> float:
        return self.labeled_count / self.n

    @property
    def mistakes(self) -> int:
        return self.transcript.mistakes


def strong_run(
    ds: LabeledDataset,
    eps: float,
    delta: float,
    rng: RngStream,
    c_hat: float = DEFAULT_C_HAT,
) -> StrongRunResult:
    """Boost weak runs until at most an eps-fraction stays unlabeled.

    Each round retries the weak learner until one attempt terminates by
    coverage; budget-terminated attempts are aborted but their revealed
    predictions stay counted and their points stay removed. Exhausting
    the retries of a round (or the outer rounds) before reaching
    (1 - eps) coverage yields a partial result, not an exception. So does
    a weak run whose transform finds no isotropy certificate: it counts as
    an attempt and ends the boosting. It committed nothing (the transform
    runs first), and a retry would fail alike, since the transform draws
    no randomness and the remaining points are the same.
    """
    oracle = LabelOracle(ds)
    n = oracle.n
    budget = compute_boost_budget(oracle.d, eps, delta, c_hat)
    attempts = 0
    rounds_used = 0
    left = n  # unpredicted points; each weak run reports what it revealed
    for rnd in range(budget.runs_outer):
        if left <= eps * n:
            break
        advanced = False
        for _ in range(budget.retries_per_round):
            attempt_rng = rng.child(attempts)
            attempts += 1
            try:
                result = weak_run(oracle, attempt_rng, phase=f"weak-round-{rnd}")
            except NoConvergenceError:
                break
            left -= result.revealed
            if result.terminated_by == "coverage" or left <= eps * n:
                advanced = True
                break
        rounds_used += 1
        if not advanced:
            break
    labeled = n - left
    partial = labeled < (1.0 - eps) * n
    return StrongRunResult(oracle.transcript, budget, rounds_used, attempts,
                           labeled, n, partial)
