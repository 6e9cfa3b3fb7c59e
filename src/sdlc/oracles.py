"""Monte-Carlo verification oracles and order-policy baselines.

The oracles estimate the probabilistic claims the learners lean on -
disagreement-region mass, anti-concentration of the best mistake margin,
and the super-linear decay recurrence - from scratch, sharing nothing
with the learner implementations beyond the sphere sampler. Comparisons
always allow three standard errors of Monte-Carlo slack.

The baselines are the order policies the self-directed learner is
measured against: a uniformly random prediction order and a greedy
adversarial order that always serves the point the current hypothesis
is least sure about. Both predict through the ordered kernel of
`perceptron` (key: position in the permutation, or |w . x|) and update
with `update_or_flip`; neither keeps an ordering loop of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset
from .errors import InfeasibleParametersError, RegimeError
from .geometry import RngStream, sample_sphere
from .perceptron import Hypothesis, _commit_ordered, update_or_flip
from .transcript import LabelOracle, Transcript

# Points per block of the Monte-Carlo kernels: enough to amortise numpy's
# per-call cost, few enough that a block's arrays take a few MB per check.
_BLOCK_POINTS = 1 << 18


@dataclass
class TailCheckResult:
    """Empirical frequency vs analytic bound, with 3-sigma slack."""

    empirical: float
    bound: float
    std_err: float
    trials: int
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.std_err


def _disagreement_frame(d: int, theta: float) -> tuple[float, float]:
    """The pair u = e_1, v = -sin(theta) e_0 + cos(theta) e_1 at angle theta.

    The margin direction is u. Returns v's two nonzero coordinates.
    """
    if d < 2:
        raise ValueError("disagreement geometry needs dimension >= 2")
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must be in (0, pi), got {theta}")
    return -math.sin(theta), math.cos(theta)


def _in_region(x: np.ndarray, v: tuple[float, float]) -> np.ndarray:
    """Mask of the rows of x in the disagreement region: u . x and v . x differ in sign or vanish.

    The test reads only signs, so the rows need not be normalised, and
    it reads only columns 0 and 1, so it needs no matrix product.
    """
    x1 = x[:, 1]
    s = x[:, 0] * v[0]
    s += x1 * v[1]
    s *= x1
    return s <= 0.0


def _normal_blocks(gen: np.random.Generator, n: int, d: int, trials: int):
    """Standard normal points of `trials` trials of n points each, whole trials at a time.

    Yields (first trial, k, points of shape (k * n, d)), with about
    _BLOCK_POINTS points per block; the yielded array is reused by the
    next block. One draw of k * n rows returns the same numbers as k
    draws of n rows, so each trial sees the points a per-trial loop
    would draw.
    """
    per_block = max(1, min(trials, _BLOCK_POINTS // n))
    buf = np.empty((per_block * n, d))
    for first in range(0, trials, per_block):
        k = min(per_block, trials - first)
        x = buf[:k * n]
        gen.standard_normal(out=x)
        yield first, k, x


def mc_disagreement_mass(
    d: int,
    theta: float,
    n: int,
    trials: int,
    rng: RngStream,
    check: str = "mean",
    tail_delta: float = 0.01,
) -> TailCheckResult:
    """Estimate the disagreement-region mass of two directions at angle theta.

    check="mean" compares the mean hit count against n * theta / pi
    (two-sided, encoded as |difference| <= 0 + 3 stderr). check="tail"
    measures how often the count exceeds the Hoeffding threshold
    n p + sqrt(2 p n ln(1/tail_delta)), which should happen with
    frequency at most tail_delta.
    """
    if trials < 100:
        raise ValueError(f"need trials >= 100 for a stable comparison, got {trials}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    v = _disagreement_frame(d, theta)
    fractions = np.empty(trials)
    for first, k, x in _normal_blocks(rng.gen, n, d, trials):
        fractions[first:first + k] = _in_region(x, v).reshape(k, n).mean(axis=1)
    p = theta / math.pi
    if check == "mean":
        diff = abs(float(fractions.mean()) - p)
        se = float(fractions.std(ddof=1)) / math.sqrt(trials)
        return TailCheckResult(diff, 0.0, se, trials, {"target": p, "mean": float(fractions.mean())})
    if check == "tail":
        threshold = n * p + math.sqrt(2.0 * p * n * math.log(1.0 / tail_delta))
        exceed = float(np.mean(fractions * n > threshold))
        se = math.sqrt(tail_delta * (1.0 - tail_delta) / trials)
        return TailCheckResult(exceed, tail_delta, se, trials, {"threshold": threshold})
    raise ValueError(f"check must be 'mean' or 'tail', got {check!r}")


def _conditional_disagreement_samples(
    total: int, d: int, theta: float, v: tuple[float, float], gen: np.random.Generator
) -> np.ndarray:
    """Rejection-sample `total` unit points from the disagreement region.

    The samples are the first `total` accepted draws of the stream, so the
    chunk sizes change only how far past them the stream is read.
    """
    accept_rate = theta / math.pi
    out = np.empty((total, d))
    have = 0
    while have < total:
        chunk = min(_BLOCK_POINTS, max(8192, int(1.5 * (total - have) / accept_rate)))
        x = gen.standard_normal((chunk, d))
        keep = x[_in_region(x, v)][:total - have]
        keep /= np.linalg.norm(keep, axis=1)[:, None]
        out[have:have + keep.shape[0]] = keep
        have += keep.shape[0]
    return out


def mc_max_margin_tail(
    d: int,
    theta: float,
    m: int,
    level: float,
    case: int,
    trials: int,
    rng: RngStream,
) -> TailCheckResult:
    """Check anti-concentration of the best margin among m disagreement points.

    Case 1: P[max |u.x| <= level * sin(theta/2)] <= exp(-m (1-level^2)^{d/2-1} / 2).
    Case 2: P[max |u.x| <= (1-level) * sin(theta)] <= exp(-m (level/2)^{d/2} / 2).
    Samples are conditioned on the disagreement region by rejection.
    """
    if theta < 1e-4:
        raise InfeasibleParametersError(
            f"acceptance rate theta/pi = {theta / math.pi:.2e} is too small for rejection sampling")
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level must be in [0, 1], got {level}")
    if m < 1 or trials < 1:
        raise ValueError("m and trials must be positive")
    v = _disagreement_frame(d, theta)
    if case == 1:
        threshold = level * math.sin(theta / 2.0)
        bound = math.exp(-m * (1.0 - level * level) ** (d / 2.0 - 1.0) / 2.0)
    elif case == 2:
        threshold = (1.0 - level) * math.sin(theta)
        bound = math.exp(-m * (level / 2.0) ** (d / 2.0) / 2.0)
    else:
        raise ValueError(f"case must be 1 or 2, got {case}")
    samples = _conditional_disagreement_samples(m * trials, d, theta, v, rng.gen)
    best = np.abs(samples[:, 1]).reshape(trials, m).max(axis=1)
    emp = float(np.mean(best <= threshold))
    se = math.sqrt(emp * (1.0 - emp) / trials)
    return TailCheckResult(emp, bound, se, trials, {"threshold": threshold, "case": case})


def mc_best_mistake_margin(
    d: int,
    theta: float,
    n: int,
    s: float,
    case: int,
    trials: int,
    rng: RngStream,
    c: float | None = None,
) -> TailCheckResult:
    """Best margin over the disagreement points among n unconditioned samples.

    With ratio = 4 pi s / (n theta), the failure probability of the
    margin threshold is at most 2 exp(-s/2):
    case 1 threshold sqrt(ln(1/ratio) / (2 c d)) * sin(theta) for any
    c >= 2 with exp(-dc/4) <= ratio (c is auto-raised to satisfy this);
    case 2 threshold (1 - ratio^{2/d}) * sin(theta).
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    v = _disagreement_frame(d, theta)
    ratio = 4.0 * math.pi * s / (n * theta)
    if ratio > 1.0 + 1e-12:
        raise RegimeError(
            f"regime requires 4*pi*s/(n*theta) <= 1, got {ratio:.4g}")
    if case == 1:
        if c is None:
            c = max(2.0, 4.0 * math.log(1.0 / ratio) / d)
        if c < 2.0:
            raise RegimeError(f"regime requires c >= 2, got {c}")
        if math.exp(-d * c / 4.0) > ratio * (1.0 + 1e-12):
            raise RegimeError(
                f"regime requires exp(-d*c/4) <= 4*pi*s/(n*theta): "
                f"{math.exp(-d * c / 4.0):.4g} > {ratio:.4g}")
        threshold = math.sqrt(math.log(1.0 / ratio) / (2.0 * c * d)) * math.sin(theta)
    elif case == 2:
        threshold = (1.0 - ratio ** (2.0 / d)) * math.sin(theta)
    else:
        raise ValueError(f"case must be 1 or 2, got {case}")
    bound = 2.0 * math.exp(-s / 2.0)
    failures = 0
    for _, k, x in _normal_blocks(rng.gen, n, d, trials):
        # Margin |u . x| / |x| of the in-region points, 0 elsewhere.
        at = np.flatnonzero(_in_region(x, v))
        inside = x[at]
        margins = np.zeros(k * n)
        margins[at] = np.abs(inside[:, 1]) / np.linalg.norm(inside, axis=1)
        failures += int(np.count_nonzero(margins.reshape(k, n).max(axis=1) <= threshold))
    emp = failures / trials
    se = math.sqrt(emp * (1.0 - emp) / trials)
    return TailCheckResult(emp, bound, se, trials, {"threshold": threshold, "case": case, "c": c})


def superlinear_rounds(rho: float, kappa: float, M: float, delta: float) -> int:
    """Rounds after which the decayed process should sit below e^2 kappa."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    if M <= 0 or delta <= 0 or delta >= 1:
        raise ValueError("need M > 0 and delta in (0, 1)")
    inner = max(math.log(math.log(1.0 / kappa)), math.log(math.log(M + 1.0)))
    return max(0, math.ceil(1.5 * (inner / rho + math.log(math.e / delta))))


def superlinear_step(xi, rho: float, kappa: float):
    """One decay step of the recurrence: xi -> xi^(1-rho) * kappa^rho.

    xi is a float or an array of floats.
    """
    return xi ** (1.0 - rho) * kappa ** rho


def simulate_superlinear(
    rho: float,
    kappa: float,
    M: float,
    p_decay: float,
    delta: float,
    trials: int,
    rng: RngStream,
    xi0: float | None = None,
) -> TailCheckResult:
    """Simulate the slowest admissible decay process and check the round bound.

    Each of `trials` processes starts at xi0 (default M) and, per round,
    decays via superlinear_step with probability p_decay (at least 2/3,
    the guaranteed decay rate) or stays put. After the prescribed number
    of rounds, the failure frequency P[xi > e^2 kappa] must not exceed
    delta (plus Monte-Carlo slack).
    """
    if p_decay < 2.0 / 3.0 - 1e-12 or p_decay > 1.0:
        raise ValueError(f"p_decay must be in [2/3, 1], got {p_decay}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    start = M if xi0 is None else xi0
    if start > M or start < 0:
        raise ValueError("need 0 <= xi0 <= M")
    T = superlinear_rounds(rho, kappa, M, delta)
    gen = rng.gen
    xi = np.full(trials, float(start))
    for _ in range(T):
        mask = gen.uniform(size=trials) < p_decay
        xi[mask] = superlinear_step(xi[mask], rho, kappa)
    emp = float(np.mean(xi > math.e ** 2 * kappa))
    se = math.sqrt(delta * (1.0 - delta) / trials)
    return TailCheckResult(emp, delta, se, trials, {"rounds": T})


def random_order_run(ds: LabeledDataset, rng: RngStream) -> Transcript:
    """Predict all points in a uniformly random order, updating on mistakes.

    Each stretch between mistakes streams through the permutation with the
    ordered kernel, scoring one window at a time under the fixed
    hypothesis; the first window is the previous stretch's length.
    """
    oracle = LabelOracle(ds)
    order = rng.child(0).gen.permutation(ds.n)
    h = Hypothesis(sample_sphere(ds.d, rng.child(1)))
    pos = revealed = 0
    while pos < order.size:
        rest = order[pos:]
        committed, hit = _commit_ordered(
            oracle, rest, lambda take: oracle.points[rest[take]] @ h.w, "random-order", revealed)
        revealed = committed.size
        pos += revealed
        if hit:
            h = update_or_flip(h, oracle.points[rest[committed[-1]]])
    return oracle.transcript


def greedy_adversarial_order(ds: LabeledDataset, rng: RngStream) -> Transcript:
    """Always serve the unlabeled point with the smallest |w . x|.

    A stress order: the learner keeps facing the points its current
    hypothesis is least confident about (ties broken by index). The
    hypothesis is fixed between mistakes, so each stretch goes through
    the ordered kernel with key |w . x| over the points still unlabeled,
    re-scored under the new hypothesis after each update; the first
    window is the previous stretch's length.
    Starts from a random unit vector drawn from `rng`.
    """
    oracle = LabelOracle(ds)
    h = Hypothesis(sample_sphere(ds.d, rng.child(1)))
    remaining = np.arange(ds.n)
    revealed = 0
    while remaining.size:
        margins = oracle.points[remaining] @ h.w
        committed, hit = _commit_ordered(
            oracle, remaining, margins.__getitem__, "greedy-order", revealed, keys=np.abs(margins))
        revealed = committed.size
        if hit:
            h = update_or_flip(h, oracle.points[remaining[committed[-1]]])
        remaining = np.delete(remaining, committed)
    return oracle.transcript
