"""Monte-Carlo verification oracles and order-policy baselines.

The oracles estimate the probabilistic claims the learners lean on -
disagreement-region mass, anti-concentration of the best mistake margin,
and the super-linear decay recurrence - from scratch, sharing nothing
with the learner implementations beyond the sphere sampler. Comparisons
always allow three standard errors of Monte-Carlo slack.

The baselines are the order policies the self-directed learner is
measured against: a uniformly random prediction order and a greedy
adversarial order that always serves the point the current hypothesis
is least sure about. Both are `perceptron.margin_sweeps` run to the
end with their own key (position in the permutation, or |w . x|), the
stretch loop the self-directed learners use with key -|w . x|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset
from .errors import InfeasibleParametersError, RegimeError
from .geometry import RngStream, sample_sphere
from .perceptron import Hypothesis, margin_sweeps
from .transcript import LabelOracle, Transcript

# Points per block of the Monte-Carlo kernels. A block and the region
# test's scratch take 0.7-1.1 MB at d = 3..6, inside a core's L2 cache,
# and a check holds nothing else that grows with n or m. Blocks of
# 2**15 and 2**16 points ran no faster in run_verify and raised its peak
# RSS by about 4 and 10 MB (CHANGES.md).
_BLOCK_POINTS = 1 << 14
# The tail check's level: mc_disagreement_mass's check="tail" expects the
# Hoeffding threshold to be exceeded with frequency at most TAIL_DELTA.
TAIL_DELTA = 0.01


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


class _RegionDraws:
    """Standard normal points drawn into one reused block, with their region mask.

    The block of _BLOCK_POINTS rows and the region test's scratch are
    allocated once. One draw of r rows returns the same numbers as
    consecutive draws adding up to r rows, so the block size moves no
    point of the stream.
    """

    def __init__(self, gen: np.random.Generator, d: int, v: tuple[float, float]):
        self.gen, self.v = gen, v
        self.x = np.empty((_BLOCK_POINTS, d))
        self.scratch = np.empty((2, _BLOCK_POINTS))
        self.hit = np.empty(_BLOCK_POINTS, dtype=bool)

    def draw(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """The next `rows` points (at most _BLOCK_POINTS) and the mask of those in the region.

        A row is in the disagreement region when u . x and v . x differ in
        sign or vanish: (x_0 v_0 + x_1 v_1) x_1 <= 0. The test reads only
        signs, so the rows need not be normalised, and it reads only
        columns 0 and 1, so it needs no matrix product. Both arrays are
        overwritten by the next draw.
        """
        x = self.x[:rows]
        self.gen.standard_normal(out=x)
        s, t = self.scratch[:, :rows]
        x1 = x[:, 1]
        np.multiply(x[:, 0], self.v[0], out=s)
        np.multiply(x1, self.v[1], out=t)
        s += t
        s *= x1
        return x, np.less_equal(s, 0.0, out=self.hit[:rows])


def _trial_blocks(draws: _RegionDraws, n: int, trials: int):
    """Yield (first row, x, mask) over `trials` trials of n points, a block at a time.

    Row j of the stream belongs to trial j // n, as in a loop drawing n
    points per trial; a trial may span several blocks.
    """
    total = n * trials
    for start in range(0, total, _BLOCK_POINTS):
        yield start, *draws.draw(min(_BLOCK_POINTS, total - start))


def _unit_margins(rows: np.ndarray) -> np.ndarray:
    """The margin |u . x| / |x| of each row x of `rows`, which it overwrites.

    The norm is np.linalg.norm(rows, axis=1) without its two copies: the
    same squares, summed in the same order.
    """
    margins = np.abs(rows[:, 1])
    rows *= rows
    margins /= np.sqrt(np.add.reduce(rows, axis=1))
    return margins


def _segments(start: int, rows: int, n: int) -> tuple[int, np.ndarray]:
    """Split rows start .. start + rows - 1 of a stream of n-row trials by trial.

    Returns the trial of the first row, and the offsets at which it and
    each later trial begin in the block: the indices of a ufunc.reduceat.
    """
    first = start // n
    return first, np.maximum(np.arange(first * n - start, rows, n), 0)


def mc_disagreement_mass(
    d: int,
    theta: float,
    n: int,
    trials: int,
    rng: RngStream,
    check: str = "mean",
) -> TailCheckResult:
    """Estimate the disagreement-region mass of two directions at angle theta.

    check="mean" compares the mean hit count against n * theta / pi
    (two-sided, encoded as |difference| <= 0 + 3 stderr). check="tail"
    measures how often the count exceeds the Hoeffding threshold
    n p + sqrt(2 p n ln(1/TAIL_DELTA)), which should happen with
    frequency at most TAIL_DELTA = 0.01.
    """
    if trials < 100:
        raise ValueError(f"need trials >= 100 for a stable comparison, got {trials}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if check not in ("mean", "tail"):
        raise ValueError(f"check must be 'mean' or 'tail', got {check!r}")
    v = _disagreement_frame(d, theta)
    counts = np.zeros(trials, dtype=np.int64)
    for start, x, hit in _trial_blocks(_RegionDraws(rng.gen, d, v), n, trials):
        first, cuts = _segments(start, len(x), n)
        counts[first:first + len(cuts)] += np.add.reduceat(hit, cuts, dtype=np.int64)
    # A count of 0/1 values is exact, so count / n is the mean of each trial's hits.
    fractions = counts / n
    p = theta / math.pi
    if check == "mean":
        diff = abs(float(fractions.mean()) - p)
        se = float(fractions.std(ddof=1)) / math.sqrt(trials)
        return TailCheckResult(diff, 0.0, se, trials, {"target": p, "mean": float(fractions.mean())})
    threshold = n * p + math.sqrt(2.0 * p * n * math.log(1.0 / TAIL_DELTA))
    exceed = float(np.mean(fractions * n > threshold))
    se = math.sqrt(TAIL_DELTA * (1.0 - TAIL_DELTA) / trials)
    return TailCheckResult(exceed, TAIL_DELTA, se, trials, {"threshold": threshold})


def _conditional_best_margins(
    m: int, trials: int, d: int, theta: float, v: tuple[float, float], gen: np.random.Generator
) -> np.ndarray:
    """Best |u . x| over each trial's m unit points of the disagreement region.

    The points are rejection samples: trial t takes accepted draws
    t m .. (t + 1) m - 1 of the stream, so the chunk sizes change only how
    far past the last of them the stream is read. Only each trial's
    running best is kept.
    """
    total = m * trials
    accept_rate = theta / math.pi
    draws = _RegionDraws(gen, d, v)
    best = np.zeros(trials)
    have = 0
    while have < total:
        x, hit = draws.draw(min(_BLOCK_POINTS, max(8192, int(1.5 * (total - have) / accept_rate))))
        keep = x[hit][:total - have]
        if not len(keep):
            continue
        first, cuts = _segments(have, len(keep), m)
        seg = best[first:first + len(cuts)]
        np.maximum(seg, np.maximum.reduceat(_unit_margins(keep), cuts), out=seg)
        have += len(keep)
    return best


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
    best = _conditional_best_margins(m, trials, d, theta, v, rng.gen)
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
) -> TailCheckResult:
    """Best margin over the disagreement points among n unconditioned samples.

    With ratio = 4 pi s / (n theta), the failure probability of the
    margin threshold is at most 2 exp(-s/2):
    case 1 threshold sqrt(ln(1/ratio) / (2 c d)) * sin(theta) for any
    c >= 2 with exp(-dc/4) <= ratio, here the smallest (details["c"];
    None in case 2);
    case 2 threshold (1 - ratio^{2/d}) * sin(theta).
    """
    if not math.isfinite(s) or s < 1:
        raise ValueError(f"s must be finite and >= 1, got {s}")
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    v = _disagreement_frame(d, theta)
    ratio = 4.0 * math.pi * s / (n * theta)
    if ratio > 1.0 + 1e-12:
        raise RegimeError(
            f"regime requires 4*pi*s/(n*theta) <= 1, got {ratio:.4g}")
    # Within the tolerance ratio counts as 1, so both thresholds are >= 0.
    ratio = min(ratio, 1.0)
    c = None
    if case == 1:
        c = _best_margin_c(d, ratio)
        threshold = math.sqrt(math.log(1.0 / ratio) / (2.0 * c * d)) * math.sin(theta)
    elif case == 2:
        threshold = (1.0 - ratio ** (2.0 / d)) * math.sin(theta)
    else:
        raise ValueError(f"case must be 1 or 2, got {case}")
    bound = 2.0 * math.exp(-s / 2.0)
    # A trial fails when no region point has margin |u . x| / |x| above the
    # threshold: its best margin, 0 with no point in the region, is at most
    # the threshold, which is >= 0.
    beaten = np.zeros(trials, dtype=bool)
    for start, x, hit in _trial_blocks(_RegionDraws(rng.gen, d, v), n, trials):
        at = np.flatnonzero(hit)
        beaten[(start + at[_unit_margins(x[at]) > threshold]) // n] = True
    emp = (trials - int(np.count_nonzero(beaten))) / trials
    se = math.sqrt(emp * (1.0 - emp) / trials)
    return TailCheckResult(emp, bound, se, trials, {"threshold": threshold, "case": case, "c": c})


def _best_margin_c(d: int, ratio: float) -> float:
    """The smallest c >= 2 with exp(-d c / 4) <= ratio, for ratio in (0, 1]."""
    return max(2.0, 4.0 * math.log(1.0 / ratio) / d)


def superlinear_rounds(rho: float, kappa: float, M: float, delta: float) -> int:
    """Rounds after which the decayed process should sit below e^2 kappa."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    if not (math.isfinite(M) and M > 0.0):
        raise ValueError(f"M must be positive and finite, got {M}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    inner = max(math.log(math.log(1.0 / kappa)), math.log(math.log1p(M)))
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
) -> TailCheckResult:
    """Simulate the slowest admissible decay process and check the round bound.

    Each of `trials` processes starts at M, the slowest start the round
    bound covers, and, per round, decays via superlinear_step with
    probability p_decay (at least 2/3, the guaranteed decay rate) or stays
    put. After the prescribed number of rounds, the failure frequency
    P[xi > e^2 kappa] must not exceed delta (plus Monte-Carlo slack).
    """
    if not 2.0 / 3.0 - 1e-12 <= p_decay <= 1.0:
        raise ValueError(f"p_decay must be in [2/3, 1], got {p_decay}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    T = superlinear_rounds(rho, kappa, M, delta)
    gen = rng.gen
    xi = np.full(trials, float(M))
    for _ in range(T):
        mask = gen.uniform(size=trials) < p_decay
        xi[mask] = superlinear_step(xi[mask], rho, kappa)
    emp = float(np.mean(xi > math.e ** 2 * kappa))
    se = math.sqrt(delta * (1.0 - delta) / trials)
    return TailCheckResult(emp, delta, se, trials, {"rounds": T})


def random_order_run(ds: LabeledDataset, rng: RngStream) -> Transcript:
    """Predict all points in a uniformly random order, updating on mistakes.

    The stretches of margin_sweeps with key None: position order in the
    permutation, scored one window at a time under the fixed hypothesis.
    """
    oracle = LabelOracle(ds)
    order = np.arange(ds.n, dtype=np.int32)
    rng.child(0).gen.shuffle(order)  # the values of gen.permutation(n), in half the bytes
    h = Hypothesis(sample_sphere(ds.d, rng.child(1)))
    for _ in margin_sweeps(oracle, order, h, "random-order", key=None):
        pass
    return oracle.transcript


def greedy_adversarial_order(ds: LabeledDataset, rng: RngStream) -> Transcript:
    """Always serve the unlabeled point with the smallest |w . x|.

    A stress order: the learner keeps facing the points its current
    hypothesis is least confident about (ties broken by index). These are
    the stretches of margin_sweeps with key |w . x|, re-scored over the
    points still unlabeled after each update.
    Starts from a random unit vector drawn from `rng`.
    """
    oracle = LabelOracle(ds)
    h = Hypothesis(sample_sphere(ds.d, rng.child(1)))
    for _ in margin_sweeps(oracle, np.arange(ds.n, dtype=np.int32), h, "greedy-order", key=np.abs):
        pass
    return oracle.transcript
