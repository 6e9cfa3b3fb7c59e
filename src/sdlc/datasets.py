"""Dataset construction, bucketing, and on-disk round-trips.

All generators emit unit-norm points with labels in {-1, +1} assigned by
a hidden ground-truth direction (label = sign(w* . x), sign(0) = +1), so
every dataset is linearly separable by construction.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParametersError, MalformedRecordError
from .geometry import (
    UNIT_TOL, RngStream, as_vector, predict_signs, sample_sphere, sample_sphere_batch,
)

ARBITRARY_FAMILIES = ("clustered", "low_margin", "subspace_degenerate", "grid")
FAMILIES = ("uniform",) + ARBITRARY_FAMILIES
_NUMBER_TYPES = frozenset((int, float))
# Rejection draws allowed per clustered point. A point whose acceptance
# rate is below about 1e-4 exhausts them and the parameters are rejected
# as infeasible, instead of looping forever.
_CLUSTER_MAX_DRAWS = 100_000


@dataclass
class LabeledDataset:
    """Points (n, d), labels (n,) in {-1,+1}, optional ground-truth normal."""

    points: np.ndarray
    labels: np.ndarray
    ground_truth: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.points.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {self.points.shape}")
        if self.labels.shape != (self.points.shape[0],):
            raise ValueError("labels must be a 1-D array matching the point count")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points contain non-finite coordinates")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        if self.ground_truth is not None:
            self.ground_truth = as_vector(self.ground_truth, self.d)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def gen_uniform_sphere(n: int, d: int, rng: RngStream) -> LabeledDataset:
    """n i.i.d. uniform points on S_{d-1}, labeled by a random unit normal.

    The normal is drawn from a separate child stream so datasets with the
    same point stream but different truth streams stay comparable.
    """
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    points = sample_sphere_batch(n, d, rng.child(0))
    w_star = sample_sphere(d, rng.child(1))
    return LabeledDataset(points, predict_labels(points, w_star), w_star)


def _orthonormal_basis(d: int, k: int, rng: RngStream) -> np.ndarray:
    """Random (d, k) matrix with orthonormal columns."""
    g = rng.gen.normal(size=(d, k))
    q, r = np.linalg.qr(g)
    # Fix the sign convention so the basis is a deterministic function of g.
    return q * np.sign(np.diag(r))


def _gen_clustered(n: int, d: int, params: dict, rng: RngStream) -> LabeledDataset:
    num_clusters = int(params.get("num_clusters", min(5, n)))
    spread = float(params.get("spread", 0.02))
    offset = float(params.get("boundary_offset", 0.1))
    floor = float(params.get("margin_floor", 0.02))
    if num_clusters < 1 or num_clusters > n:
        raise ValueError("num_clusters must be in [1, n]")
    if spread <= 0 or offset <= 0 or floor <= 0:
        raise ValueError("spread, boundary_offset and margin_floor must be positive")

    w_star = sample_sphere(d, rng.child(1))
    crng = rng.child(2)
    centers = []
    for j in range(num_clusters):
        raw = sample_sphere(d, crng)
        tangent = raw - float(raw @ w_star) * w_star
        tnorm = np.linalg.norm(tangent)
        if tnorm < 1e-12:
            tangent = np.zeros(d)
            tnorm = 0.0
        else:
            tangent /= tnorm
        # Alternate sides of the boundary, at distance in [offset, 2*offset].
        dist = offset * (1.0 + crng.gen.uniform())
        side = 1.0 if j % 2 == 0 else -1.0
        if d == 1:
            centers.append(side * w_star)
        else:
            centers.append(np.sqrt(max(0.0, 1.0 - dist * dist)) * tangent + side * dist * w_star)
    prng = rng.child(3)
    points = np.empty((n, d))
    for i in range(n):
        c = centers[i % num_clusters]
        for _ in range(_CLUSTER_MAX_DRAWS):
            p = c + spread * prng.gen.normal(size=d)
            norm = np.linalg.norm(p)
            if norm < 1e-12:
                continue
            p /= norm
            if abs(float(p @ w_star)) >= floor:
                break
        else:
            raise InfeasibleParametersError(
                f"no draw around cluster {i % num_clusters} reached margin_floor {floor} "
                f"in {_CLUSTER_MAX_DRAWS} tries; lower margin_floor or raise spread")
        points[i] = p
    return LabeledDataset(points, predict_labels(points, w_star), w_star)


def _gen_low_margin(n: int, d: int, params: dict, rng: RngStream) -> LabeledDataset:
    gamma = float(params.get("gamma", 0.05))
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    w_star = sample_sphere(d, rng.child(1))
    prng = rng.child(2)
    points = np.empty((n, d))
    for i in range(n):
        side = 1.0 if prng.gen.uniform() < 0.5 else -1.0
        if d == 1:
            points[i] = side * w_star
            continue
        while True:
            y = prng.gen.normal(size=d)
            y -= float(y @ w_star) * w_star
            norm = np.linalg.norm(y)
            if norm > 1e-12:
                break
        y /= norm
        points[i] = side * gamma * w_star + np.sqrt(1.0 - gamma * gamma) * y
    return LabeledDataset(points, predict_labels(points, w_star), w_star)


def _gen_subspace_degenerate(n: int, d: int, params: dict, rng: RngStream) -> LabeledDataset:
    rho = float(params.get("rho", 0.8))
    k = int(params.get("k", max(1, d // 2)))
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if not 1 <= k <= d:
        raise ValueError(f"subspace dimension must be in [1, d], got {k}")
    w_star = sample_sphere(d, rng.child(1))
    basis = _orthonormal_basis(d, k, rng.child(2))
    m = int(round(rho * n))
    prng = rng.child(3)
    inside = sample_sphere_batch(m, k, prng) @ basis.T
    outside = sample_sphere_batch(n - m, d, prng)
    points = np.vstack([inside, outside])
    perm = rng.child(4).gen.permutation(n)
    points = points[perm]
    return LabeledDataset(points, predict_labels(points, w_star), w_star)


def _gen_grid(n: int, d: int, params: dict, rng: RngStream) -> LabeledDataset:
    """First n directions of the integer lattice, enumerated shell by shell.

    Each shell (all integer vectors of infinity-norm `radius`) is walked
    lazily in lexicographic order, so only the n points kept are built.
    """
    points: list[tuple[int, ...]] = []
    for radius in range(1, 41):  # lattice big enough for any sane n; avoid runaway loops
        cube = itertools.product(range(-radius, radius + 1), repeat=d)
        shell = (row for row in cube if max(map(abs, row)) == radius)
        points.extend(itertools.islice(shell, n - len(points)))
        if len(points) == n:
            break
    else:
        raise ValueError(f"grid family cannot produce {n} points in dimension {d}")
    pts = np.asarray(points, dtype=np.float64)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    w_star = sample_sphere(d, rng.child(1))
    return LabeledDataset(pts, predict_labels(pts, w_star), w_star)


def gen_arbitrary(family: str, n: int, d: int, params: dict | None, rng: RngStream) -> LabeledDataset:
    """Adversarial-but-separable dataset families for the general learner."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    params = dict(params or {})
    if family == "clustered":
        return _gen_clustered(n, d, params, rng)
    if family == "low_margin":
        return _gen_low_margin(n, d, params, rng)
    if family == "subspace_degenerate":
        return _gen_subspace_degenerate(n, d, params, rng)
    if family == "grid":
        return _gen_grid(n, d, params, rng)
    raise ValueError(f"unknown family {family!r}; expected one of {ARBITRARY_FAMILIES}")


def split_buckets(n: int, num_buckets: int, rng: RngStream) -> list[np.ndarray]:
    """Random partition of range(n) into num_buckets parts, sizes within 1."""
    if num_buckets < 1:
        raise ValueError("bucket count must be >= 1")
    if num_buckets > n:
        raise ValueError(f"cannot split {n} points into {num_buckets} nonempty buckets")
    perm = rng.gen.permutation(n)
    base, extra = divmod(n, num_buckets)
    buckets, start = [], 0
    for b in range(num_buckets):
        size = base + (1 if b < extra else 0)
        buckets.append(np.sort(perm[start:start + size]))
        start += size
    return buckets


def save_jsonl(ds: LabeledDataset, path: str) -> None:
    """Write header line {"d","n","ground_truth"} then one {"x","y"} per point.

    Floats go through repr (shortest round-trip form), so load_jsonl
    reconstructs bit-identical coordinates.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "d": ds.d,
            "n": ds.n,
            "ground_truth": None if ds.ground_truth is None else [float(v) for v in ds.ground_truth],
        }
        fh.write(json.dumps(header) + "\n")
        for x, y in zip(ds.points, ds.labels):
            fh.write(json.dumps({"x": [float(v) for v in x], "y": int(y)}) + "\n")


def load_jsonl(path: str) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise MalformedRecordError(1, "empty file, expected a header")
    try:
        header = json.loads(lines[0])
        d, n = int(header["d"]), int(header["n"])
        truth = header.get("ground_truth")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedRecordError(1, f"bad header: {exc}") from None
    if len(lines) - 1 != n:
        raise MalformedRecordError(len(lines), f"header says n={n} but file has {len(lines) - 1} records")
    points = np.empty((n, d))
    labels = np.empty(n, dtype=np.int64)
    for i, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
            x, y = rec["x"], rec["y"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedRecordError(i, f"bad record: {exc}") from None
        # Exact types: numpy would turn "0.6" and true into numbers on assignment.
        if not isinstance(x, list) or len(x) != d or not _NUMBER_TYPES.issuperset(map(type, x)):
            raise MalformedRecordError(i, f"x must be a list of {d} numbers")
        if type(y) is not int or y not in (-1, 1):
            raise MalformedRecordError(i, f"label must be the integer -1 or +1, got {y!r}")
        points[i - 2] = x
        labels[i - 2] = y
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))  # no (n, d) temporary
    off_sphere = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))
    if off_sphere.size:
        raise MalformedRecordError(int(off_sphere[0]) + 2, "x must be a finite unit vector")
    gt = None if truth is None else np.asarray(truth, dtype=np.float64)
    return LabeledDataset(points, labels, gt)


def predict_labels(points: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized sign(w . x) with the sign(0) = +1 convention."""
    return predict_signs(points @ w)

