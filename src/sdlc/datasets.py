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
# The parameters each family reads, and the types each accepts.
_INT = frozenset((int,))
FAMILY_PARAMS = {
    "uniform": {},
    "clustered": {"num_clusters": _INT, "spread": _NUMBER_TYPES,
                  "boundary_offset": _NUMBER_TYPES, "margin_floor": _NUMBER_TYPES},
    "low_margin": {"gamma": _NUMBER_TYPES},
    "subspace_degenerate": {"rho": _NUMBER_TYPES, "k": _INT},
    "grid": {},
}
# Rejection draws allowed per clustered point. A point whose acceptance
# rate is below about 1e-4 exhausts them and the parameters are rejected
# as infeasible, instead of looping forever.
_CLUSTER_MAX_DRAWS = 100_000
# Rows that save_jsonl turns into Python floats at a time.
_SAVE_BLOCK = 1 << 12
# Rows that LabeledDataset checks at a time.
_CHECK_BLOCK = 1 << 14


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
        # Checked _CHECK_BLOCK rows at a time, so no check makes an n-sized temporary.
        blocks = [slice(start, start + _CHECK_BLOCK) for start in range(0, self.n, _CHECK_BLOCK)]
        if not all(np.isfinite(self.points[b]).all() for b in blocks):
            raise ValueError("points contain non-finite coordinates")
        if not all(((self.labels[b] == 1) | (self.labels[b] == -1)).all() for b in blocks):
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


def check_family_params(family: str, params) -> None:
    """Reject a parameter `family` does not read, or one of a type it does not accept."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not isinstance(params, dict):
        raise ValueError(f"family parameters must be a JSON object, got {params!r}")
    accepted = FAMILY_PARAMS[family]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"family {family!r} reads no parameters {unknown}; "
                         f"it reads {sorted(accepted) or 'none'}")
    for name, value in params.items():
        if type(value) not in accepted[name]:
            kind = "an integer" if accepted[name] is _INT else "a number"
            raise ValueError(f"family parameter {name} must be {kind}, got {value!r}")


def _gen_clustered(n: int, d: int, params: dict, rng: RngStream) -> LabeledDataset:
    num_clusters = params.get("num_clusters", min(5, n))
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
    k = params.get("k", max(1, d // 2))
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if not 1 <= k <= d:
        raise ValueError(f"subspace dimension must be in [1, d], got {k}")
    w_star = sample_sphere(d, rng.child(1))
    basis = _orthonormal_basis(d, k, rng.child(2))
    m = int(round(rho * n))
    prng = rng.child(3)
    # The rows of [inside; outside] in the order of a child(4) permutation
    # perm: each part is scattered straight to its rows dest = perm^-1,
    # with no stacked copy and no gather.
    dest = np.empty(n, dtype=np.int64)
    dest[rng.child(4).gen.permutation(n)] = np.arange(n)
    points = np.empty((n, d))
    points[dest[:m]] = sample_sphere_batch(m, k, prng) @ basis.T
    points[dest[m:]] = sample_sphere_batch(n - m, d, prng)
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
    params = {} if params is None else params
    check_family_params(family, params)
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
    reconstructs bit-identical coordinates. The points are finite, so each
    line is the text json.dumps writes for its record; rows are formatted
    _SAVE_BLOCK at a time to keep the Python objects few.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "d": ds.d,
            "n": ds.n,
            "ground_truth": None if ds.ground_truth is None else [float(v) for v in ds.ground_truth],
        }
        fh.write(json.dumps(header) + "\n")
        for start in range(0, ds.n, _SAVE_BLOCK):
            rows = ds.points[start:start + _SAVE_BLOCK].tolist()
            labels = ds.labels[start:start + _SAVE_BLOCK].tolist()
            fh.writelines(
                '{"x": [' + ", ".join(map(float.__repr__, x)) + '], "y": ' + str(y) + "}\n"
                for x, y in zip(rows, labels))


def load_jsonl(path: str) -> LabeledDataset:
    """Read a file written by save_jsonl, checking every line.

    Records are read one line at a time. A header whose n records could
    not fit in the rest of the file is rejected on line 1, before the
    arrays are allocated; a pipe has no size to check.
    """
    with open(path, "rb") as fh:
        size = None
        if fh.seekable():
            size = fh.seek(0, 2)
            fh.seek(0)
        first = fh.readline()
        if not first:
            raise MalformedRecordError(1, "empty file, expected a header")
        try:
            header = json.loads(first.decode())
            d, n, truth = header["d"], header["n"], header.get("ground_truth")
            # Exact types, as for the records: int() would accept 2.9, "2" and true.
            if type(d) is not int or d < 1:
                raise ValueError(f"d must be an integer >= 1, got {d!r}")
            if type(n) is not int or n < 0:
                raise ValueError(f"n must be an integer >= 0, got {n!r}")
            # The shortest record line, '{"x":[0,0],"y":1}' at d=2, has 2d + 13 bytes.
            if size is not None and n * (2 * d + 12) > size - len(first):
                raise ValueError(f"n={n} records of dimension {d} cannot fit in the "
                                 f"{size - len(first)} bytes after the header")
            if truth is not None and not (isinstance(truth, list) and _NUMBER_TYPES.issuperset(map(type, truth))):
                raise ValueError("ground_truth must be null or a list of numbers")
            gt = None if truth is None else as_vector(truth, d)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedRecordError(1, f"bad header: {exc}") from None
        points = np.empty((n, d))
        labels = np.empty(n, dtype=np.int64)
        i = 1
        for i, line in enumerate(fh, start=2):
            if i - 2 == n:
                raise MalformedRecordError(i, f"header says n={n} but the file has more records")
            try:
                rec = json.loads(line.decode())
                x, y = rec["x"], rec["y"]
            except (ValueError, KeyError, TypeError) as exc:
                raise MalformedRecordError(i, f"bad record: {exc}") from None
            # Exact types: numpy would turn "0.6" and true into numbers on assignment.
            if not isinstance(x, list) or len(x) != d or not _NUMBER_TYPES.issuperset(map(type, x)):
                raise MalformedRecordError(i, f"x must be a list of {d} numbers")
            if type(y) is not int or y not in (-1, 1):
                raise MalformedRecordError(i, f"label must be the integer -1 or +1, got {y!r}")
            try:
                points[i - 2] = x
            except OverflowError:
                raise MalformedRecordError(i, "x holds an integer too large for a float") from None
            labels[i - 2] = y
    if i - 1 != n:
        raise MalformedRecordError(i, f"header says n={n} but file has {i - 1} records")
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))  # no (n, d) temporary
    off_sphere = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))
    if off_sphere.size:
        raise MalformedRecordError(int(off_sphere[0]) + 2, "x must be a finite unit vector")
    return LabeledDataset(points, labels, gt)


def predict_labels(points: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized sign(w . x) with the sign(0) = +1 convention."""
    return predict_signs(points @ w)

