"""Dataset construction, bucketing, and on-disk round-trips.

All generators emit unit-norm points with labels in {-1, +1} assigned by
a hidden ground-truth direction (label = sign(w* . x), sign(0) = +1), so
every dataset is linearly separable by construction.
"""

from __future__ import annotations

import bisect
import io
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParametersError, MalformedRecordError
from .fanout import ordered_map
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
# Clustered draws per block, and the rows of a pass that scores every shift.
_CLUSTER_BLOCK = 1 << 14
# Sizes the other scoring passes of _draw_clustered: the fastest power of two
# from 2^10 to 2^15 on rejection-heavy clustered sets.
_CLUSTER_WINDOW = 1 << 12
# Coordinates that save_jsonl formats, and bytes of record lines that
# load_jsonl parses, per block. A 3000-point file at d=5 is two blocks to
# save and one to load, too few for fanout to start a pool.
_SAVE_FLOATS = 1 << 13
_LOAD_BYTES = 1 << 19
# Record lines that load_jsonl reads with one json.loads: the Python objects
# of a whole block would cost this process memory it keeps.
_PARSE_LINES = 1 << 8
# The whitespace JSON allows around a value.
_JSON_SPACE = b" \t\n\r"
# Rows that LabeledDataset checks at a time.
_CHECK_BLOCK = 1 << 14
# Datasets hold fewer points than this, so the learners' index arrays are int32.
MAX_POINTS = 2**31


@dataclass
class LabeledDataset:
    """Points (n, d) as float64, labels (n,) in {-1,+1} as int8, optional ground-truth normal.

    n is below MAX_POINTS (2**31), so every index into the points fits an
    int32. The labels are checked in the dtype they are given in and only
    then stored as int8, so a value such as 257 is rejected, not wrapped
    to 1.
    """

    points: np.ndarray
    labels: np.ndarray
    ground_truth: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels)
        if self.points.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {self.points.shape}")
        if self.n >= MAX_POINTS:
            raise ValueError(f"n={self.n} points are too many: the learners index at most "
                             f"{MAX_POINTS - 1} with 32-bit integers")
        if labels.shape != (self.n,):
            raise ValueError("labels must be a 1-D array matching the point count")
        # Checked _CHECK_BLOCK rows at a time, so no check makes an n-sized temporary.
        blocks = [slice(start, start + _CHECK_BLOCK) for start in range(0, self.n, _CHECK_BLOCK)]
        if not all(np.isfinite(self.points[b]).all() for b in blocks):
            raise ValueError("points contain non-finite coordinates")
        if labels.dtype.kind not in "biuf" or not all(
                ((labels[b] == 1) | (labels[b] == -1)).all() for b in blocks):
            raise ValueError("labels must be -1 or +1")
        self.labels = labels.astype(np.int8, copy=False)
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


def check_family_values(family: str, params: dict, n: int, d: int) -> None:
    """Reject a value of a family parameter out of range at n and d, or a grid n past its lattice."""
    for name, value in params.items():
        if name == "num_clusters" and not 1 <= value <= n:
            raise ValueError("num_clusters must be in [1, n]")
        if name in ("spread", "boundary_offset", "margin_floor") and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {float(value)}")
        if name == "gamma" and not 0.0 < value < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {float(value)}")
        if name == "rho" and not 0.0 <= value <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {float(value)}")
        if name == "k" and not 1 <= value <= d:
            raise ValueError(f"subspace dimension must be in [1, d], got {value}")
    # _gen_grid walks the shells of radius 1 to 40 at most: 81^d - 1 points,
    # from d = 8 on more than fit in memory.
    if family == "grid" and n >= 81 ** min(d, 8):
        raise ValueError(f"grid family cannot produce {n} points in dimension {d}")


def _gen_clustered(n: int, d: int, params: dict, rng: RngStream) -> LabeledDataset:
    num_clusters = params.get("num_clusters", min(5, n))
    spread = float(params.get("spread", 0.02))
    offset = float(params.get("boundary_offset", 0.1))
    floor = float(params.get("margin_floor", 0.02))
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
    points = _draw_clustered(n, np.array(centers), spread, floor, w_star, rng.child(3))
    return LabeledDataset(points, predict_labels(points, w_star), w_star)


def _draw_clustered(n: int, centers: np.ndarray, spread: float, floor: float,
                    w_star: np.ndarray, prng: RngStream) -> np.ndarray:
    """Point i takes draws c + spread * z around centre c = centers[i % K]
    until one, normalised, has |x . w*| >= floor.

    Bit-identical to one normal(size=d) draw and one test at a time: a
    block of draws holds the same numbers, and np.vecdot takes each row's
    norm and margin as the one-row dot products do. Draw t belongs to
    point t - r, r the rejections before it, so its centre is (t - r) % K.
    A window of draws is scored in one pass under each shift of r that it
    may reach, all K of them when that is few, and the walk through it
    costs one bisect per rejection. A window whose shifts run out ends at
    that rejection, and the next window starts after it.
    """
    num_clusters, d = centers.shape
    points = np.empty((n, d))
    i = tries = 0  # the next point, and its draws rejected so far
    seen = rejected = 0  # draws walked and rejected, for the block and window sizes
    while i < n:
        # The draws the points left need at the acceptance rate so far, rounded up.
        m = min(_CLUSTER_BLOCK, -(-(n - i) * (seen + 1) // (seen - rejected + 1)))
        z = prng.gen.normal(size=(m, d))
        z *= spread
        j = 0
        while j < m and i < n:
            # About sqrt(_CLUSTER_WINDOW / (rate d)) draws, and twice their expected
            # rejections as shifts, weigh a pass's fixed cost against scoring unused
            # shifts. With all K shifts the walk wraps round them and never runs
            # out, so the window grows to _CLUSTER_BLOCK rows of scores.
            rate = (rejected + 1) / (seen + 1)
            width = min(m - j, max(1, math.isqrt(int(_CLUSTER_WINDOW / (rate * d)))))
            shifts = 1 + math.ceil(2 * rate * width)
            if shifts >= num_clusters:
                shifts = num_clusters
                width = min(m - j, max(width, _CLUSTER_BLOCK // num_clusters))
            owner = (i + np.arange(width) - np.arange(shifts)[:, None]) % num_clusters
            cand = centers[owner]
            cand += z[j:j + width]
            norms = np.sqrt(np.vecdot(cand, cand))
            with np.errstate(invalid="ignore"):
                cand /= norms[..., None]
            accept = (norms >= 1e-12) & (np.abs(np.vecdot(cand, w_star)) >= floor)
            # The rejections under shift s are flat[starts[s]:starts[s + 1]], as s * width + u.
            flat = np.flatnonzero(~accept)
            starts = [0] + np.searchsorted(flat, np.arange(1, shifts + 1) * width).tolist()
            flat = flat.tolist()
            u = s = 0
            while True:
                key = s % shifts
                k = bisect.bisect_left(flat, key * width + u, starts[key], starts[key + 1])
                q = flat[k] - key * width if k < starts[key + 1] else width
                take = min(q - u, n - i)
                if take:
                    points[i:i + take] = cand[key, u:u + take]
                    i += take
                    tries = 0
                if i == n or q == width:
                    u = q
                    break
                tries += 1
                if tries == _CLUSTER_MAX_DRAWS:
                    raise InfeasibleParametersError(
                        f"no draw around cluster {i % num_clusters} reached margin_floor {floor} "
                        f"in {_CLUSTER_MAX_DRAWS} tries; lower margin_floor or raise spread")
                s += 1
                u = q + 1
                if s == shifts < num_clusters:
                    break
            seen += u
            rejected += s
            j += u
    return points


def _gen_low_margin(n: int, d: int, params: dict, rng: RngStream) -> LabeledDataset:
    gamma = float(params.get("gamma", 0.05))
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
    shells = (row for radius in itertools.count(1)
              for row in itertools.product(range(-radius, radius + 1), repeat=d)
              if max(map(abs, row)) == radius)
    pts = np.asarray(list(itertools.islice(shells, n)), dtype=np.float64)
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
    check_family_values(family, params, n, d)
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
    """Random partition of range(n), n < MAX_POINTS, into num_buckets sorted parts, sizes within 1.

    The parts are int32 views of one permutation buffer, each sorted in
    place: rng.gen.permutation(n), split and sorted, with no copy.
    """
    if num_buckets < 1:
        raise ValueError("bucket count must be >= 1")
    if num_buckets > n:
        raise ValueError(f"cannot split {n} points into {num_buckets} nonempty buckets")
    perm = np.arange(n, dtype=np.int32)
    rng.gen.shuffle(perm)  # the values of rng.gen.permutation(n)
    parts = np.array_split(perm, num_buckets)
    for part in parts:
        part.sort()
    return parts


def check_size(n: int, d: int) -> None:
    """Reject an n x d float64 points array, 8 n d bytes, that exceeds physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * n * d > memory:
        raise ValueError(f"n={n} points in d={d} dimensions take {8 * n * d} bytes, "
                         f"more than the {memory} bytes of physical memory")


def save_jsonl(ds: LabeledDataset, path: str) -> None:
    """Write header line {"d","n","ground_truth"} then one {"x","y"} per point.

    Floats go through repr (shortest round-trip form), so load_jsonl
    reconstructs bit-identical coordinates. The points are finite, so each
    line is the text json.dumps writes for its record. Blocks of about
    _SAVE_FLOATS coordinates are formatted on every usable core (fanout)
    and written in order.
    """
    rows = max(1, _SAVE_FLOATS // ds.d)
    with open(path, "wb") as fh:
        header = {
            "d": ds.d,
            "n": ds.n,
            "ground_truth": None if ds.ground_truth is None else [float(v) for v in ds.ground_truth],
        }
        fh.write(json.dumps(header).encode() + b"\n")
        jobs = ((start, start + rows) for start in range(0, ds.n, rows))
        with ordered_map(_format_rows, jobs, (ds.points, ds.labels)) as blocks:
            fh.writelines(blocks)


def _format_rows(points: np.ndarray, labels: np.ndarray, rows: tuple[int, int]) -> bytes:
    """The record lines of points[start:stop], as ASCII bytes."""
    start, stop = rows
    return "".join('{"x": [' + ", ".join(map(float.__repr__, x)) + '], "y": ' + str(y) + "}\n"
                   for x, y in zip(points[start:stop].tolist(), labels[start:stop].tolist())).encode()


def load_jsonl(path: str) -> LabeledDataset:
    """Read a file written by save_jsonl, checking every line.

    A header whose points would not fit in physical memory, or whose n
    records could not fit in the rest of a file, is rejected on line 1,
    before the arrays are allocated. The record lines are parsed on every
    usable core (fanout) in blocks of whole lines of about _LOAD_BYTES
    bytes. A worker reads its block from a file itself; from a pipe, this
    process reads the blocks and sends them. Either way this process holds
    the arrays and at most a few blocks. The first bad line, in line
    order, is reported as a line-by-line read would report it.
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
            check_size(n, d)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedRecordError(1, f"bad header: {exc}") from None
        points = np.empty((n, d))
        labels = np.empty(n, dtype=np.int8)
        read = 0  # record lines parsed so far
        with ordered_map(_parse_records, _line_blocks(fh, size), (fh.fileno(), d)) as parsed:
            for block_points, block_labels, error in parsed:
                # A bad line after line n + 1 comes after the surplus record on line n + 2.
                if error and read + error[0] < n:
                    raise MalformedRecordError(read + error[0] + 2, error[1])
                if error or read + len(block_labels) > n:
                    raise MalformedRecordError(n + 2, f"header says n={n} but the file has more records")
                points[read:read + len(block_labels)] = block_points
                labels[read:read + len(block_labels)] = block_labels
                read += len(block_labels)
    if read != n:
        raise MalformedRecordError(read + 1, f"header says n={n} but file has {read} records")
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))  # no (n, d) temporary
    off_sphere = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))
    if off_sphere.size:
        raise MalformedRecordError(int(off_sphere[0]) + 2, "x must be a finite unit vector")
    return LabeledDataset(points, labels, gt)


def _line_blocks(fh, size: int | None):
    """The rest of fh in blocks of whole lines: _LOAD_BYTES bytes and the rest of the line they end in.

    A file's blocks are (start, stop) byte ranges, found with one seek and
    readline each; a pipe's are the bytes themselves.
    """
    if size is None:
        while block := fh.read(_LOAD_BYTES):
            yield block if block.endswith(b"\n") else block + fh.readline()
        return
    start = fh.tell()
    while start < size:
        fh.seek(min(start + _LOAD_BYTES, size) - 1)
        fh.readline()
        yield start, fh.tell()
        start = fh.tell()


def _parse_records(fd: int, d: int, block) -> tuple:
    """Parse one block of record lines: bytes, or a (start, stop) range of the file open as fd.

    Returns (points, labels, None) for its lines, or (None, None, (j,
    message)) for its first bad line, j counted from 0 in the block.
    Each run of _PARSE_LINES lines is read by _parse_run if it can, and
    line by line if not.
    """
    data = block if isinstance(block, bytes) else os.pread(fd, block[1] - block[0], block[0])
    count = data.count(b"\n") + (not data.endswith(b"\n"))
    points = np.empty((count, d))
    labels = np.empty(count, dtype=np.int8)
    lines = io.BytesIO(data)  # split as iterating over the file splits
    for start in range(0, count, _PARSE_LINES):
        run = list(itertools.islice(lines, _PARSE_LINES))
        rows = slice(start, start + len(run))
        if _parse_run(d, run, points[rows], labels[rows]):
            continue
        for j, line in enumerate(run, start):
            try:
                rec = json.loads(line.decode())
                x, y = rec["x"], rec["y"]
            except (ValueError, KeyError, TypeError) as exc:
                return None, None, (j, f"bad record: {exc}")
            # Exact types: numpy would turn "0.6" and true into numbers on assignment.
            if not isinstance(x, list) or len(x) != d or not _NUMBER_TYPES.issuperset(map(type, x)):
                return None, None, (j, f"x must be a list of {d} numbers")
            if type(y) is not int or y not in (-1, 1):
                return None, None, (j, f"label must be the integer -1 or +1, got {y!r}")
            try:
                points[j] = x
            except OverflowError:
                return None, None, (j, "x holds an integer too large for a float")
            labels[j] = y
    return points, labels, None


def _parse_run(d: int, lines: list[bytes], points: np.ndarray, labels: np.ndarray) -> bool:
    """Fill points and labels from lines with one json.loads, or return False.

    It reads the lines as one JSON array when each holds one brace-delimited
    value and each value is a record of the exact types the line-by-line
    read accepts, with no other key. No such record holds a brace after its
    first, so none that starts a line can end on another, and counting the
    values ties each record to its own line.
    """
    if not all(line.lstrip(_JSON_SPACE)[:1] == b"{" and line.rstrip(_JSON_SPACE)[-1:] == b"}"
               for line in lines):
        return False
    try:
        records = json.loads((b"[" + b",".join(lines) + b"]").decode())
    except ValueError:
        return False
    if len(records) != len(lines) or not all(
            type(rec) is dict and len(rec) == 2 and type(x := rec.get("x")) is list and len(x) == d
            and _NUMBER_TYPES.issuperset(map(type, x)) and type(y := rec.get("y")) is int and y in (-1, 1)
            for rec in records):
        return False
    try:
        points[:] = [rec["x"] for rec in records]
    except OverflowError:
        return False
    labels[:] = [rec["y"] for rec in records]
    return True


def predict_labels(points: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized sign(w . x) with the sign(0) = +1 convention."""
    return predict_signs(points @ w)

