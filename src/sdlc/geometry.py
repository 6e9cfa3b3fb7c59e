"""Unit-sphere geometry primitives and seeded random streams.

Vectors are plain 1-D float64 numpy arrays throughout the package. The
helpers here validate them at construction boundaries; internal code
assumes validated inputs and stays allocation-light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

UNIT_TOL = 1e-9
# Rows per block when sample_sphere_batch takes row norms: bounds the
# (block, d) temporary of np.linalg.norm to a few MB at any m.
_NORM_BLOCK = 1 << 14

# SplitMix64 constants, used to derive child stream ids without collisions.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass
class RngStream:
    """Counter-based random stream addressed by (seed, stream_id).

    Two instances built from the same (seed, stream_id) produce
    bit-identical draw sequences on any platform; streams with distinct
    ids are independent by construction of the underlying Philox
    generator (the pair is its 128-bit key). Children derived via
    ``child`` get ids hashed with SplitMix64, so sibling subtrees never
    collide in practice. Equality and repr read (seed, stream_id) alone.
    """

    seed: int
    stream_id: int = 0

    @cached_property
    def gen(self) -> np.random.Generator:
        """The stream's Philox generator, built on first use.

        A stream made only to derive children never builds one.
        """
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream; deterministic in (self, index)."""
        if index < 0:
            raise ValueError("child index must be nonnegative")
        derived = _splitmix64((self.stream_id & _MASK64) ^ _splitmix64(index + 1))
        return RngStream(self.seed, derived)


def as_vector(v, d: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float64 vector."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite coordinates")
    if d is not None and arr.size != d:
        raise ValueError(f"expected dimension {d}, got {arr.size}")
    return arr


def sample_sphere(d: int, rng: RngStream) -> np.ndarray:
    """Draw a uniform point on the unit sphere in R^d.

    Isotropic gaussian, normalized. Resamples in the (measure-zero,
    float-possible) event of an underflowed norm.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    while True:
        x = rng.gen.normal(size=d)
        norm = np.linalg.norm(x)
        if norm > 1e-150:
            return x / norm


def sample_sphere_batch(m: int, d: int, rng: RngStream) -> np.ndarray:
    """Draw m uniform sphere points as an (m, d) array.

    The gaussian draw is normalised in place and its row norms are taken
    _NORM_BLOCK rows at a time, so the only (m, d) array is the result.
    Each row's norm is the same reduction in any block, so the output is
    bit-identical to ``x / np.linalg.norm(x, axis=1)[:, None]``.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if m < 0:
        raise ValueError("sample count must be nonnegative")
    x = rng.gen.normal(size=(m, d))
    norms = np.empty(m)
    for start in range(0, m, _NORM_BLOCK):
        stop = start + _NORM_BLOCK
        norms[start:stop] = np.linalg.norm(x[start:stop], axis=1)
    bad = norms <= 1e-150
    while np.any(bad):  # pragma: no cover - astronomically rare
        x[bad] = rng.gen.normal(size=(int(bad.sum()), d))
        norms[bad] = np.linalg.norm(x[bad], axis=1)
        bad = norms <= 1e-150
    x /= norms[:, None]
    return x


def angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two nonzero vectors, in [0, pi].

    The cosine is clamped to [-1, 1] before arccos so that collinear
    inputs with rounding noise stay in range.
    """
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle is undefined for the zero vector")
    c = float(np.dot(u, v)) / (nu * nv)
    return math.acos(min(1.0, max(-1.0, c)))


def tan_theta(u: np.ndarray, v: np.ndarray) -> float:
    """|tan| of the angle between u and v; +inf when they are orthogonal."""
    nu2 = float(np.dot(u, u))
    nv2 = float(np.dot(v, v))
    if nu2 == 0.0 or nv2 == 0.0:
        raise ValueError("tan_theta is undefined for the zero vector")
    dot = float(np.dot(u, v))
    if dot == 0.0:
        return math.inf
    ratio = nu2 * nv2 / (dot * dot) - 1.0
    return math.sqrt(max(0.0, ratio))


def predict_sign(value: float) -> int:
    """Label convention used everywhere: sign(0) := +1."""
    return 1 if value >= 0.0 else -1


def predict_signs(values) -> np.ndarray:
    """Vectorised predict_sign: an int8 array of +1 (value >= 0) and -1."""
    return np.where(np.asarray(values) >= 0.0, np.int8(1), np.int8(-1))
