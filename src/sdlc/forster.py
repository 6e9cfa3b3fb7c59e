"""Isotropic-position (Forster) transform via iterative whitening.

Given nonzero points, the transform seeks an invertible A such that the
normalized images Ax/||Ax|| have a well-conditioned second moment: every
direction carries variance at least 1/d - delta. When no such A exists
(too much mass concentrated on a proper subspace), the iteration drives
the concentrated mass apart from the rest; we then extract the dense
subspace, restrict to the points inside it, and recurse in lower
dimension. The output always certifies isotropy in the dimension of the
subspace it retained. The d x d eigendecompositions go to LAPACK
(`np.linalg.eigh`). In one dimension every set of nonzero points is
already in radial isotropic position, and the loop certifies it at its
first iterate.

Besides the caller's X, which it never writes, the transform holds one
(n, d) iterate buffer: each iterate is X @ A.T written over the previous
one and normalised in place. Row norms and the extraction residuals are
taken a geometry.row_blocks block at a time, so their temporaries are per
block, and the outer buffer is dropped before the transform recurses into
a subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .geometry import row_blocks, row_norms

RESIDUAL_TOL = 1e-9       # membership tolerance for subspace extraction
CANDIDATE_TOL = 1e-4      # looser nomination tolerance in whitened coordinates
RANK_FLOOR = 1e-12        # eigenvalues below this are treated as exact zeros
STALL_WINDOW = 10
COLLAPSE_WINDOW = 10


def jacobi_eigh(M: np.ndarray):
    """Eigendecomposition of a symmetric Gram matrix by LAPACK (`np.linalg.eigh`).

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns):
    eigvals[0] is lambda_min and eigvecs[:, d-k:] spans the top-k space.
    Named for the cyclic-Jacobi solver it replaced: the benchmark's tracer
    (bench/spans.py) looks it up by this name, so renaming it needs a
    change to the benchmark.
    """
    return np.linalg.eigh(M)


@dataclass
class RipReport:
    """Isotropy certificate for a set of (supposedly unit) points."""

    lambda_min: float
    max_norm_deviation: float
    dim: int
    delta: float

    @property
    def passed(self) -> bool:
        return (
            self.lambda_min >= 1.0 / self.dim - self.delta
            and self.max_norm_deviation <= 1e-9
        )


def rip_check(X: np.ndarray, delta: float) -> RipReport:
    """Report the smallest second-moment eigenvalue and worst norm deviation."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty (n, d) array")
    n, d = X.shape
    M = X.T @ X / n
    eigvals, _ = jacobi_eigh(M)
    dev = float(np.max(np.abs(row_norms(X) - 1.0)))
    return RipReport(float(eigvals[0]), dev, d, delta)


def _residual_norms(Z: np.ndarray, U: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """Row norms of Z - (Z @ U) @ U.T, one geometry.row_blocks block at a time.

    With `scale`, each row of Z is first divided by its entry of scale,
    inside the block, so the unit rows are never built whole.
    """
    out = np.empty(len(Z))
    for block in row_blocks(len(Z)):
        z = Z[block] if scale is None else Z[block] / scale[block, None]
        out[block] = row_norms(z - (z @ U) @ U.T)
    return out


def _normalize_rows(Y: np.ndarray) -> np.ndarray:
    """Divide each row of Y by its norm, in place; Y must be an array the caller owns."""
    norms = row_norms(Y)
    if np.any(norms < 1e-300):
        raise ValueError("map is singular at some point (Ax = 0)")
    Y /= norms[:, None]
    return Y


@dataclass
class ForsterOutput:
    """Result of the transform.

    Invariants: A is d x d invertible and maps span(subspace_basis) to
    itself; for every retained row r,
        transformed_points[r] == normalize(subspace_basis.T @ A @ X[retained_indices[r]])
    and the transformed points pass rip_check at the delta that was
    requested. fraction == len(retained_indices) / len(X) >= k/d - 1e-12.
    retained_indices are int32: X has fewer than 2**31 rows, as a dataset does.
    """

    A: np.ndarray
    subspace_basis: np.ndarray
    retained_indices: np.ndarray
    transformed_points: np.ndarray
    fraction: float
    rip_report: RipReport
    iterations: int

    @property
    def subspace_dim(self) -> int:
        return self.subspace_basis.shape[1]


def _try_extract(
    X: np.ndarray, x_norms: np.ndarray, Y: np.ndarray, eigvecs: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Smallest k whose top-k eigenspace holds >= k/d of the points.

    The whitened residuals only nominate candidates: the accumulated
    transform can be badly conditioned, inflating float noise on points
    that lie exactly in the subspace. Membership is decided back in the
    original frame, against an SVD basis of the candidate block.
    x_norms are the row norms of X. Returns (member mask, (d, k)
    orthonormal basis).
    """
    n, d = Y.shape
    for k in range(1, d):
        U = eigvecs[:, d - k:]
        cand = _residual_norms(Y, U) <= CANDIDATE_TOL
        if int(cand.sum()) < 1 or cand.sum() / n < k / d - 1e-12:
            continue
        _, _, vt = np.linalg.svd(X[cand] / x_norms[cand, None], full_matrices=False)
        basis = vt[:k].T
        inside = _residual_norms(X, basis, x_norms) <= RESIDUAL_TOL
        count = int(inside.sum())
        if count >= 1 and count / n >= k / d - 1e-12:
            return inside, basis
    return None


def forster_transform(X: np.ndarray, delta: float, max_iters: int | None = None) -> ForsterOutput:
    """Iterative whitening with dense-subspace fallback.

    Each round normalizes the transformed points, measures their second
    moment M, and either certifies isotropy (lambda_min >= 1/d - delta),
    multiplies A by M^{-1/2}, or - when the spectrum collapses or stops
    improving - extracts the dense subspace the dynamics exposed and
    recurses inside it. Each iterate's row norms are taken once; the
    first iterate (A = I) is X over the norms of the input check, with
    no matmul, and every later one is written over it. X itself is never
    written to.
    """
    # C order makes the row norms of X the same reduction as those of
    # X @ A.T at A = I, so the first iterate matches the general one.
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty (n, d) array")
    n, d = X.shape
    x_norms = row_norms(X)
    if np.any(x_norms < 1e-300):
        raise ValueError("points must be nonzero")
    if not 0.0 < delta < 1.0 / d + 1e-15:
        raise ValueError(f"delta must lie in (0, 1/d), got {delta} at d={d}")
    if max_iters is None:
        max_iters = max(1, math.ceil(10.0 * d * math.log(1.0 / delta)))

    A = np.eye(d)
    collapse_streak = 0
    lam_history: list[float] = []
    last_report: RipReport | None = None

    for it in range(1, max_iters + 1):
        if it == 1:
            Y = X / x_norms[:, None]
        else:
            _normalize_rows(np.matmul(X, A.T, out=Y))
        M = Y.T @ Y / n
        eigvals, eigvecs = jacobi_eigh(M)
        lam_min = float(eigvals[0])
        last_report = RipReport(lam_min, 0.0, d, delta)
        if lam_min >= 1.0 / d - delta:
            return ForsterOutput(
                A=A, subspace_basis=np.eye(d), retained_indices=np.arange(n, dtype=np.int32),
                transformed_points=Y, fraction=1.0, rip_report=last_report,
                iterations=it,
            )

        collapse_streak = collapse_streak + 1 if lam_min < delta / (4.0 * d) else 0
        lam_history.append(lam_min)
        stalled = (
            len(lam_history) > STALL_WINDOW
            and lam_history[-1] - lam_history[-1 - STALL_WINDOW] < 1e-4 / d
        )
        if lam_min < RANK_FLOOR or collapse_streak >= COLLAPSE_WINDOW or stalled:
            found = _try_extract(X, x_norms, Y, eigvecs)
            if found is not None:
                del Y  # the recursion allocates its own, smaller buffer
                inside, basis = found
                members = np.flatnonzero(inside).astype(np.int32)
                coords = X[members] @ basis
                inner = forster_transform(coords, delta, max_iters)
                basis_final = basis @ inner.subspace_basis
                # inner.A on span(basis), the identity on its complement.
                A_final = basis @ inner.A @ basis.T + (np.eye(d) - basis @ basis.T)
                retained = members[inner.retained_indices]
                return ForsterOutput(
                    A=A_final, subspace_basis=basis_final, retained_indices=retained,
                    transformed_points=inner.transformed_points,
                    fraction=retained.size / n, rip_report=inner.rip_report,
                    iterations=it + inner.iterations,
                )

        # Whiten: A <- M^{-1/2} A, flooring near-zero eigenvalues so exact
        # rank deficiencies do not turn rounding noise into fake data.
        lam_safe = np.maximum(eigvals, RANK_FLOOR)
        W = eigvecs @ np.diag(1.0 / np.sqrt(lam_safe)) @ eigvecs.T
        A = W @ A
        A /= np.linalg.norm(A) / math.sqrt(d)  # scale-free; keeps numbers bounded

    raise NoConvergenceError(
        f"no isotropy certificate after {max_iters} whitening iterations",
        last_report,
    )


def soft_margin_audit(X: np.ndarray, u: np.ndarray) -> float:
    """Fraction of points with |u . x| >= 1/(2 sqrt(d)).

    Requires the points to be in certified isotropic position at
    delta = 1/(2d); such sets place at least 1/(4d) of their mass at that
    margin from any unit direction.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    report = rip_check(X, 1.0 / (2.0 * d))
    if not report.passed:
        raise ValueError(
            f"points are not in isotropic position: lambda_min={report.lambda_min:.6g}, "
            f"needed {1.0 / d - 1.0 / (2.0 * d):.6g}"
        )
    u = np.asarray(u, dtype=np.float64)
    margins = np.abs(X @ u)
    return float(np.count_nonzero(margins >= 1.0 / (2.0 * math.sqrt(d))) / n)
