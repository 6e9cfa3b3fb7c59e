"""Isotropic-position (Forster) transform via iterative whitening.

Given nonzero points, the transform seeks an invertible A such that the
normalized images Ax/||Ax|| have a well-conditioned second moment: every
direction carries variance at least 1/d - delta. When no such A exists
(too much mass concentrated on a proper subspace), the iteration drives
the concentrated mass apart from the rest; we then extract the dense
subspace, restrict to the points inside it, and recurse in lower
dimension. The output always certifies isotropy in the dimension of the
subspace it retained. The d x d eigendecompositions go to LAPACK
(`np.linalg.eigh`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError

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
    dev = float(np.max(np.abs(np.linalg.norm(X, axis=1) - 1.0)))
    return RipReport(float(eigvals[0]), dev, d, delta)


def _normalize_rows(Y: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(Y, axis=1)
    if np.any(norms < 1e-300):
        raise ValueError("map is singular at some point (Ax = 0)")
    return Y / norms[:, None]


@dataclass
class ForsterOutput:
    """Result of the transform.

    Invariants: A is d x d invertible and maps span(subspace_basis) to
    itself; for every retained row r,
        transformed_points[r] == normalize(subspace_basis.T @ A @ X[retained_indices[r]])
    and the transformed points pass rip_check at the delta that was
    requested. fraction == len(retained_indices) / len(X) >= k/d - 1e-12.
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
    X: np.ndarray, Y: np.ndarray, eigvecs: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Smallest k whose top-k eigenspace holds >= k/d of the points.

    The whitened residuals only nominate candidates: the accumulated
    transform can be badly conditioned, inflating float noise on points
    that lie exactly in the subspace. Membership is decided back in the
    original frame, against an SVD basis of the candidate block.
    Returns (k, member mask, (d, k) orthonormal basis).
    """
    n, d = Y.shape
    unit_X = _normalize_rows(X)
    for k in range(1, d):
        U = eigvecs[:, d - k:]
        resid = Y - (Y @ U) @ U.T
        cand = np.linalg.norm(resid, axis=1) <= CANDIDATE_TOL
        if int(cand.sum()) < 1 or cand.sum() / n < k / d - 1e-12:
            continue
        _, _, vt = np.linalg.svd(unit_X[cand], full_matrices=False)
        basis = vt[:k].T
        strict = unit_X - (unit_X @ basis) @ basis.T
        inside = np.linalg.norm(strict, axis=1) <= RESIDUAL_TOL
        count = int(inside.sum())
        if count >= 1 and count / n >= k / d - 1e-12:
            return k, inside, basis
    return None


def forster_transform(X: np.ndarray, delta: float, max_iters: int | None = None) -> ForsterOutput:
    """Iterative whitening with dense-subspace fallback.

    Each round normalizes the transformed points, measures their second
    moment M, and either certifies isotropy (lambda_min >= 1/d - delta),
    multiplies A by M^{-1/2}, or - when the spectrum collapses or stops
    improving - extracts the dense subspace the dynamics exposed and
    recurses inside it.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty (n, d) array")
    n, d = X.shape
    if np.any(np.linalg.norm(X, axis=1) < 1e-300):
        raise ValueError("points must be nonzero")
    if not 0.0 < delta < 1.0 / d + 1e-15:
        raise ValueError(f"delta must lie in (0, 1/d), got {delta} at d={d}")
    if max_iters is None:
        max_iters = max(1, math.ceil(10.0 * d * math.log(1.0 / delta)))

    if d == 1:
        Y = _normalize_rows(X)
        report = rip_check(Y, delta)
        return ForsterOutput(
            A=np.eye(1), subspace_basis=np.eye(1), retained_indices=np.arange(n),
            transformed_points=Y, fraction=1.0, rip_report=report, iterations=0,
        )

    A = np.eye(d)
    collapse_streak = 0
    lam_history: list[float] = []
    last_report: RipReport | None = None

    for it in range(1, max_iters + 1):
        Y = _normalize_rows(X @ A.T)
        M = Y.T @ Y / n
        eigvals, eigvecs = jacobi_eigh(M)
        lam_min = float(eigvals[0])
        last_report = RipReport(lam_min, 0.0, d, delta)
        if lam_min >= 1.0 / d - delta:
            return ForsterOutput(
                A=A, subspace_basis=np.eye(d), retained_indices=np.arange(n),
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
            found = _try_extract(X, Y, eigvecs)
            if found is not None:
                k, inside, basis = found
                members = np.flatnonzero(inside)
                coords = X[members] @ basis
                inner = forster_transform(coords, delta, max_iters)
                k_final = inner.subspace_dim
                basis_final = basis @ inner.subspace_basis
                comp = _orthogonal_complement(basis)
                frame = np.hstack([basis, comp])
                block = np.zeros((d, d))
                block[:k, :k] = inner.A
                block[k:, k:] = np.eye(d - k)
                A_final = frame @ block @ frame.T
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


def _orthogonal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal complement of a (d, k) orthonormal-column basis."""
    d, k = basis.shape
    if k >= d:
        return np.zeros((d, 0))
    proj = np.eye(d) - basis @ basis.T
    q, r = np.linalg.qr(proj)
    # Keep the d-k columns with meaningful pivots.
    keep = np.argsort(-np.abs(np.diag(r)))[: d - k]
    return q[:, np.sort(keep)]


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


def pullback_separator(output: ForsterOutput, w_star: np.ndarray) -> np.ndarray:
    """Unit normal separating the transformed points exactly as w_star does.

    Instrumentation helper: sign(v . y) on transformed points equals
    sign(w_star . x) on the retained originals.
    """
    B = output.subspace_basis
    A_hat = B.T @ output.A @ B
    v = np.linalg.solve(A_hat.T, B.T @ w_star)
    norm = float(np.linalg.norm(v))
    if norm < 1e-300:
        raise ValueError("separator is orthogonal to the retained subspace")
    return v / norm
