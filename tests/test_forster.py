"""Isotropic-position transform: eigensolver, certificates, extraction."""

import math

import numpy as np
import pytest

from sdlc.datasets import gen_arbitrary, gen_uniform_sphere
from sdlc.errors import NoConvergenceError
from sdlc.forster import (
    CANDIDATE_TOL,
    COLLAPSE_WINDOW,
    RANK_FLOOR,
    RESIDUAL_TOL,
    STALL_WINDOW,
    ForsterOutput,
    RipReport,
    forster_transform,
    jacobi_eigh,
    rip_check,
    soft_margin_audit,
)
from sdlc.geometry import ROW_BLOCK, RngStream, sample_sphere_batch


def cross_polytope(d):
    return np.vstack([np.eye(d), -np.eye(d)])


# --------------------------------------------------------------------- jacobi

def test_jacobi_against_reference():
    rng = RngStream(31)
    for i in range(50):
        d = 2 + i % 11
        g = rng.child(i).gen.normal(size=(d, d))
        M = (g + g.T) / 2.0
        vals, vecs = jacobi_eigh(M)
        ref = np.linalg.eigvalsh(M)
        assert np.allclose(vals, ref, atol=1e-9)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.allclose(vecs.T @ vecs, np.eye(d), atol=1e-9)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, M, atol=1e-9)


def test_jacobi_diagonal_and_scalar():
    vals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vecs), np.abs(np.eye(3)[:, [1, 2, 0]]))
    vals1, vecs1 = jacobi_eigh(np.array([[4.0]]))
    assert vals1.tolist() == [4.0] and vecs1.tolist() == [[1.0]]


def test_jacobi_repeated_eigenvalues():
    vals, vecs = jacobi_eigh(np.eye(4) * 2.0)
    assert np.allclose(vals, 2.0)
    assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-12)


# ------------------------------------------------------------------------ rip

def test_rip_check_examples():
    degenerate = rip_check(np.array([[1.0, 0.0], [1.0, 0.0]]), 0.25)
    assert degenerate.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert not degenerate.passed

    cross = rip_check(cross_polytope(2), 0.0)
    assert cross.lambda_min == pytest.approx(0.5)
    assert cross.max_norm_deviation <= 1e-12
    assert cross.passed


def test_rip_check_flags_non_unit_points():
    report = rip_check(np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]]), 0.5)
    assert report.max_norm_deviation == pytest.approx(1.0)
    assert not report.passed


def test_rip_check_rejects_empty():
    with pytest.raises(ValueError):
        rip_check(np.zeros((0, 3)), 0.1)


# ------------------------------------------------------------------ transform

def check_output_invariants(out: ForsterOutput, X: np.ndarray):
    n = X.shape[0]
    k = out.subspace_dim
    assert out.rip_report.passed
    assert np.allclose(np.linalg.norm(out.transformed_points, axis=1), 1.0, atol=1e-9)
    assert out.fraction == pytest.approx(len(out.retained_indices) / n)
    assert out.fraction >= k / X.shape[1] - 1e-12
    # row-by-row consistency with the published map
    B, A = out.subspace_basis, out.A
    for r, idx in enumerate(out.retained_indices):
        y = B.T @ (A @ X[idx])
        y = y / np.linalg.norm(y)
        assert np.allclose(out.transformed_points[r], y, atol=1e-9)
    inner = rip_check(out.transformed_points, 1.0 / (2.0 * k))
    assert inner.passed


def test_transform_cross_polytope_is_fixed_point():
    X = cross_polytope(4)
    out = forster_transform(X, 0.1)
    assert out.iterations <= 1
    assert out.subspace_dim == 4 and out.fraction == 1.0
    assert np.allclose(out.A / out.A[0, 0], np.eye(4), atol=1e-9)
    check_output_invariants(out, X)


def test_transform_collapses_repeated_line():
    u = np.array([3.0, 4.0]) / 5.0
    X = np.vstack([np.tile(u, (60, 1)), np.tile(-u, (40, 1))])
    out = forster_transform(X, 0.25)
    assert out.subspace_dim == 1 and out.fraction == 1.0
    flat = out.transformed_points.ravel()
    assert set(np.round(flat, 12)) <= {-1.0, 1.0}
    assert np.count_nonzero(flat > 0) in (40, 60)
    check_output_invariants(out, X)


def test_transform_generic_cloud():
    ds = gen_uniform_sphere(500, 5, RngStream(11, 0))
    out = forster_transform(ds.points, 0.1)
    assert out.subspace_dim == 5 and out.fraction == 1.0
    assert out.iterations <= 200
    check_output_invariants(out, ds.points)


def test_transform_idempotent_after_success():
    ds = gen_uniform_sphere(500, 5, RngStream(11, 0))
    once = forster_transform(ds.points, 0.1)
    again = forster_transform(once.transformed_points, 0.1)
    assert again.iterations <= 2
    assert again.fraction == 1.0


def test_transform_finds_planted_subspace():
    d, k_planted = 6, 3
    ds = gen_arbitrary(
        "subspace_degenerate", 400, d, {"rho": 0.8, "k": k_planted}, RngStream(13)
    )
    out = forster_transform(ds.points, 1.0 / (2.0 * d))
    assert out.subspace_dim == k_planted
    assert out.fraction >= 0.79
    check_output_invariants(out, ds.points)
    # retained points really live in a k-dimensional subspace
    rank = np.linalg.matrix_rank(ds.points[out.retained_indices], tol=1e-8)
    assert rank == k_planted


def test_transform_d1_short_circuit():
    # In one dimension the general loop certifies its first iterate.
    out = forster_transform(np.array([[2.0], [-3.0]]), 0.5)
    assert out.iterations == 1 and out.subspace_dim == 1
    assert np.array_equal(out.A, [[1.0]]) and np.array_equal(out.subspace_basis, [[1.0]])
    assert np.array_equal(out.retained_indices, [0, 1]) and out.fraction == 1.0
    assert np.array_equal(out.transformed_points, [[1.0], [-1.0]])
    assert out.rip_report.lambda_min == 1.0 and out.rip_report.passed


def test_transform_domain_errors():
    X = cross_polytope(3)
    for delta in (0.0, -0.1, 1.0 / 3.0 + 0.01, 0.5):
        with pytest.raises(ValueError):
            forster_transform(X, delta)
    with pytest.raises(ValueError):
        forster_transform(np.zeros((0, 3)), 0.1)
    with pytest.raises(ValueError):
        forster_transform(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.1)


def test_transform_budget_exhaustion_reports_progress():
    ds = gen_uniform_sphere(300, 4, RngStream(17, 0))
    # skew the cloud hard so one whitening step cannot fix it
    skew = ds.points @ np.diag([30.0, 1.0, 1.0, 1.0])
    skew /= np.linalg.norm(skew, axis=1)[:, None]
    with pytest.raises(NoConvergenceError) as err:
        forster_transform(skew, 0.001, max_iters=1)
    assert err.value.last_report is not None
    assert not err.value.last_report.passed


# ------------------------------------------------------ reference whitening

def _unit_rows_reference(Y):
    norms = np.linalg.norm(Y, axis=1)
    assert not np.any(norms < 1e-300)
    return Y / norms[:, None]


def _extract_reference(X, Y, eigvecs):
    n, d = Y.shape
    unit_X = _unit_rows_reference(X)
    for k in range(1, d):
        U = eigvecs[:, d - k:]
        cand = np.linalg.norm(Y - (Y @ U) @ U.T, axis=1) <= CANDIDATE_TOL
        if int(cand.sum()) < 1 or cand.sum() / n < k / d - 1e-12:
            continue
        _, _, vt = np.linalg.svd(unit_X[cand], full_matrices=False)
        basis = vt[:k].T
        inside = np.linalg.norm(unit_X - (unit_X @ basis) @ basis.T, axis=1) <= RESIDUAL_TOL
        count = int(inside.sum())
        if count >= 1 and count / n >= k / d - 1e-12:
            return inside, basis
    return None


def _forster_reference(X, delta, max_iters=None):
    """The whitening loop as it was: a norm pass for the input check and
    another for every iterate, X @ A.T at A = I included."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    assert not np.any(np.linalg.norm(X, axis=1) < 1e-300)
    if max_iters is None:
        max_iters = max(1, math.ceil(10.0 * d * math.log(1.0 / delta)))
    A = np.eye(d)
    collapse_streak = 0
    lam_history = []
    for it in range(1, max_iters + 1):
        Y = _unit_rows_reference(X @ A.T)
        eigvals, eigvecs = jacobi_eigh(Y.T @ Y / n)
        lam_min = float(eigvals[0])
        report = RipReport(lam_min, 0.0, d, delta)
        if lam_min >= 1.0 / d - delta:
            return ForsterOutput(A, np.eye(d), np.arange(n), Y, 1.0, report, it)
        collapse_streak = collapse_streak + 1 if lam_min < delta / (4.0 * d) else 0
        lam_history.append(lam_min)
        stalled = (len(lam_history) > STALL_WINDOW
                   and lam_history[-1] - lam_history[-1 - STALL_WINDOW] < 1e-4 / d)
        if lam_min < RANK_FLOOR or collapse_streak >= COLLAPSE_WINDOW or stalled:
            found = _extract_reference(X, Y, eigvecs)
            if found is not None:
                inside, basis = found
                members = np.flatnonzero(inside)
                inner = _forster_reference(X[members] @ basis, delta, max_iters)
                A_final = basis @ inner.A @ basis.T + (np.eye(d) - basis @ basis.T)
                retained = members[inner.retained_indices]
                return ForsterOutput(A_final, basis @ inner.subspace_basis, retained,
                                     inner.transformed_points, retained.size / n,
                                     inner.rip_report, it + inner.iterations)
        lam_safe = np.maximum(eigvals, RANK_FLOOR)
        A = eigvecs @ np.diag(1.0 / np.sqrt(lam_safe)) @ eigvecs.T @ A
        A /= np.linalg.norm(A) / math.sqrt(d)
    raise NoConvergenceError("no isotropy certificate", report)


def _reference_sets():
    yield "uniform", gen_uniform_sphere(500, 6, RngStream(41, 0)).points
    yield "clustered", gen_arbitrary("clustered", 600, 8, {}, RngStream(42)).points
    yield "low_margin", gen_arbitrary("low_margin", 400, 5, {}, RngStream(43)).points
    yield "grid", gen_arbitrary("grid", 300, 3, {}, RngStream(44)).points
    for seed in (45, 46):
        yield "subspace_degenerate", gen_arbitrary(
            "subspace_degenerate", 500, 7, {"rho": 0.8, "k": 3}, RngStream(seed)).points
    yield "d=1", np.array([[2.0], [-3.0], [0.5], [-0.25]])
    # A -0.0 coordinate: X @ I turns it into +0.0, X / norms keeps it.
    yield "signed zero", np.vstack([cross_polytope(3), [[-0.0, 1.0, 2.0]]])
    half = RngStream(47).gen.permutation(500)[:250]
    yield "subspace_degenerate half", gen_arbitrary(
        "subspace_degenerate", 500, 6, {"rho": 0.9, "k": 2}, RngStream(48)).points[half]
    # Three row blocks and a remainder: every blocked norm and residual
    # pass crosses block boundaries, and the transform extracts k=3.
    yield "subspace_degenerate blocks", gen_arbitrary(
        "subspace_degenerate", 3 * ROW_BLOCK + 1234, 6, {"rho": 0.8, "k": 3}, RngStream(49)).points


def test_transform_matches_the_reference_whitening_loop():
    extracted = 0
    for name, X in _reference_sets():
        before = X.copy()
        d = X.shape[1]
        delta = 1.0 / (2.0 * d)
        out = forster_transform(X, delta)
        ref = _forster_reference(X, delta)
        assert np.array_equal(X, before), name  # the caller's points are never written
        for field_name in ("A", "subspace_basis", "retained_indices", "transformed_points"):
            assert np.array_equal(getattr(out, field_name), getattr(ref, field_name)), (name, field_name)
        assert out.iterations == ref.iterations, name
        assert out.fraction == ref.fraction and out.rip_report == ref.rip_report, name
        extracted += out.subspace_dim < d
    assert extracted >= 2  # the extraction path ran, not only the first iterate


# ---------------------------------------------------------------------- audit

def test_soft_margin_audit_cross_polytope():
    d = 4
    frac = soft_margin_audit(cross_polytope(d), np.eye(d)[0])
    assert frac == pytest.approx(1.0 / d)


def test_soft_margin_audit_d1():
    assert soft_margin_audit(np.array([[1.0], [-1.0]]), np.array([1.0])) == 1.0


def test_soft_margin_audit_requires_isotropy():
    with pytest.raises(ValueError, match="isotropic position"):
        soft_margin_audit(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0]))


def test_soft_margin_floor_over_random_directions():
    # quantifier check: the 1/(4k) mass floor holds for a sampled
    # set of directions, not just hand-picked ones
    ds = gen_uniform_sphere(600, 5, RngStream(19, 0))
    out = forster_transform(ds.points, 1.0 / 10.0)
    k = out.subspace_dim
    dirs = sample_sphere_batch(300, k, RngStream(20, 0))
    fracs = (np.abs(out.transformed_points @ dirs.T) >= 1.0 / (2.0 * math.sqrt(k))).mean(axis=0)
    assert float(fracs.min()) >= 1.0 / (4.0 * k)


def test_pullback_preserves_signs():
    ds = gen_arbitrary("subspace_degenerate", 300, 5, {"rho": 0.9, "k": 2}, RngStream(23))
    out = forster_transform(ds.points, 1.0 / 10.0)
    # the separator in the working frame: y = A_hat x on the retained span
    B = out.subspace_basis
    A_hat = B.T @ out.A @ B
    v = np.linalg.solve(A_hat.T, B.T @ ds.ground_truth)
    orig = np.where(ds.points[out.retained_indices] @ ds.ground_truth >= 0.0, 1, -1)
    mapped = np.where(out.transformed_points @ v >= 0.0, 1, -1)
    assert np.array_equal(orig, mapped)
