"""Isotropic-position transform: eigensolver, certificates, extraction."""

import math

import numpy as np
import pytest

from sdlc.datasets import gen_arbitrary, gen_uniform_sphere
from sdlc.errors import NoConvergenceError
from sdlc.forster import (
    ForsterOutput,
    forster_transform,
    jacobi_eigh,
    pullback_separator,
    rip_check,
    soft_margin_audit,
)
from sdlc.geometry import RngStream, sample_sphere_batch


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
    out = forster_transform(np.array([[2.0], [-3.0]]), 0.5)
    assert out.iterations == 0 and out.subspace_dim == 1
    assert np.allclose(out.transformed_points.ravel(), [1.0, -1.0])


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
    v = pullback_separator(out, ds.ground_truth)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    orig = np.where(ds.points[out.retained_indices] @ ds.ground_truth >= 0.0, 1, -1)
    mapped = np.where(out.transformed_points @ v >= 0.0, 1, -1)
    assert np.array_equal(orig, mapped)
