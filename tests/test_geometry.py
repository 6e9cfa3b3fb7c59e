"""Vector geometry, sphere sampling, and the splittable RNG contract."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdlc.geometry import (
    RngStream,
    angle,
    as_vector,
    predict_sign,
    sample_sphere,
    sample_sphere_batch,
    tan_theta,
)


def coords(d):
    return st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=d, max_size=d,
    )


def nonzero_vector(draw, d):
    v = np.array(draw(coords(d)))
    assume(np.linalg.norm(v) > 1e-3)
    return v


# ---------------------------------------------------------------- RngStream

def test_same_key_same_sequence():
    a = RngStream(42, 7).gen.uniform(size=100)
    b = RngStream(42, 7).gen.uniform(size=100)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_diverge():
    a = RngStream(42, 0).gen.uniform(size=100)
    b = RngStream(42, 1).gen.uniform(size=100)
    assert not np.array_equal(a, b)


def test_child_is_deterministic_and_distinct():
    root = RngStream(3, 5)
    c1 = root.child(0)
    c2 = root.child(0)
    assert c1.stream_id == c2.stream_id
    assert np.array_equal(c1.gen.uniform(size=10), c2.gen.uniform(size=10))
    assert root.child(1).stream_id != c1.stream_id
    assert c1.stream_id != root.stream_id


def test_sibling_children_diverge():
    root = RngStream(0, 0)
    ids = {root.child(i).stream_id for i in range(1000)}
    assert len(ids) == 1000


def test_negative_child_index_rejected():
    with pytest.raises(ValueError):
        RngStream(0, 0).child(-1)


# ------------------------------------------------------------------ sampling

def test_sample_sphere_rejects_dimension_zero():
    with pytest.raises(ValueError):
        sample_sphere(0, RngStream(0))
    with pytest.raises(ValueError):
        sample_sphere_batch(5, 0, RngStream(0))


def test_sample_sphere_unit_norm():
    for seed in range(20):
        x = sample_sphere(3, RngStream(seed))
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-9


def test_sample_sphere_d1_hits_both_signs():
    draws = {float(sample_sphere(1, RngStream(seed))[0]) for seed in range(50)}
    assert draws == {1.0, -1.0}


def test_batch_isotropy_d2():
    # E[x_1^2] = 1/2 on the circle; 10^6 draws pin it to about 3 decimal places.
    x = sample_sphere_batch(1_000_000, 2, RngStream(0))
    assert abs(float(np.mean(x[:, 0] ** 2)) - 0.5) <= 0.01


def test_batch_shape_and_empty():
    assert sample_sphere_batch(0, 4, RngStream(0)).shape == (0, 4)
    assert sample_sphere_batch(7, 4, RngStream(0)).shape == (7, 4)
    with pytest.raises(ValueError):
        sample_sphere_batch(-1, 4, RngStream(0))


# ---------------------------------------------------------------- validation

def test_as_vector_checks():
    v = as_vector([1.0, 2.0], 2)
    assert v.dtype == np.float64
    with pytest.raises(ValueError):
        as_vector([[1.0]])
    with pytest.raises(ValueError):
        as_vector([np.nan, 0.0])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        as_vector([])


# --------------------------------------------------------------------- angle

def test_angle_examples():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert angle(e1, e1) == 0.0
    assert abs(angle(e1, e2) - math.pi / 2) <= 1e-12
    assert abs(angle(e1, np.array([1.0, 1.0]) / math.sqrt(2)) - math.pi / 4) <= 1e-12


def test_angle_rejects_zero_vector():
    with pytest.raises(ValueError):
        angle(np.zeros(2), np.array([1.0, 0.0]))


@given(st.data(), st.integers(min_value=2, max_value=6))
def test_angle_symmetry_and_scale_invariance(data, d):
    u = nonzero_vector(data.draw, d)
    v = nonzero_vector(data.draw, d)
    a = data.draw(st.floats(min_value=1e-2, max_value=1e2))
    b = data.draw(st.floats(min_value=1e-2, max_value=1e2))
    assert angle(u, v) == angle(v, u)
    # arccos of a float dot product is only sqrt(eps)-accurate near 0 and pi
    assert abs(angle(a * u, b * v) - angle(u, v)) <= 1e-7


# ----------------------------------------------------------------- tan_theta

def test_tan_theta_examples():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert tan_theta(e1, e1) == 0.0
    assert abs(tan_theta(e1, np.array([1.0, 1.0])) - 1.0) <= 1e-12
    assert tan_theta(e1, e2) == math.inf
    with pytest.raises(ValueError):
        tan_theta(np.zeros(2), e1)


@settings(max_examples=300)
@given(st.data(), st.integers(min_value=2, max_value=6))
def test_tan_theta_matches_tan_of_angle(data, d):
    u = nonzero_vector(data.draw, d)
    v = nonzero_vector(data.draw, d)
    theta = angle(u, v)
    assume(theta < math.pi / 2 - 1e-3)
    # error in theta (~sqrt(eps) from arccos) is amplified by tan's slope
    tol = 1e-7 * (1.0 + math.tan(theta) ** 2)
    assert abs(tan_theta(u, v) - math.tan(theta)) <= tol


# ------------------------------------------------------------- disagreement

def test_disagreement_mass_matches_angle_fraction():
    theta = math.pi / 3
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([-math.sin(theta), math.cos(theta), 0.0])
    x = sample_sphere_batch(1_000_000, 3, RngStream(1))
    frac = float(np.mean((x @ u) * (x @ v) <= 0.0))
    p = theta / math.pi
    assert abs(frac - p) <= 3.0 * math.sqrt(p * (1 - p) / 1_000_000)


def test_predict_sign_zero_is_positive():
    assert predict_sign(0.0) == 1
    assert predict_sign(-0.0) == 1
    assert predict_sign(1e-300) == 1
    assert predict_sign(-1e-300) == -1
