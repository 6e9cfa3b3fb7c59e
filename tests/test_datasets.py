"""Dataset generators, bucketing, and file round-trips."""

import concurrent.futures
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sdlc.datasets as datasets
from sdlc.cli import main
from sdlc.datasets import (
    _CLUSTER_MAX_DRAWS,
    ARBITRARY_FAMILIES,
    MAX_POINTS,
    LabeledDataset,
    check_family_params,
    gen_arbitrary,
    gen_uniform_sphere,
    load_jsonl,
    predict_labels,
    save_jsonl,
    split_buckets,
)
from sdlc.errors import InfeasibleParametersError, MalformedRecordError
from sdlc.fanout import _MIN_JOBS
from sdlc.geometry import UNIT_TOL, RngStream, as_vector, sample_sphere


# ------------------------------------------------------------ LabeledDataset

def test_dataset_validation():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    ds = LabeledDataset(pts, [1, -1])
    assert ds.n == 2 and ds.d == 2 and ds.ground_truth is None
    with pytest.raises(ValueError):
        LabeledDataset(pts, [1, 0])
    with pytest.raises(ValueError):
        LabeledDataset(pts, [1])
    with pytest.raises(ValueError):
        LabeledDataset(np.array([np.inf, 0.0]).reshape(1, 2), [1])
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros(4), [1, 1, 1, 1])


@pytest.mark.parametrize("labels", [
    np.array([257, -1]), [257, -1], np.array([255, -1]), [255, -1], np.array([1, -129]), [1, -129],
    np.array([1.5, -1.0]), np.array(["1", "-1"]),
])
def test_labels_are_checked_before_they_are_narrowed(labels):
    # An int8 cast would read 257 as 1, 255 as -1 and -129 as 127, and
    # raise OverflowError on the list [257, -1].
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        LabeledDataset(np.eye(2), labels)


@pytest.mark.parametrize("labels", [[1, -1], np.array([1, -1], dtype=np.int64), np.array([1.0, -1.0])])
def test_labels_are_stored_as_int8(labels):
    ds = LabeledDataset(np.eye(2), labels)
    assert ds.labels.dtype == np.int8 and ds.labels.tolist() == [1, -1]


def test_dataset_rejects_n_past_32_bit_indices():
    # Zero-stride views of one row: neither array is allocated.
    pts = np.broadcast_to(np.ones((1, 1)), (MAX_POINTS, 1))
    labels = np.broadcast_to(np.int8(1), (MAX_POINTS,))
    assert MAX_POINTS == 2**31
    with pytest.raises(ValueError, match=f"n={MAX_POINTS} points are too many"):
        LabeledDataset(pts, labels)


@pytest.mark.parametrize("n", [2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5])
def test_dataset_checks_reach_every_row(n):
    # The checks run in row blocks; a bad last row is still found, and
    # bad points are reported before bad labels.
    pts = np.tile([1.0, 0.0], (n, 1))
    labels = np.ones(n, dtype=np.int64)
    assert LabeledDataset(pts, labels).n == n
    pts[-1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        LabeledDataset(pts, labels)
    labels[-1] = 0
    with pytest.raises(ValueError, match="non-finite"):
        LabeledDataset(pts, labels)
    pts[-1, 1] = 0.0
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        LabeledDataset(pts, labels)


# ------------------------------------------------------------ uniform sphere

def test_gen_uniform_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gen_uniform_sphere(0, 3, RngStream(0))
    with pytest.raises(ValueError):
        gen_uniform_sphere(5, 0, RngStream(0))


def test_gen_uniform_labels_and_norms():
    ds = gen_uniform_sphere(200, 4, RngStream(0))
    assert np.array_equal(predict_labels(ds.points, ds.ground_truth), ds.labels)
    assert np.all(np.abs(np.linalg.norm(ds.points, axis=1) - 1.0) <= 1e-9)
    assert set(np.unique(ds.labels)) <= {-1, 1}


def test_gen_uniform_deterministic_per_seed():
    a = gen_uniform_sphere(50, 3, RngStream(9, 0))
    b = gen_uniform_sphere(50, 3, RngStream(9, 0))
    c = gen_uniform_sphere(50, 3, RngStream(10, 0))
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.points, c.points)


def test_gen_uniform_label_balance():
    # sign(w* . x) splits the sphere in half; 10^5 draws pin the fraction.
    ds = gen_uniform_sphere(100_000, 3, RngStream(2))
    assert abs(float(np.mean(ds.labels == 1)) - 0.5) <= 0.01


# --------------------------------------------------------- arbitrary families

def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        gen_arbitrary("spiral", 10, 2, None, RngStream(0))


@pytest.mark.parametrize("family, params, needle", [
    ("low_margin", {"gama": 0.3}, "reads no parameters ['gama']"),
    ("grid", {"spread": 0.1}, "it reads none"),
    ("clustered", {"num_clusters": 2.7}, "num_clusters must be an integer"),
    ("clustered", {"spread": "0.1"}, "spread must be a number"),
    ("subspace_degenerate", {"k": 2.0}, "k must be an integer"),
    ("subspace_degenerate", {"rho": True}, "rho must be a number"),
    ("clustered", [1], "must be a JSON object"),
])
def test_family_params_are_checked(family, params, needle):
    with pytest.raises(ValueError) as err:
        gen_arbitrary(family, 10, 3, params, RngStream(0))
    assert needle in str(err.value)


def test_family_params_accept_what_the_family_reads():
    check_family_params("clustered", {"num_clusters": 2, "spread": 1, "boundary_offset": 0.1,
                                      "margin_floor": 0.02})
    check_family_params("subspace_degenerate", {"rho": 1, "k": 2})
    with pytest.raises(ValueError, match="reads no parameters"):
        check_family_params("uniform", {"rho": 0.5})


@pytest.mark.parametrize("family", ARBITRARY_FAMILIES)
def test_families_unit_norm_and_consistent(family):
    ds = gen_arbitrary(family, 300, 4, {}, RngStream(5))
    assert ds.n == 300 and ds.d == 4
    assert np.all(np.abs(np.linalg.norm(ds.points, axis=1) - 1.0) <= 1e-9)
    assert np.array_equal(predict_labels(ds.points, ds.ground_truth), ds.labels)


def test_subspace_degenerate_rank_one():
    ds = gen_arbitrary("subspace_degenerate", 40, 3, {"rho": 1.0, "k": 1}, RngStream(1))
    # every point is +/- one direction
    u = ds.points[0]
    dots = ds.points @ u
    assert np.all(np.abs(np.abs(dots) - 1.0) <= 1e-9)


@pytest.mark.parametrize("n, d, params, seed, digest", [
    (200_000, 10, {}, 5, "75a79f1c9cb094c8ad0d386ebb909c09264ce6a2d443ef97f6553d53c22c80f3"),
    (301, 6, {"rho": 0.0}, 13, "a2e31b44f43e6964cd9dee434386120b5034c458b15ba7171be8818246cb5a6e"),
    (301, 6, {"rho": 1.0, "k": 2}, 13, "14cec44c5c87f30a80c00b0939e8d9f2399e24b0d403252d0ad61a8258669978"),
    (7, 3, {"rho": 0.5, "k": 3}, 2, "ae76a3d78ea7081fc3e9f02229705e26508f9c1723d8992fd67e69666394420a"),
])
def test_subspace_degenerate_draws_are_pinned(n, d, params, seed, digest):
    # Scattering the two parts through the inverse permutation gives the
    # bytes of stacking them and gathering the permuted rows.
    ds = gen_arbitrary("subspace_degenerate", n, d, params, RngStream(seed))
    h = hashlib.sha256()
    h.update(ds.points.tobytes())
    h.update(ds.labels.astype("i1").tobytes())
    h.update(ds.ground_truth.tobytes())
    assert h.hexdigest() == digest


def test_subspace_degenerate_peak_memory():
    import tracemalloc

    # A stacked copy of the two parts and a gathered one pushed this to 3.15x.
    tracemalloc.start()
    try:
        ds = gen_arbitrary("subspace_degenerate", 200_000, 10, {}, RngStream(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * ds.points.nbytes


def test_low_margin_floor():
    gamma = 0.3
    ds = gen_arbitrary("low_margin", 4, 2, {"gamma": gamma}, RngStream(2))
    margins = np.abs(ds.points @ ds.ground_truth)
    assert np.all(margins >= gamma - 1e-9)
    # the construction puts every point exactly at the margin
    assert np.all(margins <= gamma + 1e-9)


@pytest.mark.parametrize("n, d, params, seed, digest", [
    (20_000, 10, {}, 7104, "5e2094d6533127d5c17b82aa774c238f8f8c666bc3fd3dcf766e8959d37d8e8a"),
    (301, 1, {}, 13, "d653e87932c621296ac97112e3fba8f736d3f6c0658e6d4a1547ad349dcf2bb7"),
    (301, 2, {"gamma": 0.3}, 13, "e2f0314e583da07143b3145ded2bb8eb6b4fb0544a0189aa573bc802ef0791a3"),
    (301, 12, {"gamma": 0.01}, 14, "3971824557fc431f153faa16c13efc4384e6d0f6b963b92fa366a498b687f340"),
])
def test_low_margin_draws_are_pinned(n, d, params, seed, digest):
    ds = gen_arbitrary("low_margin", n, d, params, RngStream(seed))
    h = hashlib.sha256()
    h.update(ds.points.tobytes())
    h.update(ds.labels.astype("i1").tobytes())
    h.update(ds.ground_truth.tobytes())
    assert h.hexdigest() == digest


def test_low_margin_rejects_bad_gamma():
    with pytest.raises(ValueError):
        gen_arbitrary("low_margin", 4, 2, {"gamma": 1.5}, RngStream(0))


def test_clustered_separable_by_feasibility_oracle():
    ds = gen_arbitrary("clustered", 1000, 5, {}, RngStream(3))
    # classical additive perceptron as an independent separability check:
    # margin_floor 0.02 bounds its updates by (1/0.02)^2, far under the cap
    w = np.zeros(5)
    updates = 0
    for _ in range(100):
        wrong = np.flatnonzero(np.where(ds.points @ w >= 0.0, 1, -1) != ds.labels)
        if wrong.size == 0:
            break
        w = w + ds.labels[wrong[0]] * ds.points[wrong[0]]
        updates += 1
    else:
        pytest.fail("perceptron failed to separate the clustered family")
    assert updates <= 2500


def test_clustered_param_validation():
    with pytest.raises(ValueError):
        gen_arbitrary("clustered", 10, 3, {"num_clusters": 0}, RngStream(0))
    with pytest.raises(ValueError):
        gen_arbitrary("clustered", 10, 3, {"spread": -1.0}, RngStream(0))


@pytest.mark.parametrize("n, d, seed, digest", [
    (50_000, 10, 7102, "7c5f07831cb7f15661a38188328b3b58543ef6f958c2bc83d7c13cea1cb5df69"),
    (300, 1, 13, "22f58a0776aa43193379e26c9986b7238b2df2f436b5bd61566dd496c30f4629"),
    (300, 6, 13, "24ed6a8f4a8276b4b3900425fd2e08c6fdb3803219a754563fba9019fd6ea0fd"),
    (300, 12, 13, "c5f076bd9ed1b595a9c72a4e29c2f008b495a647084a6f7d927bed59b91dfb83"),
])
def test_clustered_draws_are_pinned(n, d, seed, digest):
    # the bound on rejection draws must not move a single feasible draw
    ds = gen_arbitrary("clustered", n, d, {}, RngStream(seed, 0))
    h = hashlib.sha256()
    h.update(ds.points.tobytes())
    h.update(ds.labels.astype("i1").tobytes())
    h.update(ds.ground_truth.tobytes())
    assert h.hexdigest() == digest


def _clustered_reference(n, d, params, rng):
    """The clustered generator as one draw at a time: the points the block draws must match."""
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
        else:
            tangent /= tnorm
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


def _outcome(make):
    try:
        ds = make()
    except InfeasibleParametersError as exc:
        return type(exc), str(exc)
    return ds.points.tobytes(), ds.labels.tobytes(), ds.ground_truth.tobytes()


@pytest.mark.parametrize("n, d, params, seed", [
    (50_000, 10, {}, 7102),
    (300, 1, {}, 13),
    (300, 6, {}, 13),
    (300, 12, {}, 13),
    (500, 1, {"spread": 0.5, "margin_floor": 0.3}, 3),
    (400, 2, {"spread": 0.5, "margin_floor": 0.3}, 4),
    (300, 4, {"num_clusters": 300, "spread": 0.5, "margin_floor": 0.3}, 5),
    (2000, 3, {"num_clusters": 2000}, 8),
    # a window here runs out of shifts, and the next one starts after that rejection
    (5000, 10, {"num_clusters": 5000, "margin_floor": 0.06}, 3),
    (4000, 3, {"spread": 0.3, "margin_floor": 0.15}, 6),
    (5000, 4, {"spread": 0.5, "margin_floor": 0.3}, 9),
    # about 104,000 rejections in all: the draw cap is per point, not per run
    (100, 3, {"spread": 0.3, "margin_floor": 0.92}, 0),
    (10, 3, {"margin_floor": 0.99}, 0),
])
def test_clustered_block_draws_match_one_draw_at_a_time(n, d, params, seed):
    # rejections shift every later point to the next centre, in every block and window
    new = _outcome(lambda: gen_arbitrary("clustered", n, d, params, RngStream(seed, 0)))
    assert new == _outcome(lambda: _clustered_reference(n, d, params, RngStream(seed, 0)))


def test_clustered_peak_memory():
    import tracemalloc

    # one block of draws and one scoring pass on top of the points array
    tracemalloc.start()
    try:
        ds = gen_arbitrary("clustered", 200_000, 10, {}, RngStream(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.points.nbytes


def test_cli_generate_rejects_unreachable_margin_floor(tmp_path, capsys):
    # no draw near a centre reaches margin 0.99: the capped draws end in exit 1, not a hang
    out = tmp_path / "x.jsonl"
    start = time.perf_counter()
    code = main(["generate", "--family", "clustered", "--n", "10", "--d", "3",
                 "--params", '{"margin_floor": 0.99}', "--out", str(out)])
    assert code == 1
    assert time.perf_counter() - start < 10.0
    assert "margin_floor" in capsys.readouterr().err
    assert not out.exists()


def test_grid_small_case_exact():
    ds = gen_arbitrary("grid", 8, 2, {}, RngStream(0))
    r2 = 1.0 / math.sqrt(2.0)
    # the full radius-1 shell of the integer lattice, lexicographic
    expected = [
        (-r2, -r2), (-1.0, 0.0), (-r2, r2), (0.0, -1.0),
        (0.0, 1.0), (r2, -r2), (1.0, 0.0), (r2, r2),
    ]
    assert np.allclose(ds.points, np.asarray(expected), atol=1e-12)


def test_grid_runaway_size_rejected():
    with pytest.raises(ValueError):
        gen_arbitrary("grid", 7000, 2, {}, RngStream(0))


def _grid_by_full_cube(n, d):
    """The grid enumeration as it was first written: build each whole cube."""
    points = []
    radius = 1
    while len(points) < n:
        rng_1d = np.arange(-radius, radius + 1)
        mesh = np.meshgrid(*([rng_1d] * d), indexing="ij")
        lattice = np.stack([m.ravel() for m in mesh], axis=1)
        shell = lattice[np.max(np.abs(lattice), axis=1) == radius]
        for row in shell:
            points.append(row / np.linalg.norm(row))
            if len(points) == n:
                break
        radius += 1
    return np.asarray(points)


@pytest.mark.parametrize("n,d", [(1, 1), (60, 1), (8, 2), (200, 2), (150, 3), (500, 4), (100, 5), (1000, 6)])
def test_grid_matches_full_cube_enumeration(n, d):
    pts = gen_arbitrary("grid", n, d, {}, RngStream(0)).points
    assert np.array_equal(pts, _grid_by_full_cube(n, d))


def test_grid_builds_only_the_points_it_keeps():
    import tracemalloc

    tracemalloc.start()
    try:
        ds = gen_arbitrary("grid", 10, 12, {}, RngStream(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n == 10
    assert peak < 5 * 2**20


# -------------------------------------------------------------------- buckets

def test_split_buckets_examples():
    singles = split_buckets(4, 4, RngStream(0))
    assert sorted(int(b[0]) for b in singles) == [0, 1, 2, 3]
    sizes = sorted(len(b) for b in split_buckets(10, 4, RngStream(1)))
    assert sizes == [2, 2, 3, 3]


def test_split_buckets_validation():
    with pytest.raises(ValueError):
        split_buckets(3, 4, RngStream(0))
    with pytest.raises(ValueError):
        split_buckets(3, 0, RngStream(0))


def test_split_buckets_seed_sensitivity():
    a = split_buckets(10_000, 100, RngStream(0))
    b = split_buckets(10_000, 100, RngStream(1))
    assert sorted(len(x) for x in a) == sorted(len(x) for x in b)
    assert any(not np.array_equal(x, y) for x, y in zip(a, b))


@given(st.integers(min_value=1, max_value=500), st.data())
def test_split_buckets_partitions(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    buckets = split_buckets(n, k, RngStream(data.draw(st.integers(0, 2**32))))
    assert len(buckets) == k
    merged = np.concatenate(buckets)
    assert np.array_equal(np.sort(merged), np.arange(n))
    sizes = [len(b) for b in buckets]
    assert max(sizes) - min(sizes) <= 1
    assert all(np.array_equal(b, np.sort(b)) for b in buckets)


# ---------------------------------------------------------------- round-trip

def test_jsonl_round_trip(tmp_path):
    ds = gen_uniform_sphere(30, 3, RngStream(4))
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, str(path))
    back = load_jsonl(str(path))
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.ground_truth, ds.ground_truth)


def test_jsonl_round_trip_without_truth(tmp_path):
    ds = LabeledDataset(np.eye(3), [1, -1, 1])
    path = tmp_path / "nt.jsonl"
    save_jsonl(ds, str(path))
    back = load_jsonl(str(path))
    assert back.ground_truth is None
    assert np.array_equal(back.points, ds.points)


@pytest.mark.parametrize("ds", [
    gen_uniform_sphere(50, 1, RngStream(6)),
    gen_uniform_sphere(50, 10, RngStream(7)),
    LabeledDataset(np.array([[1.0, 0.0], [0.0, -1.0], [-0.6, 0.8]]), [1, -1, 1]),
    gen_uniform_sphere(_MIN_JOBS * (datasets._SAVE_FLOATS // 10) + 1, 10, RngStream(8)),
], ids=["d1", "d10", "no_truth", "blocks"])
def test_jsonl_bytes_match_json_dumps(tmp_path, ds):
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, str(path))
    truth = None if ds.ground_truth is None else [float(v) for v in ds.ground_truth]
    want = json.dumps({"d": ds.d, "n": ds.n, "ground_truth": truth}) + "\n" + "".join(
        json.dumps({"x": [float(v) for v in x], "y": int(y)}) + "\n"
        for x, y in zip(ds.points, ds.labels))
    assert path.read_bytes() == want.encode()


def test_jsonl_header_missing_truth_key(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text('{"d": 2, "n": 1}\n{"x": [1.0, 0.0], "y": 1}\n')
    assert load_jsonl(str(path)).ground_truth is None


def test_jsonl_malformed_label(tmp_path):
    # each bad record sits on line 3, after a good one
    bad_records = [
        '{"x": [0.0, 1.0], "y": 0}',
        '{"x": ["0.6", "0.8"], "y": 1}',   # string coordinates
        '{"x": [0.6, 0.8], "y": true}',    # boolean label
        '{"x": [0.6, 0.8], "y": -1.0}',    # float label
        '{"x": [3.0, 4.0], "y": -1}',      # norm 5
    ]
    path = tmp_path / "bad.jsonl"
    for record in bad_records:
        path.write_text(
            '{"d": 2, "n": 2, "ground_truth": null}\n'
            '{"x": [1.0, 0.0], "y": 1}\n'
            + record + "\n"
        )
        with pytest.raises(MalformedRecordError) as err:
            load_jsonl(str(path))
        assert err.value.line_number == 3, record


def test_jsonl_record_too_large_for_a_float(tmp_path):
    path = tmp_path / "huge.jsonl"
    path.write_text(
        '{"d": 2, "n": 2, "ground_truth": null}\n'
        '{"x": [1.0, 0.0], "y": 1}\n'
        '{"x": [1' + '0' * 400 + ', 0], "y": 1}\n'
    )
    with pytest.raises(MalformedRecordError) as err:
        load_jsonl(str(path))
    assert err.value.line_number == 3


def test_jsonl_truncated_file(tmp_path):
    path = tmp_path / "trunc.jsonl"
    path.write_text('{"d": 2, "n": 5, "ground_truth": null}\n{"x": [1.0, 0.0], "y": 1}\n')
    with pytest.raises(MalformedRecordError):
        load_jsonl(str(path))


def test_jsonl_record_count_mismatch(tmp_path):
    path = tmp_path / "count.jsonl"
    record = '{"x": [0.6000000000000000, 0.8000000000000000], "y": 1}\n'
    # Too many: the first record beyond n is rejected on its own line.
    path.write_text('{"d": 2, "n": 1, "ground_truth": null}\n' + 4 * record)
    with pytest.raises(MalformedRecordError) as err:
        load_jsonl(str(path))
    assert err.value.line_number == 3
    # Too few: the file ends on line 2.
    path.write_text('{"d": 2, "n": 2, "ground_truth": null}\n' + record)
    with pytest.raises(MalformedRecordError) as err:
        load_jsonl(str(path))
    assert err.value.line_number == 2


def test_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(MalformedRecordError) as err:
        load_jsonl(str(path))
    assert err.value.line_number == 1


def test_jsonl_bad_dimension(tmp_path):
    path = tmp_path / "dim.jsonl"
    # Each header is rejected on line 1, before the record is read.
    bad_headers = [
        '{"d": 2.9, "n": 1, "ground_truth": null}',
        '{"d": "2", "n": 1, "ground_truth": null}',
        '{"d": true, "n": 1, "ground_truth": null}',
        '{"d": 0, "n": 1, "ground_truth": null}',
        '{"d": -2, "n": 1, "ground_truth": null}',
        '{"d": 2, "n": true, "ground_truth": null}',
        '{"d": 2, "n": 1.0, "ground_truth": null}',
        '{"d": 2, "n": -1, "ground_truth": null}',
        '{"d": 2, "n": 1000000000000}',  # 16 TB of floats; the file holds one record
        '{"d": 2, "ground_truth": null}',
        '{"d": 2, "n": 1, "ground_truth": [1.0]}',
        '{"d": 2, "n": 1, "ground_truth": [1.0, 0.0, 0.0]}',
        '{"d": 2, "n": 1, "ground_truth": [1.0, NaN]}',
        '{"d": 2, "n": 1, "ground_truth": [1e400, 0.0]}',
        '{"d": 2, "n": 1, "ground_truth": [1' + '0' * 400 + ', 0]}',
        '{"d": 2, "n": 1, "ground_truth": [1.0, "0"]}',
        '{"d": 2, "n": 1, "ground_truth": [true, 0.0]}',
        '{"d": 2, "n": 1, "ground_truth": 1.0}',
        '[2, 1]',
    ]
    for header in bad_headers:
        path.write_text(header + '\n{"x": [1.0, 0.0], "y": 1}\n')
        with pytest.raises(MalformedRecordError) as err:
            load_jsonl(str(path))
        assert err.value.line_number == 1, header
    # A record shorter than the header's d is rejected on its own line.
    path.write_text('{"d": 3, "n": 1, "ground_truth": null}\n{"x": [1.0, 0.0], "y": 1}\n')
    with pytest.raises(MalformedRecordError) as err:
        load_jsonl(str(path))
    assert err.value.line_number == 2


# ------------------------------------------------------- blocks and pools

def _load_line_by_line(path: str) -> LabeledDataset:
    """The loader that reads and checks one record line at a time, as load_jsonl did before blocks.

    The block loader must return the same arrays, or raise on the same line
    with the same message. (It leaves out the memory bound on the header,
    which no example here comes near.)
    """
    number_types = frozenset((int, float))
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
            if type(d) is not int or d < 1:
                raise ValueError(f"d must be an integer >= 1, got {d!r}")
            if type(n) is not int or n < 0:
                raise ValueError(f"n must be an integer >= 0, got {n!r}")
            if size is not None and n * (2 * d + 12) > size - len(first):
                raise ValueError(f"n={n} records of dimension {d} cannot fit in the "
                                 f"{size - len(first)} bytes after the header")
            if truth is not None and not (isinstance(truth, list) and number_types.issuperset(map(type, truth))):
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
            if not isinstance(x, list) or len(x) != d or not number_types.issuperset(map(type, x)):
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
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    off_sphere = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))
    if off_sphere.size:
        raise MalformedRecordError(int(off_sphere[0]) + 2, "x must be a finite unit vector")
    return LabeledDataset(points, labels, gt)


def _load_outcome(load, path: str):
    """The points and labels as bits, or the (line number, message) of the error."""
    try:
        ds = load(path)
    except MalformedRecordError as exc:
        return exc.line_number, str(exc)
    return ds.points.tobytes(), ds.labels.tobytes(), ds.ground_truth.tobytes()


# The fuzzed file: 48 records of d=3 in blocks of 6 lines, read in runs of 4.
_FUZZ_DS = gen_uniform_sphere(48, 3, RngStream(1201))
_FUZZ_LOAD_BYTES, _FUZZ_PARSE_LINES = 400, 4


def _fuzz_lines() -> tuple[str, list[str]]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.jsonl")
        save_jsonl(_FUZZ_DS, path)
        with open(path) as fh:
            header, *records = fh.read().splitlines()
    return header, records


def _fuzz_block_starts() -> list[int]:
    """The record that starts each block of the canonical file."""
    header, records = _fuzz_lines()
    text = "".join(line + "\n" for line in [header, *records]).encode()
    record_starts = np.cumsum([len(header) + 1] + [len(r) + 1 for r in records[:-1]])
    with tempfile.TemporaryFile() as fh, pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "_LOAD_BYTES", _FUZZ_LOAD_BYTES)
        fh.write(text)
        fh.seek(len(header) + 1)
        return [int(np.searchsorted(record_starts, start))
                for start, _ in datasets._line_blocks(fh, len(text))]


_FUZZ_TARGETS = sorted({t + s for t in _fuzz_block_starts() for s in (-1, 0, 1)} & set(range(45)))


def _mutate(header: str, records: list[str], kind: str, t: int) -> tuple[str, list[str], str]:
    """Apply one mutation at record line t; returns the header, the lines and the line ending.

    The text of a mutated line comes from the canonical record t, so that
    mutations compose.
    """
    records, canonical = list(records), _fuzz_lines()[1]
    base = canonical[t]
    coord = base.index("[") + 1
    if kind == "bad":
        records[t] = base[:-5]
    elif kind == "blank":
        records.insert(t, "")
    elif kind == "crlf":
        return header, records, "\r\n"
    elif kind == "crlf_line":
        records[t] = base + "\r"
    elif kind == "extra_key":
        records[t] = base[:-1] + ', "z": 1}'
    elif kind in ("bool", "string", "huge", "nan"):
        text = {"bool": "true", "string": '"0.5"', "huge": "1" + "0" * 400, "nan": "NaN"}[kind]
        records[t] = base[:coord] + text + base[base.index(","):]
    elif kind == "split_pair":
        # Record t split at a comma of x, then t+1 and t+2 on one line: the line count stays.
        first, rest = base.split(", ", 1)
        records[t:t + 3] = [first, " " + rest, canonical[t + 1] + ", " + canonical[t + 2]]
    elif kind == "too_many":
        records.append(base)
    elif kind == "too_many_header":
        header = header.replace('"n": 48', '"n": 47')
    elif kind == "too_few":
        del records[-1 - t % 3:]
    elif kind == "too_few_header":
        header = header.replace('"n": 48', '"n": 49')
    return header, records, "\n"


_MUTATIONS = ["bad", "blank", "crlf", "crlf_line", "extra_key", "bool", "string", "huge", "nan",
              "split_pair", "too_many", "too_many_header", "too_few", "too_few_header"]


@given(edits=st.lists(st.tuples(st.sampled_from(_MUTATIONS),
                                st.one_of(st.sampled_from(_FUZZ_TARGETS), st.integers(0, 44))),
                      min_size=1, max_size=2))
def test_block_loader_matches_the_line_by_line_loader(edits):
    header, records = _fuzz_lines()
    ending = "\n"
    for kind, t in edits:
        t = min(t, len(records) - 3)  # each mutation leaves at least 45 lines
        header, records, new_ending = _mutate(header, records, kind, t)
        ending = new_ending if new_ending != "\n" else ending
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "_LOAD_BYTES", _FUZZ_LOAD_BYTES)
        mp.setattr(datasets, "_PARSE_LINES", _FUZZ_PARSE_LINES)
        path = os.path.join(tmp, "mutated.jsonl")
        with open(path, "w", newline="") as fh:
            fh.write("".join(line + ending for line in [header, *records]))
        assert _load_outcome(load_jsonl, path) == _load_outcome(_load_line_by_line, path)
    assert multiprocessing.active_children() == []


def test_the_fuzzed_file_spans_blocks():
    starts = _fuzz_block_starts()
    assert len(starts) >= 5 and starts[0] == 0 and starts == sorted(set(starts))


def test_a_split_record_beside_a_double_line_is_rejected_on_its_line(tmp_path, monkeypatch):
    # Read as one JSON array, these lines hold as many records as lines.
    monkeypatch.setattr(datasets, "_PARSE_LINES", 8)
    path = tmp_path / "split.jsonl"
    path.write_text('{"d": 2, "n": 3, "ground_truth": null}\n'
                    '{"x": [1.0, 0.0], "y": 1}\n'
                    '{"x": [0.6\n'
                    ' 0.8], "y": 1}\n'
                    '{"x": [0.0, 1.0], "y": 1}, {"x": [0.0, -1.0], "y": -1}\n')
    with pytest.raises(MalformedRecordError) as err:
        load_jsonl(str(path))
    assert (err.value.line_number, str(err.value)) == _load_outcome(_load_line_by_line, str(path))
    assert err.value.line_number == 3


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_saved_bytes_do_not_depend_on_the_core_count(offset, tmp_path, monkeypatch):
    d = 6
    n = _MIN_JOBS * (datasets._SAVE_FLOATS // d) + offset  # k blocks of rows, and one row either side
    ds = gen_uniform_sphere(n, d, RngStream(1202))
    save_jsonl(ds, str(tmp_path / "all.jsonl"))
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    save_jsonl(ds, str(tmp_path / "one.jsonl"))
    assert (tmp_path / "all.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()
    monkeypatch.undo()
    back = load_jsonl(str(tmp_path / "all.jsonl"))
    assert multiprocessing.active_children() == []
    assert back.points.tobytes() == ds.points.tobytes()
    assert np.array_equal(back.labels, ds.labels)


def test_a_few_blocks_start_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # The cli_pipeline bench's small file, 3000 points at d=5: two blocks to
    # save, one to load, and three blocks of records.
    ds = gen_uniform_sphere(3000, 5, RngStream(1203))
    path = str(tmp_path / "small.jsonl")
    save_jsonl(ds, path)
    assert load_jsonl(path).points.tobytes() == ds.points.tobytes()
    assert main(["baseline", "--data", path, "--records", "--out", str(tmp_path / "run.json")]) == 0
    with pytest.raises(AssertionError, match="a pool was started"):
        save_jsonl(gen_uniform_sphere(_MIN_JOBS * datasets._SAVE_FLOATS, 1, RngStream(1204)),
                   str(tmp_path / "big.jsonl"))


def test_a_bad_middle_block_leaves_no_process(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_LOAD_BYTES", 1 << 10)
    ds = gen_uniform_sphere(400, 4, RngStream(1205))
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines[200] = '{"x": [0.5, 0.5, 0.5, 0.5], "y": true}\n'
    path.write_text("".join(lines))
    with pytest.raises(MalformedRecordError) as err:
        load_jsonl(str(path))
    assert err.value.line_number == 201
    assert multiprocessing.active_children() == []


@contextlib.contextmanager
def _piped(path):
    """A /dev/fd path to the read end of a pipe that `cat path` fills.

    Another process writes, as in `cat file | sdlc ... --data /dev/stdin`:
    this process holds no write end, which the pool's workers would
    inherit and which would keep the reader from ever seeing the end.
    """
    read_fd, write_fd = os.pipe()
    with subprocess.Popen(["cat", str(path)], stdout=write_fd):
        os.close(write_fd)
        try:
            yield f"/dev/fd/{read_fd}"
        finally:
            os.close(read_fd)


def test_jsonl_from_a_pipe_matches_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_LOAD_BYTES", 1 << 12)
    ds = gen_uniform_sphere(2000, 5, RngStream(1206))
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, str(path))
    with _piped(path) as pipe:
        back = load_jsonl(pipe)
    assert back.points.tobytes() == ds.points.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert multiprocessing.active_children() == []


def test_a_piped_header_beyond_memory_is_rejected_on_line_1(tmp_path):
    path = tmp_path / "huge.jsonl"
    path.write_bytes(b'{"d": 10, "n": 100000000000}\n{"x": [1.0], "y": 1}\n')
    with _piped(path) as pipe, pytest.raises(MalformedRecordError) as err:
        load_jsonl(pipe)
    assert err.value.line_number == 1
    assert "n=100000000000 points in d=10 dimensions" in str(err.value)


def test_cli_rejects_a_piped_header_beyond_memory():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "sdlc.cli", "run-sphere", "--data", "/dev/stdin"],
                          input=b'{"d": 10, "n": 100000000000}\n{"x": [1.0], "y": 1}\n',
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr.decode()
    assert lines[0].startswith("error: line 1: bad header: n=100000000000 points in d=10 dimensions")


def test_predict_labels_boundary_convention():
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
    w = np.array([1.0, 0.0])
    assert predict_labels(pts, w).tolist() == [1, 1, -1]
