"""Dataset generators, bucketing, and file round-trips."""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdlc.cli import main
from sdlc.datasets import (
    ARBITRARY_FAMILIES,
    LabeledDataset,
    check_family_params,
    gen_arbitrary,
    gen_uniform_sphere,
    load_jsonl,
    predict_labels,
    save_jsonl,
    split_buckets,
)
from sdlc.errors import MalformedRecordError
from sdlc.geometry import RngStream


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
], ids=["d1", "d10", "no_truth"])
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


def test_predict_labels_boundary_convention():
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
    w = np.array([1.0, 0.0])
    assert predict_labels(pts, w).tolist() == [1, 1, -1]
