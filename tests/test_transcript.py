"""The predict-before-reveal protocol and its transcript log."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdlc.datasets import LabeledDataset
from sdlc.errors import ProtocolError
from sdlc.transcript import LabelOracle, Transcript


def small_oracle():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return LabelOracle(LabeledDataset(pts, [1, 1, -1, -1], np.array([1.0, 1.0])))


def _state(oracle):
    records = [(r.index, r.prediction, r.truth, r.margin, r.phase) for r in oracle.transcript.records()]
    return oracle.predicted_mask().tolist(), records


def test_predict_reveals_truth_and_logs():
    oracle = small_oracle()
    truth = oracle.predict(0, -1, margin=0.3, phase="x")
    assert truth == 1
    assert oracle.mistakes == 1
    rec = next(oracle.transcript.records())
    assert (rec.index, rec.prediction, rec.truth, rec.margin, rec.phase) == (0, -1, 1, 0.3, "x")


def test_predict_rejects_repeats_and_bad_values():
    oracle = small_oracle()
    oracle.predict(1, 1)
    with pytest.raises(ProtocolError):
        oracle.predict(1, 1)
    with pytest.raises(ValueError):
        oracle.predict(2, 0)
    for out_of_range in (4, -1):
        with pytest.raises(ProtocolError):
            oracle.predict(out_of_range, 1)
    assert oracle.unpredicted_indices().tolist() == [0, 2, 3]


def test_bulk_prediction_protocol():
    oracle = small_oracle()
    truths = oracle.predict_bulk([0, 2], [1, 1], [0.5, 0.5], "bulk")
    assert truths.tolist() == [1, -1]
    with pytest.raises(ProtocolError):
        oracle.predict_bulk([1, 1], [1, 1], [0.0, 0.0], "bulk")
    with pytest.raises(ProtocolError):
        oracle.predict_bulk([0, 3], [1, 1], [0.0, 0.0], "bulk")
    with pytest.raises(ProtocolError):  # -1 and 3 name the same point
        oracle.predict_bulk([-1, 3], [1, 1], [0.0, 0.0], "bulk")
    with pytest.raises(ValueError):
        oracle.predict_bulk([1, 3], [1, 2], [0.0, 0.0], "bulk")
    with pytest.raises(ValueError):
        oracle.predict_bulk([1, 3], [1], [0.0], "bulk")
    # nothing above may have leaked a label
    assert oracle.unpredicted_indices().tolist() == [1, 3]
    assert len(oracle.transcript) == 2


def test_until_mistake_reveals_prefix_only():
    oracle = small_oracle()
    revealed, hit = oracle.predict_until_mistake(
        [0, 1, 2, 3], [1, 1, 1, -1], [0.0] * 4, "scan")
    assert (revealed, hit) == (3, True)
    assert oracle.unpredicted_indices().tolist() == [3]
    revealed, hit = oracle.predict_until_mistake([3], [-1], [0.0], "scan")
    assert (revealed, hit) == (1, False)
    assert oracle.all_predicted()


def test_until_mistake_rejects_duplicates():
    oracle = small_oracle()
    with pytest.raises(ProtocolError):
        oracle.predict_until_mistake([0, 0], [1, 1], [0.0, 0.0], "scan")
    oracle.predict(0, 1)
    with pytest.raises(ProtocolError):
        oracle.predict_until_mistake([0, 1], [1, 1], [0.0, 0.0], "scan")
    with pytest.raises(ProtocolError):
        oracle.predict_until_mistake([1, 4], [1, 1], [0.0, 0.0], "scan")
    with pytest.raises(ValueError):
        oracle.predict_until_mistake([1, 2], [1, 7], [0.0, 0.0], "scan")
    assert _state(oracle) == ([True, False, False, False], [(0, 1, 1, 0.0, "")])


N_PROP = 5


@given(
    entry=st.sampled_from(["predict", "predict_bulk", "predict_until_mistake"]),
    done=st.sets(st.integers(0, N_PROP - 1), max_size=N_PROP),
    calls=st.lists(st.tuples(st.integers(-N_PROP, 2 * N_PROP - 1), st.integers(-2, 2)),
                   min_size=1, max_size=8),
)
def test_commit_paths_reject_cleanly_or_commit_each_point_once(entry, done, calls):
    pts = np.eye(N_PROP)
    oracle = LabelOracle(LabeledDataset(pts, [1, -1, 1, -1, 1]))
    if done:
        oracle.predict_bulk(sorted(done), [1] * len(done), [0.0] * len(done), "pre")
    if entry == "predict":
        calls = calls[:1]
    idx = [i for i, _ in calls]
    preds = [p for _, p in calls]
    margins = [0.5] * len(calls)
    mask_before, records_before = _state(oracle)
    try:
        if entry == "predict":
            oracle.predict(idx[0], preds[0], margins[0], "p")
        else:
            getattr(oracle, entry)(idx, preds, margins, "p")
    except (ProtocolError, ValueError):
        assert _state(oracle) == (mask_before, records_before)
        return
    mask_after, records_after = _state(oracle)
    new = records_after[len(records_before):]
    assert records_after[:len(records_before)] == records_before
    committed = [r[0] for r in new]
    # a prefix of the named points, each a real point, each once, each +-1
    assert committed == idx[:len(committed)] and len(committed) >= 1
    if entry != "predict_until_mistake":
        assert len(committed) == len(idx)
    assert len(set(committed)) == len(committed)
    assert all(0 <= i < N_PROP and not mask_before[i] for i in committed)
    assert all(r[1] in (-1, 1) for r in new)
    assert [i for i in range(N_PROP) if mask_after[i] != mask_before[i]] == sorted(committed)


def test_transcript_bookkeeping():
    t = Transcript()
    t.append_chunk([0, 1], [1, 1], [1, -1], [0.1, 0.2], "a")
    t.append_chunk([2], [-1], [-1], [0.3], "b")
    t.append_chunk([], [], [], [], "ignored")
    assert len(t) == 3
    assert t.mistakes == 1
    assert t.phases() == ["a", "b"]
    assert t.mistakes_in_phase("a") == 1
    assert t.mistakes_in_phase("b") == 0
    assert t.summary() == {
        "predictions": 3,
        "mistakes": 1,
        "mistakes_by_phase": {"a": 1, "b": 0},
    }
    full = t.to_json_dict()
    assert len(full["records"]) == 3
    lean = t.to_json_dict(include_records=False)
    assert "records" not in lean and lean["summary"]["mistakes"] == 1


@pytest.mark.parametrize("entry", ["predict_bulk", "predict_until_mistake"])
def test_logged_records_do_not_alias_the_callers_arrays(entry):
    oracle = small_oracle()
    idx = np.array([0, 1, 2, 3], dtype=np.int64)
    margins = np.array([0.4, 0.3, 0.2, 0.1], dtype=np.float64)
    preds = np.array([1, 1, -1, 1], dtype=np.int64)  # the last one is a mistake
    getattr(oracle, entry)(idx, preds, margins, "p")
    before = _state(oracle)
    idx[:] = 99
    margins[:] = -7.0
    preds[:] = 0
    assert _state(oracle) == before


def test_oracle_exposes_truth_for_instrumentation_only():
    oracle = small_oracle()
    assert oracle.instrumentation_ground_truth is not None
    bare = LabelOracle(LabeledDataset(np.eye(2), [1, 1]))
    assert bare.instrumentation_ground_truth is None


def test_predicted_mask_is_a_copy():
    oracle = small_oracle()
    mask = oracle.predicted_mask()
    mask[:] = True
    assert oracle.unpredicted_indices().size == 4
