"""The CLI's --out writer: streamed --records payloads, byte for byte."""

import json
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

import sdlc.cli as cli
from sdlc.cli import _RECORD_BLOCK, _write_json, main
from sdlc.fanout import _MIN_JOBS
from sdlc.transcript import Transcript


def _reference_write(path, payload, transcript=None):
    """One dict per record, then json.dump: the writer the streamed one replaces."""
    if transcript is not None:
        records = [{"index": r.index, "prediction": r.prediction, "truth": r.truth,
                    "margin": r.margin, "phase": r.phase} for r in transcript.records()]
        payload = {**payload, "transcript": {**payload["transcript"], "records": records}}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _payload(transcript):
    return {"mode": "test", "seed": 3, "summary": transcript.summary(),
            "transcript": transcript.to_json_dict()}


def _assert_same_bytes(tmp_path, payload, transcript=None):
    streamed, reference = tmp_path / "streamed.json", tmp_path / "reference.json"
    _write_json(str(streamed), payload, transcript)
    _reference_write(str(reference), payload, transcript)
    assert streamed.read_bytes() == reference.read_bytes()
    return streamed


@pytest.mark.parametrize("argv", [
    ["run-sphere", "--n", "2000", "--d", "5"],
    ["run-sphere", "--n", "100", "--d", "10"],  # the schedule falls back
    ["run-arbitrary", "--family", "clustered", "--n", "800", "--d", "4"],
    ["baseline", "--order", "random", "--n", "1500", "--d", "4"],
    ["baseline", "--order", "greedy", "--n", "600", "--d", "4"],
], ids=["run-sphere", "run-sphere-fallback", "run-arbitrary", "baseline-random", "baseline-greedy"])
def test_cli_records_match_the_reference_writer(argv, tmp_path, monkeypatch, capsys):
    seen = []

    def write_both(path, payload, records=None):
        _write_json(path, payload, records)
        _reference_write(path + ".ref", payload, records)
        seen.append(records)

    monkeypatch.setattr(cli, "_write_json", write_both)
    out = tmp_path / "run.json"
    assert main([*argv, "--seed", "7", "--records", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(seen) == 1 and len(seen[0]) > 0
    assert out.read_bytes() == (tmp_path / "run.json.ref").read_bytes()
    assert len(json.loads(out.read_text())["transcript"]["records"]) == len(seen[0])


def test_payload_without_records_is_json_dump(tmp_path):
    payload = {"seed": 0, "all_passed": True,
               "checks": [{"name": "x", "empirical": 0.1, "bound": float("inf")}]}
    _assert_same_bytes(tmp_path, payload)


def test_empty_transcript_writes_an_empty_list(tmp_path):
    t = Transcript()
    out = _assert_same_bytes(tmp_path, _payload(t), t)
    assert '"records": [],' in out.read_text()


def test_phases_needing_escapes_and_non_finite_margins(tmp_path):
    t = Transcript()
    odd = 'a "quoted" {brace} %s \\ tab\t é ∞\n'
    t.append_chunk([4, 0, 2], [1, -1, 1], [1, 1, -1], [np.nan, np.inf, -0.0], odd)
    t.append_chunk([1], [-1], [-1], [-np.inf], "train-v")
    t.append_chunk([3, 5], [1, 1], [1, 1], [0.0, 1e-300], odd)
    t.append_chunk([6], [1], [-1], [2.5e16], "")
    text = _assert_same_bytes(tmp_path, _payload(t), t).read_text()
    for spelling in ("NaN", "Infinity", "-Infinity", "-0.0"):
        assert f'"margin": {spelling},' in text


@pytest.mark.parametrize("sizes", [
    [1],
    [_RECORD_BLOCK - 1],
    [_RECORD_BLOCK],
    [_RECORD_BLOCK + 1],
    [_RECORD_BLOCK - 1, 2, 2 * _RECORD_BLOCK + 3],
], ids=["one", "below", "on", "across", "chunks"])
def test_chunks_below_on_and_across_the_block_edge(sizes, tmp_path):
    rng = np.random.default_rng(sum(sizes))
    t = Transcript()
    start = 0
    for j, size in enumerate(sizes):
        margins = rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size=size)
        if size > _RECORD_BLOCK:
            margins[_RECORD_BLOCK] = np.nan  # a non-finite margin in a later block only
        t.append_chunk(np.arange(start, start + size), rng.choice([-1, 1], size=size),
                       rng.choice([-1, 1], size=size), margins, f"phase-{j % 2}")
        start += size
    _assert_same_bytes(tmp_path, _payload(t), t)


@pytest.mark.parametrize("command", [["run-sphere"], ["baseline", "--order", "random"]],
                         ids=["run-sphere", "baseline"])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "on", "across"])
def test_records_do_not_depend_on_the_core_count(command, offset, tmp_path, monkeypatch, capsys):
    # Every point is predicted once, so the payload holds n records: k blocks and one either side.
    argv = [*command, "--n", str(_MIN_JOBS * _RECORD_BLOCK + offset), "--d", "3", "--seed", "12",
            "--records"]
    assert main([*argv, "--out", str(tmp_path / "all.json")]) == 0
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main([*argv, "--out", str(tmp_path / "one.json")]) == 0
    assert (tmp_path / "all.json").read_bytes() == (tmp_path / "one.json").read_bytes()


def test_streamed_records_peak_memory(tmp_path, monkeypatch):
    # One dict per record and the pure-Python encoder peaked at 23.7 MB here.
    # On one core the records are formatted in this process, where tracemalloc sees them.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    n = 100_000
    rng = np.random.default_rng(0)
    idx, preds, margins = rng.permutation(n), rng.choice([-1, 1], size=n), rng.normal(size=n)
    truths = np.where(rng.random(n) < 0.01, -preds, preds)
    t = Transcript()
    cuts = [0, n // 4, n // 4 + 40, n // 2, n]
    for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
        t.append_chunk(idx[a:b], preds[a:b], truths[a:b], margins[a:b], f"phase-{j}")
    payload = _payload(t)
    tracemalloc.start()
    try:
        _write_json(str(tmp_path / "run.json"), payload, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_records_without_out_format_nothing(tmp_path, monkeypatch, capsys):
    reads = []
    columns = Transcript.columns

    def counted(self):
        reads.append(1)
        return columns(self)

    monkeypatch.setattr(Transcript, "columns", counted)
    assert main(["run-sphere", "--n", "300", "--d", "4", "--records"]) == 0
    assert main(["baseline", "--n", "300", "--d", "4", "--records"]) == 0
    assert reads == []
    assert main(["run-sphere", "--n", "300", "--d", "4", "--records",
                 "--out", str(tmp_path / "run.json")]) == 0
    capsys.readouterr()
    assert reads == [1]
