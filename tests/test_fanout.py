"""The ordered fan-out under the JSONL and --records writers: order, errors, pool size."""

import concurrent.futures
import multiprocessing
import os

import numpy as np
import pytest

from sdlc.fanout import _MIN_JOBS, ordered_map


def _scaled(factor: int, row: int) -> bytes:
    return (factor * np.arange(row, row + 3)).tobytes()


def _fail_on(bad: int, job: int) -> int:
    if job == bad:
        raise ValueError(f"job {bad} failed")
    return job


def test_results_come_back_in_job_order():
    jobs = range(5 * _MIN_JOBS)
    with ordered_map(_scaled, jobs, (7,)) as results:
        assert list(results) == [_scaled(7, row) for row in jobs]
    assert multiprocessing.active_children() == []


def test_an_error_is_raised_at_its_job_and_the_pool_is_gone():
    seen = []
    with pytest.raises(ValueError, match="job 9 failed"):
        with ordered_map(_fail_on, range(100), (9,)) as results:
            seen.extend(results)
    assert seen == list(range(9))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs, workers", [(_MIN_JOBS, _MIN_JOBS), (64, 64), (1000, 64)])
def test_no_more_workers_than_cores_or_jobs(jobs, workers, monkeypatch):
    # No process is started: the pool is a stand-in that records its size.
    made = []

    class Pool:
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)
            raise RuntimeError("stand-in pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    with pytest.raises(RuntimeError, match="stand-in pool"):
        with ordered_map(_fail_on, range(jobs), (-1,)):
            pass
    assert made == [workers]
