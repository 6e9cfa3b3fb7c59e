"""Ordered fan-out of independent blocks of work over the usable cores.

The float <-> text paths (save_jsonl, load_jsonl and the CLI's --records
payload) spend their time in CPython's float repr and parse, one block of
rows at a time, and each block's text depends on that block alone. So
the blocks run in worker processes and come back in order, and the bytes
do not depend on the core count.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import os

# Blocks submitted and not yet taken by the caller, per worker. The parent
# holds at most this many blocks' jobs and results per worker.
_IN_FLIGHT = 2
# Fewer jobs run in this process: starting and stopping a pool takes about
# 13 ms on two cores, the time of two or three blocks.
_MIN_JOBS = 4

# A worker's function and shared arguments, set once by _start_worker in
# each worker process, never in the parent.
_worker_call = None


def _start_worker(fn, shared: tuple) -> None:
    global _worker_call
    _worker_call = functools.partial(fn, *shared)


def _run(job):
    return _worker_call(job)


@contextlib.contextmanager
def ordered_map(fn, jobs, shared: tuple = ()):
    """Yield an iterator over fn(*shared, job) for each job, in job order.

    With one usable core, or fewer than _MIN_JOBS jobs, it is the builtin
    map in this process. Otherwise a pool of forked workers, one per usable
    core but no more than there are jobs, runs the jobs, _IN_FLIGHT at a
    time per worker. The workers receive `fn` and `shared` through the
    fork, not by pickling; each job and result is pickled. Leaving the
    block, by the end of the jobs or by an exception, cancels the jobs not
    yet started and shuts the pool down. An exception raised by fn is
    raised when its result is reached.
    """
    jobs = iter(jobs)
    cores = len(os.sched_getaffinity(0))
    head = list(itertools.islice(jobs, max(_MIN_JOBS, cores)))
    if cores == 1 or len(head) < _MIN_JOBS:
        yield map(functools.partial(fn, *shared), itertools.chain(head, jobs))
        return
    workers = min(cores, len(head))
    # Imported here: concurrent.futures pulls in logging, which every CLI
    # call would pay at startup.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Fork: the workers run no BLAS and start from the parent's memory, so
    # the shared arrays cost no copy and no pickling.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn, shared))
    try:
        yield _in_order(pool, itertools.chain(head, jobs), workers * _IN_FLIGHT)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _in_order(pool, jobs, limit: int):
    pending = collections.deque(pool.submit(_run, job) for job in itertools.islice(jobs, limit))
    while pending:
        result = pending.popleft().result()
        pending.extend(pool.submit(_run, job) for job in itertools.islice(jobs, 1))
        yield result
