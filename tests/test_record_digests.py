"""Pinned record digests: a speed change must not move a single prediction.

Each run's transcript is flattened to its (index, prediction, truth,
phase) columns in commit order and hashed with sha256. Chunk boundaries
are left out, so a kernel may commit in larger or smaller pieces, and so
are margins, whose last bits may depend on how BLAS splits a product:
the learners score rows in blocks of 2**14 (perceptron.score_rows), which
read as one product over all the rows on one BLAS thread, while one
product split across two threads moved the last bit of 3 sphere and 5
random-order margins in 10**6 at d=10.
The digests were computed before the windowed ordered-selection kernel
replaced the full-argsort passes and the fixed-block random order; the
subspace_degenerate strong_run's, whose transforms extract a subspace,
before the transform reused one iterate buffer and blocked its residuals.
The Monte-Carlo battery's output is pinned the same way in
`test_harness.py::test_run_verify_seed0`, which runs it anyway.
"""

import hashlib

import numpy as np
import pytest

from sdlc.arbitrary import strong_run
from sdlc.datasets import gen_arbitrary, gen_uniform_sphere
from sdlc.geometry import RngStream
from sdlc.oracles import greedy_adversarial_order, random_order_run
from sdlc.sphere import make_schedule, run_sphere


def record_digest(transcript) -> str:
    records = list(transcript.records())
    h = hashlib.sha256()
    h.update(np.array([r.index for r in records], dtype="<i8").tobytes())
    h.update(np.array([r.prediction for r in records], dtype="i1").tobytes())
    h.update(np.array([r.truth for r in records], dtype="i1").tobytes())
    h.update("\n".join(r.phase for r in records).encode())
    return h.hexdigest()


def _sphere():
    ds = gen_uniform_sphere(10_000, 3, RngStream(11, 0))
    return run_sphere(ds, make_schedule(ds.n, ds.d, 0.1), RngStream(11, 1)).transcript


def _random_order():
    return random_order_run(gen_uniform_sphere(100_000, 10, RngStream(11, 0)), RngStream(11, 2))


def _greedy():
    return greedy_adversarial_order(gen_uniform_sphere(2000, 2, RngStream(12, 0)), rng=RngStream(12, 2))


def _strong():
    ds = gen_arbitrary("clustered", 300, 12, {}, RngStream(13, 0))
    return strong_run(ds, 0.1, 0.1, RngStream(13, 1)).transcript


def _strong_extracting():
    # 9 of its 32 weak runs' transforms extract a 5-dimensional subspace
    ds = gen_arbitrary("subspace_degenerate", 600, 10, {}, RngStream(14, 0))
    return strong_run(ds, 0.1, 0.1, RngStream(14, 1)).transcript


PINNED = {
    "run_sphere n=1e4 d=3": (_sphere, 10_000, 8,
        "fd456a04d0c6b24c9576341dcb9633511c404f9be37a823381faaf606fff6ca4"),
    "random_order_run n=1e5 d=10": (_random_order, 100_000, 124,
        "9461274ca130f9a327803f8eef705b497aeb90e3c4c435f6a10eb6d5b0074aec"),
    "greedy n=2000 d=2": (_greedy, 2000, 457,
        "6c4034dae9429f71471695b1664c5fc94e67bd4cee432c1395e5dc49544ee298"),
    "strong_run clustered n=300 d=12": (_strong, 270, 58,
        "2f6ff87196b7d64be30a7ab2341953d52e60af3cbaebf0ee034f4347740c35b5"),
    "strong_run subspace_degenerate n=600 d=10": (_strong_extracting, 562, 86,
        "5a23e777b0ee14a172587a8c098c0e813b97f20639361b94012de016f992eb81"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_records_match_pinned_digest(name):
    run, predictions, mistakes, digest = PINNED[name]
    transcript = run()
    assert len(transcript) == predictions
    assert transcript.mistakes == mistakes
    assert record_digest(transcript) == digest
