"""Prediction transcripts and the predict-before-reveal oracle.

Every learner in this package goes through LabelOracle: a label can only
be read by first committing a prediction for that index, and each index
can be predicted at most once. The three public entry points (`predict`,
`predict_bulk`, `predict_until_mistake`) are thin calls into one private
commit routine, which checks every commit the same way before it reveals
anything: 1-D arrays of equal length, predictions in {-1, +1}, indices in
[0, n), no index twice (an O(m) stamp check) and no index predicted
before. A rejected commit changes nothing. The transcript records
predictions in columnar chunks so million-point runs stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .datasets import LabeledDataset
from .errors import ProtocolError


@dataclass
class PredictionRecord:
    index: int
    prediction: int
    truth: int
    margin: float
    phase: str


class Transcript:
    """Ordered log of (index, prediction, truth, margin, phase) tuples."""

    def __init__(self):
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, str]] = []

    def append_chunk(self, indices, predictions, truths, margins, phase: str) -> None:
        """Log one chunk of predictions.

        Every column is copied: the log never pins the arrays it was
        sliced from, and a caller writing to its arrays later leaves the
        logged records as they were.
        """
        idx = np.array(indices, dtype=np.int32)
        if idx.size == 0:
            return
        cols = (idx, np.array(predictions, dtype=np.int8), np.array(truths, dtype=np.int8),
                np.array(margins, dtype=np.float64))
        for col in cols:
            col.flags.writeable = False
        self._chunks.append((*cols, phase))

    def __len__(self) -> int:
        return sum(c[0].size for c in self._chunks)

    @property
    def mistakes(self) -> int:
        return int(sum(np.count_nonzero(c[1] != c[2]) for c in self._chunks))

    def mistakes_in_phase(self, phase: str) -> int:
        return int(sum(np.count_nonzero(c[1] != c[2]) for c in self._chunks if c[4] == phase))

    def phases(self) -> list[str]:
        seen: list[str] = []
        for c in self._chunks:
            if c[4] not in seen:
                seen.append(c[4])
        return seen

    def columns(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, str]]:
        """The logged chunks in order, as (indices, predictions, truths, margins, phase).

        The arrays are the log's own, read-only: int32 indices (a dataset
        holds fewer than 2**31 points), int8 predictions and truths,
        float64 margins, one phase per chunk.
        """
        yield from self._chunks

    def records(self) -> Iterator[PredictionRecord]:
        for idx, preds, truths, margins, phase in self.columns():
            for i, p, t, m in zip(idx.tolist(), preds.tolist(), truths.tolist(), margins.tolist()):
                yield PredictionRecord(i, p, t, m, phase)

    def summary(self) -> dict:
        return {
            "predictions": len(self),
            "mistakes": self.mistakes,
            "mistakes_by_phase": {p: self.mistakes_in_phase(p) for p in self.phases()},
        }

    def to_json_dict(self) -> dict:
        """The summary as a JSON object; records are written from columns()."""
        return {"summary": self.summary()}


class LabelOracle:
    """Wraps a dataset; reveals a label only in exchange for a prediction.

    The points (and dimension) are public. Labels are private until
    predicted. The dataset's true separator is not exposed at all, so a
    learner holding only the oracle cannot read it.

    Per point it keeps a predicted flag (bool) and an int32 stamp for
    the duplicate check, 5 bytes; the dataset's n < 2**31 keeps every
    position of a commit in an int32. A commit's int8 predictions are
    read without a copy.
    """

    def __init__(self, ds: LabeledDataset):
        self._ds = ds
        self._labels = ds.labels
        self._predicted = np.zeros(ds.n, dtype=bool)
        self._stamp = np.empty(ds.n, dtype=np.int32)
        self.transcript = Transcript()

    @property
    def points(self) -> np.ndarray:
        return self._ds.points

    @property
    def n(self) -> int:
        return self._ds.n

    @property
    def d(self) -> int:
        return self._ds.d

    def predicted_mask(self) -> np.ndarray:
        return self._predicted.copy()

    def unpredicted_indices(self) -> np.ndarray:
        """Indices not yet predicted, ascending, as int32 (n < 2**31)."""
        return np.flatnonzero(~self._predicted).astype(np.int32)

    def all_predicted(self) -> bool:
        return bool(self._predicted.all())

    def predict(self, index: int, prediction: int, margin: float = 0.0, phase: str = "") -> int:
        """Commit a prediction for one index; returns the revealed truth."""
        truths, _ = self._commit([index], [prediction], [margin], phase, until_mistake=False)
        return int(truths[0])

    def predict_bulk(self, indices, predictions, margins, phase: str) -> np.ndarray:
        """Commit many predictions at once; returns the revealed truths.

        Equivalent to calling predict() in a loop - the predictions are
        fixed before any label is revealed, so no information leaks.
        """
        truths, _ = self._commit(indices, predictions, margins, phase, until_mistake=False)
        return truths

    def predict_until_mistake(self, indices, predictions, margins, phase: str) -> tuple[int, bool]:
        """Predict in order, stopping after the first mistake.

        The prediction sequence is committed up front; truths are revealed
        one position at a time, so only labels up to and including the
        first mistake become known. Returns (number revealed, mistake hit).
        Observationally identical to a predict() loop that breaks on the
        first wrong answer.
        """
        truths, hit = self._commit(indices, predictions, margins, phase, until_mistake=True)
        return truths.size, hit

    def _commit(self, indices, predictions, margins, phase: str, until_mistake: bool) -> tuple[np.ndarray, bool]:
        """The one commit path: check everything, then reveal and log.

        Returns the revealed truths and whether the reveal stopped at a
        mistake. A rejected call changes neither the predicted mask nor
        the transcript.
        """
        # As int64 (intp): NumPy fancy-indexes with int32 indices through a
        # cast, which made the index operations below up to 3x slower.
        idx = np.asarray(indices, dtype=np.int64)
        preds = np.asarray(predictions)
        margins = np.asarray(margins, dtype=np.float64)
        if idx.ndim != 1 or preds.shape != idx.shape or margins.shape != idx.shape:
            raise ValueError("indices, predictions and margins must be 1-D arrays of equal length")
        if not np.all((preds == 1) | (preds == -1)):
            raise ValueError("predictions must be -1 or +1")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ProtocolError(f"index out of range [0, {self.n})")
        # More indices than points must repeat one; fewer keep every position in an int32.
        if idx.size > self.n:
            raise ProtocolError("an index appears twice in one commit")
        # Duplicate check in O(m): positions naming the same index read
        # back one stamp, so at least one of them differs from its own.
        positions = np.arange(idx.size, dtype=np.int32)
        self._stamp[idx] = positions
        if not np.array_equal(self._stamp[idx], positions):
            raise ProtocolError("an index appears twice in one commit")
        if self._predicted[idx].any():
            raise ProtocolError("commit touches an already-predicted index")
        truths = self._labels[idx]
        hit = False
        if until_mistake:
            wrong = np.flatnonzero(preds != truths)
            if wrong.size:
                hit = True
                stop = int(wrong[0]) + 1
                idx, preds, truths, margins = idx[:stop], preds[:stop], truths[:stop], margins[:stop]
        self._predicted[idx] = True
        self.transcript.append_chunk(idx, preds, truths, margins, phase)
        return truths, hit
