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
        idx = np.array(indices, dtype=np.int64)
        if idx.size == 0:
            return
        self._chunks.append((
            idx,
            np.array(predictions, dtype=np.int8),
            np.array(truths, dtype=np.int8),
            np.array(margins, dtype=np.float64),
            phase,
        ))

    def __len__(self) -> int:
        return sum(c[0].size for c in self._chunks)

    @property
    def mistakes(self) -> int:
        return int(sum(np.count_nonzero(c[1] != c[2]) for c in self._chunks))

    def mistakes_in_phase(self, phase: str) -> int:
        return int(sum(np.count_nonzero(c[1] != c[2]) for c in self._chunks if c[4] == phase))

    def predicted_indices(self) -> np.ndarray:
        if not self._chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([c[0] for c in self._chunks])

    def phases(self) -> list[str]:
        seen: list[str] = []
        for c in self._chunks:
            if c[4] not in seen:
                seen.append(c[4])
        return seen

    def records(self) -> Iterator[PredictionRecord]:
        for idx, preds, truths, margins, phase in self._chunks:
            for i in range(idx.size):
                yield PredictionRecord(
                    int(idx[i]), int(preds[i]), int(truths[i]), float(margins[i]), phase,
                )

    def summary(self) -> dict:
        return {
            "predictions": len(self),
            "mistakes": self.mistakes,
            "mistakes_by_phase": {p: self.mistakes_in_phase(p) for p in self.phases()},
        }

    def to_json_dict(self, include_records: bool = True) -> dict:
        out = {"summary": self.summary()}
        if include_records:
            out["records"] = [
                {"index": r.index, "prediction": r.prediction, "truth": r.truth,
                 "margin": r.margin, "phase": r.phase}
                for r in self.records()
            ]
        return out


class LabelOracle:
    """Wraps a dataset; reveals a label only in exchange for a prediction.

    The points (and dimension) are public. Labels are private until
    predicted. Ground truth, when present, is exposed separately under an
    instrumentation-only name - learners must not touch it.
    """

    def __init__(self, ds: LabeledDataset):
        self._ds = ds
        self._labels = ds.labels
        self._predicted = np.zeros(ds.n, dtype=bool)
        self._stamp = np.empty(ds.n, dtype=np.int64)
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

    @property
    def instrumentation_ground_truth(self) -> np.ndarray | None:
        return self._ds.ground_truth

    def predicted_mask(self) -> np.ndarray:
        return self._predicted.copy()

    def unpredicted_indices(self) -> np.ndarray:
        return np.flatnonzero(~self._predicted)

    def all_predicted(self) -> bool:
        return bool(self._predicted.all())

    @property
    def mistakes(self) -> int:
        return self.transcript.mistakes

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
        idx = np.asarray(indices, dtype=np.int64)
        raw = np.asarray(predictions)
        margins = np.asarray(margins, dtype=np.float64)
        if idx.ndim != 1 or raw.shape != idx.shape or margins.shape != idx.shape:
            raise ValueError("indices, predictions and margins must be 1-D arrays of equal length")
        if not np.all((raw == 1) | (raw == -1)):
            raise ValueError("predictions must be -1 or +1")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ProtocolError(f"index out of range [0, {self.n})")
        # Duplicate check in O(m): positions naming the same index read
        # back one stamp, so at least one of them differs from its own.
        positions = np.arange(idx.size)
        self._stamp[idx] = positions
        if not np.array_equal(self._stamp[idx], positions):
            raise ProtocolError("an index appears twice in one commit")
        if self._predicted[idx].any():
            raise ProtocolError("commit touches an already-predicted index")
        preds = raw.astype(np.int64)
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
