"""List-of-records run log: the reference for the column-array ``RunLog``.

:class:`ReferenceRunLog` keeps one :class:`~repro.utils.records.RunRecord`
(a step index plus a dict of floats) per row, the layout logs had before
they were held as one float64 array per column.  :func:`reference_digest`
hashes its columns the way ``PolicySession.state_digest`` did then, one
``struct.pack`` per column.  ``tests/test_utils.py`` pins that both logs
give the same ``to_dict``, ``column`` and digest bytes.
"""

from __future__ import annotations

import struct
from typing import Dict, List

import numpy as np

from repro.utils.records import RunRecord


class ReferenceRunLog:
    """Append-only log of :class:`RunRecord` objects."""

    def __init__(self) -> None:
        self._records: List[RunRecord] = []

    def append(self, step: int, **values: float) -> RunRecord:
        record = RunRecord(step=step,
                           values={k: float(v) for k, v in values.items()})
        self._records.append(record)
        return record

    def __len__(self) -> int:
        return len(self._records)

    def column(self, key: str, default: float = float("nan")) -> np.ndarray:
        """Return the values of ``key`` across all records as an array."""
        return np.array([r.get(key, default) for r in self._records],
                        dtype=float)

    def to_dict(self) -> Dict[str, List[float]]:
        """Return the log as a column-oriented dictionary."""
        keys: List[str] = []
        for record in self._records:
            for key in record.values:
                if key not in keys:
                    keys.append(key)
        out: Dict[str, List[float]] = {
            "step": [float(r.step) for r in self._records]}
        for key in keys:
            out[key] = [r.get(key) for r in self._records]
        return out


def reference_digest(log: ReferenceRunLog, digest) -> None:
    """Feed ``log``'s columns into ``digest`` as ``state_digest`` did."""
    columns = log.to_dict() if len(log) else {}
    for key in sorted(columns):
        values = columns[key]
        digest.update(key.encode("utf-8"))
        digest.update(struct.pack(f"<{len(values)}d", *values))
