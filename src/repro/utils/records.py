"""Column-oriented run logs used by policy sessions and experiments.

A :class:`RunLog` keeps one float64 array per named column plus the step
index of every row, so a session's per-step values (energy, time, power,
chosen OPPs, Oracle agreement, ...) live in a few arrays instead of one
object per step.  Experiments read whole columns without depending on
pandas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class RunRecord:
    """One row of a list-backed log: a step index plus named scalar values.

    Logs no longer hold records; the class stays so that session snapshots
    written while they did (format version 1) still unpickle.
    """

    step: int
    values: Dict[str, float] = field(default_factory=dict)

    def get(self, key: str, default: float = float("nan")) -> float:
        return self.values.get(key, default)


class RunLog:
    """Append-only log of per-step float values, one array per column.

    ``capacity`` preallocates that many rows (a session passes its trace
    length); appending past it doubles the arrays.  A column's array is
    allocated, filled with NaN, on its first write, so a row that lacks a
    column reads NaN there and a column no row wrote does not exist.
    Columns keep the order of their first write.
    """

    def __init__(self, capacity: int = 0) -> None:
        self._rows = 0
        self._steps = np.empty(capacity)
        self._columns: Dict[str, np.ndarray] = {}
        # Rows that wrote NaN on purpose, per column: column() replaces
        # only the NaN of rows that lack the column by its default.
        self._nan_rows: Dict[str, List[int]] = {}

    def append(self, step: int, **values: float) -> None:
        """Write one row: its step index and the values of some columns."""
        row = self._rows
        if row == len(self._steps):
            self._grow()
        self._steps[row] = step
        columns = self._columns
        for key, value in values.items():
            column = columns.get(key)
            if column is None:
                column = columns[key] = np.full(len(self._steps), np.nan)
            column[row] = value
            if value != value:
                self._nan_rows.setdefault(key, []).append(row)
        self._rows = row + 1

    def _grow(self) -> None:
        capacity = max(8, 2 * len(self._steps))
        steps = np.empty(capacity)
        steps[:self._rows] = self._steps[:self._rows]
        self._steps = steps
        for key, column in self._columns.items():
            grown = np.full(capacity, np.nan)
            grown[:self._rows] = column[:self._rows]
            self._columns[key] = grown

    def __len__(self) -> int:
        return self._rows

    def column(self, key: str, default: float = float("nan")) -> np.ndarray:
        """The values of ``key`` per row; ``default`` where a row lacks it."""
        column = self._columns.get(key)
        if column is None:
            return np.full(self._rows, default, dtype=float)
        values = column[:self._rows].copy()
        if default == default:
            missing = np.isnan(values)
            missing[self._nan_rows.get(key, [])] = False
            values[missing] = default
        return values

    def _filled(self) -> Dict[str, np.ndarray]:
        """Views of the filled rows of ``step`` and of every column."""
        out = {"step": self._steps[:self._rows]}
        for key, column in self._columns.items():
            out[key] = column[:self._rows]
        return out

    def to_dict(self) -> Dict[str, List[float]]:
        """Return the log as a column-oriented dictionary of float lists."""
        return {key: values.tolist() for key, values in self._filled().items()}

    def update_digest(self, digest) -> None:
        """Feed every column into hash ``digest``, sorted by name.

        Each column contributes its UTF-8 name and its filled rows as
        little-endian float64 bytes; an empty log contributes nothing.
        """
        if not self._rows:
            return
        columns = self._filled()
        for key in sorted(columns):
            digest.update(key.encode("utf-8"))
            digest.update(columns[key].astype("<f8", copy=False).tobytes())
