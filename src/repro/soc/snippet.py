"""Workload snippets and snippet traces.

Following DyPO [3] and the offline-IL works [18, 19], applications are
segmented into *workload-conservative snippets* — windows containing a fixed
number of dynamic instructions.  A snippet carries the micro-architectural
characteristics that determine how it responds to frequency, core-count and
cluster-assignment decisions.

A :class:`SnippetTrace` is an immutable sequence of snippets held as arrays:
one float row of :data:`TRACE_COLUMNS` per snippet plus its application
name and index.  Generators and scenario transforms work on those arrays;
a :class:`Snippet` object is built only when a caller reads its row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index as _as_index, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Default snippet length (dynamic instructions) used by the IL experiments.
DEFAULT_SNIPPET_INSTRUCTIONS: float = 20e6


@dataclass
class SnippetCharacteristics:
    """Micro-architectural characteristics of one snippet.

    Parameters
    ----------
    memory_intensity:
        L2 misses per kilo-instruction (MPKI) — the main driver of
        memory-boundedness and therefore of the optimal frequency.
    memory_access_rate:
        L1 data accesses per instruction (0-1).
    external_request_rate:
        Fraction of L2 misses that reach DRAM (non-cache external requests).
    branch_misprediction_mpki:
        Branch mispredictions per kilo-instruction.
    ilp_factor:
        Fraction of the cluster's peak IPC this snippet can sustain (0-1].
    parallel_fraction:
        Amdahl parallel fraction of the snippet (0 = fully serial).
    thread_count:
        Number of software threads the snippet exposes.
    big_fraction:
        Fraction of instructions executed on the big cluster (thread-affinity
        of the workload; the remainder runs on the LITTLE cluster).
    """

    memory_intensity: float = 2.0
    memory_access_rate: float = 0.3
    external_request_rate: float = 0.6
    branch_misprediction_mpki: float = 4.0
    ilp_factor: float = 0.8
    parallel_fraction: float = 0.1
    thread_count: int = 1
    big_fraction: float = 0.85

    def __post_init__(self) -> None:
        if self.memory_intensity < 0:
            raise ValueError("memory_intensity must be non-negative")
        if not 0.0 <= self.memory_access_rate <= 1.0:
            raise ValueError("memory_access_rate must be in [0, 1]")
        if not 0.0 <= self.external_request_rate <= 1.0:
            raise ValueError("external_request_rate must be in [0, 1]")
        if self.branch_misprediction_mpki < 0:
            raise ValueError("branch_misprediction_mpki must be non-negative")
        if not 0.0 < self.ilp_factor <= 1.0:
            raise ValueError("ilp_factor must be in (0, 1]")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must be in [0, 1]")
        if self.thread_count < 1:
            raise ValueError("thread_count must be >= 1")
        if not 0.0 <= self.big_fraction <= 1.0:
            raise ValueError("big_fraction must be in [0, 1]")

    def as_dict(self) -> Dict[str, float]:
        return {
            "memory_intensity": self.memory_intensity,
            "memory_access_rate": self.memory_access_rate,
            "external_request_rate": self.external_request_rate,
            "branch_misprediction_mpki": self.branch_misprediction_mpki,
            "ilp_factor": self.ilp_factor,
            "parallel_fraction": self.parallel_fraction,
            "thread_count": float(self.thread_count),
            "big_fraction": self.big_fraction,
        }

    def as_row(self) -> Tuple:
        """Values in :data:`TRACE_COLUMNS` order (after ``n_instructions``)."""
        return (
            self.memory_intensity,
            self.memory_access_rate,
            self.external_request_rate,
            self.branch_misprediction_mpki,
            self.ilp_factor,
            self.parallel_fraction,
            self.thread_count,
            self.big_fraction,
        )


@dataclass
class Snippet:
    """One fixed-instruction-count window of an application."""

    application: str
    index: int
    n_instructions: float = DEFAULT_SNIPPET_INSTRUCTIONS
    characteristics: SnippetCharacteristics = field(default_factory=SnippetCharacteristics)

    def __post_init__(self) -> None:
        if self.n_instructions <= 0:
            raise ValueError("n_instructions must be positive")
        if self.index < 0:
            raise ValueError("index must be non-negative")

    @property
    def name(self) -> str:
        return f"{self.application}[{self.index}]"


#: Column layout of :attr:`SnippetTrace.matrix` rows.
TRACE_COLUMNS = (
    "n_instructions",
    "memory_intensity",
    "memory_access_rate",
    "external_request_rate",
    "branch_misprediction_mpki",
    "ilp_factor",
    "parallel_fraction",
    "thread_count",
    "big_fraction",
)

#: Per-column bounds every trace row must lie in (inclusive).  They are the
#: :class:`Snippet` / :class:`SnippetCharacteristics` checks, with the
#: smallest positive float standing in for the two strict ``> 0`` bounds.
_ROW_LOW = np.array([5e-324, 0.0, 0.0, 0.0, 0.0, 5e-324, 0.0, 1.0, 0.0])
_ROW_HIGH = np.array([np.inf, np.inf, 1.0, 1.0, np.inf, 1.0, 1.0, np.inf, 1.0])


def trace_matrix(snippets: Sequence[Snippet]) -> np.ndarray:
    """``(len(snippets), len(TRACE_COLUMNS))`` float matrix of the snippets'
    length and characteristics, one row per snippet."""
    rows = [(snippet.n_instructions,) + snippet.characteristics.as_row()
            for snippet in snippets]
    return np.array(rows, dtype=float).reshape(len(rows), len(TRACE_COLUMNS))


class SnippetTrace(Sequence[Snippet]):
    """An immutable snippet trace held as arrays.

    ``matrix`` is the read-only ``(n, len(TRACE_COLUMNS))`` float64 matrix
    of every row's length and characteristics — the input layout of the
    vectorized simulator kernels — and ``applications`` / ``indices`` hold
    each row's application name and snippet index.  Reading row ``i``
    builds its :class:`Snippet` the first time and keeps it, so later reads
    return the same object (``trace[i] is trace[i]``).

    The constructor checks every row against the :class:`Snippet` /
    :class:`SnippetCharacteristics` bounds in one vectorised pass.
    :meth:`from_snippets` wraps snippet objects that already exist and
    keeps them as the trace's rows.  A pickled (or deep-copied) trace
    carries its arrays and only those handed objects; a row the trace
    built itself is built again when the copy reads it.
    """

    __slots__ = ("matrix", "applications", "indices", "_snippets", "_given")

    def __init__(
        self,
        matrix: np.ndarray,
        applications: Iterable[str],
        indices: Iterable[int],
        snippets: Optional[List[Optional[Snippet]]] = None,
    ) -> None:
        """Adopt ``matrix`` (not copied) and validate every row.

        ``snippets`` optionally supplies objects already built for some
        rows (``None`` elsewhere); they must match their rows.
        """
        matrix = np.asarray(matrix, dtype=float)
        applications = tuple(applications)
        indices = tuple(map(_as_index, indices))
        if (matrix.ndim != 2 or matrix.shape[1] != len(TRACE_COLUMNS)
                or not len(applications) == len(indices) == len(matrix)):
            raise ValueError(
                f"trace needs an (n, {len(TRACE_COLUMNS)}) matrix and n "
                f"applications and indices, got {matrix.shape}, "
                f"{len(applications)} and {len(indices)}"
            )
        self._adopt(matrix, applications, indices,
                    None if snippets is None else list(snippets), None)
        self._validate()

    @classmethod
    def _from_parts(cls, matrix: np.ndarray, applications: Tuple[str, ...],
                    indices: Tuple[int, ...],
                    given: Optional[Sequence[Optional[Snippet]]],
                    cached: Optional[Sequence[Optional[Snippet]]] = None,
                    ) -> "SnippetTrace":
        """Trace over rows already known to be valid (no checks).

        ``given`` holds the handed objects (``None`` for rows without
        one, or no list at all); ``cached`` the objects already built for
        each row, which default to the handed ones.
        """
        trace = cls.__new__(cls)
        trace._adopt(matrix, applications, indices, given, cached)
        return trace

    def _adopt(self, matrix, applications, indices, given, cached) -> None:
        matrix.flags.writeable = False
        self.matrix = matrix
        self.applications = applications
        self.indices = indices
        if cached is None:
            cached = given
        if given is not None and given.count(None) == len(given):
            given = None  # nothing was handed: keep no second list
        self._given = given
        self._snippets = (list(cached) if cached is not None
                          else [None] * len(indices))

    def _validate(self) -> None:
        matrix = self.matrix
        thread_count = matrix[:, TRACE_COLUMNS.index("thread_count")]
        bounded = (matrix >= _ROW_LOW) & (matrix <= _ROW_HIGH)
        whole = thread_count == np.floor(thread_count)
        if not (bounded.all() and whole.all()):
            row = int(np.flatnonzero(~(bounded.all(axis=1) & whole))[0])
            values = matrix[row].tolist()
            # The constructors raise their own message for the row.
            Snippet(self.applications[row], self.indices[row], values[0],
                    SnippetCharacteristics(*values[1:7], int(values[7]),
                                           values[8]))
            raise ValueError(
                f"trace row {row} is out of bounds: "
                f"{dict(zip(TRACE_COLUMNS, matrix[row].tolist()))}"
            )
        if self.indices and min(self.indices) < 0:
            raise ValueError("index must be non-negative")

    @classmethod
    def from_snippets(cls, snippets: Sequence[Snippet]) -> "SnippetTrace":
        """The trace of ``snippets``, keeping the given objects as its rows.

        A :class:`SnippetTrace` is returned as is.
        """
        if isinstance(snippets, SnippetTrace):
            return snippets
        objects = list(snippets)
        return cls._from_parts(
            trace_matrix(objects),
            tuple(snippet.application for snippet in objects),
            tuple(snippet.index for snippet in objects),
            objects,
        )

    @classmethod
    def concat(cls, traces: Sequence["SnippetTrace"]) -> "SnippetTrace":
        """The rows of one or more ``traces``, one trace after the other."""
        given = None
        if any(trace._given is not None for trace in traces):
            given = [snippet for trace in traces
                     for snippet in (trace._given or [None] * len(trace))]
        return cls._from_parts(
            np.concatenate([trace.matrix for trace in traces]),
            sum((trace.applications for trace in traces), ()),
            sum((trace.indices for trace in traces), ()),
            given,
            [snippet for trace in traces for snippet in trace._snippets],
        )

    def take(self, rows: Sequence[int]) -> "SnippetTrace":
        """Trace of rows ``rows`` in that order (keeping built objects)."""
        rows = list(rows)
        if len(rows) > 1:
            gather = itemgetter(*rows)
        else:
            def gather(values):
                return tuple(values[row] for row in rows)
        return SnippetTrace._from_parts(
            self.matrix[rows],
            gather(self.applications),
            gather(self.indices),
            None if self._given is None else gather(self._given),
            gather(self._snippets),
        )

    def same_rows(self, other: "SnippetTrace") -> bool:
        """Whether ``other`` holds exactly these rows in the same order."""
        return other is self or (
            self.applications == other.applications
            and self.indices == other.indices
            and np.array_equal(self.matrix, other.matrix)
        )

    def unique_names(self) -> bool:
        """Whether no two rows share a snippet name (application, index)."""
        return len(set(zip(self.applications, self.indices))) == len(self)

    def _build(self, row: int) -> Snippet:
        """Row ``row`` as a :class:`Snippet`.

        Every row was checked against the constructors' bounds when the
        trace was built, so the objects are assembled without running the
        checks again (this is on the per-step path of every fleet run).
        Fields are set one by one, in declaration order, so the instances
        keep the compact key-sharing ``__dict__`` of constructed ones.
        """
        (n_instructions, memory_intensity, memory_access_rate,
         external_request_rate, branch_misprediction_mpki, ilp_factor,
         parallel_fraction, thread_count,
         big_fraction) = self.matrix[row].tolist()
        chars = SnippetCharacteristics.__new__(SnippetCharacteristics)
        chars.memory_intensity = memory_intensity
        chars.memory_access_rate = memory_access_rate
        chars.external_request_rate = external_request_rate
        chars.branch_misprediction_mpki = branch_misprediction_mpki
        chars.ilp_factor = ilp_factor
        chars.parallel_fraction = parallel_fraction
        chars.thread_count = int(thread_count)
        chars.big_fraction = big_fraction
        snippet = Snippet.__new__(Snippet)
        snippet.application = self.applications[row]
        snippet.index = self.indices[row]
        snippet.n_instructions = n_instructions
        snippet.characteristics = chars
        return snippet

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[row] for row in range(*item.indices(len(self)))]
        snippets = self._snippets
        snippet = snippets[item]
        if snippet is None:
            row = item + len(snippets) if item < 0 else item
            snippet = snippets[row] = self._build(row)
        return snippet

    def __iter__(self) -> Iterator[Snippet]:
        for row in range(len(self)):
            yield self[row]

    def __reduce__(self):
        return (SnippetTrace._from_parts,
                (self.matrix, self.applications, self.indices, self._given))
