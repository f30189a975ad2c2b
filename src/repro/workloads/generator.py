"""Snippet trace generation from workload specifications.

Given a :class:`~repro.workloads.spec.WorkloadSpec`, the generator samples the
per-snippet characteristics around each phase's mean with the configured
jitter and writes them straight into the rows of a
:class:`~repro.soc.snippet.SnippetTrace`, the trace the SoC simulator
executes.  No :class:`~repro.soc.snippet.Snippet` object is built until a
caller reads a row, except for zero-jitter phases, whose snippets keep the
phase's own values (and their Python types) and are built up front.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.snippet import (
    TRACE_COLUMNS,
    Snippet,
    SnippetCharacteristics,
    SnippetTrace,
)
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.spec import WorkloadSpec

#: Bounds of the five jittered characteristics, in draw order: memory
#: intensity, memory access rate, external request rate, branch MPKI, ILP.
_JITTER_LOW = np.array([0.0, 0.0, 0.0, 0.0, 0.05])
_JITTER_HIGH = np.array([np.inf, 1.0, 1.0, np.inf, 1.0])


def _clip(value: float, low: float, high: float) -> float:
    return float(min(max(value, low), high))


def _steady_row(base: SnippetCharacteristics) -> Tuple:
    """``base`` clipped into the jitter bounds (what zero jitter samples),
    in :meth:`~repro.soc.snippet.SnippetCharacteristics.as_row` order."""
    return (
        max(0.0, base.memory_intensity),
        _clip(base.memory_access_rate, 0.0, 1.0),
        _clip(base.external_request_rate, 0.0, 1.0),
        max(0.0, base.branch_misprediction_mpki),
        _clip(base.ilp_factor, 0.05, 1.0),
        _clip(base.parallel_fraction, 0.0, 1.0),
        base.thread_count,
        _clip(base.big_fraction, 0.0, 1.0),
    )


def sample_characteristics(
    base: SnippetCharacteristics,
    jitter: float,
    rng: np.random.Generator,
    out: np.ndarray,
) -> Tuple:
    """Fill ``out`` with snippets' characteristics jittered around ``base``.

    ``out`` is an ``(n, 8)`` float view in the characteristic columns of
    :data:`~repro.soc.snippet.TRACE_COLUMNS`.  One ``(n, 5)`` normal draw
    covers every row: row-major order is the per-snippet, per-field order
    of five scalar draws per snippet, so the values and the generator's
    final state equal a snippet-by-snippet loop.  ``jitter == 0`` draws
    nothing and fills every row with the clipped base values.  Returns
    those clipped base values (with their own Python types).
    """
    steady = _steady_row(base)
    out[:] = steady
    if jitter != 0.0:
        means = np.array(base.as_row()[:5])
        values = means * np.exp(rng.normal(0.0, jitter, size=(len(out), 5)))
        out[:, :5] = np.minimum(np.maximum(values, _JITTER_LOW), _JITTER_HIGH)
    return steady


class SnippetTraceGenerator:
    """Expands workload specs into concrete snippet traces."""

    def __init__(self, seed: SeedLike = None) -> None:
        self.rng = make_rng(seed)

    def generate(
        self,
        spec: WorkloadSpec,
        rng: Optional[np.random.Generator] = None,
    ) -> SnippetTrace:
        """Generate the snippet trace for one application run."""
        return self.generate_many([spec], rng=rng)

    def generate_many(
        self,
        specs: Sequence[WorkloadSpec],
        rng: Optional[np.random.Generator] = None,
    ) -> SnippetTrace:
        """Concatenate traces for several applications, in the given order.

        Every application's rows are sampled straight into one matrix,
        spec by spec and phase by phase.
        """
        local_rng = rng if rng is not None else self.rng
        counts = [spec.n_snippets for spec in specs]
        n = sum(counts)
        matrix = np.empty((n, len(TRACE_COLUMNS)))
        applications: List[str] = []
        indices: List[int] = []
        snippets: List[Optional[Snippet]] = [None] * n
        row = 0
        for spec, count in zip(specs, counts):
            first = row
            applications.extend([spec.name] * count)
            indices.extend(range(count))
            matrix[row:row + count, 0] = spec.snippet_instructions
            for phase in spec.phases:
                stop = row + phase.n_snippets
                steady = sample_characteristics(
                    phase.characteristics, phase.jitter, local_rng,
                    matrix[row:stop, 1:])
                if phase.jitter == 0.0:
                    # Zero jitter keeps the phase's own values and types,
                    # so these snippets are built as the base describes.
                    for at in range(row, stop):
                        snippets[at] = Snippet(
                            application=spec.name,
                            index=at - first,
                            n_instructions=spec.snippet_instructions,
                            characteristics=SnippetCharacteristics(*steady),
                        )
                row = stop
        return SnippetTrace(matrix, applications, indices, snippets)
