"""Snippet trace generation from workload specifications.

Given a :class:`~repro.workloads.spec.WorkloadSpec`, the generator samples the
per-snippet characteristics around each phase's mean with the configured
jitter, producing the snippet sequence the SoC simulator executes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.soc.snippet import Snippet, SnippetCharacteristics
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.spec import WorkloadSpec

#: Bounds of the five jittered characteristics, in draw order: memory
#: intensity, memory access rate, external request rate, branch MPKI, ILP.
_JITTER_LOW = np.array([0.0, 0.0, 0.0, 0.0, 0.05])
_JITTER_HIGH = np.array([np.inf, 1.0, 1.0, np.inf, 1.0])


def _clip(value: float, low: float, high: float) -> float:
    return float(min(max(value, low), high))


def sample_characteristics(
    base: SnippetCharacteristics,
    jitter: float,
    n: int,
    rng: np.random.Generator,
) -> List[SnippetCharacteristics]:
    """``n`` snippets' characteristics jittered lognormally around ``base``.

    One ``(n, 5)`` normal draw covers all of them: row-major order is the
    per-snippet, per-field order of five scalar draws per snippet, so the
    values and the generator's final state equal a snippet-by-snippet
    loop.  ``jitter == 0`` draws nothing and keeps the base values.
    """
    fixed = dict(
        parallel_fraction=_clip(base.parallel_fraction, 0.0, 1.0),
        thread_count=base.thread_count,
        big_fraction=_clip(base.big_fraction, 0.0, 1.0),
    )
    if jitter == 0.0:
        rows = [(max(0.0, base.memory_intensity),
                 _clip(base.memory_access_rate, 0.0, 1.0),
                 _clip(base.external_request_rate, 0.0, 1.0),
                 max(0.0, base.branch_misprediction_mpki),
                 _clip(base.ilp_factor, 0.05, 1.0))] * n
    else:
        means = np.array([base.memory_intensity, base.memory_access_rate,
                          base.external_request_rate,
                          base.branch_misprediction_mpki, base.ilp_factor])
        values = means * np.exp(rng.normal(0.0, jitter, size=(n, 5)))
        rows = np.minimum(np.maximum(values, _JITTER_LOW),
                          _JITTER_HIGH).tolist()
    return [
        SnippetCharacteristics(
            memory_intensity=mi, memory_access_rate=mar,
            external_request_rate=err, branch_misprediction_mpki=mpki,
            ilp_factor=ilp, **fixed,
        )
        for mi, mar, err, mpki, ilp in rows
    ]


class SnippetTraceGenerator:
    """Expands workload specs into concrete snippet traces."""

    def __init__(self, seed: SeedLike = None) -> None:
        self.rng = make_rng(seed)

    def generate(
        self,
        spec: WorkloadSpec,
        rng: Optional[np.random.Generator] = None,
    ) -> List[Snippet]:
        """Generate the snippet trace for one application run."""
        local_rng = rng if rng is not None else self.rng
        snippets: List[Snippet] = []
        for phase in spec.phases:
            for characteristics in sample_characteristics(
                    phase.characteristics, phase.jitter, phase.n_snippets,
                    local_rng):
                snippets.append(
                    Snippet(
                        application=spec.name,
                        index=len(snippets),
                        n_instructions=spec.snippet_instructions,
                        characteristics=characteristics,
                    )
                )
        return snippets

    def generate_many(
        self,
        specs,
        rng: Optional[np.random.Generator] = None,
    ) -> List[Snippet]:
        """Concatenate traces for several applications, in the given order."""
        local_rng = rng if rng is not None else self.rng
        trace: List[Snippet] = []
        for spec in specs:
            trace.extend(self.generate(spec, rng=local_rng))
        return trace
