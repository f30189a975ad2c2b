"""Per-snippet trace sampling: the reference for the phase-at-a-time generator.

:class:`ScalarTraceGenerator` draws each snippet's five lognormal jitter
factors one scalar ``rng.normal`` call at a time, and
:func:`bursty_idle_transform` is the matching per-snippet twin of
:meth:`repro.scenarios.transforms.BurstyIdle._transform`.  The library
samples a whole phase (or idle gap) with one ``(n, 5)`` draw; the tests in
``tests/test_workloads.py`` pin that both produce equal characteristics and
leave the generator in the same state.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.scenarios.base import ScenarioTrace
from repro.soc.snippet import Snippet, SnippetCharacteristics
from repro.workloads.spec import WorkloadSpec


def _clip(value: float, low: float, high: float) -> float:
    return float(min(max(value, low), high))


def _jittered(base: SnippetCharacteristics, jitter: float,
              rng: np.random.Generator) -> SnippetCharacteristics:
    def wobble(value: float) -> float:
        if jitter == 0.0:
            return value
        return value * float(np.exp(rng.normal(0.0, jitter)))

    return SnippetCharacteristics(
        memory_intensity=max(0.0, wobble(base.memory_intensity)),
        memory_access_rate=_clip(wobble(base.memory_access_rate), 0.0, 1.0),
        external_request_rate=_clip(wobble(base.external_request_rate),
                                    0.0, 1.0),
        branch_misprediction_mpki=max(
            0.0, wobble(base.branch_misprediction_mpki)),
        ilp_factor=_clip(wobble(base.ilp_factor), 0.05, 1.0),
        parallel_fraction=_clip(base.parallel_fraction, 0.0, 1.0),
        thread_count=base.thread_count,
        big_fraction=_clip(base.big_fraction, 0.0, 1.0),
    )


class ScalarTraceGenerator:
    """Snippet-by-snippet twin of ``SnippetTraceGenerator.generate``."""

    def generate(self, spec: WorkloadSpec,
                 rng: np.random.Generator) -> List[Snippet]:
        snippets: List[Snippet] = []
        index = 0
        for phase in spec.phases:
            for _ in range(phase.n_snippets):
                snippets.append(Snippet(
                    application=spec.name,
                    index=index,
                    n_instructions=spec.snippet_instructions,
                    characteristics=_jittered(phase.characteristics,
                                              phase.jitter, rng),
                ))
                index += 1
        return snippets


def bursty_idle_transform(scenario, snippets: Tuple[Snippet, ...],
                          rng: np.random.Generator) -> ScenarioTrace:
    """Per-snippet twin of ``BurstyIdle._transform``."""
    idle_base = SnippetCharacteristics(
        memory_intensity=0.3, memory_access_rate=0.10,
        external_request_rate=0.30, branch_misprediction_mpki=1.0,
        ilp_factor=0.6, parallel_fraction=0.0, thread_count=1,
        big_fraction=0.1,
    )
    idle_instructions = max(
        1.0,
        scenario.idle_instruction_fraction
        * float(np.median([s.n_instructions for s in snippets])),
    )
    out: List[Snippet] = []
    idle_index = 0
    for position, snippet in enumerate(snippets, start=1):
        out.append(snippet)
        if position % scenario.burst == 0 and position < len(snippets):
            for _ in range(scenario.idle_gap):
                out.append(Snippet(
                    application="idle",
                    index=idle_index,
                    n_instructions=idle_instructions,
                    characteristics=_jittered(idle_base,
                                              scenario.idle_jitter, rng),
                ))
                idle_index += 1
    return ScenarioTrace(out)
