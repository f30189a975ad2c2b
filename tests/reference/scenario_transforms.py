"""Object-based scenario transforms: the reference for the array transforms.

These are the snippet-by-snippet forms of the built-in transforms in
:mod:`repro.scenarios.transforms`, which now work on the arrays of a
:class:`~repro.soc.snippet.SnippetTrace`.  :func:`reference_apply` runs a
registered scenario spec through them (plus
:func:`reference.trace_generator.bursty_idle_transform` for
``BurstyIdle``) with the checks of ``ScenarioSpec.apply``; the tests in
``tests/test_scenarios.py`` pin that both produce the same rows, names,
throttle events and final generator state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.scenarios import (
    BurstyIdle,
    CharacteristicDrift,
    CompositeScenario,
    ConcurrentMix,
    PhaseChurn,
    ScenarioTrace,
    ThermalThrottle,
    ThrottleEvent,
)
from repro.soc.snippet import Snippet

from reference.trace_generator import bursty_idle_transform


def _clip(value: float, low: float, high: float) -> float:
    return float(min(max(value, low), high))


def round_robin_blocks(snippets: Tuple[Snippet, ...],
                       rng: np.random.Generator,
                       block: int) -> List[Snippet]:
    """Per-snippet twin of ``transforms._round_robin_blocks``."""
    if block < 1:
        raise ValueError("block must be >= 1")
    groups: Dict[str, deque] = {}
    for snippet in snippets:
        groups.setdefault(snippet.application, deque()).append(snippet)
    order = [str(app) for app in rng.permutation(list(groups))]
    out: List[Snippet] = []
    while len(out) < len(snippets):
        for app in order:
            queue = groups[app]
            for _ in range(min(block, len(queue))):
                out.append(queue.popleft())
    return out


def thermal_throttle_transform(scenario: ThermalThrottle,
                               snippets: Tuple[Snippet, ...],
                               rng: np.random.Generator) -> ScenarioTrace:
    """Per-snippet twin of ``ThermalThrottle._transform``."""
    n = len(snippets)
    window = max(1, int(round(scenario.duty * scenario.period)))
    events: List[ThrottleEvent] = []
    for origin in range(0, n, scenario.period):
        slack = max(1, scenario.period - window)
        offset = int(rng.integers(0, slack))
        start = origin + offset
        stop = min(n, start + window)
        if start < n:
            events.append(ThrottleEvent(start=start, stop=stop,
                                        max_opp_index=scenario.max_opp_index))
    return ScenarioTrace(list(snippets), throttle_events=tuple(events))


def characteristic_drift_transform(scenario: CharacteristicDrift,
                                   snippets: Tuple[Snippet, ...],
                                   rng: np.random.Generator) -> ScenarioTrace:
    """Per-snippet twin of ``CharacteristicDrift._transform``."""
    n = len(snippets)
    out: List[Snippet] = []
    for i, snippet in enumerate(snippets):
        progress = i / (n - 1) if n > 1 else 1.0
        wobble = 1.0
        if scenario.jitter > 0.0:
            wobble = float(np.exp(rng.normal(0.0, scenario.jitter)))
        chars = snippet.characteristics
        drifted = replace(
            chars,
            memory_intensity=max(
                0.0,
                chars.memory_intensity
                * scenario.memory_intensity_scale ** progress * wobble,
            ),
            ilp_factor=_clip(
                chars.ilp_factor * scenario.ilp_scale ** progress, 0.05, 1.0
            ),
        )
        out.append(replace(snippet, characteristics=drifted))
    return ScenarioTrace(out)


def _transform(scenario, snippets: Tuple[Snippet, ...],
               rng: np.random.Generator) -> ScenarioTrace:
    if isinstance(scenario, PhaseChurn):
        return ScenarioTrace(round_robin_blocks(snippets, rng, scenario.block))
    if isinstance(scenario, ConcurrentMix):
        return ScenarioTrace(
            round_robin_blocks(snippets, rng, scenario.slice_snippets))
    if isinstance(scenario, BurstyIdle):
        return bursty_idle_transform(scenario, snippets, rng)
    if isinstance(scenario, ThermalThrottle):
        return thermal_throttle_transform(scenario, snippets, rng)
    if isinstance(scenario, CharacteristicDrift):
        return characteristic_drift_transform(scenario, snippets, rng)
    if isinstance(scenario, CompositeScenario):
        current: List[Snippet] = list(snippets)
        events: List[ThrottleEvent] = []
        for child in scenario.children:
            trace = reference_apply(child, current, rng)
            current = list(trace.snippets)
            events.extend(trace.throttle_events)
        return ScenarioTrace(current, throttle_events=tuple(events))
    raise TypeError(f"no reference transform for {type(scenario).__name__}")


def reference_apply(scenario, snippets: Sequence[Snippet],
                    rng: np.random.Generator) -> ScenarioTrace:
    """``scenario.apply(snippets, rng)`` through the per-snippet twins."""
    trace = _transform(scenario, tuple(snippets), rng)
    trace.scenario_name = scenario.name
    names = [snippet.name for snippet in trace.snippets]
    assert names and len(set(names)) == len(names)
    return trace
