"""Built-in scenario transforms.

Each transform stresses the online-adaptation story along one axis the
static suite presets never exercise:

* :class:`PhaseChurn` — abrupt application/suite distribution shift every
  ``block`` snippets (the trace keeps switching phases mid-run).
* :class:`BurstyIdle` — bursty arrival pattern: bursts of real work
  separated by near-idle gaps (OS-housekeeping-like snippets).
* :class:`ConcurrentMix` — fine-grained round-robin interleaving of the
  applications, as if several apps time-share the board concurrently.
* :class:`ThermalThrottle` — periodic thermal events that cap the highest
  reachable OPP, shrinking the configuration space for whole windows.
* :class:`CharacteristicDrift` — slow parameterised drift of the snippet
  characteristics (memory intensity ramps up, exploitable ILP decays), so
  the distribution moves away from anything seen at design time.
* :class:`CompositeScenario` — ordered composition of other scenarios
  (used by the registered ``stress_combo``).

Every transform works on the arrays of the input
:class:`~repro.soc.snippet.SnippetTrace`: a row permutation (phase churn,
concurrent mix), inserted rows (bursty idle), scaled columns
(characteristic drift) or the input trace unchanged (thermal throttle).
None of them builds a :class:`~repro.soc.snippet.Snippet` object.

Default instances of all of these are placed in the scenario registry at
import time; see :func:`repro.scenarios.base.available_scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.scenarios.base import (
    ScenarioSpec,
    ScenarioTrace,
    ThrottleEvent,
    register_scenario,
    scenario_from_dict,
)
from repro.soc.snippet import (
    TRACE_COLUMNS,
    SnippetCharacteristics,
    SnippetTrace,
)
from repro.workloads.generator import sample_characteristics


def _round_robin_blocks(trace: SnippetTrace, rng: np.random.Generator,
                        block: int) -> SnippetTrace:
    """Rebuild the trace as rng-ordered application blocks of ``block``.

    Every application keeps its own snippet order; the *global* order is a
    round robin over the applications (visit order shuffled by ``rng``),
    taking ``block`` snippets per visit.  Small blocks model concurrent
    time slicing; large blocks model abrupt phase churn.  The result is a
    row permutation of ``trace``.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    groups: Dict[str, List[int]] = {}
    for row, application in enumerate(trace.applications):
        groups.setdefault(application, []).append(row)
    order = [str(app) for app in rng.permutation(list(groups))]
    longest = max(len(rows) for rows in groups.values())
    rows: List[int] = []
    for offset in range(0, longest, block):
        for app in order:
            rows.extend(groups[app][offset:offset + block])
    return trace.take(rows)


@dataclass(frozen=True)
class PhaseChurn(ScenarioSpec):
    """Abrupt suite-to-suite distribution shift every ``block`` snippets."""

    description = ("abrupt application/suite switches every `block` "
                   "snippets (phase churn)")

    name: str = "phase_churn"
    block: int = 8

    def _transform(self, snippets: SnippetTrace,
                   rng: np.random.Generator) -> ScenarioTrace:
        return ScenarioTrace(_round_robin_blocks(snippets, rng, self.block))


@dataclass(frozen=True)
class ConcurrentMix(ScenarioSpec):
    """Fine-grained interleaving of all applications (concurrent execution)."""

    description = ("round-robin time slicing across all applications "
                   "(concurrent-app interleaving)")

    name: str = "concurrent_mix"
    slice_snippets: int = 2

    def _transform(self, snippets: SnippetTrace,
                   rng: np.random.Generator) -> ScenarioTrace:
        return ScenarioTrace(
            _round_robin_blocks(snippets, rng, self.slice_snippets)
        )


#: Trace-matrix columns CharacteristicDrift rewrites.
_MEMORY_INTENSITY = TRACE_COLUMNS.index("memory_intensity")
_ILP_FACTOR = TRACE_COLUMNS.index("ilp_factor")

#: Mean characteristics of a BurstyIdle gap snippet: tiny, memory-light and
#: LITTLE-leaning, like OS housekeeping between arrivals.
_IDLE_CHARACTERISTICS = SnippetCharacteristics(
    memory_intensity=0.3, memory_access_rate=0.10, external_request_rate=0.30,
    branch_misprediction_mpki=1.0, ilp_factor=0.6, parallel_fraction=0.0,
    thread_count=1, big_fraction=0.1,
)


@dataclass(frozen=True)
class BurstyIdle(ScenarioSpec):
    """Bursts of real work separated by near-idle gaps.

    After every ``burst`` input snippets, ``idle_gap`` synthetic "idle"
    snippets are inserted: tiny, memory-light, LITTLE-leaning windows that
    look like OS housekeeping between arrivals.  Their characteristics get
    a small lognormal jitter from the scenario rng so gaps are not all
    identical.  All gaps are sampled with one draw, in trace order, and
    each gap's idle rows are inserted between the input rows as a block.
    """

    description = ("bursty arrivals: `burst` real snippets separated by "
                   "`idle_gap` near-idle snippets")

    name: str = "bursty_idle"
    burst: int = 10
    idle_gap: int = 3
    idle_jitter: float = 0.10
    idle_instruction_fraction: float = 0.25

    def _transform(self, snippets: SnippetTrace,
                   rng: np.random.Generator) -> ScenarioTrace:
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.idle_gap < 0:
            raise ValueError("idle_gap must be non-negative")
        # statistics.median computes the same (a + b) / 2 as np.median for
        # floats, without importing numpy.ma (15 ms) on first use; it is
        # imported here because its own imports cost about 5 ms and 1 MB,
        # which only traces with idle gaps should pay.
        import statistics

        n = len(snippets)
        idle_instructions = max(
            1.0,
            self.idle_instruction_fraction
            * float(statistics.median(snippets.matrix[:, 0].tolist())),
        )
        gaps = (n - 1) // self.burst
        n_idle = gaps * self.idle_gap
        idle = np.empty((n_idle, len(TRACE_COLUMNS)))
        idle[:, 0] = idle_instructions
        sample_characteristics(_IDLE_CHARACTERISTICS, self.idle_jitter, rng,
                               idle[:, 1:])
        idle_trace = SnippetTrace(idle, ("idle",) * n_idle, range(n_idle))
        rows: List[int] = []
        for gap in range(gaps):
            rows.extend(range(gap * self.burst, (gap + 1) * self.burst))
            first = n + gap * self.idle_gap
            rows.extend(range(first, first + self.idle_gap))
        rows.extend(range(gaps * self.burst, n))
        return ScenarioTrace(SnippetTrace.concat([snippets, idle_trace])
                             .take(rows))


@dataclass(frozen=True)
class ThermalThrottle(ScenarioSpec):
    """Periodic thermal events that cap the reachable OPPs.

    Every ``period`` snippets one throttle window of ``duty * period``
    snippets opens (start offset jittered by the scenario rng), during
    which no cluster may run above OPP index ``max_opp_index``.  The
    snippets themselves are untouched — the output trace *is* the input
    trace; the stress is entirely on the *configuration space* the policy
    can act in.
    """

    description = ("periodic thermal-throttling windows capping the "
                   "reachable OPP indices")

    name: str = "thermal_throttle"
    period: int = 24
    duty: float = 0.5
    max_opp_index: int = 1

    def _transform(self, snippets: SnippetTrace,
                   rng: np.random.Generator) -> ScenarioTrace:
        if self.period < 2:
            raise ValueError("period must be >= 2")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must be in (0, 1)")
        n = len(snippets)
        window = max(1, int(round(self.duty * self.period)))
        events: List[ThrottleEvent] = []
        for origin in range(0, n, self.period):
            slack = max(1, self.period - window)
            offset = int(rng.integers(0, slack))
            start = origin + offset
            stop = min(n, start + window)
            if start < n:
                events.append(ThrottleEvent(start=start, stop=stop,
                                            max_opp_index=self.max_opp_index))
        return ScenarioTrace(snippets, throttle_events=tuple(events))


@dataclass(frozen=True)
class CharacteristicDrift(ScenarioSpec):
    """Slow drift of the snippet characteristics along the trace.

    Snippet ``i`` of ``n`` gets its memory intensity scaled by
    ``memory_intensity_scale ** (i / (n-1))`` and its ILP factor by
    ``ilp_scale ** (i / (n-1))`` — a geometric ramp from the original
    characteristics to a strongly memory-bound, low-ILP regime the offline
    policy never trained on.  The ramp is deterministic; the scenario rng
    adds a small per-snippet lognormal wobble when ``jitter`` is non-zero.

    The ramp factors are Python ``**`` results, one per row (NumPy's
    ``power`` rounds differently for some of them); the two columns are
    then scaled and clipped elementwise.
    """

    description = ("geometric drift of memory intensity and ILP across "
                   "the trace")

    name: str = "characteristic_drift"
    memory_intensity_scale: float = 3.0
    ilp_scale: float = 0.7
    jitter: float = 0.0

    def _transform(self, snippets: SnippetTrace,
                   rng: np.random.Generator) -> ScenarioTrace:
        if self.memory_intensity_scale <= 0 or self.ilp_scale <= 0:
            raise ValueError("drift scales must be positive")
        n = len(snippets)
        progress = [i / (n - 1) for i in range(n)] if n > 1 else [1.0]
        memory_ramp = np.array(
            [self.memory_intensity_scale ** p for p in progress])
        ilp_ramp = np.array([self.ilp_scale ** p for p in progress])
        matrix = snippets.matrix.copy()
        memory = matrix[:, _MEMORY_INTENSITY] * memory_ramp
        if self.jitter > 0.0:
            # One draw per snippet, in trace order.
            memory = memory * np.exp(rng.normal(0.0, self.jitter, size=n))
        matrix[:, _MEMORY_INTENSITY] = np.maximum(memory, 0.0)
        matrix[:, _ILP_FACTOR] = np.minimum(
            np.maximum(matrix[:, _ILP_FACTOR] * ilp_ramp, 0.05), 1.0)
        return ScenarioTrace(SnippetTrace(matrix, snippets.applications,
                                          snippets.indices))


@dataclass(frozen=True)
class CompositeScenario(ScenarioSpec):
    """Ordered composition of other scenarios.

    Children are applied left to right; each child sees the previous
    child's output snippets.  Throttle events from every child are
    concatenated, and their step indices refer to positions in the final
    trace — so once any child has produced throttle events, later children
    must leave the snippet sequence untouched (same rows, same order).
    Violations raise instead of silently throttling the wrong steps; put
    reordering/inserting children *before* throttling children, as the
    registered ``stress_combo`` does.
    """

    description = "ordered composition of other registered scenario transforms"

    name: str = "composite"
    children: Tuple[ScenarioSpec, ...] = ()

    def _transform(self, snippets: SnippetTrace,
                   rng: np.random.Generator) -> ScenarioTrace:
        if not self.children:
            raise ValueError("CompositeScenario needs at least one child")
        current = snippets
        events: List[ThrottleEvent] = []
        for child in self.children:
            trace = child.apply(current, rng)
            if events and not trace.snippets.same_rows(current):
                raise ValueError(
                    f"composite {self.name!r}: child {child.name!r} changed "
                    "the snippet sequence after an earlier child produced "
                    "throttle events; move trace-changing children before "
                    "throttling children"
                )
            current = trace.snippets
            events.extend(trace.throttle_events)
        return ScenarioTrace(current, throttle_events=tuple(events))

    @classmethod
    def from_params(cls, params: Dict[str, object]) -> "CompositeScenario":
        params = dict(params)
        children = tuple(
            scenario_from_dict(payload)  # type: ignore[arg-type]
            for payload in params.pop("children", ())
        )
        return cls(children=children, **params)  # type: ignore[arg-type]


def _register_default_scenarios() -> None:
    register_scenario(PhaseChurn())
    register_scenario(BurstyIdle())
    register_scenario(ConcurrentMix())
    register_scenario(ThermalThrottle())
    register_scenario(CharacteristicDrift())
    register_scenario(
        CompositeScenario(
            name="stress_combo",
            children=(
                PhaseChurn(),
                CharacteristicDrift(),
                ThermalThrottle(),
            ),
        )
    )


_register_default_scenarios()
