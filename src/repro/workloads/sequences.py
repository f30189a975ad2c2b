"""Application sequences for the online-adaptation experiments.

Figure 3 of the paper runs a *sequence* of Cortex and PARSEC applications on
the board after the policies were trained offline on Mi-Bench, and tracks how
quickly each policy converges to the Oracle.  This module builds such
sequences (ordered snippet traces with per-application boundaries) and
records the wall-clock offsets needed to plot accuracy against time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.soc.snippet import Snippet, SnippetTrace
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import CORTEX_APPS, PARSEC_APPS


@dataclass
class ApplicationSequence:
    """An ordered snippet trace spanning several applications."""

    snippets: SnippetTrace = field(
        default_factory=lambda: SnippetTrace.from_snippets(()))
    boundaries: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.snippets)

    def applications(self) -> List[str]:
        """Application names in first-appearance order."""
        return list(dict.fromkeys(self.snippets.applications))

    def application_slice(self, application: str) -> List[Snippet]:
        return [self.snippets[row]
                for row, name in enumerate(self.snippets.applications)
                if name == application]


def build_online_sequence(
    specs: Optional[Sequence[WorkloadSpec]] = None,
    snippet_factor: float = 1.0,
    seed: SeedLike = 0,
) -> ApplicationSequence:
    """Build the Figure-3 style online sequence.

    By default the sequence contains every CortexSuite application followed by
    the PARSEC applications — i.e. only workloads that were *not* part of the
    offline training set — mirroring the paper's setup where the initial
    policies must adapt at runtime.
    """
    if specs is None:
        specs = list(CORTEX_APPS.values()) + list(PARSEC_APPS.values())
    rng = make_rng(seed)
    generator = SnippetTraceGenerator(seed=rng)
    scaled = [spec.scaled(snippet_factor) if snippet_factor != 1.0 else spec
              for spec in specs]
    boundaries: Dict[str, int] = {}
    start = 0
    for spec in scaled:
        boundaries[spec.name] = start
        start += spec.n_snippets
    return ApplicationSequence(generator.generate_many(scaled, rng=rng),
                               boundaries)
