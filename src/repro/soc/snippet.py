"""Workload snippets.

Following DyPO [3] and the offline-IL works [18, 19], applications are
segmented into *workload-conservative snippets* — windows containing a fixed
number of dynamic instructions.  A snippet carries the micro-architectural
characteristics that determine how it responds to frequency, core-count and
cluster-assignment decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

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


#: Column layout of :func:`trace_matrix` rows.
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


def trace_matrix(snippets: Sequence[Snippet]) -> np.ndarray:
    """``(len(snippets), len(TRACE_COLUMNS))`` float matrix of the snippets'
    length and characteristics, one row per snippet — the input layout of
    the vectorized simulator kernels."""
    rows = []
    for snippet in snippets:
        chars = snippet.characteristics
        rows.append((
            snippet.n_instructions,
            chars.memory_intensity,
            chars.memory_access_rate,
            chars.external_request_rate,
            chars.branch_misprediction_mpki,
            chars.ilp_factor,
            chars.parallel_fraction,
            chars.thread_count,
            chars.big_fraction,
        ))
    return np.array(rows, dtype=float).reshape(len(rows), len(TRACE_COLUMNS))
