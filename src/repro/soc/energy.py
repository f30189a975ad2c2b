"""Energy accounting across a sequence of snippet executions.

The experiments compare total energy over whole applications (Table II,
Fig. 4) and over application sequences (Fig. 3), so the account keeps a
per-application breakdown alongside the running totals.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.soc.simulator import SnippetResult


class EnergyAccount:
    """Accumulates energy, time and power statistics over snippet results."""

    def __init__(self) -> None:
        self.total_energy_j: float = 0.0
        self.total_time_s: float = 0.0
        self._per_application_energy: Dict[str, float] = defaultdict(float)

    def add(self, result: SnippetResult) -> None:
        energy = result.energy_j
        self.total_energy_j += energy
        self.total_time_s += result.execution_time_s
        self._per_application_energy[result.snippet.application] += energy

    @property
    def average_power_w(self) -> float:
        if self.total_time_s <= 0:
            return 0.0
        return self.total_energy_j / self.total_time_s

    def application_energy_j(self, application: str) -> float:
        return self._per_application_energy.get(application, 0.0)

    def per_application_energy(self) -> Dict[str, float]:
        return dict(self._per_application_energy)
