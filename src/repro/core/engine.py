"""Unified simulation-engine layer.

Every simulator in the repo — the snippet-level SoC simulator behind the
Oracle/IL experiments, the frame-loop GPU simulator behind Figures 2/5 and
the cycle-level NoC simulator behind the Sec. III-C models — exposes the same
batch-evaluation surface defined by :class:`SimulationEngine`:

* ``engine_name`` — a short identifier (``"soc"``, ``"gpu"``, ``"noc"``);
* ``evaluate_batch(unit, configurations)`` — evaluate one unit of work
  (a snippet, a frame trace, a traffic pattern) deterministically across many
  configurations in a single call, returning an indexable per-configuration
  result collection.

Batch evaluation is first-class because it is the hot path of the paper's
methodology: Oracle construction executes "each snippet ... at each
configuration supported by the SoC".  All three engines implement it with
real vectorized sweeps: the SoC engine with a NumPy-vectorized
(snippets x configurations) sweep (:meth:`repro.soc.simulator.SoCSimulator.evaluate_expected_grid`),
the GPU engine with a broadcast ``(configurations x frames)`` render
(:meth:`repro.gpu.simulator.GPUSimulator.evaluate_batch`), and the NoC
engine with a prepare-once/replay-per-configuration packet sweep — each an
order of magnitude (SoC/GPU) or 2x (NoC) faster than the scalar loop while
producing bitwise identical results.

The module also provides a tiny engine registry so tooling (CLI, tests,
future sharding/distribution layers) can enumerate and construct engines by
name without importing every simulator package up front.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Protocol, Sequence, runtime_checkable


@runtime_checkable
class SimulationEngine(Protocol):
    """Structural protocol implemented by every simulator in the repo.

    Implementations are free to return an engine-specific batch container
    from :meth:`evaluate_batch` (the SoC engine returns a struct-of-arrays
    :class:`~repro.soc.simulator.SoCBatchResult`), as long as it supports
    ``len()`` and integer indexing yielding per-configuration results.
    """

    engine_name: str

    def evaluate_batch(self, unit: Any, configurations: Sequence[Any]) -> Any:
        """Evaluate ``unit`` at every configuration (deterministic sweep)."""
        ...


#: Lazy constructors for the built-in engines, keyed by ``engine_name``.
_ENGINE_FACTORIES: Dict[str, Callable[[], type]] = {}


def register_engine(name: str, loader: Callable[[], type],
                    overwrite: bool = False) -> None:
    """Register a lazy class loader for an engine name."""
    if name in _ENGINE_FACTORIES and not overwrite:
        raise ValueError(f"engine {name!r} is already registered")
    _ENGINE_FACTORIES[name] = loader


def _load_soc() -> type:
    from repro.soc.simulator import SoCSimulator
    return SoCSimulator


def _load_gpu() -> type:
    from repro.gpu.simulator import GPUSimulator
    return GPUSimulator


def _load_noc() -> type:
    from repro.noc.simulator import NoCSimulator
    return NoCSimulator


register_engine("soc", _load_soc)
register_engine("gpu", _load_gpu)
register_engine("noc", _load_noc)


def available_engines() -> List[str]:
    """Names of all registered simulation engines."""
    return sorted(_ENGINE_FACTORIES)


def engine_class(name: str) -> type:
    """Resolve an engine name to its simulator class (imported lazily)."""
    if name not in _ENGINE_FACTORIES:
        raise KeyError(f"unknown engine {name!r}; available: {available_engines()}")
    return _ENGINE_FACTORIES[name]()
