"""Process-sharded fleet engine: lockstep fleets across shard processes.

:class:`ShardedFleetEngine` partitions a fleet's :class:`~repro.fleet
.device.DeviceSpec` list into contiguous shards and drives each shard's
:class:`~repro.fleet.engine.FleetEngine` inside a child process of its
own.  The design goals, in order:

* **Bitwise equivalence** — every per-device log/summary value is
  identical to the single-process :class:`~repro.fleet.engine
  .FleetEngine`, and therefore invariant to the shard count.  This falls
  out of the per-device equivalence contract: the engine already proves
  a lockstep fleet equals ``N`` sequential runs, sessions share no
  mutable state across shard boundaries (the fleet grouping layer keys
  on *content*, never on process-local ``id()`` values), and each
  device's noise stream is a pure function of its own generator state.
* **No hand-off traffic** — each shard child is forked after the devices
  exist and inherits ``(base_space, simulator, devices[lo:hi])`` as its
  process arguments; it builds its own step tensors and pre-draws its
  own noise, in parallel with the other shards.  The pipe carries only
  the ready/go/done signals and the final aggregates.  Where fork is
  unavailable the same arguments are pickled as one tuple.
* **Small replies** — a shard session keeps no per-step objects: its
  :class:`~repro.utils.records.RunLog` is a few float64 arrays sized to
  its trace.  Each device is summarised from that log
  (:meth:`ShardDeviceSummary.of_session`, which the in-process fleet
  experiment uses too), and ``collect="summaries"`` sends back only
  those scalars.  ``collect="logs"`` adds each device's full
  column-oriented log dict for the equivalence suites.

Shard protocol (two-phase, so benchmarks can time pure stepping): each
child builds its engine and answers ``("ready",)``; the parent then
broadcasts ``("go",)`` and gathers ``("done", results)``, after which the
children exit and are joined.  Every abort path (a shard error, an
interrupt, :meth:`ShardedFleetEngine.close` before ``go``) kills and joins
the engine's children; :func:`shutdown_workers` does the same for any
child still running.
"""

from __future__ import annotations

import gc
import traceback
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import multiprocessing
import numpy as np

from repro.core.session import PolicySession
from repro.fleet.device import DeviceSpec, FleetBuildWarning, build_fleet
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SoCSimulator

# Fork keeps shard start cheap and hands each child its devices without
# pickling; fall back to the platform default where fork is unavailable
# (the process arguments are fully picklable either way).
if "fork" in multiprocessing.get_all_start_methods():
    _MP = multiprocessing.get_context("fork")
else:  # pragma: no cover - non-fork platforms
    _MP = multiprocessing.get_context()


# --------------------------------------------------------------------- #
# Per-device summaries sent back from the shards
# --------------------------------------------------------------------- #
@dataclass
class ShardDeviceSummary:
    """One device's aggregate outcome, sent back from its shard.

    :meth:`of_session` reads every field from the session's
    :class:`~repro.core.framework.PolicyRunResult` (its log and
    :class:`~repro.soc.energy.EnergyAccount`), so a summary is the same
    whichever process ran the session; :attr:`normalized_energy` applies
    the run's guard/arithmetic.  ``final_accuracy`` is NaN for a run
    without Oracle decisions.  ``log`` carries the full column-oriented
    log dict under ``collect="logs"`` (``None`` in summary mode).
    """

    name: str
    policy_name: str
    steps: int
    throttled_steps: int
    total_energy_j: float
    total_time_s: float
    oracle_energy_j: Optional[float]
    final_accuracy: float
    log: Optional[Dict[str, List[float]]] = None

    @classmethod
    def of_session(cls, session: PolicySession,
                   with_log: bool = False) -> "ShardDeviceSummary":
        """Summarise ``session``'s run so far from its log and account."""
        run = session.result()
        matches = run.log.column("oracle_match")
        throttled = run.log.column("throttled", default=0.0)
        return cls(
            name=session.name,
            policy_name=run.policy_name,
            steps=len(run.log),
            throttled_steps=int(np.nansum(throttled)),
            total_energy_j=run.total_energy_j,
            total_time_s=run.total_time_s,
            oracle_energy_j=run.oracle_energy_j,
            final_accuracy=(run.final_accuracy()
                            if np.any(~np.isnan(matches)) else float("nan")),
            log=run.log.to_dict() if with_log else None,
        )

    @property
    def normalized_energy(self) -> float:
        if self.oracle_energy_j is None or self.oracle_energy_j <= 0:
            raise ValueError("Oracle energy not available for normalisation")
        return self.total_energy_j / self.oracle_energy_j


# --------------------------------------------------------------------- #
# Shard child
# --------------------------------------------------------------------- #
def _prepare_shard(base_space: ConfigurationSpace, simulator: SoCSimulator,
                   devices: Sequence[DeviceSpec],
                   collect: str) -> Dict[str, Any]:
    """Build one shard's engine inside its child (the ``ready`` phase)."""
    engine = build_fleet(devices, simulator, base_space, validate=False)
    engine.prepare()
    return {"engine": engine, "collect": collect}


def _run_shard(pending: Dict[str, Any]) -> Dict[str, Any]:
    """Drive one prepared shard to completion (the ``go`` phase)."""
    engine = pending["engine"]
    # A step leaves no cyclic garbage behind, so reference counting alone
    # reclaims it and the cycle collector's periodic scans are pure
    # overhead.  The collector stays off: the child exits once it has
    # replied, and turning it back on would first scan every snippet the
    # run built.
    gc.disable()
    engine.run()
    with_log = pending["collect"] == "logs"
    return {
        "devices": [ShardDeviceSummary.of_session(session, with_log)
                    for session in engine.sessions],
        "steps_executed": engine.steps_executed,
        "batched_decisions": engine.batched_decisions,
        "batched_executions": engine.batched_executions,
        "batched_observes": engine.batched_observes,
    }


def _shard_main(conn, *shard: Any) -> None:
    """One shard child: build, answer ``ready``, wait for ``go``, answer
    ``done`` (or ``error`` with the traceback), exit.

    ``shard`` is :func:`_prepare_shard`'s arguments.  A parent that
    closes the pipe instead of sending ``go`` ends the child cleanly.
    """
    try:
        pending = _prepare_shard(*shard)
        conn.send(("ready",))
        try:
            conn.recv()
        except EOFError:  # closed before go
            return
        conn.send(("done", _run_shard(pending)))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass


# --------------------------------------------------------------------- #
# Parent side: one child per shard
# --------------------------------------------------------------------- #
class ShardExecutionError(RuntimeError):
    """A shard child failed; carries the child-side traceback."""


class _Shard:
    """One shard child process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, shard: Tuple[Any, ...]) -> None:
        self.conn, child_conn = _MP.Pipe()
        self.process = _MP.Process(
            target=_shard_main, args=(child_conn, *shard),
            daemon=True, name="fleet-shard",
        )
        self.process.start()
        _RUNNING.add(self)
        child_conn.close()

    def receive(self, phase: str) -> Tuple[Any, ...]:
        """The child's next reply; its error or exit raises."""
        try:
            reply = self.conn.recv()
        except EOFError:
            self.process.join()
            raise ShardExecutionError(
                f"shard {phase} failed: the shard process exited with "
                f"code {self.process.exitcode}"
            ) from None
        if reply[0] == "error":
            raise ShardExecutionError(f"shard {phase} failed:\n{reply[1]}")
        return reply


#: Shard children started and not yet joined, process-wide.
_RUNNING: Set[_Shard] = set()


def _reap(shards: Sequence[_Shard], kill: bool) -> None:
    """Close the pipes of ``shards`` and join their children.

    ``kill`` first ends children that may still be building their engine
    or waiting for ``go`` (every abort path); after ``done`` the children
    exit by themselves.
    """
    for shard in shards:
        shard.conn.close()
        if kill:
            shard.process.kill()
    for shard in shards:
        shard.process.join()
        _RUNNING.discard(shard)


def shutdown_workers() -> None:
    """Kill and join every shard child still running (idempotent)."""
    _reap(list(_RUNNING), kill=True)


def _warn_shard_hazards(devices: Sequence[DeviceSpec],
                        simulator: SoCSimulator) -> None:
    """Parent-side twin of the RNG-independence checks in build_fleet.

    Shard-process warnings never reach the caller, so the generator
    hazards are re-checked on the specs before dispatch.  (The
    scalar-execution-fallback warning needs live sessions and stays a
    shard-side concern.)
    """
    shared: Dict[Any, List[str]] = {}
    unseeded: List[str] = []
    aliased: List[str] = []
    for device in devices:
        if device.rng is None and device.seed is None:
            unseeded.append(device.name)
        elif device.rng is not None:
            shared.setdefault(device.rng, []).append(device.name)
            if device.rng is simulator.rng:
                aliased.append(device.name)
    for names in shared.values():
        if len(names) > 1:
            warnings.warn(
                f"fleet devices {names} share one measurement-noise "
                "generator: sharded results will not be bitwise identical "
                "to sequential runs — give each device its own seed/rng",
                FleetBuildWarning, stacklevel=3,
            )
    if aliased:
        warnings.warn(
            f"fleet devices {aliased} use the simulator's own noise "
            "generator: sequential equivalence is lost — give each "
            "device a private seed/rng",
            FleetBuildWarning, stacklevel=3,
        )
    if unseeded:
        warnings.warn(
            f"fleet devices {unseeded} have no private noise generator "
            "(no seed/rng): they draw measurement noise from the "
            "simulator's shared stream and execute scalar — give each "
            "device its own seed",
            FleetBuildWarning, stacklevel=3,
        )


class ShardedFleetEngine:
    """Drive a device fleet as contiguous shards, one child process each.

    The device list is split into ``n_shards`` contiguous blocks
    (``numpy.array_split`` semantics: sizes differ by at most one) and
    each block runs a full :class:`~repro.fleet.engine.FleetEngine`
    inside its own shard process.  Results come back in device order
    and are bitwise identical to the single-process engine for any shard
    count — see the module docstring for why.

    Two-phase driving: :meth:`prepare` starts the shard children and
    waits until every one has built its engine (step tensors built,
    noise streams pre-drawn); :meth:`execute` then broadcasts the start
    signal and gathers the results, so a benchmark can time pure
    lockstep stepping.  :meth:`run` is simply both.

    ``collect="summaries"`` (default) sends back one
    :class:`ShardDeviceSummary` per device.  ``collect="logs"``
    additionally sends each device's full log columns (equivalence
    suites only; the reply then grows with the trace length).
    """

    def __init__(
        self,
        devices: Sequence[DeviceSpec],
        simulator: SoCSimulator,
        base_space: ConfigurationSpace,
        n_shards: int = 2,
        collect: str = "summaries",
        validate: bool = True,
    ) -> None:
        if collect not in ("summaries", "logs"):
            raise ValueError(
                f"collect must be 'summaries' or 'logs', got {collect!r}"
            )
        self.devices = list(devices)
        if not self.devices:
            raise ValueError("ShardedFleetEngine needs at least one device")
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = min(n_shards, len(self.devices))
        self.simulator = simulator
        self.base_space = base_space
        self.collect = collect
        if validate:
            _warn_shard_hazards(self.devices, simulator)
        # Contiguous partition (device order preserved, numpy.array_split
        # sizing: the first n % k shards get one extra device), so
        # concatenating shard outputs restores fleet order.
        n, k = len(self.devices), self.n_shards
        self.shard_bounds: List[Tuple[int, int]] = []
        lo = 0
        for shard in range(k):
            hi = lo + n // k + (1 if shard < n % k else 0)
            self.shard_bounds.append((lo, hi))
            lo = hi
        self._shards: Optional[List[_Shard]] = None
        # Fleet-wide aggregates, populated by execute().
        self.steps_executed = 0
        self.batched_decisions = 0
        self.batched_executions = 0
        self.batched_observes = 0

    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Start one child per shard and wait until all engines stand ready.

        Each child receives ``(base_space, simulator, its devices)`` as
        process arguments — inherited by fork, or pickled as one tuple
        (which keeps the shared object graph) where fork is unavailable.
        """
        if self._shards is not None:
            return
        shards: List[_Shard] = []
        try:
            for lo, hi in self.shard_bounds:
                shards.append(_Shard((
                    self.base_space, self.simulator, self.devices[lo:hi],
                    self.collect,
                )))
            for shard in shards:
                shard.receive("preparation")
        except BaseException:
            _reap(shards, kill=True)
            raise
        self._shards = shards

    def execute(self) -> List[ShardDeviceSummary]:
        """Start every prepared shard and gather per-device summaries."""
        if self._shards is None:
            raise RuntimeError("call prepare() before execute()")
        shards, self._shards = self._shards, None
        try:
            for shard in shards:
                shard.conn.send(("go",))
            results = [shard.receive("execution")[1] for shard in shards]
        except BaseException:
            _reap(shards, kill=True)
            raise
        _reap(shards, kill=False)
        summaries: List[ShardDeviceSummary] = []
        for result in results:
            self.steps_executed += result["steps_executed"]
            self.batched_decisions += result["batched_decisions"]
            self.batched_executions += result["batched_executions"]
            self.batched_observes += result["batched_observes"]
            summaries.extend(result["devices"])
        return summaries

    def run(self) -> List[ShardDeviceSummary]:
        """Prepare and execute every shard; results in device order."""
        self.prepare()
        return self.execute()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """End the children of a prepared-but-never-executed engine.

        Idempotent; a no-op after :meth:`execute`.
        """
        if self._shards is not None:
            shards, self._shards = self._shards, None
            _reap(shards, kill=True)

    def __enter__(self) -> "ShardedFleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
