"""Cross-session vectorized execution kernel for lockstep fleets.

:func:`lockstep_execute` is the many-device twin of
:meth:`~repro.soc.simulator.SoCSimulator.run_snippet`: one step of ``S``
devices — each with its *own* snippet and its *own* configuration — is
computed as elementwise NumPy arithmetic over length-``S`` arrays instead
of ``S`` scalar simulator calls.

Bitwise equivalence with the scalar path is maintained the same way the
engine sweep (:meth:`~repro.soc.simulator.SoCSimulator
.evaluate_expected_grid`) maintains it: every per-OPP quantity comes from
the simulator's cached scalar-built tables
(:meth:`~repro.soc.simulator.SoCSimulator._cluster_sweep_tables`), and the
remaining operations are ordered exactly like their scalar counterparts —
IEEE-754 elementwise array arithmetic rounds identically to the equivalent
Python-scalar arithmetic.  Measurement noise is handled by the caller
(:class:`~repro.fleet.engine.FleetEngine` pre-draws each device's
log-normal factor stream from the device's own generator, which consumes
the generator exactly like the scalar path's two per-step draws); the
kernel just applies the factors with the scalar path's arithmetic.

The difference from ``evaluate_expected_grid`` is the shape: that kernel
sweeps *every snippet at every configuration* (Oracle construction);
this one sweeps *many (snippet, configuration) pairs* — one per device —
so snippet characteristics and configurations arrive as per-device rows
(:class:`TraceArrays`) rather than as the two axes of a grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.soc.configuration import SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.simulator import SnippetResult, SoCSimulator
from repro.soc.snippet import Snippet, trace_matrix


class TraceArrays:
    """Configuration-independent per-step arrays of one snippet trace.

    Built once per device when a fleet adopts its session; the per-step
    lockstep kernel then gathers one row per device instead of touching
    snippet objects on the hot path.
    """

    __slots__ = ("snippets", "matrix")

    def __init__(self, snippets: Sequence[Snippet]) -> None:
        self.snippets = list(snippets)
        self.matrix = trace_matrix(self.snippets)

    def __len__(self) -> int:
        return len(self.snippets)


#: Row value returned by :func:`masked_first_argmin` for an all-masked row
#: under ``on_empty="sentinel"``.
ARGMIN_EMPTY = -1


def masked_first_argmin(costs: np.ndarray, valid: np.ndarray,
                        on_empty: str = "raise") -> np.ndarray:
    """Row-wise argmin over the valid prefix of padded cost rows.

    ``costs`` is a ``(devices, max_candidates)`` matrix whose rows are
    ragged candidate sweeps padded to a common width; ``valid`` is the
    boolean mask of real entries.  Padding is replaced by ``+inf`` so it
    can never win, and ``np.argmin`` over each full row then returns the
    *first* minimum among the valid entries — exactly the scalar sweep's
    first-minimum tie-breaking (``np.argmin`` over the unpadded row, or
    ``min`` over an estimate list).  This is the segmented-argmin step of
    the fleet-wide candidate sweep.

    A row with *no* valid entry has no argmin; letting it fall through to
    ``np.argmin`` over an all-``+inf`` row silently returned position 0.
    The behaviour is now explicit: ``on_empty="raise"`` (default) raises
    :class:`ValueError` naming the offending rows, ``on_empty="sentinel"``
    marks them with :data:`ARGMIN_EMPTY` (``-1``) so callers can degrade
    those rows to a scalar path (as
    :meth:`~repro.core.runtime_oracle.RuntimeOracle.fleet_best_indices`
    does).  ``costs`` entries that are already ``+inf`` but *valid* still
    win normally — only the mask defines emptiness.
    """
    if on_empty not in ("raise", "sentinel"):
        raise ValueError(f"on_empty must be 'raise' or 'sentinel', "
                         f"got {on_empty!r}")
    masked = np.where(valid, costs, np.inf)
    best = np.argmin(masked, axis=1)
    empty = ~valid.any(axis=1)
    if empty.any():
        if on_empty == "raise":
            raise ValueError(
                "masked_first_argmin: rows "
                f"{np.flatnonzero(empty).tolist()} have no valid candidates"
            )
        best = np.where(empty, ARGMIN_EMPTY, best)
    return best


def lockstep_execute(
    simulator: SoCSimulator,
    snippets: Sequence[Snippet],
    char_rows: np.ndarray,
    opp_index: Dict[str, np.ndarray],
    cores: Dict[str, np.ndarray],
    configurations: Sequence[SoCConfiguration],
    noise_factors: Optional[np.ndarray],
) -> List[SnippetResult]:
    """Execute one lockstep step of ``S`` devices on ``simulator``.

    Parameters
    ----------
    snippets / configurations:
        Per-device snippet and configuration objects (result metadata).
    char_rows:
        ``(S, len(TRACE_COLUMNS))`` characteristics matrix — one
        :class:`TraceArrays` row per device.
    opp_index / cores:
        Per-cluster ``(S,)`` integer arrays of each device's decided
        configuration.
    noise_factors:
        ``(S, 2)`` pre-drawn ``exp(normal)`` factors (time, power) in the
        scalar draw order, or ``None`` for noise-free execution.

    Returns the per-device :class:`~repro.soc.simulator.SnippetResult`
    list, bitwise identical to per-device
    :meth:`~repro.soc.simulator.SoCSimulator.run_snippet` calls fed the
    same noise draws.
    """
    n = char_rows.shape[0]
    platform = simulator.platform
    cluster_names = platform.cluster_names

    n_instr = char_rows[:, 0]
    memory_intensity = char_rows[:, 1]
    memory_access_rate = char_rows[:, 2]
    external_request_rate = char_rows[:, 3]
    branch_mpki = char_rows[:, 4]
    ilp_factor = char_rows[:, 5]
    parallel_fraction = char_rows[:, 6]
    thread_count = char_rows[:, 7]
    big_fraction = char_rows[:, 8]

    elapsed: Dict[str, np.ndarray] = {}
    busy: Dict[str, np.ndarray] = {}
    cycles: Dict[str, np.ndarray] = {}
    for name in cluster_names:
        spec = platform.cluster(name)
        frequency_hz, frequency_ghz, _, _ = simulator._cluster_sweep_tables(name)
        if name == "big":
            instructions = n_instr * big_fraction
        else:
            instructions = n_instr * (1.0 - big_fraction)
        # Term grouping mirrors _cluster_cpi / _cluster_time_and_work
        # exactly; zero-instruction lanes flow through as exact 0.0, which
        # is what the scalar early-return produces.
        cpi = spec.base_cpi / ilp_factor
        cpi = cpi + branch_mpki / 1000.0 * spec.branch_penalty_cycles
        cpi = cpi + (memory_intensity / 1000.0 * spec.l2_miss_penalty_ns
                     * frequency_ghz[opp_index[name]])
        lane_cycles = instructions * cpi
        serial_time = lane_cycles / frequency_hz[opp_index[name]]
        usable_cores = np.maximum(
            1.0, np.minimum(cores[name].astype(float), thread_count)
        )
        amdahl_speedup = 1.0 / (
            (1.0 - parallel_fraction) + parallel_fraction / usable_cores
        )
        elapsed[name] = serial_time / amdahl_speedup
        busy[name] = serial_time
        cycles[name] = lane_cycles

    total_time = elapsed[cluster_names[0]]
    for name in cluster_names[1:]:
        total_time = np.maximum(total_time, elapsed[name])
    if np.any(total_time <= 0.0):
        raise ValueError("snippet produced zero execution time")

    l2_misses = n_instr * memory_intensity / 1000.0
    external_requests = l2_misses * external_request_rate
    utilizations, power_breakdown, total_power = (
        simulator._batch_utilization_and_power(
            opp_index, cores, busy, total_time, external_requests, n
        )
    )

    if noise_factors is None:
        measured_time = total_time
        measured_power = total_power
    else:
        measured_time = total_time * noise_factors[:, 0]
        measured_power = total_power * noise_factors[:, 1]
    energy = measured_power * measured_time

    total_cycles = np.zeros(n)
    for name in cluster_names:
        total_cycles = total_cycles + cycles[name]

    # Bulk-convert every array once (tolist is far cheaper than S per-lane
    # float() casts of NumPy scalars) and materialise the result objects.
    time_l = measured_time.tolist()
    power_l = measured_power.tolist()
    energy_l = energy.tolist()
    cycles_l = total_cycles.tolist()
    instr_l = n_instr.tolist()
    branch_l = (n_instr * branch_mpki / 1000.0).tolist()
    l2_l = l2_misses.tolist()
    dma_l = (n_instr * memory_access_rate).tolist()
    external_l = external_requests.tolist()
    util_l = {name: utilizations[name].tolist() for name in cluster_names}
    breakdown_keys = list(power_breakdown)
    breakdown_l = {key: power_breakdown[key].tolist() for key in breakdown_keys}

    little_util = util_l.get("little")
    big_util = util_l.get("big")
    zero = [0.0] * n
    if little_util is None:
        little_util = zero
    if big_util is None:
        big_util = zero
    breakdown_rows = zip(*(breakdown_l[key] for key in breakdown_keys))
    # Field values are valid by construction (they mirror the scalar path,
    # whose identical values pass the dataclass validation every step), so
    # the dataclasses are materialised through their _from_values fast
    # constructors — measurably cheaper than the generated __init__ on
    # this per-device hot path.
    counters_from_values = PerformanceCounters._from_values
    result_from_values = SnippetResult._from_values
    results: List[SnippetResult] = []
    append = results.append
    for (snippet, config, time_s, power_w, energy_j, cycles_i, instr,
         branch, l2, dma, external, u_little, u_big, breakdown) in zip(
            snippets, configurations, time_l, power_l, energy_l, cycles_l,
            instr_l, branch_l, l2_l, dma_l, external_l, little_util,
            big_util, breakdown_rows):
        counters = counters_from_values({
            "instructions_retired": instr,
            "cpu_cycles": cycles_i,
            "branch_mispredictions": branch,
            "l2_cache_misses": l2,
            "data_memory_accesses": dma,
            "noncache_external_memory_requests": external,
            "little_cluster_utilization": u_little,
            "big_cluster_utilization": u_big,
            "total_chip_power_w": power_w,
            "execution_time_s": time_s,
        })
        append(result_from_values({
            "snippet": snippet,
            "configuration": config,
            "execution_time_s": time_s,
            "energy_j": energy_j,
            "average_power_w": power_w,
            "counters": counters,
            "power_breakdown_w": dict(zip(breakdown_keys, breakdown)),
        }))
    return results
