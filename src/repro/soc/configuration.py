"""SoC configurations and the discrete configuration space.

A configuration is the tuple of control-knob settings the DRM policy can
choose at each decision epoch: the OPP index of each DVFS domain and the
number of active cores per cluster.  The :class:`ConfigurationSpace`
enumerates all valid configurations of a platform (the Oracle sweeps them
exhaustively) and provides neighbourhood queries used by the online-IL
runtime Oracle and the RL action space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.platform import PlatformSpec


@dataclass(frozen=True)
class ClusterArrays:
    """Struct-of-arrays view of one cluster across every configuration.

    Each array has one element per configuration, in enumeration order.
    ``voltage_v``/``frequency_hz``/``frequency_ghz`` are the per-OPP values
    gathered through ``opp_index``; the per-OPP source tables are built with
    the same Python-scalar arithmetic as the object-level accessors, so the
    gathered values are bitwise identical to what
    ``spec.opps[config.opp_index(name)]`` would yield per configuration.
    """

    opp_index: np.ndarray      # (n,) intp
    active_cores: np.ndarray   # (n,) intp
    cores_f: np.ndarray        # (n,) float64 view of active_cores
    voltage_v: np.ndarray      # (n,) float64
    frequency_hz: np.ndarray   # (n,) float64
    frequency_ghz: np.ndarray  # (n,) float64


@dataclass(frozen=True)
class SpaceArrays:
    """Struct-of-arrays view over a set of configurations.

    Either the whole space (:meth:`ConfigurationSpace.soa_view`) or one
    memoised candidate neighbourhood
    (:meth:`ConfigurationSpace.neighborhood_view`).  Used by the vectorized
    online decision loop so that per-step candidate sweeps never touch
    :class:`SoCConfiguration` objects.
    """

    cluster_order: Tuple[str, ...]
    clusters: Dict[str, ClusterArrays]

    def cluster(self, name: str) -> ClusterArrays:
        return self.clusters[name]

    def gather(self, indices: np.ndarray) -> "SpaceArrays":
        """Row subset of this view (arrays gathered at ``indices``)."""
        clusters = {
            name: ClusterArrays(
                opp_index=arrays.opp_index[indices],
                active_cores=arrays.active_cores[indices],
                cores_f=arrays.cores_f[indices],
                voltage_v=arrays.voltage_v[indices],
                frequency_hz=arrays.frequency_hz[indices],
                frequency_ghz=arrays.frequency_ghz[indices],
            )
            for name, arrays in self.clusters.items()
        }
        return SpaceArrays(cluster_order=self.cluster_order, clusters=clusters)


@dataclass(frozen=True)
class NeighborhoodView:
    """Memoised candidate neighbourhood: index table plus gathered arrays.

    ``indices`` are configuration indices into the owning space (in
    neighbourhood enumeration order — the order the scalar reference sweeps
    candidates in); ``arrays`` holds the struct-of-arrays rows of exactly
    those candidates, pre-gathered once so the per-step decision path does
    no indexing work at all.
    """

    indices: np.ndarray
    arrays: SpaceArrays

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SoCConfiguration:
    """One point in the SoC control space.

    ``opp_indices`` maps cluster name to the OPP (frequency) index and
    ``active_cores`` maps cluster name to the number of powered-on cores.
    Instances are immutable and hashable so they can be used as dict keys in
    Oracle tables and Q-tables.
    """

    opp_indices: Tuple[Tuple[str, int], ...]
    active_cores: Tuple[Tuple[str, int], ...]

    @classmethod
    def from_dicts(cls, opp_indices: Dict[str, int],
                   active_cores: Dict[str, int]) -> "SoCConfiguration":
        return cls(
            opp_indices=tuple(sorted(opp_indices.items())),
            active_cores=tuple(sorted(active_cores.items())),
        )

    def opp_index(self, cluster: str) -> int:
        for name, idx in self.opp_indices:
            if name == cluster:
                return idx
        raise KeyError(f"no OPP index recorded for cluster {cluster!r}")

    def cores(self, cluster: str) -> int:
        for name, count in self.active_cores:
            if name == cluster:
                return count
        raise KeyError(f"no core count recorded for cluster {cluster!r}")

    def as_dicts(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        return dict(self.opp_indices), dict(self.active_cores)

    def as_vector(self, cluster_order: Sequence[str]) -> np.ndarray:
        """Numeric encoding (OPP index then core count per cluster)."""
        values: List[float] = []
        for cluster in cluster_order:
            values.append(float(self.opp_index(cluster)))
        for cluster in cluster_order:
            values.append(float(self.cores(cluster)))
        return np.array(values, dtype=float)

    def describe(self, platform: Optional[PlatformSpec] = None) -> str:
        parts = []
        for name, idx in self.opp_indices:
            if platform is not None and name in platform.clusters:
                freq = platform.clusters[name].opps[idx].frequency_mhz
                parts.append(f"{name}:{freq:.0f}MHz")
            else:
                parts.append(f"{name}:opp{idx}")
        for name, count in self.active_cores:
            parts.append(f"{name}x{count}")
        return " ".join(parts)


class ConfigurationSpace:
    """Enumerable set of valid configurations of a platform."""

    def __init__(
        self,
        platform: PlatformSpec,
        allow_core_gating: bool = False,
        min_active_cores: int = 1,
        gated_clusters: Optional[Sequence[str]] = None,
        max_opp_indices: Optional[Dict[str, int]] = None,
    ) -> None:
        self.platform = platform
        self.allow_core_gating = bool(allow_core_gating)
        self.min_active_cores = max(1, int(min_active_cores))
        if gated_clusters is None:
            self.gated_clusters = set(platform.clusters) if self.allow_core_gating else set()
        else:
            unknown = set(gated_clusters) - set(platform.clusters)
            if unknown:
                raise KeyError(f"unknown clusters in gated_clusters: {sorted(unknown)}")
            self.gated_clusters = set(gated_clusters) if self.allow_core_gating else set()
        # Per-cluster OPP-index caps (thermal-throttling scenarios shrink the
        # space by capping the highest reachable OPP).  Caps are clamped to
        # the platform's OPP table and only stored when they actually bind.
        self.max_opp_indices: Dict[str, int] = {}
        if max_opp_indices:
            unknown = set(max_opp_indices) - set(platform.clusters)
            if unknown:
                raise KeyError(f"unknown clusters in max_opp_indices: {sorted(unknown)}")
            for name, cap in max_opp_indices.items():
                if int(cap) < 0:
                    raise ValueError(f"max_opp_indices[{name!r}] must be >= 0")
                top = len(platform.clusters[name].opps) - 1
                if int(cap) < top:
                    self.max_opp_indices[name] = int(cap)
        self.cluster_order: List[str] = sorted(platform.clusters.keys())
        self._configs: List[SoCConfiguration] = self._enumerate()
        self._index: Dict[SoCConfiguration, int] = {
            cfg: i for i, cfg in enumerate(self._configs)
        }
        self._batch_arrays: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None
        self._cache_key: Optional[Tuple] = None
        self._content_key: Optional[Tuple] = None
        self._restrictions: Dict[Tuple[Tuple[str, int], ...],
                                 "ConfigurationSpace"] = {}
        self._soa: Optional[SpaceArrays] = None
        self._opp_lookup: Optional[np.ndarray] = None
        self._default_index: Optional[int] = None
        self._neighbor_tables: Dict[Tuple[int, int, bool], np.ndarray] = {}
        self._neighbor_views: Dict[Tuple[int, int, bool], NeighborhoodView] = {}
        self._neighborhood_tables: Dict[Tuple[int, bool],
                                        Tuple[np.ndarray, np.ndarray]] = {}
        self._clamp_cache: Dict[SoCConfiguration, SoCConfiguration] = {}

    def _max_opp_index(self, cluster: str) -> int:
        """Highest reachable OPP index of ``cluster`` under the active caps."""
        top = len(self.platform.clusters[cluster].opps) - 1
        return min(top, self.max_opp_indices.get(cluster, top))

    def _enumerate(self) -> List[SoCConfiguration]:
        opp_ranges = []
        core_ranges = []
        for name in self.cluster_order:
            spec = self.platform.clusters[name]
            opp_ranges.append(range(self._max_opp_index(name) + 1))
            if name in self.gated_clusters:
                core_ranges.append(range(self.min_active_cores, spec.n_cores + 1))
            else:
                core_ranges.append([spec.n_cores])
        configs: List[SoCConfiguration] = []
        for opp_combo in product(*opp_ranges):
            for core_combo in product(*core_ranges):
                opp_map = dict(zip(self.cluster_order, opp_combo))
                core_map = dict(zip(self.cluster_order, core_combo))
                configs.append(SoCConfiguration.from_dicts(opp_map, core_map))
        return configs

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self) -> Iterator[SoCConfiguration]:
        return iter(self._configs)

    def __getitem__(self, index: int) -> SoCConfiguration:
        return self._configs[index]

    def index_of(self, config: SoCConfiguration) -> int:
        if config not in self._index:
            raise KeyError(f"configuration not in space: {config}")
        return self._index[config]

    def contains(self, config: SoCConfiguration) -> bool:
        return config in self._index

    @property
    def configurations(self) -> List[SoCConfiguration]:
        return list(self._configs)

    def default_configuration(self) -> SoCConfiguration:
        """Mid-frequency, all-cores-on configuration used as the initial state."""
        opp_map = {}
        core_map = {}
        for name in self.cluster_order:
            spec = self.platform.clusters[name]
            opp_map[name] = min(len(spec.opps) // 2, self._max_opp_index(name))
            core_map[name] = spec.n_cores
        return SoCConfiguration.from_dicts(opp_map, core_map)

    def default_index(self) -> int:
        """Index of :meth:`default_configuration` (memoised).

        The default configuration is a constant of the space; hot paths
        (the batched fleet decide's contains-fallback) use this instead of
        rebuilding and re-hashing the configuration every step.
        """
        if self._default_index is None:
            self._default_index = self.index_of(self.default_configuration())
        return self._default_index

    def restrict(
        self,
        max_opp_index: Optional[int] = None,
        max_opp_indices: Optional[Dict[str, int]] = None,
    ) -> "ConfigurationSpace":
        """Return a copy of this space with the OPP range capped per cluster.

        ``max_opp_index`` applies one cap to every cluster; ``max_opp_indices``
        sets per-cluster caps (both may be given — the tighter bound wins, and
        caps already active on this space are also kept).  This is how thermal
        throttling events shrink the reachable configuration space: the
        restricted space is a genuine :class:`ConfigurationSpace` (subset of
        this one's configurations), with its own :meth:`cache_key`, so Oracle
        entries computed against the full space are never reused for it.

        Restrictions are memoised per base space: asking for the same
        effective caps again (each policy run of a throttled scenario does)
        returns the already-enumerated space instead of re-enumerating the
        cross product; a non-binding restriction returns this space itself.
        """
        caps: Dict[str, int] = {}
        for name in self.cluster_order:
            candidates = [self._max_opp_index(name)]
            if max_opp_index is not None:
                candidates.append(int(max_opp_index))
            if max_opp_indices and name in max_opp_indices:
                candidates.append(int(max_opp_indices[name]))
            caps[name] = min(candidates)
        binding = tuple(sorted(
            (name, cap) for name, cap in caps.items()
            if cap < len(self.platform.clusters[name].opps) - 1
        ))
        if binding == tuple(sorted(self.max_opp_indices.items())):
            return self
        if binding not in self._restrictions:
            self._restrictions[binding] = ConfigurationSpace(
                self.platform,
                allow_core_gating=self.allow_core_gating,
                min_active_cores=self.min_active_cores,
                gated_clusters=(sorted(self.gated_clusters)
                                if self.allow_core_gating else None),
                max_opp_indices=caps,
            )
        return self._restrictions[binding]

    def clamp(self, config: SoCConfiguration) -> SoCConfiguration:
        """Project ``config`` onto this space (per-knob clamping).

        Used when a policy that reasons over the full space issues a decision
        while a throttling restriction is active: each cluster's OPP index is
        clamped into the allowed range and the core count into the allowed
        gating range, which always lands inside the space because the space is
        a full cross product of the per-cluster ranges.

        Results are memoised per input configuration — a throttled scenario
        clamps the same few policy decisions every step, so repeat clamps cost
        one dict lookup instead of rebuilding a configuration object.
        """
        cached = self._clamp_cache.get(config)
        if cached is not None:
            return cached
        opp_map, core_map = config.as_dicts()
        for name in self.cluster_order:
            spec = self.platform.clusters[name]
            opp_map[name] = max(0, min(opp_map.get(name, 0),
                                       self._max_opp_index(name)))
            if name in self.gated_clusters:
                core_map[name] = max(self.min_active_cores,
                                     min(core_map.get(name, spec.n_cores),
                                         spec.n_cores))
            else:
                core_map[name] = spec.n_cores
        clamped = SoCConfiguration.from_dicts(opp_map, core_map)
        if clamped not in self._index:
            raise KeyError(f"clamped configuration not in space: {clamped}")
        self._clamp_cache[config] = clamped
        return clamped

    def _enumerate_neighbor_indices(self, config: SoCConfiguration,
                                    radius: int,
                                    include_self: bool) -> np.ndarray:
        """Neighbourhood of ``config`` as configuration indices (uncached)."""
        opp_map, core_map = config.as_dicts()
        opp_options: List[List[int]] = []
        core_options: List[List[int]] = []
        for name in self.cluster_order:
            spec = self.platform.clusters[name]
            current_opp = opp_map[name]
            options = sorted(
                {spec.opps.clamp_index(current_opp + delta)
                 for delta in range(-radius, radius + 1)}
            )
            opp_options.append(options)
            current_cores = core_map[name]
            if name in self.gated_clusters:
                low = max(self.min_active_cores, current_cores - radius)
                high = min(spec.n_cores, current_cores + radius)
                core_options.append(list(range(low, high + 1)))
            else:
                core_options.append([current_cores])
        indices: List[int] = []
        for opp_combo in product(*opp_options):
            for core_combo in product(*core_options):
                candidate = SoCConfiguration.from_dicts(
                    dict(zip(self.cluster_order, opp_combo)),
                    dict(zip(self.cluster_order, core_combo)),
                )
                if not include_self and candidate == config:
                    continue
                index = self._index.get(candidate)
                if index is not None:
                    indices.append(index)
        return np.array(indices, dtype=np.intp)

    def neighbor_indices(self, index: int, radius: int = 1,
                         include_self: bool = True) -> np.ndarray:
        """Indices of the configurations within ``radius`` OPP steps.

        This is the index-table twin of :meth:`neighbors`: the neighbourhood
        of configuration ``index`` is enumerated once per ``(index, radius,
        include_self)`` and memoised, so the per-step candidate sweep of the
        online-IL runtime Oracle stops rebuilding configuration objects.  The
        returned array is cached — treat it as read-only.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        key = (int(index), int(radius), bool(include_self))
        table = self._neighbor_tables.get(key)
        if table is None:
            table = self._enumerate_neighbor_indices(
                self._configs[int(index)], radius, include_self
            )
            self._neighbor_tables[key] = table
        return table

    def neighborhood_view(self, index: int, radius: int = 1,
                          include_self: bool = True) -> NeighborhoodView:
        """Memoised :class:`NeighborhoodView` of configuration ``index``.

        Combines :meth:`neighbor_indices` with the struct-of-arrays rows of
        the candidates, gathered once per ``(index, radius, include_self)``:
        the vectorized runtime Oracle's per-step sweep reduces to pure
        elementwise arithmetic over these cached arrays.
        """
        key = (int(index), int(radius), bool(include_self))
        view = self._neighbor_views.get(key)
        if view is None:
            indices = self.neighbor_indices(index, radius, include_self)
            view = NeighborhoodView(
                indices=indices, arrays=self.soa_view().gather(indices)
            )
            self._neighbor_views[key] = view
        return view

    def neighborhood_table(self, radius: int = 1, include_self: bool = True
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Padded fleet-wide neighbour table ``(indices, lengths)``.

        ``indices`` is an ``(n_configs, max_neighborhood)`` intp array whose
        row ``i`` holds :meth:`neighbor_indices` of configuration ``i`` in
        enumeration order, padded with ``0`` past ``lengths[i]`` entries
        (mask with ``lengths`` before use).  One fancy-indexing gather of
        this table replaces per-device neighbourhood lookups in the fleet's
        segmented candidate sweep.  Memoised per ``(radius, include_self)``;
        treat the returned arrays as read-only.
        """
        key = (int(radius), bool(include_self))
        memo = self._neighborhood_tables.get(key)
        if memo is None:
            rows = [self.neighbor_indices(i, radius, include_self)
                    for i in range(len(self._configs))]
            lengths = np.fromiter((len(row) for row in rows), dtype=np.intp,
                                  count=len(rows))
            table = np.zeros((len(rows), int(lengths.max(initial=0))),
                             dtype=np.intp)
            for i, row in enumerate(rows):
                table[i, :len(row)] = row
            memo = (table, lengths)
            self._neighborhood_tables[key] = memo
        return memo

    def neighbors(self, config: SoCConfiguration, radius: int = 1,
                  include_self: bool = True) -> List[SoCConfiguration]:
        """Configurations within ``radius`` OPP steps per cluster.

        The online-IL runtime Oracle evaluates candidate configurations "in a
        local neighbourhood of the current configuration" (Sec. IV-A3); this
        method defines that neighbourhood.  Core counts are held fixed unless
        core gating is enabled, in which case +/- radius cores are included.
        Backed by the memoised :meth:`neighbor_indices` tables.
        """
        if config in self._index:
            indices = self.neighbor_indices(self._index[config], radius,
                                            include_self)
            return [self._configs[i] for i in indices]
        # A configuration outside the space (e.g. from a differently
        # restricted sibling space) still gets a correct, uncached answer.
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        indices = self._enumerate_neighbor_indices(config, radius, include_self)
        return [self._configs[i] for i in indices]

    def random_configuration(self, rng: np.random.Generator) -> SoCConfiguration:
        return self._configs[int(rng.integers(0, len(self._configs)))]

    def config_feature_matrix(self) -> np.ndarray:
        """Numeric encoding of every configuration (for surface models)."""
        return np.vstack([cfg.as_vector(self.cluster_order) for cfg in self._configs])

    def batch_index_arrays(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Per-cluster ``(opp_index, active_cores)`` arrays over the space.

        Used by the vectorized engine sweep
        (:meth:`~repro.soc.simulator.SoCSimulator.evaluate_expected_grid`);
        the space is immutable after construction, so the arrays are built
        once and cached.
        """
        if self._batch_arrays is None:
            n = len(self._configs)
            arrays: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
            for name in self.cluster_order:
                opp = np.fromiter((c.opp_index(name) for c in self._configs),
                                  dtype=np.intp, count=n)
                active = np.fromiter((c.cores(name) for c in self._configs),
                                     dtype=np.intp, count=n)
                arrays[name] = (opp, active)
            self._batch_arrays = arrays
        return self._batch_arrays

    def soa_view(self) -> SpaceArrays:
        """Struct-of-arrays view of the whole space (built once, cached).

        Per cluster: the OPP index and active-core count of every
        configuration, plus the voltage and frequency of that OPP gathered
        from per-OPP tables.  The per-OPP tables are filled element by
        element with the same scalar arithmetic as the object-level
        accessors, so every gathered value is bitwise identical to its
        scalar counterpart.  The arrays are cached and shared — treat them
        as read-only.
        """
        if self._soa is None:
            index_arrays = self.batch_index_arrays()
            clusters: Dict[str, ClusterArrays] = {}
            for name in self.cluster_order:
                spec = self.platform.clusters[name]
                opp, active = index_arrays[name]
                voltage_by_opp = np.array(
                    [point.voltage_v for point in spec.opps], dtype=float
                )
                frequency_by_opp = np.array(
                    [point.frequency_hz for point in spec.opps], dtype=float
                )
                ghz_by_opp = np.array(
                    [point.frequency_hz / 1e9 for point in spec.opps],
                    dtype=float,
                )
                clusters[name] = ClusterArrays(
                    opp_index=opp,
                    active_cores=active,
                    cores_f=active.astype(float),
                    voltage_v=voltage_by_opp[opp],
                    frequency_hz=frequency_by_opp[opp],
                    frequency_ghz=ghz_by_opp[opp],
                )
            self._soa = SpaceArrays(
                cluster_order=tuple(self.cluster_order), clusters=clusters
            )
        return self._soa

    def opp_lookup_table(self) -> Optional[np.ndarray]:
        """Dense OPP-combination -> configuration-index table (non-gated only).

        One axis per cluster (in ``cluster_order``), sized by the
        *platform's full* OPP table; entry ``[i_0, ..., i_k]`` is the index
        of the configuration with those per-cluster OPP indices, or ``-1``
        when the combination lies outside this space (an active throttle
        cap).  Without core gating the OPP indices identify a
        configuration uniquely, which is what makes the table well defined;
        gated spaces return ``None``.  Used by cross-session batched
        decides (fleet lockstep) to turn vectors of per-cluster OPP
        indices into configuration indices with one fancy-indexing gather.
        Built once and cached — treat it as read-only.
        """
        if self.gated_clusters:
            return None
        if self._opp_lookup is None:
            shape = tuple(len(self.platform.clusters[name].opps)
                          for name in self.cluster_order)
            table = np.full(shape, -1, dtype=np.intp)
            for i, config in enumerate(self._configs):
                key = tuple(config.opp_index(name)
                            for name in self.cluster_order)
                table[key] = i
            self._opp_lookup = table
        return self._opp_lookup

    def cache_key(self) -> Tuple:
        """Content-derived key identifying this space (for Oracle caches).

        Includes every platform parameter that feeds the simulator's power
        and performance models, so two same-named platforms with different
        OPP tables or coefficients never share cache entries.  The active
        OPP-index caps (scenario throttling restrictions) are part of the key
        in addition to the enumerated configuration list, so a restricted
        space never aliases the full space's Oracle entries; caps are
        normalised at construction (non-binding caps are dropped), so a
        degenerate restriction that keeps every configuration keys — and
        correctly shares — exactly like the unrestricted space.
        """
        if self._cache_key is None:
            clusters = []
            for name in self.cluster_order:
                spec = self.platform.clusters[name]
                clusters.append((
                    name,
                    spec.n_cores,
                    spec.ipc_peak,
                    spec.capacitance_eff_f,
                    spec.leakage_w_per_v,
                    spec.base_cpi,
                    spec.branch_penalty_cycles,
                    spec.l2_miss_penalty_ns,
                    tuple((opp.frequency_hz, opp.voltage_v) for opp in spec.opps),
                ))
            self._cache_key = (
                self.platform.name,
                self.platform.memory_power_w_per_gbps,
                self.platform.base_power_w,
                tuple(clusters),
                tuple(sorted(self.max_opp_indices.items())),
                tuple(self._configs),
            )
        return self._cache_key

    def content_key(self) -> Tuple:
        """Content-derived, process-stable identity of this space.

        The fleet grouping layer keys batched decide/observe groups on
        this instead of ``id(space)``: ``id()`` is process-local, changes
        under pickling, and is reusable after garbage collection, so it
        silently fragments (or worse, aliases) groups the moment device
        specs cross a process boundary (sharded fleets).  Two space
        objects with equal content produce equal keys and may batch
        together — safe, because every derived structure a batched path
        touches (``_configs``, ``_index``, ``soa_view``,
        ``opp_lookup_table``, the default configuration) is a pure
        function of exactly the constructor state captured here.  The
        enumerated configuration list itself is *derived* from this state,
        so unlike :meth:`cache_key` it need not be embedded.
        """
        if self._content_key is None:
            self._content_key = (
                self.platform.content_key(),
                self.allow_core_gating,
                self.min_active_cores,
                tuple(sorted(self.gated_clusters)),
                tuple(sorted(self.max_opp_indices.items())),
            )
        return self._content_key
