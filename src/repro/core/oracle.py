"""Oracle policy construction (Sec. IV-A1).

"Each snippet in the set of target applications is executed at each
configuration supported by the SoC ... these system states and power
consumption measurements are used to construct Oracle policies which optimise
different objectives."

The :class:`OraclePolicy` here does exactly that against the SoC simulator:
for every snippet it sweeps the full configuration space (noise free) and
records the configuration minimising the objective.  The resulting
:class:`OracleTable` is the ground truth used (a) to normalise policy energy
(Table II, Fig. 4), (b) to measure decision accuracy (Fig. 3), and (c) to
label the offline IL training data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.control.policy import DRMPolicy
from repro.core.objectives import ENERGY, Objective
from repro.core.oracle_store import (
    OracleStore,
    code_fingerprint,
    content_digest,
    get_default_oracle_store,
    store_stats_snapshot,
)
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.simulator import SnippetResult, SoCSimulator
from repro.soc.snippet import Snippet


@dataclass
class OracleEntry:
    """Best configuration and cost for one snippet."""

    snippet_name: str
    best_configuration: SoCConfiguration
    best_cost: float
    best_result: SnippetResult


@dataclass
class OracleTable:
    """Mapping from snippet name to its Oracle entry."""

    objective_name: str
    entries: Dict[str, OracleEntry] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, snippet_name: str) -> bool:
        return snippet_name in self.entries

    def entry(self, snippet: Snippet) -> OracleEntry:
        if snippet.name not in self.entries:
            raise KeyError(f"snippet {snippet.name!r} not in Oracle table")
        return self.entries[snippet.name]

    def best_configuration(self, snippet: Snippet) -> SoCConfiguration:
        return self.entry(snippet).best_configuration

    def total_cost(self, snippets: Iterable[Snippet]) -> float:
        return sum(self.entry(s).best_cost for s in snippets)

    def storage_bytes(self, bytes_per_entry: int = 64) -> int:
        """Rough storage footprint — the reason Oracles cannot ship in firmware."""
        return len(self.entries) * bytes_per_entry


class OraclePolicy(DRMPolicy):
    """Policy that plays back the per-snippet optimal configurations.

    Unlike a deployable policy, the Oracle is told which snippet is about to
    execute (via :meth:`prepare_for`) — it has perfect knowledge by
    construction.  The framework runner handles this automatically.
    """

    def __init__(self, space: ConfigurationSpace, table: OracleTable) -> None:
        super().__init__(space)
        self.table = table
        self._next_snippet: Optional[Snippet] = None

    def prepare_for(self, snippet: Snippet) -> None:
        """Tell the Oracle which snippet the next decision is for."""
        self._next_snippet = snippet

    def decide(self, counters: Optional[PerformanceCounters]) -> SoCConfiguration:
        if self._next_snippet is None:
            return self.current
        self.current = self.table.best_configuration(self._next_snippet)
        return self.current


#: Cache key type (content-derived, never identity-derived).
SnippetKey = Tuple[str, int, float, Tuple[Tuple[str, float], ...]]


def snippet_cache_key(snippet: Snippet) -> SnippetKey:
    """Content key for a snippet (two equal snippets share Oracle entries)."""
    return (
        snippet.application,
        snippet.index,
        snippet.n_instructions,
        tuple(sorted(snippet.characteristics.as_dict().items())),
    )


def objective_cache_key(objective: Objective) -> Tuple[str, object]:
    """Key for an objective: its name plus the cost callable itself, so a
    custom objective reusing a built-in name never shares entries with it."""
    return (objective.name, objective.cost)


def _state_repr(value) -> str:
    """Content-faithful repr of digest material.

    ``repr`` of a large ndarray truncates (``...``), which could alias two
    different captured arrays; digest the full buffer instead.  Everything
    else uses plain ``repr`` — identity-based reprs digest uniquely per
    object, so such state never falsely *hits* the store (it merely never
    shares shards, the safe direction).
    """
    if isinstance(value, np.ndarray):
        return content_digest(str(value.dtype), value.shape, value.tobytes())
    return repr(value)


def _states_repr(values) -> Tuple[str, ...]:
    if values is None:
        return ()
    return tuple(_state_repr(value) for value in values)


def persistent_objective_key(objective: Objective) -> Tuple:
    """Cross-process content key for an objective.

    The in-memory key uses the cost callable's identity, which does not
    survive pickling to another process.  For the on-disk store the cost
    function is identified by where it lives plus a digest of its bytecode,
    default arguments and closure-cell values, so a custom objective
    reusing a built-in name still gets its own shards, an edited cost
    function invalidates old ones, and two parameterised closures over
    different values (same bytecode, different cells) never alias.
    """
    cost = objective.cost
    code = getattr(cost, "__code__", None)
    if code is not None:
        closure = getattr(cost, "__closure__", None)
        cells = (tuple(_state_repr(cell.cell_contents) for cell in closure)
                 if closure else ())
        code_digest = content_digest(
            code.co_code,
            repr(code.co_consts),
            _states_repr(getattr(cost, "__defaults__", None)),
            repr(getattr(cost, "__kwdefaults__", None)),
            cells,
        )
    else:
        # Callable object (class instance, functools.partial, ...): no
        # bytecode to identify it by, so digest the instance state and the
        # object's repr.  A default (identity-based) repr makes the digest
        # unique per object — such costs never alias a stored shard, they
        # just never share one either, which is the safe direction.
        state = getattr(cost, "__dict__", None)
        state_repr = (repr({key: _state_repr(value)
                            for key, value in sorted(state.items())})
                      if isinstance(state, dict) else repr(state))
        code_digest = content_digest(
            type(cost).__module__,
            type(cost).__qualname__,
            state_repr,
            repr(cost),
        )
    return (
        objective.name,
        getattr(cost, "__module__", ""),
        getattr(cost, "__qualname__", type(cost).__qualname__),
        code_digest,
    )


def persistent_entry_digest(snippet: Snippet, space: ConfigurationSpace,
                            objective: Objective) -> str:
    """Shard digest for one (snippet, space, objective) Oracle entry.

    Includes the :func:`~repro.core.oracle_store.code_fingerprint` of the
    modules the entry's semantics depend on, so a store written by older
    simulator/Oracle code cleanly misses instead of serving stale results.
    """
    return _entry_digest(snippet_cache_key(snippet), space, objective)


def _entry_digest(key: SnippetKey, space: ConfigurationSpace,
                  objective: Objective) -> str:
    """:func:`persistent_entry_digest` of the snippet with cache key ``key``."""
    return content_digest(
        key,
        space.content_key(),
        persistent_objective_key(objective),
        code_fingerprint(),
    )


#: Process-wide cache-activity counters aggregated over every OracleCache
#: instance; the experiment runner snapshots them around each seed run to
#: surface hit/miss counts in the run metadata.
_GLOBAL_CACHE_STATS = {
    "hits": 0,
    "misses": 0,
    "store_hits": 0,
    "store_misses": 0,
}


def cache_stats_snapshot() -> Dict[str, int]:
    """Copy of the process-wide OracleCache activity counters.

    Includes the store tier's transient-IO ``store_retries`` counter, so
    the runner's per-seed metadata deltas surface retry storms next to
    the hit/miss numbers.
    """
    out = dict(_GLOBAL_CACHE_STATS)
    out.update(store_stats_snapshot())
    return out


class OracleCache:
    """Memo of Oracle entries keyed by (snippet, space, objective).

    Oracle construction is deterministic (noise-free), so an entry computed
    once for a snippet is valid for every later sweep over the same space
    and objective.  The framework attaches one cache per simulator instance;
    ``train_offline``, ``_bootstrap_models`` and
    ``evaluate_policy_on_snippets`` then stop re-sweeping snippets they have
    already solved.  Keys are derived from content, never object identity,
    so regenerated-but-identical snippets still hit.

    Entries live in one bucket per (space, objective): the bucket key is the
    space's memoised :meth:`~repro.soc.configuration.ConfigurationSpace
    .content_key` plus :func:`objective_cache_key`, and inside a bucket
    entries are keyed by :func:`snippet_cache_key`.  Two space objects with
    equal content share a bucket; a restricted (throttled) space has its
    own.  Finding the bucket hashes the small platform/space tuple, never
    the enumerated configuration list.

    An optional :class:`~repro.core.oracle_store.OracleStore` layers a
    persistent, cross-process tier underneath: in-memory misses fall
    through to the store, and freshly computed entries are written through
    to it, so worker processes and later CLI invocations skip sweeps any
    process has ever completed.  ``store=None`` (the default) adopts the
    process-wide default store, if one is installed.
    """

    def __init__(self, store: Optional[OracleStore] = None) -> None:
        self._buckets: Dict[Tuple, Dict[SnippetKey, OracleEntry]] = {}
        self.store_backend = (store if store is not None
                              else get_default_oracle_store())
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_misses = 0

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        """This cache's hit/miss counters (memory tier and store tier)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
        }

    def _bucket(self, space: ConfigurationSpace,
                objective: Objective) -> Dict[SnippetKey, OracleEntry]:
        """The (space, objective) bucket, created empty on first use."""
        key = (space.content_key(),) + objective_cache_key(objective)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = {}
        return bucket

    def lookup(self, snippet: Snippet, space: ConfigurationSpace,
               objective: Objective, *,
               _key: Optional[SnippetKey] = None) -> Optional[OracleEntry]:
        """The cached entry for ``snippet``, or ``None`` on a miss.

        ``_key`` is ``snippet_cache_key(snippet)`` when the caller already
        computed it (as :func:`build_oracle` does), so it is not hashed
        again.
        """
        bucket = self._bucket(space, objective)
        key = snippet_cache_key(snippet) if _key is None else _key
        entry = bucket.get(key)
        if entry is not None:
            self.hits += 1
            _GLOBAL_CACHE_STATS["hits"] += 1
            return entry
        self.misses += 1
        _GLOBAL_CACHE_STATS["misses"] += 1
        if self.store_backend is not None:
            stored = self.store_backend.get(
                _entry_digest(key, space, objective)
            )
            if stored is not None:
                bucket[key] = stored
                self.store_hits += 1
                _GLOBAL_CACHE_STATS["store_hits"] += 1
                return stored
            self.store_misses += 1
            _GLOBAL_CACHE_STATS["store_misses"] += 1
        return None

    def store(self, snippet: Snippet, space: ConfigurationSpace,
              objective: Objective, entry: OracleEntry, *,
              _key: Optional[SnippetKey] = None) -> OracleEntry:
        """Cache ``entry`` for ``snippet`` (``_key`` as in :meth:`lookup`)."""
        key = snippet_cache_key(snippet) if _key is None else _key
        self._bucket(space, objective)[key] = entry
        if self.store_backend is not None:
            self.store_backend.put(
                _entry_digest(key, space, objective), entry
            )
        return entry

    def invalidate_snippet(self, snippet: Snippet) -> int:
        """Drop every entry for ``snippet`` (all spaces/objectives); return count."""
        target = snippet_cache_key(snippet)
        removed = 0
        for bucket in self._buckets.values():
            if bucket.pop(target, None) is not None:
                removed += 1
        return removed

    def clear(self) -> None:
        self._buckets.clear()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_misses = 0


#: Upper bound on the (snippets x configurations) cells one 2-D Oracle
#: sweep evaluates at once.  ``build_oracle`` splits its cache misses into
#: chunks of ``sweep_chunk_rows(len(space))`` snippets, which bounds the
#: sweep's temporary arrays (a few dozen float64 grids of this many cells)
#: whatever the trace length.
SWEEP_CHUNK_CELLS = 8192


def sweep_chunk_rows(n_configurations: int) -> int:
    """Snippets per 2-D sweep chunk for a space of ``n_configurations``."""
    return max(1, SWEEP_CHUNK_CELLS // max(1, n_configurations))


def _scalar_best_entry(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippet: Snippet,
    objective: Objective,
) -> OracleEntry:
    """Sweep one snippet config by config (the scalar reference loop)."""
    best_config: Optional[SoCConfiguration] = None
    best_cost = float("inf")
    best_result: Optional[SnippetResult] = None
    for config in space:
        result = simulator.evaluate_expected(snippet, config)
        cost = objective(result)
        if cost < best_cost:
            best_cost = cost
            best_config = config
            best_result = result
    assert best_config is not None and best_result is not None
    return OracleEntry(
        snippet_name=snippet.name,
        best_configuration=best_config,
        best_cost=best_cost,
        best_result=best_result,
    )


def _grid_best_entries(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippets: List[Snippet],
    objective: Objective,
) -> List[OracleEntry]:
    """Sweep ``snippets`` over the space in one 2-D kernel call."""
    batches = simulator.evaluate_expected_grid(snippets, space)
    costs = np.array([objective.batch_cost(batch) for batch in batches])
    # np.argmin returns the first minimum of each row, matching the scalar
    # loop's strict `cost < best_cost` tie-breaking.
    best = costs.argmin(axis=1)
    best_costs = costs[np.arange(len(batches)), best].tolist()
    return [
        OracleEntry(
            snippet_name=batch.snippet.name,
            best_configuration=batch.configurations[index],
            best_cost=cost,
            best_result=batch.result_at(index),
        )
        for batch, index, cost in zip(batches, best.tolist(), best_costs)
    ]


def build_oracle(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippets: Iterable[Snippet],
    objective: Objective = ENERGY,
    cache: Optional[OracleCache] = None,
    use_batch: bool = True,
) -> OracleTable:
    """Exhaustively construct the Oracle table for ``snippets``.

    Every snippet is evaluated (noise-free) at every configuration of the
    space; the minimising configuration is stored.  The sweep scales as
    ``len(snippets) * len(space)`` — this is exactly the "high computational
    complexity" that makes Oracle construction impossible at runtime on real
    hardware, so all cache misses are swept together through the
    simulator's 2-D ``evaluate_expected_grid`` kernel whenever available,
    in chunks of at most :data:`SWEEP_CHUNK_CELLS` (snippet, configuration)
    cells (``use_batch=False`` forces the scalar reference loop; both
    produce bitwise-identical tables).

    Passing an :class:`OracleCache` skips snippets whose entries were
    already computed for this space/objective.  The cache sees the same
    per-snippet calls as in a snippet-by-snippet build, lookups first: one
    ``lookup`` per snippet and one ``store`` per swept entry.  A repeat of
    a snippet still waiting to be swept is looked up once its entry is
    stored, so it counts as a hit, as it would have snippet by snippet.
    Each snippet's cache key is computed once and handed to the cache.
    """
    snippets = list(snippets)
    entries: List[Optional[OracleEntry]] = [None] * len(snippets)
    keys: List[SnippetKey] = []
    missed: List[int] = []
    repeats: List[int] = []
    if cache is None:
        missed = list(range(len(snippets)))
    else:
        pending = set()
        for i, snippet in enumerate(snippets):
            key = snippet_cache_key(snippet)
            keys.append(key)
            if key in pending:
                repeats.append(i)
                continue
            entries[i] = cache.lookup(snippet, space, objective, _key=key)
            if entries[i] is None:
                pending.add(key)
                missed.append(i)

    if use_batch and hasattr(simulator, "evaluate_expected_grid"):
        rows = sweep_chunk_rows(len(space))
        for start in range(0, len(missed), rows):
            chunk = missed[start:start + rows]
            swept = _grid_best_entries(
                simulator, space, [snippets[i] for i in chunk], objective)
            for i, entry in zip(chunk, swept):
                entries[i] = entry
    else:
        for i in missed:
            entries[i] = _scalar_best_entry(simulator, space, snippets[i],
                                            objective)
    if cache is not None:
        for i in missed:
            cache.store(snippets[i], space, objective, entries[i],
                        _key=keys[i])
        for i in repeats:
            entries[i] = cache.lookup(snippets[i], space, objective,
                                      _key=keys[i])

    table = OracleTable(objective_name=objective.name)
    for snippet, entry in zip(snippets, entries):
        table.entries[snippet.name] = entry
    return table


def oracle_energy_for(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippets: List[Snippet],
    objective: Objective = ENERGY,
    table: Optional[OracleTable] = None,
) -> float:
    """Total objective cost achieved by the Oracle over ``snippets``."""
    oracle_table = table or build_oracle(simulator, space, snippets, objective)
    return oracle_table.total_cost(snippets)
