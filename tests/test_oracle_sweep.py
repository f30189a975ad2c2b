"""The 2-D (snippets x configurations) Oracle sweep against the scalar loop.

``build_oracle`` sweeps all of its cache misses through
:meth:`~repro.soc.simulator.SoCSimulator.evaluate_expected_grid` in chunks
of :func:`~repro.core.oracle.sweep_chunk_rows` snippets.  Its tables must be
bitwise equal to the ``use_batch=False`` reference loop (one
``evaluate_expected`` call per configuration) for every objective, for full
and throttled spaces, on both sides of every chunk boundary, and for
snippets that leave one cluster idle.  The cache must see the same
per-snippet lookup/store counts as a snippet-by-snippet build.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import oracle as oracle_module
from repro.core.objectives import ALL_OBJECTIVES, Objective
from repro.core.oracle import (
    OracleCache,
    _scalar_best_entry,
    build_oracle,
    sweep_chunk_rows,
)
from repro.core.oracle_store import (
    OracleStore,
    get_default_oracle_store,
    set_default_oracle_store,
)
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.soc.snippet import Snippet, SnippetCharacteristics

#: An objective with no ``vector_cost``: ``batch_cost`` falls back to
#: materialising one result per configuration.
SCALAR_ONLY = Objective("energy-scalar-only", lambda result: result.energy_j)

OBJECTIVES = {**ALL_OBJECTIVES, SCALAR_ONLY.name: SCALAR_ONLY}


@pytest.fixture(autouse=True)
def no_default_store():
    """Keep any process-default store out of these caches."""
    previous = get_default_oracle_store()
    set_default_oracle_store(None)
    yield
    set_default_oracle_store(previous)


@pytest.fixture(scope="module")
def platform():
    return odroid_xu3_like()


@pytest.fixture(scope="module")
def spaces(platform):
    full = ConfigurationSpace(platform)
    return {"full": full, "throttled": full.restrict(max_opp_index=2)}


@pytest.fixture(scope="module")
def simulator(platform):
    return SoCSimulator(platform, noise_scale=0.0, seed=0)


def _snippets(count: int, seed: int = 0):
    """Varied snippets; every 7th runs only on LITTLE, every 11th only on big."""
    rng = np.random.default_rng(seed)
    out = []
    for index in range(count):
        if index % 7 == 3:
            big_fraction = 0.0
        elif index % 11 == 5:
            big_fraction = 1.0
        else:
            big_fraction = float(rng.uniform(0.0, 1.0))
        out.append(Snippet(
            application="sweep", index=index,
            n_instructions=float(rng.uniform(5e6, 40e6)),
            characteristics=SnippetCharacteristics(
                memory_intensity=float(rng.uniform(0.0, 25.0)),
                memory_access_rate=float(rng.uniform(0.1, 0.6)),
                external_request_rate=float(rng.uniform(0.1, 0.9)),
                branch_misprediction_mpki=float(rng.uniform(0.0, 8.0)),
                ilp_factor=float(rng.uniform(0.3, 1.0)),
                parallel_fraction=float(rng.uniform(0.0, 0.99)),
                thread_count=int(rng.integers(1, 9)),
                big_fraction=big_fraction,
            ),
        ))
    return out


def _entry_bits(entry):
    """Every field of an Oracle entry, floats as ``float.hex``."""
    result = entry.best_result
    counters = {field.name: float(getattr(result.counters, field.name)).hex()
                for field in dataclasses.fields(result.counters)}
    return (
        entry.snippet_name,
        entry.best_configuration,
        float(entry.best_cost).hex(),
        result.snippet,
        result.configuration,
        result.execution_time_s.hex(),
        result.energy_j.hex(),
        result.average_power_w.hex(),
        counters,
    )


_REFERENCE = {}


def _reference(simulator, space, space_name, objective_name, snippets):
    """Scalar-loop entries for ``snippets`` (memoised per space/objective)."""
    memo = _REFERENCE.setdefault((space_name, objective_name), {})
    objective = OBJECTIVES[objective_name]
    for snippet in snippets:
        if snippet.name not in memo:
            memo[snippet.name] = _entry_bits(
                _scalar_best_entry(simulator, space, snippet, objective))
    return [memo[snippet.name] for snippet in snippets]


@pytest.mark.parametrize("objective_name", sorted(OBJECTIVES))
@pytest.mark.parametrize("space_name", ["full", "throttled"])
@pytest.mark.parametrize("offset", ["one", "chunk-1", "chunk", "chunk+1"])
def test_grid_tables_bitwise_equal_scalar_loop(simulator, spaces, space_name,
                                               objective_name, offset):
    space = spaces[space_name]
    chunk = sweep_chunk_rows(len(space))
    length = {"one": 1, "chunk-1": chunk - 1, "chunk": chunk,
              "chunk+1": chunk + 1}[offset]
    snippets = _snippets(length)
    if length > 11:
        assert {s.characteristics.big_fraction for s in snippets} >= {0.0, 1.0}
    table = build_oracle(simulator, space, snippets,
                         OBJECTIVES[objective_name])
    assert list(table.entries) == [s.name for s in snippets]
    got = [_entry_bits(table.entries[s.name]) for s in snippets]
    assert got == _reference(simulator, space, space_name, objective_name,
                             snippets)


def test_use_batch_false_is_the_scalar_loop(simulator, spaces):
    snippets = _snippets(12, seed=3)
    objective = ALL_OBJECTIVES["edp"]
    table = build_oracle(simulator, spaces["full"], snippets, objective,
                         use_batch=False)
    assert [_entry_bits(table.entries[s.name]) for s in snippets] == [
        _entry_bits(_scalar_best_entry(simulator, spaces["full"], s, objective))
        for s in snippets
    ]


def test_idle_cluster_rows_match_run_snippet(simulator, spaces):
    """A LITTLE-only and a big-only snippet share one grid with normal rows."""
    snippets = _snippets(12)
    assert snippets[3].characteristics.big_fraction == 0.0
    assert snippets[5].characteristics.big_fraction == 1.0
    space = spaces["full"]
    batches = simulator.evaluate_expected_grid(snippets, space)
    for snippet, batch in zip(snippets, batches):
        assert batch.snippet is snippet and len(batch) == len(space)
        for i in (0, len(space) // 2, len(space) - 1):
            scalar = simulator.evaluate_expected(snippet, space[i])
            assert (batch.result_at(i).energy_j.hex()
                    == scalar.energy_j.hex())
            assert (batch.result_at(i).counters.cpu_cycles.hex()
                    == scalar.counters.cpu_cycles.hex())
    idle = batches[3]
    assert np.all(idle.cluster_utilization["big"] == 0.0)


def test_one_row_batch_is_a_grid_row(simulator, spaces):
    snippets = _snippets(5, seed=9)
    space = spaces["throttled"]
    grid = simulator.evaluate_expected_grid(snippets, space)
    for snippet, row in zip(snippets, grid):
        single = simulator.evaluate_expected_batch(snippet, space)
        assert single.energy_j.tobytes() == row.energy_j.tobytes()
        assert single.cpu_cycles.tobytes() == row.cpu_cycles.tobytes()


class _CountingCache(OracleCache):
    """OracleCache recording how often each per-snippet method ran."""

    def __init__(self, store=None) -> None:
        super().__init__(store=store)
        self.lookups = 0
        self.stores = 0

    def lookup(self, snippet, space, objective, **key):
        self.lookups += 1
        return super().lookup(snippet, space, objective, **key)

    def store(self, snippet, space, objective, entry, **key):
        self.stores += 1
        return super().store(snippet, space, objective, entry, **key)


def _per_snippet_build(simulator, space, snippets, objective, cache):
    """The snippet-by-snippet build the 2-D sweep must be indistinguishable
    from, as far as the cache can tell."""
    entries = {}
    for snippet in snippets:
        entry = cache.lookup(snippet, space, objective)
        if entry is None:
            entry = cache.store(snippet, space, objective, _scalar_best_entry(
                simulator, space, snippet, objective))
        entries[snippet.name] = entry
    return entries


@pytest.mark.parametrize("with_store", [False, True])
def test_repeated_snippets_count_like_the_per_snippet_loop(
        simulator, spaces, tmp_path, with_store):
    base = _snippets(6, seed=5)
    # A regenerated (content-equal, distinct object) copy of snippet 0.
    twin = dataclasses.replace(
        base[0], characteristics=dataclasses.replace(base[0].characteristics))
    snippets = [base[0], base[1], base[0], base[2], base[1], twin, base[3],
                base[4], base[5], base[3]]
    space = spaces["full"]
    objective = ALL_OBJECTIVES["energy"]

    def cache(name):
        store = OracleStore(tmp_path / name) if with_store else None
        return _CountingCache(store=store)

    loop_cache, grid_cache = cache("loop"), cache("grid")
    # Warm one snippet so the call mixes hits, misses and repeats.
    for warm in (loop_cache, grid_cache):
        build_oracle(simulator, space, [base[4]], objective, cache=warm)
    expected = _per_snippet_build(simulator, space, snippets, objective,
                                  loop_cache)
    table = build_oracle(simulator, space, snippets, objective,
                         cache=grid_cache)

    assert grid_cache.stats() == loop_cache.stats()
    assert grid_cache.lookups == loop_cache.lookups
    assert grid_cache.stores == loop_cache.stores
    assert len(grid_cache) == len(loop_cache) == 6
    assert grid_cache.stats()["hits"] == 5
    if with_store:
        assert grid_cache.stats()["store_misses"] == 6
    assert table.entries[base[0].name] is grid_cache.lookup(base[0], space,
                                                            objective)
    assert ({name: _entry_bits(entry) for name, entry in table.entries.items()}
            == {name: _entry_bits(entry) for name, entry in expected.items()})


@pytest.mark.parametrize("with_store", [False, True])
def test_each_snippet_is_keyed_once(simulator, spaces, tmp_path, monkeypatch,
                                    with_store):
    """build_oracle hands each snippet's cache key to lookup and store
    instead of letting them hash the snippet again."""
    base = _snippets(5, seed=9)
    snippets = [base[0], base[1], base[0], base[2], base[3], base[4], base[3]]
    store = OracleStore(tmp_path / "store") if with_store else None
    cache = OracleCache(store=store)
    build_oracle(simulator, spaces["full"], [base[4]], ALL_OBJECTIVES["energy"],
                 cache=cache)
    keyed = []
    real_key = oracle_module.snippet_cache_key

    def counting_key(snippet):
        keyed.append(snippet.name)
        return real_key(snippet)

    monkeypatch.setattr(oracle_module, "snippet_cache_key", counting_key)
    build_oracle(simulator, spaces["full"], snippets, ALL_OBJECTIVES["energy"],
                 cache=cache)
    assert keyed == [snippet.name for snippet in snippets]
    assert cache.stats()["misses"] == 1 + 4  # the warm-up, then 0, 1, 2, 3


def test_store_tier_serves_a_fresh_cache(simulator, spaces, tmp_path):
    snippets = _snippets(9, seed=11)
    space = spaces["throttled"]
    objective = ALL_OBJECTIVES["ppw"]
    store = OracleStore(tmp_path / "store")
    first = build_oracle(simulator, space, snippets, objective,
                         cache=OracleCache(store=store))
    cold = OracleCache(store=OracleStore(tmp_path / "store"))
    second = build_oracle(simulator, space, snippets, objective, cache=cold)
    assert cold.stats() == {"hits": 0, "misses": 9, "store_hits": 9,
                            "store_misses": 0}
    assert ([_entry_bits(second.entries[s.name]) for s in snippets]
            == [_entry_bits(first.entries[s.name]) for s in snippets])
