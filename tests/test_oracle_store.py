"""Persistent on-disk Oracle store: round-trip, robustness, determinism.

The :class:`~repro.core.oracle_store.OracleStore` must (a) hand back
entries bitwise-equal to what the sweep computed, across processes and
cache instances; (b) treat unreadable shards as misses and heal them by
recomputation; (c) tolerate concurrent readers; and (d) — the property the
golden traces rely on — never change any experiment result, enabled or not.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.objectives import EDP, ENERGY
from repro.core.oracle import (
    OracleCache,
    build_oracle,
    persistent_entry_digest,
    persistent_objective_key,
)
from repro.core.oracle_store import (
    OracleStore,
    STORE_FORMAT_VERSION,
    content_digest,
    default_space_digest,
    get_default_oracle_store,
    set_default_oracle_store,
)
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads


@pytest.fixture(autouse=True)
def isolated_default_store():
    """No test leaks a process-default store into the rest of the suite."""
    previous = get_default_oracle_store()
    set_default_oracle_store(None)
    yield
    set_default_oracle_store(previous)


@pytest.fixture(scope="module")
def platform():
    return odroid_xu3_like()


@pytest.fixture(scope="module")
def space(platform):
    return ConfigurationSpace(platform)


@pytest.fixture(scope="module")
def sweep_trace():
    generator = SnippetTraceGenerator(seed=17)
    return generator.generate(training_workloads()[0].scaled(0.3))


@pytest.fixture()
def simulator(platform):
    return SoCSimulator(platform, seed=5)


def _entries_equal(left, right) -> bool:
    return (
        left.snippet_name == right.snippet_name
        and left.best_configuration == right.best_configuration
        and left.best_cost == right.best_cost
        and left.best_result.energy_j == right.best_result.energy_j
        and left.best_result.execution_time_s == right.best_result.execution_time_s
        and np.array_equal(left.best_result.counters.as_vector(),
                           right.best_result.counters.as_vector())
    )


class TestStoreRoundTrip:
    def test_cold_cache_hits_warm_store(self, tmp_path, simulator, space,
                                        sweep_trace):
        store = OracleStore(tmp_path / "store")
        warm_cache = OracleCache(store=store)
        table = build_oracle(simulator, space, sweep_trace, ENERGY,
                             cache=warm_cache)
        assert warm_cache.store_misses == len(sweep_trace)
        assert len(store) == len(sweep_trace)

        cold_cache = OracleCache(store=OracleStore(tmp_path / "store"))
        reloaded = build_oracle(simulator, space, sweep_trace, ENERGY,
                                cache=cold_cache)
        assert cold_cache.store_hits == len(sweep_trace)
        assert cold_cache.hits == 0  # every entry came from disk, not memory
        for name in table.entries:
            assert _entries_equal(table.entries[name], reloaded.entries[name])

    def test_objectives_do_not_alias(self, tmp_path, simulator, space,
                                     sweep_trace):
        store = OracleStore(tmp_path / "store")
        cache = OracleCache(store=store)
        energy_table = build_oracle(simulator, space, sweep_trace, ENERGY,
                                    cache=cache)
        edp_table = build_oracle(simulator, space, sweep_trace, EDP,
                                 cache=cache)
        assert len(store) == 2 * len(sweep_trace)
        snippet = sweep_trace[0]
        assert (persistent_entry_digest(snippet, space, ENERGY)
                != persistent_entry_digest(snippet, space, EDP))
        assert energy_table.entries[snippet.name].best_cost != \
            edp_table.entries[snippet.name].best_cost

    def test_restricted_space_does_not_alias_full_space(self, tmp_path,
                                                        simulator, space,
                                                        sweep_trace):
        store = OracleStore(tmp_path / "store")
        restricted = space.restrict(max_opp_index=1)
        snippet = sweep_trace[0]
        assert (persistent_entry_digest(snippet, space, ENERGY)
                != persistent_entry_digest(snippet, restricted, ENERGY))
        full_cache = OracleCache(store=store)
        build_oracle(simulator, space, [snippet], ENERGY, cache=full_cache)
        throttled_cache = OracleCache(store=store)
        table = build_oracle(simulator, restricted, [snippet], ENERGY,
                             cache=throttled_cache)
        # The restricted sweep missed the store (no aliasing) and its entry
        # honours the cap.
        assert throttled_cache.store_hits == 0
        assert restricted.contains(table.entries[snippet.name].best_configuration)

    def test_persistent_objective_key_distinguishes_costs(self):
        impostor_energy = ENERGY.__class__(
            name="energy", cost=lambda result: -result.energy_j
        )
        assert (persistent_objective_key(ENERGY)
                != persistent_objective_key(impostor_energy))


class TestStoreRobustness:
    def test_corrupt_shard_is_a_miss_and_heals(self, tmp_path, simulator,
                                               space, sweep_trace):
        store = OracleStore(tmp_path / "store")
        cache = OracleCache(store=store)
        build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        shards = sorted((tmp_path / "store").glob("*/*.pkl"))
        assert shards
        shards[0].write_bytes(b"definitely not a pickle")
        shards[1].write_bytes(pickle.dumps((STORE_FORMAT_VERSION, "x"))[:-5])

        healing_cache = OracleCache(store=OracleStore(tmp_path / "store"))
        table = build_oracle(simulator, space, sweep_trace, ENERGY,
                             cache=healing_cache)
        assert healing_cache.store_misses == 2
        assert healing_cache.store_hits == len(sweep_trace) - 2
        assert len(table.entries) == len(sweep_trace)
        # The corrupt shards were rewritten with good payloads.
        final_cache = OracleCache(store=OracleStore(tmp_path / "store"))
        build_oracle(simulator, space, sweep_trace, ENERGY, cache=final_cache)
        assert final_cache.store_hits == len(sweep_trace)

    def test_version_mismatch_is_a_miss(self, tmp_path, simulator, space,
                                        sweep_trace):
        store = OracleStore(tmp_path / "store")
        cache = OracleCache(store=store)
        build_oracle(simulator, space, [sweep_trace[0]], ENERGY, cache=cache)
        shard = next((tmp_path / "store").glob("*/*.pkl"))
        version, entry = pickle.loads(shard.read_bytes())
        shard.write_bytes(pickle.dumps((version + 1, entry)))
        assert OracleStore(tmp_path / "store").get(shard.stem) is None

    def test_concurrent_readers_agree(self, tmp_path, simulator, space,
                                      sweep_trace):
        store_root = tmp_path / "store"
        build_oracle(simulator, space, sweep_trace, ENERGY,
                     cache=OracleCache(store=OracleStore(store_root)))
        digests = [persistent_entry_digest(snippet, space, ENERGY)
                   for snippet in sweep_trace]

        def read_all(worker: int):
            reader = OracleStore(store_root)
            return [reader.get(digest) for digest in digests]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read_all, range(8)))
        reference = results[0]
        assert all(entry is not None for entry in reference)
        for other in results[1:]:
            for left, right in zip(reference, other):
                assert _entries_equal(left, right)

    def test_missing_digest_is_a_miss(self, tmp_path):
        store = OracleStore(tmp_path / "store")
        assert store.get("0" * 64) is None
        assert store.misses == 1 and store.hits == 0
        assert store.hit_rate == 0.0

    def test_unwritable_store_degrades_instead_of_raising(self, tmp_path,
                                                          simulator, space,
                                                          sweep_trace):
        """A failing store write must never abort the run that computed
        the entry — the store is an optimisation tier, not a dependency."""
        store = OracleStore(tmp_path / "store")
        snippet = sweep_trace[0]
        digest = persistent_entry_digest(snippet, space, ENERGY)
        # Occupy the shard's parent directory path with a plain file so
        # mkdir/mkstemp inside put() raises OSError.
        blocker = store.root / digest[:2]
        blocker.write_text("not a directory")
        cache = OracleCache(store=store)
        table = build_oracle(simulator, space, [snippet], ENERGY, cache=cache)
        assert snippet.name in table.entries
        assert store.write_errors == 1
        # The entry still landed in the memory tier.
        assert cache.lookup(snippet, space, ENERGY) is not None


class TestDefaultStoreAndDigests:
    def test_set_get_clear(self, tmp_path):
        assert get_default_oracle_store() is None
        installed = set_default_oracle_store(tmp_path / "store")
        assert isinstance(installed, OracleStore)
        assert get_default_oracle_store() is installed
        # A fresh cache adopts the default; an explicit store overrides it.
        assert OracleCache().store_backend is installed
        other = OracleStore(tmp_path / "other")
        assert OracleCache(store=other).store_backend is other
        assert set_default_oracle_store(None) is None
        assert get_default_oracle_store() is None
        assert OracleCache().store_backend is None

    def test_content_digest_is_stable_and_discriminating(self):
        assert content_digest(("a", 1.5)) == content_digest(("a", 1.5))
        assert content_digest(("a", 1.5)) != content_digest(("a", 1.5000001))
        assert content_digest("ab") != content_digest("a", "b")

    def test_default_space_digest_matches_space_key(self, space):
        from repro.core.oracle_store import code_fingerprint
        assert default_space_digest() == content_digest(space.content_key(),
                                                        code_fingerprint())

    def test_shard_digest_embeds_code_fingerprint(self, space, sweep_trace,
                                                  monkeypatch):
        """Old-code stores must miss cleanly after a semantic code change."""
        import repro.core.oracle_store as store_module
        before = persistent_entry_digest(sweep_trace[0], space, ENERGY)
        monkeypatch.setattr(store_module, "_CODE_FINGERPRINT", "different-code")
        after = persistent_entry_digest(sweep_trace[0], space, ENERGY)
        assert before != after

    def test_parameterised_closures_do_not_alias(self):
        """Same bytecode, different closure cells -> different store keys."""
        def make(alpha):
            return ENERGY.__class__(
                name="weighted",
                cost=lambda result: result.energy_j + alpha * result.execution_time_s,
            )
        light = make(0.1)
        heavy = make(10.0)
        assert (persistent_objective_key(light)
                != persistent_objective_key(heavy))
        assert (persistent_objective_key(light)
                == persistent_objective_key(make(0.1)))

    def test_callable_object_costs_digest_instance_state(self):
        """Class-instance costs must not alias across parameterisations.

        There is no bytecode to identify an instance cost by, so the key
        digests the instance state (`__dict__`) and repr; two instances
        with different state can never share a shard digest.
        """
        class Weighted:
            def __init__(self, weight):
                self.weight = weight

            def __call__(self, result):
                return result.energy_j * self.weight

        light = ENERGY.__class__("weighted", Weighted(1.0))
        heavy = ENERGY.__class__("weighted", Weighted(2.0))
        assert (persistent_objective_key(light)
                != persistent_objective_key(heavy))

    def test_different_defaults_do_not_alias(self):
        def cost_a(result, weight=1.0):
            return result.energy_j * weight

        def cost_b(result, weight=2.0):
            return result.energy_j * weight
        cost_b.__qualname__ = cost_a.__qualname__
        cost_b.__name__ = cost_a.__name__
        key_a = persistent_objective_key(ENERGY.__class__("w", cost_a))
        key_b = persistent_objective_key(ENERGY.__class__("w", cost_b))
        assert key_a != key_b


class TestDeterminismWithStore:
    def test_framework_results_identical_with_and_without_store(self, tmp_path):
        from repro.experiments.common import build_trained_framework
        from repro.experiments.scales import TINY
        from repro.workloads.suites import unseen_workloads

        def run_once():
            framework = build_trained_framework(TINY, seed=0)
            policy = framework.build_online_il_policy(
                buffer_capacity=TINY.buffer_capacity,
                update_epochs=TINY.update_epochs,
            )
            run = framework.evaluate_policy(
                policy, unseen_workloads()[0].scaled(TINY.eval_snippet_factor)
            )
            return (run.total_energy_j, run.total_time_s, run.oracle_energy_j,
                    framework.oracle_cache.stats())

        baseline = run_once()
        set_default_oracle_store(tmp_path / "store")
        cold_store = run_once()   # populates the store
        warm_store = run_once()   # served from the store
        set_default_oracle_store(None)

        assert baseline[:3] == cold_store[:3] == warm_store[:3]
        # The cold run wrote everything; the warm run read it back.
        assert cold_store[3]["store_hits"] == 0
        assert warm_store[3]["store_hits"] > 0
        assert warm_store[3]["store_misses"] == 0


class TestStoreRetries:
    """Bounded retry-with-jitter over transient IO failures."""

    def _store_with_entry(self, tmp_path, simulator, space, sweep_trace,
                          **kwargs):
        seed_store = OracleStore(tmp_path / "store")
        build_oracle(simulator, space, sweep_trace[:1], ENERGY,
                     cache=OracleCache(store=seed_store))
        digest = persistent_entry_digest(sweep_trace[0], space, ENERGY)
        return OracleStore(tmp_path / "store", **kwargs), digest

    def test_transient_get_failure_heals(self, tmp_path, simulator, space,
                                         sweep_trace):
        failures = {"remaining": 2}

        def flaky(op, path):
            if op == "get" and failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise OSError("transient mount hiccup")

        store, digest = self._store_with_entry(
            tmp_path, simulator, space, sweep_trace,
            max_retries=2, backoff_s=0.0, io_failure_hook=flaky,
        )
        entry = store.get(digest)
        assert entry is not None
        assert entry.snippet_name == sweep_trace[0].name
        assert store.retries == 2
        assert store.hits == 1 and store.misses == 0

    def test_exhausted_get_retries_degrade_to_miss(self, tmp_path, simulator,
                                                   space, sweep_trace):
        def always_fail(op, path):
            raise OSError("persistent failure")

        store, digest = self._store_with_entry(
            tmp_path, simulator, space, sweep_trace,
            max_retries=2, backoff_s=0.0, io_failure_hook=always_fail,
        )
        assert store.get(digest) is None
        assert store.misses == 1
        assert store.retries == 2  # bounded: never spins forever

    def test_exhausted_put_retries_degrade_to_memory_only(self, tmp_path,
                                                          simulator, space,
                                                          sweep_trace):
        def always_fail(op, path):
            raise OSError("read-only filesystem")

        store, digest = self._store_with_entry(
            tmp_path, simulator, space, sweep_trace,
            max_retries=1, backoff_s=0.0, io_failure_hook=always_fail,
        )
        healthy = OracleStore(tmp_path / "store")
        entry = healthy.get(digest)
        assert store.put(digest, entry) is False
        assert store.write_errors == 1
        assert store.retries == 1

    def test_missing_shard_is_a_clean_miss_without_retry(self, tmp_path):
        store = OracleStore(tmp_path / "store", max_retries=3)
        assert store.get("0" * 64) is None
        assert store.retries == 0  # FileNotFoundError never retries
        assert store.misses == 1

    def test_backoff_jitter_is_seeded(self, tmp_path):
        left = OracleStore(tmp_path / "a", backoff_s=0.01, jitter_seed=42)
        right = OracleStore(tmp_path / "b", backoff_s=0.01, jitter_seed=42)
        other = OracleStore(tmp_path / "c", backoff_s=0.01, jitter_seed=43)
        left_delays = [left._backoff_delay(i) for i in (1, 2, 3)]
        right_delays = [right._backoff_delay(i) for i in (1, 2, 3)]
        other_delays = [other._backoff_delay(i) for i in (1, 2, 3)]
        assert left_delays == right_delays
        assert left_delays != other_delays
        # Exponential envelope with jitter in [0.5, 1.5).
        for attempt, delay in zip((1, 2, 3), left_delays):
            base = 0.01 * 2 ** (attempt - 1)
            assert 0.5 * base <= delay < 1.5 * base

    def test_store_retries_surface_in_cache_stats(self, tmp_path, simulator,
                                                  space, sweep_trace):
        from repro.core.oracle import cache_stats_snapshot

        def flaky_once(op, path):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise OSError("hiccup")

        failures = {"remaining": 1}
        store, digest = self._store_with_entry(
            tmp_path, simulator, space, sweep_trace,
            max_retries=1, backoff_s=0.0, io_failure_hook=flaky_once,
        )
        before = cache_stats_snapshot()["store_retries"]
        assert store.get(digest) is not None
        after = cache_stats_snapshot()["store_retries"]
        assert after - before == 1

    def test_invalid_retry_parameters_raise(self, tmp_path):
        with pytest.raises(ValueError, match="max_retries"):
            OracleStore(tmp_path / "store", max_retries=-1)
        with pytest.raises(ValueError, match="backoff_s"):
            OracleStore(tmp_path / "store", backoff_s=-0.1)
