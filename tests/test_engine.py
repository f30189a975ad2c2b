"""Tests for the unified simulation-engine layer.

Covers the :class:`~repro.core.engine.SimulationEngine` protocol across the
SoC/GPU/NoC simulators, batch-vs-scalar Oracle sweep parity (bitwise), the
:class:`~repro.core.oracle.OracleCache` hit/invalidation behaviour, the scale
registry, and the experiment registry / runner / CLI round-trips.
"""

import numpy as np
import pytest

from repro.core.engine import SimulationEngine, available_engines, engine_class
from repro.core.objectives import ALL_OBJECTIVES, ENERGY, Objective
from repro.core.oracle import OracleCache, build_oracle
from repro.experiments.runner import (
    ExperimentRunner,
    available_experiments,
    get_experiment,
    main,
    register_experiment,
)
from repro.experiments.scales import (
    BENCH,
    FULL,
    QUICK,
    TINY,
    ExperimentScale,
    available_scales,
    get_scale,
    register_scale,
)
from repro.gpu.gpu import GPUConfiguration, default_integrated_gpu
from repro.gpu.simulator import GPUSimulator
from repro.noc.router import RouterConfig
from repro.noc.simulator import NoCSimulator
from repro.noc.topology import MeshTopology
from repro.noc.traffic import UniformRandomTraffic
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.graphics import get_graphics_workload
from repro.workloads.suites import get_workload


@pytest.fixture(scope="module")
def sweep_trace():
    generator = SnippetTraceGenerator(seed=7)
    return generator.generate(get_workload("kmeans").scaled(0.3))


class TestEngineProtocol:
    def test_all_simulators_satisfy_protocol(self, simulator):
        gpu = GPUSimulator(default_integrated_gpu(), seed=0)
        noc = NoCSimulator(MeshTopology(2, 2))
        for engine in (simulator, gpu, noc):
            assert isinstance(engine, SimulationEngine)
        assert {simulator.engine_name, gpu.engine_name, noc.engine_name} == {
            "soc", "gpu", "noc",
        }

    def test_registry_enumerates_and_resolves(self, simulator):
        names = available_engines()
        assert names == ["gpu", "noc", "soc"]
        for name in names:
            cls = engine_class(name)
            assert cls.engine_name == name
        assert isinstance(simulator, engine_class("soc"))
        with pytest.raises(KeyError):
            engine_class("quantum")

    def test_gpu_batch_sweep(self):
        gpu_spec = default_integrated_gpu()
        gpu = GPUSimulator(gpu_spec, seed=0)
        trace = get_graphics_workload("nenamark2", gpu=gpu_spec, n_frames=20,
                                      seed=0)
        configs = [GPUConfiguration(opp_index=i, active_slices=gpu_spec.n_slices)
                   for i in range(len(gpu_spec.opps))]
        summaries = gpu.evaluate_batch(trace, configs)
        assert len(summaries) == len(configs)
        # Deterministic sweep: matches run_fixed at the same configuration.
        again = gpu.run_fixed(trace, configs[0], deterministic=True)
        assert summaries[0].gpu_energy_j == pytest.approx(again.gpu_energy_j)
        # Higher frequency burns more GPU energy on the same frames.
        assert summaries[-1].gpu_energy_j > summaries[0].gpu_energy_j

    def test_noc_batch_sweep_sees_identical_traffic(self):
        topology = MeshTopology(3, 3)
        noc = NoCSimulator(topology)
        traffic = UniformRandomTraffic(topology, injection_rate=0.05, seed=0)
        fast = RouterConfig()
        slow = RouterConfig(router_delay_cycles=fast.router_delay_cycles + 4)
        results = noc.evaluate_batch(traffic, [fast, slow, fast], n_cycles=100)
        assert len(results) == 3
        # Same replayed packets: identical configs give identical latencies,
        # and a slower router pipeline strictly raises the average latency.
        assert results[0].average_latency_cycles == results[2].average_latency_cycles
        assert results[1].average_latency_cycles > results[0].average_latency_cycles

    def test_gpu_batch_bitwise_matches_run_fixed(self):
        """Vectorized GPU sweep reproduces the scalar frame loop bitwise."""
        gpu_spec = default_integrated_gpu()
        gpu = GPUSimulator(gpu_spec, seed=0)
        trace = get_graphics_workload("nenamark2", gpu=gpu_spec, n_frames=40,
                                      seed=3)
        configs = gpu_spec.configurations()
        batch = gpu.evaluate_batch(trace, configs)
        assert len(batch) == len(configs)
        for i in (0, len(configs) // 2, len(configs) - 1):
            reference = gpu.run_fixed(trace, configs[i], deterministic=True)
            materialized = batch.summary_at(i)
            for got, want in zip(materialized.frame_results,
                                 reference.frame_results):
                assert got.busy_time_s == want.busy_time_s
                assert got.frame_time_s == want.frame_time_s
                assert got.gpu_energy_j == want.gpu_energy_j
                assert got.dram_energy_j == want.dram_energy_j
                assert got.cpu_energy_j == want.cpu_energy_j
                assert got.met_deadline == want.met_deadline
            assert materialized.gpu_energy_j == reference.gpu_energy_j
            # Aggregate accessors agree with the materialised summaries.
            assert batch.gpu_energy_totals_j[i] == pytest.approx(
                reference.gpu_energy_j)
            assert batch.package_dram_energy_totals_j[i] == pytest.approx(
                reference.package_dram_energy_j)
            assert batch.deadline_miss_rates[i] == pytest.approx(
                reference.deadline_miss_rate)
        with pytest.raises(ValueError):
            gpu.evaluate_batch(trace, [])
        with pytest.raises(IndexError):
            batch.summary_at(len(configs))

    def test_noc_batch_matches_run_packets_replay(self):
        """Shared-preparation batch equals a fresh run_packets per config."""
        topology = MeshTopology(3, 3)
        configs = [RouterConfig(), RouterConfig(router_delay_cycles=5),
                   RouterConfig(flits_per_cycle=2)]
        batch = NoCSimulator(topology).evaluate_batch(
            UniformRandomTraffic(topology, injection_rate=0.08, seed=17),
            configs, n_cycles=120,
        )
        # Regenerate the identical trace (same seed) per reference run.
        for config, result in zip(configs, batch):
            traffic = UniformRandomTraffic(topology, injection_rate=0.08,
                                           seed=17)
            reference = NoCSimulator(topology, config).run_packets(
                traffic.generate(120), 120
            )
            assert result.undelivered_count == reference.undelivered_count
            assert result.simulated_cycles == reference.simulated_cycles
            assert (
                [(p.packet_id, p.ejection_cycle, p.hops)
                 for p in result.delivered_packets]
                == [(p.packet_id, p.ejection_cycle, p.hops)
                    for p in reference.delivered_packets]
            )
        # Empty sweeps are rejected like the SoC and GPU engines do.
        with pytest.raises(ValueError):
            NoCSimulator(topology).evaluate_batch(
                UniformRandomTraffic(topology, injection_rate=0.08, seed=17),
                [], n_cycles=10,
            )


class TestBatchSweepParity:
    def test_batch_matches_scalar_results_bitwise(self, simulator, space,
                                                  sweep_trace):
        snippet = sweep_trace[0]
        batch = simulator.evaluate_expected_batch(snippet, space)
        assert len(batch) == len(space)
        for i, config in enumerate(space):
            reference = simulator.evaluate_expected(snippet, config)
            materialized = batch.result_at(i)
            assert materialized.configuration == config
            assert materialized.execution_time_s == reference.execution_time_s
            assert materialized.energy_j == reference.energy_j
            assert materialized.average_power_w == reference.average_power_w
            assert materialized.counters.as_dict() == reference.counters.as_dict()
            assert materialized.power_breakdown_w == reference.power_breakdown_w

    @pytest.mark.parametrize("objective_name", sorted(ALL_OBJECTIVES))
    def test_oracle_tables_identical_across_paths(self, simulator, space,
                                                  sweep_trace, objective_name):
        objective = ALL_OBJECTIVES[objective_name]
        scalar = build_oracle(simulator, space, sweep_trace, objective,
                              use_batch=False)
        batch = build_oracle(simulator, space, sweep_trace, objective,
                             use_batch=True)
        assert scalar.entries.keys() == batch.entries.keys()
        for name in scalar.entries:
            assert (scalar.entries[name].best_configuration
                    == batch.entries[name].best_configuration)
            assert scalar.entries[name].best_cost == batch.entries[name].best_cost

    def test_batch_cost_fallback_without_vector_form(self, simulator, space,
                                                     sweep_trace):
        plain = Objective("plain-energy", lambda r: r.energy_j)
        batch = simulator.evaluate_expected_batch(sweep_trace[0], space)
        fallback = plain.batch_cost(batch)
        vectorized = ENERGY.batch_cost(batch)
        np.testing.assert_array_equal(fallback, vectorized)

    def test_batch_works_on_plain_config_lists(self, simulator, space,
                                               sweep_trace):
        subset = list(space)[:5]
        batch = simulator.evaluate_expected_batch(sweep_trace[0], subset)
        assert len(batch) == 5
        reference = simulator.evaluate_expected(sweep_trace[0], subset[3])
        assert batch.result_at(3).energy_j == reference.energy_j

    def test_batch_rejects_empty_configurations(self, simulator, sweep_trace):
        with pytest.raises(ValueError):
            simulator.evaluate_expected_batch(sweep_trace[0], [])

    def test_sweep_configurations_uses_batch_path(self, simulator, space,
                                                  sweep_trace):
        subset = list(space)[:4]
        results = simulator.sweep_configurations(sweep_trace[0], subset)
        assert set(results) == set(subset)
        for config, result in results.items():
            assert result.energy_j == simulator.evaluate_expected(
                sweep_trace[0], config).energy_j


class TestOracleCache:
    def test_second_build_hits_for_every_snippet(self, simulator, space,
                                                 sweep_trace):
        cache = OracleCache()
        first = build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        assert cache.misses == len(sweep_trace)
        assert cache.hits == 0
        second = build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        assert cache.hits == len(sweep_trace)
        assert cache.misses == len(sweep_trace)
        assert cache.hit_rate == pytest.approx(0.5)
        for name in first.entries:
            assert first.entries[name] is second.entries[name]

    def test_content_keys_hit_across_regenerated_snippets(self, simulator,
                                                          space):
        trace_a = SnippetTraceGenerator(seed=3).generate(
            get_workload("fft").scaled(0.2))
        trace_b = SnippetTraceGenerator(seed=3).generate(
            get_workload("fft").scaled(0.2))
        assert trace_a is not trace_b
        cache = OracleCache()
        build_oracle(simulator, space, trace_a, ENERGY, cache=cache)
        build_oracle(simulator, space, trace_b, ENERGY, cache=cache)
        assert cache.hits == len(trace_b)

    def test_objective_and_space_separate_entries(self, simulator, space,
                                                  small_platform, small_space,
                                                  sweep_trace):
        from repro.core.objectives import EDP
        from repro.soc.simulator import SoCSimulator
        cache = OracleCache()
        build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        build_oracle(simulator, space, sweep_trace, EDP, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2 * len(sweep_trace)
        assert len(cache) == 2 * len(sweep_trace)
        # A different space (different platform) must also miss everywhere.
        small_simulator = SoCSimulator(small_platform, noise_scale=0.0, seed=0)
        build_oracle(small_simulator, small_space, sweep_trace, ENERGY,
                     cache=cache)
        assert cache.hits == 0
        assert len(cache) == 3 * len(sweep_trace)

    def test_custom_objective_never_shares_builtin_entries(self, simulator,
                                                           space, sweep_trace):
        from repro.core.objectives import Objective
        # Same name as the built-in but a different cost function: the cache
        # must key on the callable, not just the name.
        impostor = Objective("energy", lambda r: -r.energy_j)
        cache = OracleCache()
        build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        impostor_table = build_oracle(simulator, space, sweep_trace, impostor,
                                      cache=cache)
        assert cache.hits == 0
        assert len(cache) == 2 * len(sweep_trace)
        energy_table = build_oracle(simulator, space, sweep_trace, ENERGY,
                                    cache=cache)
        name = sweep_trace[0].name
        assert (impostor_table.entries[name].best_configuration
                != energy_table.entries[name].best_configuration)

    def test_same_named_platform_with_different_opps_misses(self, sweep_trace):
        from repro.soc.configuration import ConfigurationSpace
        from repro.soc.platform import generic_big_little
        from repro.soc.simulator import SoCSimulator
        cache = OracleCache()
        for max_freq in (2.4e9, 3.2e9):
            platform = generic_big_little(big_max_frequency_hz=max_freq)
            space = ConfigurationSpace(platform)
            simulator = SoCSimulator(platform, noise_scale=0.0, seed=0)
            build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        # Identical platform names and config index tuples, different OPP
        # tables: nothing may be shared.
        assert cache.hits == 0
        assert len(cache) == 2 * len(sweep_trace)

    def test_equal_content_spaces_share_one_bucket(self, platform, simulator,
                                                   space, sweep_trace):
        from repro.soc.configuration import ConfigurationSpace
        twin = ConfigurationSpace(platform)
        assert twin is not space and twin.content_key() == space.content_key()
        cache = OracleCache()
        first = build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        second = build_oracle(simulator, twin, sweep_trace, ENERGY, cache=cache)
        assert cache.hits == len(sweep_trace)
        assert len(cache._buckets) == 1
        assert len(cache) == len(sweep_trace)
        for name in first.entries:
            assert first.entries[name] is second.entries[name]

    def test_restricted_space_never_shares_the_full_bucket(
            self, simulator, space, sweep_trace):
        cache = OracleCache()
        build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        for cap in (0, 2):
            restricted = space.restrict(max_opp_index=cap)
            table = build_oracle(simulator, restricted, sweep_trace, ENERGY,
                                 cache=cache)
            for entry in table.entries.values():
                assert restricted.contains(entry.best_configuration)
        assert cache.hits == 0
        assert len(cache._buckets) == 3
        assert len(cache) == 3 * len(sweep_trace)
        # A non-binding restriction is the full space and reuses its bucket.
        build_oracle(simulator, space.restrict(max_opp_index=10**6),
                     sweep_trace, ENERGY, cache=cache)
        assert cache.hits == len(sweep_trace)
        assert len(cache._buckets) == 3

    def test_invalidation(self, simulator, space, sweep_trace):
        cache = OracleCache()
        build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        removed = cache.invalidate_snippet(sweep_trace[0])
        assert removed == 1
        assert len(cache) == len(sweep_trace) - 1
        build_oracle(simulator, space, sweep_trace, ENERGY, cache=cache)
        # Only the invalidated snippet misses on the rebuild.
        assert cache.misses == len(sweep_trace) + 1
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_framework_reuses_oracle_entries(self, trained_framework,
                                             sweep_trace):
        cache = trained_framework.oracle_cache
        baseline_misses = cache.misses
        trained_framework.build_oracle_for(sweep_trace)
        assert cache.misses == baseline_misses + len(sweep_trace)
        hits_before = cache.hits
        trained_framework.build_oracle_for(sweep_trace)
        assert cache.hits == hits_before + len(sweep_trace)


class TestScaleRegistry:
    def test_presets_resolve_by_name(self):
        assert get_scale("tiny") is TINY
        assert get_scale("quick") is QUICK
        assert get_scale("bench") is BENCH
        assert get_scale("full") is FULL
        assert get_scale(TINY) is TINY
        assert set(available_scales()) >= {"tiny", "quick", "bench", "full"}

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            get_scale("gigantic")

    def test_register_custom_scale(self):
        custom = ExperimentScale(name="test-custom", gpu_frames=10)
        register_scale(custom)
        try:
            assert get_scale("test-custom") is custom
            with pytest.raises(ValueError):
                register_scale(ExperimentScale(name="test-custom"))
        finally:
            from repro.experiments import scales
            scales._SCALE_REGISTRY.pop("test-custom", None)


class TestExperimentRegistry:
    PAPER_EXPERIMENTS = ("table1", "table2", "figure2", "figure3", "figure4",
                         "figure5")

    def test_all_paper_drivers_registered(self):
        names = available_experiments()
        for required in self.PAPER_EXPERIMENTS:
            assert required in names
        assert available_experiments(tag="paper") == sorted(self.PAPER_EXPERIMENTS)

    def test_round_trip_every_registered_experiment(self):
        for name in available_experiments():
            spec = get_experiment(name)
            assert spec.name == name
            assert spec.description
            assert callable(spec.runner)
            if spec.formatter is None:
                # Default formatter renders arbitrary results as text.
                assert isinstance(spec.format_result([1, 2]), str)
            else:
                assert callable(spec.formatter)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("figure99")
        with pytest.raises(ValueError):
            register_experiment("table1", "duplicate", lambda s, d, c: None)

    def test_runner_multi_seed_fan_out(self):
        runner = ExperimentRunner(scale="tiny", seeds=(0, 1))
        run = runner.run("table1")
        assert run.seeds == [0, 1]
        assert len(run.results) == 2
        assert run.scale is TINY
        report = run.format()
        assert "table1" in report and "seed=1" in report
        assert run.total_elapsed_s >= 0.0

    def test_runner_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            ExperimentRunner(scale="tiny", seeds=())
        runner = ExperimentRunner(scale="tiny", seeds=(0,))
        with pytest.raises(ValueError):
            runner.run("table1", seeds=())

    def test_custom_scale_sharing_preset_name_gets_own_study(self):
        """The study memo keys on the scale object, not its name."""
        from repro.experiments.runner import ExperimentContext
        from repro.experiments.scales import ExperimentScale, TINY
        context = ExperimentContext()
        study_a = context.adaptation_study(TINY, 0)
        impostor = ExperimentScale(
            name="tiny", train_snippet_factor=0.15, eval_snippet_factor=0.15,
            sequence_snippet_factor=0.3, offline_epochs=20, buffer_capacity=5,
            update_epochs=20, rl_offline_episodes=1, gpu_frames=40,
            nmpc_surface_samples=40,
        )
        study_b = context.adaptation_study(impostor, 0)
        assert study_a is not study_b
        assert context.adaptation_study(TINY, 0) is study_a

    def test_runner_scale_override(self):
        runner = ExperimentRunner(scale="quick", seeds=(0,))
        run = runner.run("table1", scale="tiny", seeds=(5,))
        assert run.scale is TINY
        assert run.seeds == [5]


class TestCLI:
    def test_list_exits_cleanly(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in TestExperimentRegistry.PAPER_EXPERIMENTS:
            assert name in out
        for scale in ("tiny", "quick", "bench", "full"):
            assert scale in out

    def test_runs_named_experiment(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "scale=tiny" in out

    def test_seed_fan_out(self, capsys):
        assert main(["table1", "--scale", "tiny", "--seeds", "2",
                     "--seed-base", "3"]) == 0
        out = capsys.readouterr().out
        assert "seed=3" in out and "seed=4" in out

    def test_bad_inputs_fail_with_diagnostics(self, capsys):
        assert main(["table1", "--scale", "gigantic"]) == 2
        assert main(["figure99", "--scale", "tiny"]) == 2
        assert main(["table1", "--seeds", "0"]) == 2
        assert main(["table1", "--seed-base", "-1"]) == 2
        assert main(["--tag", "ablations", "--scale", "tiny"]) == 2
        err = capsys.readouterr().err
        assert "no experiments match tag" in err
