"""Property-based randomized invariant tests.

Each property is checked over a seeded family of random platforms,
snippets and configurations — every draw is reproducible from the
parametrized seed (hypothesis-driven properties live next to the code they
cover, e.g. ``test_ml_regression.py``).  The invariants:

* physics: energy/time/power of any execution are positive and finite;
* batch == scalar parity of the SoC ``evaluate_expected_batch`` sweep and
  of the 2-D ``evaluate_expected_grid`` sweep on randomized inputs,
  single-cluster snippets included;
* GPU: a controller-driven ``run`` at one fixed configuration renders the
  same frames as ``run_fixed``, noisy or not, and every frame's time and
  energy accounting is self-consistent;
* NoC: ``run`` equals ``run_packets`` on a replay of the same traffic, every
  packet is conserved and XY-routed, and no packet beats the zero-load
  latency of its route;
* Oracle optimality: no policy can beat the Oracle table on the same
  snippets under noise-free execution, full or restricted space;
* decision-tree classifiers: ``predict`` equals the argmax of
  ``predict_proba`` for every sample.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.control.policy import RandomPolicy, StaticPolicy
from repro.core.framework import run_policy_on_snippets
from repro.core.objectives import ENERGY
from repro.core.oracle import build_oracle
from repro.gpu.gpu import GPUConfiguration, default_integrated_gpu
from repro.gpu.simulator import GPUSimulator
from repro.ml.tree import DecisionTreeClassifier
from repro.noc.router import RouterConfig
from repro.noc.simulator import NoCSimulator
from repro.noc.topology import MeshTopology
from repro.noc.traffic import HotspotTraffic, TransposeTraffic, UniformRandomTraffic
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import generic_big_little
from repro.soc.simulator import SoCSimulator
from repro.soc.snippet import Snippet, SnippetCharacteristics
from repro.workloads.graphics import figure5_benchmark_order, get_graphics_workload
from reference.tree import ScalarDecisionTreeClassifier

PROPERTY_SEEDS = list(range(8))


def random_platform(rng: np.random.Generator):
    return generic_big_little(
        n_big_cores=int(rng.integers(1, 5)),
        n_little_cores=int(rng.integers(1, 5)),
        n_big_levels=int(rng.integers(2, 7)),
        n_little_levels=int(rng.integers(2, 5)),
        big_max_frequency_hz=float(rng.uniform(1.6e9, 2.8e9)),
        little_max_frequency_hz=float(rng.uniform(0.8e9, 1.6e9)),
    )


def random_characteristics(rng: np.random.Generator) -> SnippetCharacteristics:
    return SnippetCharacteristics(
        memory_intensity=float(rng.uniform(0.0, 25.0)),
        memory_access_rate=float(rng.uniform(0.0, 1.0)),
        external_request_rate=float(rng.uniform(0.0, 1.0)),
        branch_misprediction_mpki=float(rng.uniform(0.0, 12.0)),
        ilp_factor=float(rng.uniform(0.1, 1.0)),
        parallel_fraction=float(rng.uniform(0.0, 1.0)),
        thread_count=int(rng.integers(1, 9)),
        big_fraction=float(rng.uniform(0.05, 1.0)),
    )


def random_snippet(rng: np.random.Generator, index: int = 0,
                   application: str = "random") -> Snippet:
    return Snippet(
        application=application,
        index=index,
        n_instructions=float(rng.uniform(1e6, 5e7)),
        characteristics=random_characteristics(rng),
    )


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestPhysicalInvariants:
    def test_energy_time_power_positive(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        space = ConfigurationSpace(platform)
        simulator = SoCSimulator(platform, noise_scale=0.02, seed=seed)
        for _ in range(4):
            snippet = random_snippet(rng)
            config = space.random_configuration(rng)
            for result in (simulator.run_snippet(snippet, config, rng=rng),
                           simulator.evaluate_expected(snippet, config)):
                assert np.isfinite(result.energy_j) and result.energy_j > 0.0
                assert np.isfinite(result.execution_time_s)
                assert result.execution_time_s > 0.0
                assert np.isfinite(result.average_power_w)
                assert result.average_power_w > 0.0
                counters = result.counters.as_dict()
                assert all(np.isfinite(v) and v >= 0.0
                           for v in counters.values()), counters


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestBatchScalarParity:
    def test_soc_batch_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        space = ConfigurationSpace(platform)
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=seed)
        snippet = random_snippet(rng)
        batch = simulator.evaluate_expected_batch(snippet, space)
        for i, config in enumerate(space):
            reference = simulator.evaluate_expected(snippet, config)
            assert batch.energy_j[i] == reference.energy_j
            assert batch.execution_time_s[i] == reference.execution_time_s
            assert batch.average_power_w[i] == reference.average_power_w

    def test_soc_grid_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        space = ConfigurationSpace(platform)
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=seed)
        snippets = [random_snippet(rng, index=i) for i in range(3)]
        # Pin one snippet to each cluster so the zero-instruction branch of
        # the other cluster is swept too.
        snippets[1:] = [
            dataclasses.replace(snippet, characteristics=dataclasses.replace(
                snippet.characteristics, big_fraction=fraction))
            for snippet, fraction in zip(snippets[1:], (0.0, 1.0))
        ]
        configs = list(space)
        picks = rng.choice(len(configs), size=min(6, len(configs)),
                           replace=False)
        configs = [configs[int(k)] for k in picks]
        rows = simulator.evaluate_expected_grid(snippets, configs)
        assert len(rows) == len(snippets)
        for snippet, row in zip(snippets, rows):
            assert row.snippet is snippet
            for i, config in enumerate(configs):
                reference = simulator.evaluate_expected(snippet, config)
                assert row.energy_j[i] == reference.energy_j
                assert row.execution_time_s[i] == reference.execution_time_s
                assert row.average_power_w[i] == reference.average_power_w


class _FixedGPUController:
    """GPU controller that always answers one configuration."""

    def __init__(self, config: GPUConfiguration) -> None:
        self.config = config
        self.observed = 0

    def reset(self) -> None:
        self.observed = 0

    def decide(self, upcoming_frame=None) -> GPUConfiguration:
        return self.config

    def observe(self, result) -> None:
        self.observed += 1


def random_frame_trace(rng: np.random.Generator, gpu_spec, seed: int):
    names = figure5_benchmark_order() + ["nenamark2"]
    return get_graphics_workload(
        names[int(rng.integers(0, len(names)))], gpu=gpu_spec,
        n_frames=int(rng.integers(5, 30)), seed=seed,
    )


def random_gpu_configuration(rng: np.random.Generator,
                             gpu_spec) -> GPUConfiguration:
    return GPUConfiguration(
        opp_index=int(rng.integers(0, len(gpu_spec.opps))),
        active_slices=int(rng.integers(1, gpu_spec.n_slices + 1)),
    )


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestGPUInvariants:
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_controller_run_matches_run_fixed(self, seed, deterministic):
        rng = np.random.default_rng(seed)
        gpu_spec = default_integrated_gpu()
        trace = random_frame_trace(rng, gpu_spec, seed)
        config = random_gpu_configuration(rng, gpu_spec)
        controller = _FixedGPUController(config)
        # Equal seeds: the noisy paths draw the same per-frame noise.
        controlled = GPUSimulator(gpu_spec, seed=seed).run(
            trace, controller, deterministic=deterministic)
        fixed = GPUSimulator(gpu_spec, seed=seed).run_fixed(
            trace, config, deterministic=deterministic)
        assert controller.observed == len(trace.frames)
        assert controlled.n_frames == fixed.n_frames == len(trace.frames)
        for got, want in zip(controlled.frame_results, fixed.frame_results):
            assert (got.opp_index, got.active_slices) == (
                config.opp_index, config.active_slices)
            assert got.busy_time_s == want.busy_time_s
            assert got.frame_time_s == want.frame_time_s
            assert got.gpu_energy_j == want.gpu_energy_j
            assert got.dram_energy_j == want.dram_energy_j
            assert got.cpu_energy_j == want.cpu_energy_j
            assert got.met_deadline == want.met_deadline

    def test_frame_accounting(self, seed):
        rng = np.random.default_rng(seed)
        gpu_spec = default_integrated_gpu()
        trace = random_frame_trace(rng, gpu_spec, seed)
        config = random_gpu_configuration(rng, gpu_spec)
        gpu = GPUSimulator(gpu_spec, seed=seed)
        summary = gpu.run_fixed(trace, config, deterministic=True)
        for result in summary.frame_results:
            # A frame lasts at least one vsync period and at least its
            # busy time, and misses the deadline only by overrunning it.
            assert result.frame_time_s == max(result.busy_time_s,
                                              trace.deadline_s)
            assert result.met_deadline == (
                result.busy_time_s <= trace.deadline_s + 1e-9)
            for energy in (result.gpu_energy_j, result.dram_energy_j,
                           result.cpu_energy_j):
                assert np.isfinite(energy) and energy >= 0.0
            assert result.gpu_energy_j > 0.0
        frames = summary.frame_results
        assert summary.gpu_energy_j == pytest.approx(
            sum(r.gpu_energy_j for r in frames))
        assert summary.package_dram_energy_j == pytest.approx(
            sum(r.gpu_energy_j + r.cpu_energy_j + r.dram_energy_j
                for r in frames))
        assert summary.total_time_s == pytest.approx(
            sum(r.frame_time_s for r in frames))
        assert summary.achieved_fps == pytest.approx(
            len(frames) / summary.total_time_s)
        assert summary.deadline_miss_rate == pytest.approx(
            sum(not r.met_deadline for r in frames) / len(frames))
        # A faster operating point never lengthens a frame's busy time.
        slowest, fastest = (
            GPUConfiguration(opp_index=i, active_slices=config.active_slices)
            for i in (0, len(gpu_spec.opps) - 1)
        )
        for frame in trace.frames:
            assert (gpu.render_frame(frame, fastest, trace.deadline_s,
                                     deterministic=True).busy_time_s
                    <= gpu.render_frame(frame, slowest, trace.deadline_s,
                                        deterministic=True).busy_time_s)


def random_traffic(rng: np.random.Generator, seed: int):
    """(topology, zero-argument traffic factory) for a random mesh/pattern."""
    width = int(rng.integers(2, 5))
    topology = MeshTopology(width, width)
    rate = float(rng.uniform(0.02, 0.12))
    size = int(rng.integers(1, 9))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return topology, lambda: UniformRandomTraffic(
            topology, rate, packet_size_flits=size, seed=seed)
    if kind == 1:
        return topology, lambda: TransposeTraffic(
            topology, rate, packet_size_flits=size, seed=seed)
    hotspot = int(rng.integers(0, topology.n_nodes))
    return topology, lambda: HotspotTraffic(
        topology, rate, hotspot_node=hotspot, packet_size_flits=size,
        seed=seed)


def random_router(rng: np.random.Generator) -> RouterConfig:
    return RouterConfig(router_delay_cycles=int(rng.integers(1, 6)),
                        flits_per_cycle=int(rng.integers(1, 3)))


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestNoCInvariants:
    def test_run_matches_run_packets_replay(self, seed):
        rng = np.random.default_rng(seed)
        topology, make_traffic = random_traffic(rng, seed)
        router = random_router(rng)
        n_cycles = int(rng.integers(40, 160))
        result = NoCSimulator(topology, router).run(make_traffic(), n_cycles)
        # The same seed regenerates the identical packet list.
        reference = NoCSimulator(topology, router).run_packets(
            make_traffic().generate(n_cycles), n_cycles)
        assert result.undelivered_count == reference.undelivered_count
        assert result.simulated_cycles == reference.simulated_cycles
        assert (
            [(p.packet_id, p.injection_cycle, p.ejection_cycle, p.hops)
             for p in result.delivered_packets]
            == [(p.packet_id, p.injection_cycle, p.ejection_cycle, p.hops)
                for p in reference.delivered_packets]
        )

    def test_drained_packets_are_conserved_and_routed(self, seed):
        rng = np.random.default_rng(seed)
        topology, make_traffic = random_traffic(rng, seed)
        simulator = NoCSimulator(topology, random_router(rng))
        n_cycles = int(rng.integers(40, 160))
        packets = make_traffic().generate(n_cycles)
        result = simulator.run_packets(packets, n_cycles)
        assert result.undelivered_count == 0
        assert sorted(p.packet_id for p in result.delivered_packets) == [
            p.packet_id for p in packets]
        for packet in result.delivered_packets:
            assert packet.route[0] == packet.source
            assert packet.route[-1] == packet.destination
            assert packet.hops == topology.hop_count(packet.source,
                                                     packet.destination)
            # Queueing only ever adds delay to the unloaded route latency.
            assert packet.latency_cycles >= simulator.zero_load_latency(
                packet.source, packet.destination, packet.size_flits)

    def test_undrained_run_stops_at_horizon(self, seed):
        rng = np.random.default_rng(seed)
        topology, make_traffic = random_traffic(rng, seed)
        simulator = NoCSimulator(topology, random_router(rng))
        n_cycles = int(rng.integers(20, 80))
        packets = make_traffic().generate(n_cycles)
        result = simulator.run_packets(packets, n_cycles, drain=False)
        assert result.simulated_cycles == n_cycles
        assert result.n_delivered + result.undelivered_count == len(packets)
        assert all(p.ejection_cycle <= n_cycles
                   for p in result.delivered_packets)


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestOracleOptimality:
    def _random_trace(self, rng, n):
        return [random_snippet(rng, index=i) for i in range(n)]

    def test_no_policy_beats_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        space = ConfigurationSpace(platform)
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=seed)
        snippets = self._random_trace(rng, int(rng.integers(3, 8)))
        table = build_oracle(simulator, space, snippets, ENERGY)
        policies = [
            StaticPolicy(space, space.random_configuration(rng)),
            RandomPolicy(space, seed=seed),
        ]
        for policy in policies:
            run = run_policy_on_snippets(simulator, space, policy, snippets,
                                         oracle_table=table)
            oracle_energy = table.total_cost(snippets)
            assert oracle_energy <= run.total_energy_j * (1.0 + 1e-12)
            # Per snippet too: the entry is the minimum over the space.
            assert len(run.log) == len(snippets)
            for snippet, energy in zip(snippets, run.log.column("energy_j")):
                entry = table.entry(snippet)
                assert entry.best_cost <= energy * (1.0 + 1e-12)

    def test_restricted_oracle_never_beats_full(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        space = ConfigurationSpace(platform)
        cap = int(rng.integers(0, max(1, len(platform.clusters["big"].opps) - 1)))
        restricted = space.restrict(max_opp_index=cap)
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=seed)
        snippets = self._random_trace(rng, 4)
        full = build_oracle(simulator, space, snippets, ENERGY)
        part = build_oracle(simulator, restricted, snippets, ENERGY)
        for snippet in snippets:
            assert (full.entry(snippet).best_cost
                    <= part.entry(snippet).best_cost * (1.0 + 1e-12))
            assert restricted.contains(part.entry(snippet).best_configuration)


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestTreeClassifierConsistency:
    @pytest.mark.parametrize("split_search", ["vectorized", "scalar"])
    def test_predict_matches_proba_argmax(self, seed, split_search):
        rng = np.random.default_rng(seed)
        n_samples = int(rng.integers(30, 90))
        n_classes = int(rng.integers(2, 5))
        features = rng.normal(size=(n_samples, 3))
        # Labels correlated with the features so the tree has real splits,
        # offset so class labels are not simply 0..n-1.
        labels = (np.digitize(features[:, 0] + 0.3 * features[:, 1],
                              np.linspace(-1.5, 1.5, n_classes - 1))
                  + 5) if n_classes > 1 else np.full(n_samples, 5)
        tree_class = {"vectorized": DecisionTreeClassifier,
                      "scalar": ScalarDecisionTreeClassifier}[split_search]
        tree = tree_class(max_depth=6)
        tree.fit(features, labels)
        probe = np.vstack([features, rng.normal(size=(20, 3))])
        predictions = tree.predict(probe)
        probabilities = tree.predict_proba(probe)
        assert probabilities.shape == (len(probe), len(tree.classes_))
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        np.testing.assert_array_equal(
            predictions, tree.classes_[np.argmax(probabilities, axis=1)]
        )
