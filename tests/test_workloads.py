"""Tests for the workload specifications, generators, suites and sequences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.soc.snippet import SnippetCharacteristics
from repro.workloads import (
    ALL_CPU_APPS,
    CORTEX_APPS,
    GRAPHICS_APPS,
    MIBENCH_APPS,
    PARSEC_APPS,
    SnippetTraceGenerator,
    WorkloadPhase,
    WorkloadSpec,
    build_online_sequence,
    figure4_workloads,
    get_graphics_workload,
    get_workload,
    table2_workloads,
    workloads_by_suite,
)
from repro.scenarios import BurstyIdle
from repro.workloads.spec import single_phase_workload
from repro.workloads.suites import training_workloads, unseen_workloads
from reference.trace_generator import (
    ScalarTraceGenerator,
    bursty_idle_transform,
)


class TestWorkloadSpec:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            WorkloadPhase(SnippetCharacteristics(), n_snippets=0)
        with pytest.raises(ValueError):
            WorkloadPhase(SnippetCharacteristics(), jitter=-0.1)

    def test_spec_requires_phases(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", suite="test", phases=())

    def test_n_snippets_and_total_instructions(self):
        spec = single_phase_workload("x", "test", SnippetCharacteristics(),
                                     n_snippets=7, snippet_instructions=1e6)
        assert spec.n_snippets == 7
        assert spec.total_instructions == pytest.approx(7e6)

    def test_scaled_changes_length_not_characteristics(self):
        spec = single_phase_workload("x", "test", SnippetCharacteristics(),
                                     n_snippets=20)
        shorter = spec.scaled(0.25)
        assert shorter.n_snippets == 5
        assert shorter.name == spec.name
        with pytest.raises(ValueError):
            spec.scaled(0.0)

    def test_scaled_never_drops_to_zero(self):
        spec = single_phase_workload("x", "test", SnippetCharacteristics(),
                                     n_snippets=3)
        assert spec.scaled(0.01).n_snippets >= 1

    def test_mean_characteristics_weighted(self):
        light = SnippetCharacteristics(memory_intensity=1.0)
        heavy = SnippetCharacteristics(memory_intensity=9.0)
        spec = WorkloadSpec(
            name="two-phase", suite="test",
            phases=(WorkloadPhase(light, n_snippets=3),
                    WorkloadPhase(heavy, n_snippets=1)),
        )
        assert spec.mean_characteristics().memory_intensity == pytest.approx(3.0)


class TestTraceGenerator:
    def test_generates_requested_length(self):
        generator = SnippetTraceGenerator(seed=0)
        spec = get_workload("fft")
        trace = generator.generate(spec)
        assert len(trace) == spec.n_snippets
        assert all(s.application == "fft" for s in trace)
        assert [s.index for s in trace] == list(range(len(trace)))

    def test_deterministic_given_seed(self):
        spec = get_workload("qsort")
        trace_a = SnippetTraceGenerator(seed=5).generate(spec)
        trace_b = SnippetTraceGenerator(seed=5).generate(spec)
        assert all(
            a.characteristics.memory_intensity == b.characteristics.memory_intensity
            for a, b in zip(trace_a, trace_b)
        )

    def test_jitter_stays_near_mean(self):
        spec = get_workload("kmeans")
        trace = SnippetTraceGenerator(seed=1).generate(spec)
        mean_mpki = np.mean([s.characteristics.memory_intensity for s in trace])
        assert mean_mpki == pytest.approx(
            spec.mean_characteristics().memory_intensity, rel=0.2)

    def test_generate_many_concatenates(self):
        generator = SnippetTraceGenerator(seed=0)
        specs = [get_workload("fft").scaled(0.2), get_workload("sha").scaled(0.2)]
        trace = generator.generate_many(specs)
        assert len(trace) == sum(s.n_snippets for s in specs)
        assert trace[0].application == "fft"
        assert trace[-1].application == "sha"

    @settings(max_examples=20, deadline=None)
    @given(jitter=st.floats(min_value=0.0, max_value=0.3))
    def test_generated_characteristics_always_valid(self, jitter):
        spec = single_phase_workload(
            "prop", "test",
            SnippetCharacteristics(memory_intensity=5.0, memory_access_rate=0.5),
            n_snippets=5, jitter=jitter,
        )
        for snippet in SnippetTraceGenerator(seed=0).generate(spec):
            chars = snippet.characteristics
            assert 0.0 <= chars.memory_access_rate <= 1.0
            assert chars.memory_intensity >= 0.0
            assert 0.0 < chars.ilp_factor <= 1.0


class TestPhaseSampling:
    """The phase-at-a-time generator == the snippet-by-snippet reference.

    Equal characteristics *and* an equal final generator state: the next
    consumer of a shared stream (the next application of a sequence, a
    scenario transform) must see exactly the draws it saw before.
    """

    SEEDS = range(8)
    FACTORS = (0.5, 1.0, 2.0)

    @staticmethod
    def _assert_same(trace, reference):
        assert len(trace) == len(reference)
        for snippet, expected in zip(trace, reference):
            assert snippet == expected, snippet.name

    @pytest.mark.parametrize("name", sorted(ALL_CPU_APPS))
    def test_every_suite_spec_matches_reference(self, name):
        for seed in self.SEEDS:
            for factor in self.FACTORS:
                spec = ALL_CPU_APPS[name].scaled(factor)
                rng = np.random.default_rng(seed)
                expected_rng = np.random.default_rng(seed)
                trace = SnippetTraceGenerator().generate(spec, rng=rng)
                reference = ScalarTraceGenerator().generate(spec,
                                                            expected_rng)
                self._assert_same(trace, reference)
                assert (rng.bit_generator.state
                        == expected_rng.bit_generator.state)

    def test_zero_jitter_draws_nothing(self):
        spec = single_phase_workload(
            "steady", "test",
            SnippetCharacteristics(memory_intensity=3, ilp_factor=1,
                                   memory_access_rate=0.4),
            n_snippets=6, jitter=0.0,
        )
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        trace = SnippetTraceGenerator().generate(spec, rng=rng)
        assert rng.bit_generator.state == before
        reference = ScalarTraceGenerator().generate(
            spec, np.random.default_rng(3))
        self._assert_same(trace, reference)
        assert [type(s.characteristics.memory_intensity) for s in trace] == [
            type(s.characteristics.memory_intensity) for s in reference
        ]

    @pytest.mark.parametrize("idle_jitter", [0.0, 0.10, 0.4])
    def test_bursty_idle_matches_reference(self, idle_jitter):
        scenario = BurstyIdle(burst=4, idle_gap=3, idle_jitter=idle_jitter)
        for seed in self.SEEDS:
            snippets = tuple(SnippetTraceGenerator(seed=seed).generate(
                ALL_CPU_APPS["fft"].scaled(0.5)))
            rng = np.random.default_rng(100 + seed)
            expected_rng = np.random.default_rng(100 + seed)
            trace = scenario._transform(snippets, rng)
            reference = bursty_idle_transform(scenario, snippets,
                                              expected_rng)
            self._assert_same(trace.snippets, reference.snippets)
            assert (rng.bit_generator.state
                    == expected_rng.bit_generator.state)


class TestSuites:
    def test_suite_membership_counts(self):
        assert len(MIBENCH_APPS) == 10
        assert len(CORTEX_APPS) == 4
        assert len(PARSEC_APPS) == 2
        assert len(ALL_CPU_APPS) == 16

    def test_figure4_order_covers_all_apps(self):
        assert len(figure4_workloads()) == 16
        assert {w.name for w in figure4_workloads()} == set(ALL_CPU_APPS)

    def test_table2_workloads(self):
        names = [w.name for w in table2_workloads()]
        assert "bml" in names and "blackscholes-4t" in names
        assert len(names) == 9

    def test_get_workload_case_insensitive_and_errors(self):
        assert get_workload("KMEANS").name == "kmeans"
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_workloads_by_suite(self):
        assert {w.suite for w in workloads_by_suite("cortex")} == {"cortex"}
        with pytest.raises(KeyError):
            workloads_by_suite("spec2006")

    def test_training_and_unseen_partition(self):
        train = {w.name for w in training_workloads()}
        unseen = {w.name for w in unseen_workloads()}
        assert train.isdisjoint(unseen)
        assert train | unseen == set(ALL_CPU_APPS)

    def test_suite_distribution_shift(self):
        """Cortex apps are markedly more memory intensive than Mi-Bench apps."""
        mibench_mpki = np.mean([w.mean_characteristics().memory_intensity
                                for w in MIBENCH_APPS.values()])
        cortex_mpki = np.mean([w.mean_characteristics().memory_intensity
                               for w in CORTEX_APPS.values()])
        assert cortex_mpki > 2.0 * mibench_mpki

    def test_parsec_apps_are_multithreaded(self):
        assert all(w.mean_characteristics().thread_count > 1
                   for w in PARSEC_APPS.values())


class TestSequences:
    def test_default_sequence_covers_unseen_apps(self):
        sequence = build_online_sequence(snippet_factor=0.5, seed=0)
        apps = sequence.applications()
        assert set(apps) == {w.name for w in unseen_workloads()}
        assert len(sequence) == sum(
            w.scaled(0.5).n_snippets for w in unseen_workloads())

    def test_boundaries_recorded(self):
        sequence = build_online_sequence(snippet_factor=0.5, seed=0)
        assert sequence.boundaries[sequence.applications()[0]] == 0

    def test_application_slice(self):
        sequence = build_online_sequence(snippet_factor=0.5, seed=0)
        app = sequence.applications()[0]
        assert all(s.application == app for s in sequence.application_slice(app))


class TestGraphicsWorkloads:
    def test_ten_figure5_benchmarks(self):
        assert len(GRAPHICS_APPS) == 10

    def test_trace_generation_scales_with_load(self):
        light = get_graphics_workload("angrybirds", n_frames=100, seed=0)
        heavy = get_graphics_workload("gfxbench-trex", n_frames=100, seed=0)
        assert heavy.mean_work_cycles() > 2.0 * light.mean_work_cycles()
        assert len(light) == 100

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            get_graphics_workload("crysis")

    def test_nenamark_trace_available(self):
        trace = get_graphics_workload("nenamark2", n_frames=50, seed=0)
        assert trace.target_fps == 60.0
        assert trace.deadline_s == pytest.approx(1.0 / 60.0)

    def test_trace_deterministic_for_seed(self):
        a = get_graphics_workload("sharkdash", n_frames=30, seed=7)
        b = get_graphics_workload("sharkdash", n_frames=30, seed=7)
        assert [f.work_cycles for f in a.frames] == [f.work_cycles for f in b.frames]
