"""Tests for repro.utils (rng, records, tables) and the package exports."""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro

from repro.utils.records import RunLog, RunRecord, as_float_dict, merge_logs
from repro.utils.rng import derive_seed, make_rng, spawn_rngs
from repro.utils.tables import format_mapping, format_table


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        assert make_rng(7).integers(0, 100, 5).tolist() == \
            make_rng(7).integers(0, 100, 5).tolist()

    def test_make_rng_passthrough_generator(self):
        gen = np.random.default_rng(3)
        assert make_rng(gen) is gen

    def test_spawn_rngs_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(0, 1000, 10).tolist() != b.integers(0, 1000, 10).tolist()

    def test_spawn_rngs_deterministic(self):
        first = [g.integers(0, 1000) for g in spawn_rngs(5, 3)]
        second = [g.integers(0, 1000) for g in spawn_rngs(5, 3)]
        assert first == second

    def test_spawn_rngs_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_rngs_from_generator(self):
        gens = spawn_rngs(np.random.default_rng(0), 2)
        assert len(gens) == 2

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, [1, 2]) == derive_seed(42, [1, 2])
        assert derive_seed(42, [1, 2]) != derive_seed(42, [2, 1])


class TestRunLog:
    def test_append_and_column(self):
        log = RunLog()
        log.append(0, energy=1.0, power=2.0)
        log.append(1, energy=3.0)
        assert len(log) == 2
        assert log.column("energy").tolist() == [1.0, 3.0]
        assert np.isnan(log.column("power")[1])

    def test_steps_and_last(self):
        log = RunLog()
        log.append(0, x=1.0)
        log.append(5, x=2.0)
        assert log.steps().tolist() == [0, 5]
        assert log.last()["x"] == 2.0

    def test_last_on_empty_raises(self):
        with pytest.raises(IndexError):
            RunLog().last()

    def test_summary(self):
        log = RunLog()
        for i in range(5):
            log.append(i, value=float(i))
        summary = log.summary("value")
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 0.0 and summary["max"] == 4.0

    def test_to_dict_round_trip(self):
        log = RunLog()
        log.append(0, a=1.0, b=2.0)
        log.append(1, a=3.0, b=4.0)
        data = log.to_dict()
        assert data["a"] == [1.0, 3.0]
        assert data["step"] == [0.0, 1.0]

    def test_merge_logs(self):
        log_a, log_b = RunLog(), RunLog()
        log_a.append(0, y=1.0)
        log_b.append(0, y=9.0)
        merged = merge_logs({"a": log_a, "b": log_b}, "y")
        assert merged["a"].tolist() == [1.0]
        assert merged["b"].tolist() == [9.0]

    def test_record_get_default(self):
        record = RunRecord(step=0, values={"x": 1.0})
        assert record.get("missing", 7.0) == 7.0

    def test_as_float_dict(self):
        assert as_float_dict({"a": 1, "b": 2.5}) == {"a": 1.0, "b": 2.5}

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30))
    def test_summary_bounds_property(self, values):
        log = RunLog()
        for i, value in enumerate(values):
            log.append(i, v=value)
        summary = log.summary("v")
        tolerance = 1e-12 + 1e-9 * abs(summary["mean"])
        assert summary["min"] - tolerance <= summary["mean"] <= summary["max"] + tolerance


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_mapping(self):
        text = format_mapping({"metric": 1.23456}, precision=2)
        assert "1.23" in text

    def test_format_table_string_cells(self):
        text = format_table(["name", "v"], [["hello", 1]])
        assert "hello" in text


#: Every ``repro`` package that declares its public names in ``__all__``.
EXPORTING_PACKAGES = [
    name for name in ["repro"] + sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    )
    if hasattr(importlib.import_module(name), "__all__")
]


class TestPackageExports:
    def test_packages_found(self):
        assert "repro" in EXPORTING_PACKAGES
        assert "repro.core" in EXPORTING_PACKAGES

    @pytest.mark.parametrize("name", EXPORTING_PACKAGES)
    def test_all_names_resolve_without_duplicates(self, name):
        module = importlib.import_module(name)
        exported = list(module.__all__)
        assert len(exported) == len(set(exported)), exported
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, missing
