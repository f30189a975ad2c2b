"""Tests for repro.utils (rng, records, tables) and the package exports."""

import hashlib
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro

from repro.utils.records import RunLog, RunRecord
from repro.utils.rng import derive_seed, make_rng, spawn_rngs
from repro.utils.tables import format_mapping, format_table
from reference.run_log import ReferenceRunLog, reference_digest


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

    def test_to_dict_round_trip(self):
        log = RunLog()
        log.append(0, a=1.0, b=2.0)
        log.append(1, a=3.0, b=4.0)
        data = log.to_dict()
        assert data["a"] == [1.0, 3.0]
        assert data["step"] == [0.0, 1.0]

    def test_record_get_default(self):
        record = RunRecord(step=0, values={"x": 1.0})
        assert record.get("missing", 7.0) == 7.0


_BASE_COLUMNS = ("energy_j", "time_s", "power_w", "big_opp", "little_opp")
_ORACLE_COLUMNS = ("oracle_big_opp", "oracle_match", "oracle_energy_j")
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _session_like_rows(draw):
    """Rows shaped like a session's: the base columns on every step, the
    Oracle columns on some steps, ``throttled`` from some step on."""
    n = draw(st.integers(0, 40))
    throttled_from = draw(st.integers(0, n + 1))
    rows = []
    for row in range(n):
        values = {key: draw(_ANY_FLOAT) for key in _BASE_COLUMNS}
        if row >= throttled_from:
            values["throttled"] = float(draw(st.booleans()))
        if draw(st.booleans()):
            values.update({key: draw(_ANY_FLOAT) for key in _ORACLE_COLUMNS})
        rows.append((draw(st.integers(0, 2**40)), values))
    return rows


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _assert_logs_equal(log, reference):
    """Equal to_dict (keys in order, values bitwise), column(key, default)
    and digest bytes."""
    got, want = log.to_dict(), reference.to_dict()
    assert list(got) == list(want)
    for key in want:
        assert _bits(got[key]) == _bits(want[key]), key
    for key in list(want) + ["never_written"]:
        for default in (float("nan"), 0.0, -2.5):
            assert (_bits(log.column(key, default))
                    == _bits(reference.column(key, default))), (key, default)
    digest, reference_hash = hashlib.sha256(), hashlib.sha256()
    log.update_digest(digest)
    reference_digest(reference, reference_hash)
    assert digest.digest() == reference_hash.digest()


class TestRunLogMatchesReference:
    """The column-array RunLog against the list-of-records reference in
    ``tests/reference/run_log.py``."""

    @settings(max_examples=60, deadline=None)
    @given(rows=_session_like_rows(), capacity=st.integers(0, 50))
    def test_random_step_sequences(self, rows, capacity):
        log, reference = RunLog(capacity), ReferenceRunLog()
        for step, values in rows:
            log.append(step, **values)
            reference.append(step, **values)
        assert len(log) == len(reference)
        _assert_logs_equal(log, reference)

    def test_throttled_from_a_later_step(self):
        log, reference = RunLog(4), ReferenceRunLog()
        for step in range(4):
            values = {"energy_j": 1.0 + step}
            if step >= 2:
                values["throttled"] = 1.0
            log.append(step, **values)
            reference.append(step, **values)
        assert list(log.to_dict()) == ["step", "energy_j", "throttled"]
        assert log.column("throttled", 0.0).tolist() == [0.0, 0.0, 1.0, 1.0]
        _assert_logs_equal(log, reference)

    def test_empty_log(self):
        log = RunLog(3)
        assert len(log) == 0
        assert log.to_dict() == {"step": []}
        _assert_logs_equal(log, ReferenceRunLog())


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
