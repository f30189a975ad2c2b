"""Self-tests of the benchmark.

Run from the root of a checkout (not part of the tier-1 ``tests/`` run)::

    python -m pytest perfbench/tests -q

Every workload runs once at its smallest size (``--size smoke``) and must
print each of its metrics with its unit; a corrupted output must fail its
check and raise ``fail_frac``; and ``BENCHMARK.json`` must name exactly
the metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rep import SIZES  # noqa: E402
from run import ALL_END_TO_END, END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = sorted(SIZES)


def run_bench(workload: str, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return lines, detail, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    lines, detail, result = parse(run_bench(workload))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    expected = {name for name, (_unit, workloads) in ALL_END_TO_END.items()
                if workload in workloads}
    assert set(detail["metrics"]) == expected
    text = "\n".join(lines)
    for name in expected:
        unit = ALL_END_TO_END[name][0]
        assert detail["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in lines), f"{name} [{unit}] missing:\n{text}"
    assert detail["metrics"]["fail_frac"]["value"] == 0.0
    assert set(detail["host"]) >= {"nproc", "python", "numpy", "commit"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_prints_every_layer_metric(workload):
    _lines, _detail, result = parse(run_bench(workload, "--trace", "1"))
    assert result["correct"] is True
    assert set(result["metrics"]) == set(LAYER_METRICS)
    for name, (unit, _source) in LAYER_METRICS.items():
        assert result["metrics"][name]["unit"] == unit
    # Every workload imports the program; the import span must be seen.
    assert result["metrics"]["runner.import_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_fails_its_check(workload):
    lines, detail, result = parse(run_bench(workload, "--corrupt-output"))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert detail["metrics"]["fail_frac"]["value"] > 0.0
    assert any(line.strip().startswith("check failed:") for line in lines)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _source) in LAYER_METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(SIZES)
    rationale = json.loads((HERE / "rationale.json").read_text())
    assert set(rationale["layer_map"]) == set(LAYER_METRICS)
    assert set(rationale["end_to_end"]) == set(ALL_END_TO_END)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_tmp" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(WORKLOADS[0], cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
