"""Benchmark of the reproduction: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet-online-il --seed 0 \\
        --seconds 28 --trace 0

Each repetition of the workload runs in a fresh process (``rep.py``) until
``--seconds`` are used up; the run reports the median over its
repetitions.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics (``tracing.py``) plus the tracing overhead.  The output checks
run after the measured repetitions and are counted in ``attempted`` /
``failed``.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"setup_s": {"value": 1.23, "unit": "s"}, ...}}

The line before it, prefixed ``detail``, carries every end-to-end metric
the workload defines (request latency, recovery time, the simulated
energy figures ...) and the host facts; ``suite.py`` aggregates it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from rep import SIZES
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The end-to-end metrics of the result line (BENCHMARK.json): the ones
#: every workload defines that hold a regression bound on a noisy 2-core
#: host.  wall_s is defined everywhere too, but its run-to-run spread
#: there (0.08-0.31) reaches the largest bound allowed, so it is reported
#: on the detail line only (see rationale.json).
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}

#: Every end-to-end metric, with the workloads that define it.
ALL_END_TO_END: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "setup_s": ("s", tuple(SIZES)),
    "wall_s": ("s", tuple(SIZES)),
    "device_steps_per_s": ("steps/s", ("fleet-online-il",
                                       "fleet-governor-sharded",
                                       "service-journaled")),
    "peak_rss_mb": ("MB", tuple(SIZES)),
    "request_p50_ms": ("ms", ("service-journaled",)),
    "request_p90_ms": ("ms", ("service-journaled",)),
    "recovery_s": ("s", ("service-journaled",)),
    "fail_frac": ("ratio", tuple(SIZES)),
    "fleet_energy_vs_oracle": ("ratio", ("fleet-online-il",)),
    "il_energy_vs_oracle": ("ratio", ("paper-figures",)),
    "enmpc_gpu_savings_pct": ("%", ("paper-figures",)),
}

#: Recorded result digests of the paper-figures workload, per size and seed.
EXPECTED_FILE = HERE / "expected.json"


class Checks:
    """Output-check operations of one run (``attempted`` / ``failed``)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# --------------------------------------------------------------------- #
# Repetitions
# --------------------------------------------------------------------- #
def _child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Anything the program puts in a temporary file stays in the checkout.
    env["TMPDIR"] = str(work)
    # Fixed hashing and single-threaded BLAS: fewer sources of run-to-run
    # spread on a small host.  Results do not depend on either.
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _rep(args, work: Path, index: int, trace: int,
         check: bool) -> Dict[str, Any]:
    out = work / f"rep-{index}.json"
    t0 = time.monotonic()
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--t0", repr(t0), "--out", str(out),
               "--trace", str(trace)]
    if check:
        command.append("--check")
    proc = subprocess.run(command, cwd=ROOT, env=_child_env(work),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} repetition {index} exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(out.read_text())
    result["process_s"] = time.monotonic() - t0
    return result


def measure(args, work: Path) -> Tuple[Dict, List[Dict], List[Dict]]:
    """The check repetition, then the measured repetitions.

    The first repetition warms the host's file cache and produces what
    the output checks compare (with ``--check``, which adds work inside
    the process); its times are not reported.  Measured repetitions --
    untraced, or alternately untraced and traced with ``--trace 1`` --
    continue while the next one is expected to end within ``--seconds``
    of the start; there is always at least one (one pair when traced).
    """
    start = time.monotonic()
    first = _rep(args, work, 0, 0, check=True)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    batch = [0, 1] if args.trace else [0]
    longest = 0.0
    while True:
        for trace in batch:
            rep = _rep(args, work, 1 + len(plain) + len(traced), trace,
                       check=False)
            (traced if trace else plain).append(rep)
            longest = max(longest, rep["process_s"])
        if time.monotonic() - start + longest * len(batch) > args.seconds:
            return first, plain, traced


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #
def _corrupt(text: str) -> str:
    """Change the last character of a hex string or digest."""
    return text[:-1] + ("0" if text[-1] != "0" else "1")


def _same_across_reps(checks: Checks, first: Dict, reps: List[Dict],
                      key: str) -> None:
    """Every process of the run must produce the same ``key`` output."""
    for index, rep in enumerate(reps, start=1):
        checks.expect(rep[key] == first[key],
                      f"repetition {index}: {key} differ from repetition 0")


def check_fleet_online_il(args, first, reps) -> Checks:
    checks = Checks()
    _same_across_reps(checks, first, reps, "totals")
    _same_across_reps(checks, first, reps, "fleet_energy_vs_oracle")
    sequential = first["sequential_totals"]
    if args.corrupt_output:
        name = sorted(sequential)[0]
        sequential[name][0] = _corrupt(sequential[name][0])
    for name, totals in sorted(sequential.items()):
        checks.expect(totals == first["totals"][name],
                      f"{name}: sequential rerun {totals} != lockstep "
                      f"{first['totals'][name]}")
    return checks


def check_fleet_governor_sharded(args, first, reps) -> Checks:
    checks = Checks()
    _same_across_reps(checks, first, reps, "totals")
    single = first["single_totals"]
    if args.corrupt_output:
        name = sorted(single)[0]
        single[name][0] = _corrupt(single[name][0])
    for name, totals in sorted(single.items()):
        checks.expect(totals == first["totals"][name],
                      f"{name}: single-process {totals} != sharded "
                      f"{first['totals'][name]}")
    return checks


def check_service_journaled(args, first, reps) -> Checks:
    checks = Checks()
    for index, rep in enumerate([first] + reps):
        for route, _elapsed, ok in rep["requests"]:
            checks.expect(ok, f"repetition {index}: a {route} request failed")
        checks.expect(rep["server_exit"] == 0,
                      f"repetition {index}: server exited "
                      f"{rep['server_exit']}")
        mismatches = rep["redelivery_mismatches"]
        for attempt in range(rep["redelivered"]):
            checks.expect(attempt >= mismatches,
                          f"repetition {index}: a redelivered dispatch was "
                          "not answered as a duplicate of its first receipt")
        expected = rep["reference_digests"]
        if args.corrupt_output and index == 0:
            expected["device-00"] = _corrupt(expected["device-00"])
        checks.expect(rep["digests"] == expected,
                      f"repetition {index}: digests after kill -9 + resume "
                      "differ from the uninterrupted reference")
    return checks


def check_paper_figures(args, first, reps) -> Checks:
    checks = Checks()
    digests = first["digests"]
    if args.corrupt_output:
        digests["figure5"] = _corrupt(digests["figure5"])
    _same_across_reps(checks, first, reps, "digests")
    recorded = (json.loads(EXPECTED_FILE.read_text())
                .get("paper-figures", {}).get(args.size, {})
                .get(str(args.seed)))
    if recorded is not None:
        for name in sorted(recorded):
            checks.expect(digests.get(name) == recorded[name],
                          f"{name}: digest differs from {EXPECTED_FILE.name}")
    for name, ok in sorted(first["golden"].items()):
        checks.expect(ok, f"{name}: tiny-scale seed-0 result differs from "
                          "tests/goldens")
    return checks


CHECKS: Dict[str, Callable] = {
    "fleet-online-il": check_fleet_online_il,
    "fleet-governor-sharded": check_fleet_governor_sharded,
    "service-journaled": check_service_journaled,
    "paper-figures": check_paper_figures,
}


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #
def _median(reps: List[Dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload: str, reps: List[Dict],
               checks: Checks) -> Dict[str, float]:
    """Every end-to-end metric the workload defines (median over reps)."""
    values = {"setup_s": _median(reps, "setup_s"),
              "wall_s": _median(reps, "wall_s"),
              "peak_rss_mb": _median(reps, "peak_rss_mb"),
              "fail_frac": len(checks.failures) / max(1, checks.attempted)}
    if workload != "paper-figures":
        values["device_steps_per_s"] = _median(reps, "device_steps_per_s")
    if workload == "service-journaled":
        # A failed request counts at the timeout latency (rep records it).
        latencies = [elapsed * 1e3 for rep in reps
                     for _route, elapsed, _ok in rep["requests"]]
        values["request_p50_ms"] = _percentile(latencies, 0.5)
        values["request_p90_ms"] = _percentile(latencies, 0.9)
        values["recovery_s"] = _median(reps, "recovery_s")
    for simulated in ("fleet_energy_vs_oracle", "il_energy_vs_oracle",
                      "enmpc_gpu_savings_pct"):
        if simulated in reps[0]:
            values[simulated] = reps[0][simulated]
    return values


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts() -> Dict[str, Any]:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "commit": commit, "src_sha256": _source_digest()}


def _metric_lines(values: Dict[str, float], units: Dict[str, str],
                  reps: int) -> List[str]:
    return [f"  {name:28s} {values[name]:14.6g} {units[name]:8s} "
            f"(median of {reps})" for name in sorted(values)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench",
                        help="smoke: the smallest size, for self-tests")
    parser.add_argument("--corrupt-output", action="store_true",
                        help="self-test: corrupt one output before its check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # The build: byte-compile the package once, so every repetition
    # imports from warm caches.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    work = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        first, plain, traced = measure(args, work)
        checks = CHECKS[args.workload](args, first, plain + traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    detail = end_to_end(args.workload, plain, checks)
    units = {name: unit for name, (unit, _) in ALL_END_TO_END.items()}
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"repetitions={len(plain)} traced={len(traced)}")
    print("\n".join(_metric_lines(detail, units, len(plain))))
    if args.trace:
        layers = {name: statistics.median(rep["layers"][name]
                                          for rep in traced)
                  for name in LAYER_METRICS if name != "tracing.overhead_frac"}
        layers["tracing.overhead_frac"] = (
            _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0)
        layer_units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        print("\n".join(_metric_lines(layers, layer_units, len(traced))))
        reported = {name: {"value": layers[name], "unit": layer_units[name]}
                    for name in LAYER_METRICS}
    else:
        reported = {name: {"value": detail[name], "unit": unit}
                    for name, unit in END_TO_END.items()}
    for failure in checks.failures:
        print(f"  check failed: {failure}")
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in detail.items()},
        "paper_error": ({"enmpc_gpu_savings_error_pct":
                         first["enmpc_gpu_savings_error_pct"]}
                        if "enmpc_gpu_savings_error_pct" in first else {}),
        "host": host_facts(),
    }, sort_keys=True))
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": len(checks.failures),
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
