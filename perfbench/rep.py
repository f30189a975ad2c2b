"""One repetition of one benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition and reads the JSON it
writes to ``--out``.  Times are measured on ``time.monotonic`` (one clock
for every process on the host) from ``--t0``, the instant the parent
started this process, so ``setup_s`` includes interpreter start-up and
imports (the service workload counts from its server's process start
instead, see :mod:`loadgen`).  With ``--trace 1`` the layer wrappers of
:mod:`tracing` are installed after the import and the repetition also
reports per-layer metrics.  With ``--check`` it also produces what the
output check of its workload compares (outside the timed region).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from tracing import Tracer, install, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload sizes.  ``bench`` is what the timed runs use; ``smoke`` is the
#: smallest size, for the benchmark's self-tests.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "fleet-online-il": {
        "bench": {"scale": "quick", "devices": 32},
        "smoke": {"scale": "tiny", "devices": 7},
    },
    "fleet-governor-sharded": {
        "bench": {"scale": "quick", "devices": 256, "shards": 2},
        "smoke": {"scale": "tiny", "devices": 8, "shards": 2},
    },
    "service-journaled": {
        "bench": {"scale": "bench", "devices": 8, "snapshot_every": 5},
        "smoke": {"scale": "tiny", "devices": 2, "snapshot_every": 5},
    },
    "paper-figures": {
        "bench": {"scale": "full"},
        "smoke": {"scale": "tiny"},
    },
}

#: The six paper figures/tables ``python -m repro.experiments`` runs by
#: default (checked against ``tests/goldens`` at tiny scale, seed 0).
PAPER_EXPERIMENTS = ("table1", "table2", "figure2", "figure3", "figure4",
                     "figure5")

#: Devices of the fleet-online-il rollout rerun sequentially by the output
#: check: one per slot of the 7-entry baseline+scenario rotation.
ONLINE_IL_SAMPLE_STRIDE = 5

#: Every 32nd device of the governor fleet is rerun single-process.
GOVERNOR_SAMPLE_STRIDE = 32


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _span(tracer: Optional[Tracer], name: str):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


def _hex_totals(energy: float, time_s: float) -> List[str]:
    return [float(energy).hex(), float(time_s).hex()]


# --------------------------------------------------------------------- #
# fleet-online-il
# --------------------------------------------------------------------- #
def fleet_online_il(args, tracer: Optional[Tracer]) -> Dict[str, Any]:
    size = SIZES[args.workload][args.size]
    with _span(tracer, "runner.import"):
        import repro.experiments.fleet as fleet_experiment
    if tracer is not None:
        install(tracer)
    marks: Dict[str, float] = {}
    sample: Dict[str, Any] = {}
    lower = fleet_experiment.build_fleet

    def lower_and_mark(devices, simulator, space, *rest, **kwargs):
        # run_fleet calls this once, right before the first lockstep round.
        marks["setup"] = time.monotonic()
        if args.check:
            picked = list(devices[::ONLINE_IL_SAMPLE_STRIDE])
            memo = {id(simulator): simulator, id(space): space}
            sample.update(devices=copy.deepcopy(picked, memo),
                          simulator=simulator, space=space)
        return lower(devices, simulator, space, *rest, **kwargs)

    fleet_experiment.build_fleet = lower_and_mark
    study = fleet_experiment.run_fleet(size["scale"], seed=args.seed,
                                   n_devices=size["devices"])
    done = time.monotonic()
    out: Dict[str, Any] = {
        "setup_s": marks["setup"] - args.t0,
        "wall_s": done - args.t0,
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "device_steps": study.total_steps,
        "device_steps_per_s": study.total_steps / (done - marks["setup"]),
        "fleet_energy_vs_oracle": study.aggregates["normalized_energy_mean"],
        "totals": {r.name: _hex_totals(r.total_energy_j, r.total_time_s)
                   for r in study.devices},
    }
    if args.check:
        from repro.fleet.device import device_session

        out["sequential_totals"] = {}
        for device in sample["devices"]:
            run = device_session(device, sample["simulator"],
                                 sample["space"]).run()
            out["sequential_totals"][device.name] = _hex_totals(
                run.total_energy_j, run.total_time_s)
    return out


# --------------------------------------------------------------------- #
# fleet-governor-sharded
# --------------------------------------------------------------------- #
def fleet_governor_sharded(args, tracer: Optional[Tracer]) -> Dict[str, Any]:
    size = SIZES[args.workload][args.size]
    with _span(tracer, "runner.import"):
        from repro.fleet import (ShardedFleetEngine, build_fleet,
                                 shutdown_workers)
        from repro.scenarios import available_scenarios
        from repro.service.run import RunConfig, build_config_devices
    if tracer is not None:
        install(tracer)
    config = RunConfig(policy="ondemand", scale=size["scale"],
                       n_devices=size["devices"], seed=args.seed,
                       scenarios=tuple(available_scenarios()))
    devices, simulator, space = build_config_devices(config)
    engine = ShardedFleetEngine(devices, simulator, space,
                                n_shards=size["shards"], collect="summaries")
    engine.prepare()
    ready = time.monotonic()
    summaries = engine.execute()
    done = time.monotonic()
    engine.close()
    shutdown_workers()
    steps = sum(s.steps for s in summaries)
    out: Dict[str, Any] = {
        "setup_s": ready - args.t0,
        "wall_s": done - args.t0,
        # The parent or a (forked, joined) shard worker, whichever is larger.
        "peak_rss_mb": max(_rss_mb(resource.RUSAGE_SELF),
                           _rss_mb(resource.RUSAGE_CHILDREN)),
        "device_steps": steps,
        "device_steps_per_s": steps / (done - ready),
        "totals": {s.name: _hex_totals(s.total_energy_j, s.total_time_s)
                   + [s.steps] for s in summaries},
    }

    def unrun(picked):
        # Shards ran on pickled copies, so ``devices`` is still unrun.
        return copy.deepcopy(picked, {id(simulator): simulator,
                                      id(space): space})

    if args.check:
        picked = unrun(devices[::GOVERNOR_SAMPLE_STRIDE])
        runs = build_fleet(picked, simulator, space).run()
        out["single_totals"] = {
            device.name: _hex_totals(run.total_energy_j, run.total_time_s)
            + [len(run.log)] for device, run in zip(picked, runs)
        }
    if tracer is not None:
        # The base of sharding.speedup_vs_single: the same devices on one
        # in-process FleetEngine.run.  Its spans are also the only
        # fleet.engine / fleet.kernels spans of this workload, because
        # spans recorded inside shard workers stay in the workers.
        sharded_s = done - ready + _span_s(tracer, "sharding.start")
        base = unrun(devices)
        start = time.perf_counter()
        build_fleet(base, simulator, space).run()
        single_s = time.perf_counter() - start
        out["layer_values"] = {"sharding.single_s": single_s,
                               "sharding.speedup_vs_single":
                                   single_s / sharded_s}
    _stop_resource_tracker()
    return out


def _stop_resource_tracker() -> None:
    """End the tracker process the shard pool started, and wait for it,
    so that no process of the repetition outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _span_s(tracer: Tracer, name: str) -> float:
    """Total duration of the spans called ``name``."""
    return sum(end - start for span_name, start, end, _ in tracer.spans
               if span_name == name)


# --------------------------------------------------------------------- #
# paper-figures
# --------------------------------------------------------------------- #
def to_jsonable(obj: Any) -> Any:
    """Result object -> JSON data, the conversion ``tests/goldens`` use."""
    import numpy as np

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__dataclass__": type(obj).__name__}
        for field in dataclasses.fields(obj):
            out[field.name] = to_jsonable(getattr(obj, field.name))
        return out
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    return {"__opaque__": type(obj).__name__}


def result_digest(result: Any) -> str:
    """sha256 of the exact (repr-precision) JSON form of a result."""
    text = json.dumps(to_jsonable(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _golden_match(expected: Any, actual: Any) -> bool:
    """Golden comparison with the tolerance ``tests/test_goldens.py`` uses."""
    if isinstance(expected, float) or isinstance(actual, float):
        if not (isinstance(expected, (int, float))
                and isinstance(actual, (int, float))):
            return False
        if math.isnan(expected) and math.isnan(actual):
            return True
        return math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12)
    if type(expected) is not type(actual):
        return False
    if isinstance(expected, dict):
        return (expected.keys() == actual.keys()
                and all(_golden_match(expected[k], actual[k])
                        for k in expected))
    if isinstance(expected, list):
        return (len(expected) == len(actual)
                and all(_golden_match(e, a) for e, a in zip(expected, actual)))
    return expected == actual


def paper_figures(args, tracer: Optional[Tracer]) -> Dict[str, Any]:
    size = SIZES[args.workload][args.size]
    with _span(tracer, "runner.import"):
        from repro.experiments import runner as cli
    if tracer is not None:
        install(tracer)
    marks: Dict[str, float] = {}
    results: Dict[str, Any] = {}
    run_one = cli.ExperimentRunner.run

    def run_and_keep(self, name, *rest, **kwargs):
        # The first experiment starts once the CLI has parsed its
        # arguments and built its runner: that is the end of set-up.
        marks.setdefault("setup", time.monotonic())
        experiment = run_one(self, name, *rest, **kwargs)
        results[name] = experiment.results[0]
        return experiment

    cli.ExperimentRunner.run = run_and_keep
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            code = cli.main(["--scale", size["scale"],
                             "--seed-base", str(args.seed)])
        finally:
            sys.stdout = stdout
    done = time.monotonic()
    if code != 0:
        raise RuntimeError(f"python -m repro.experiments exited {code}")
    from repro.experiments.figure5 import PAPER_FIGURE5_GPU_SAVINGS

    savings = results["figure5"].average("gpu_savings_percent")
    paper = statistics.fmean(PAPER_FIGURE5_GPU_SAVINGS.values())
    out: Dict[str, Any] = {
        "setup_s": marks["setup"] - args.t0,
        "wall_s": done - args.t0,
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "il_energy_vs_oracle": results["figure4"].mean("il"),
        "enmpc_gpu_savings_pct": savings,
        "enmpc_gpu_savings_error_pct": savings - paper,
        "digests": {name: result_digest(results[name])
                    for name in sorted(results)},
    }
    if args.check:
        from repro.experiments.runner import ExperimentContext, get_experiment
        from repro.experiments.scales import TINY

        context = ExperimentContext()
        golden_dir = ROOT / "tests" / "goldens"
        out["golden"] = {}
        for name in PAPER_EXPERIMENTS:
            result = get_experiment(name).runner(TINY, 0, context)
            expected = json.loads((golden_dir / f"{name}.json").read_text())
            out["golden"][name] = _golden_match(expected,
                                                to_jsonable(result))
    return out


# --------------------------------------------------------------------- #
# service-journaled
# --------------------------------------------------------------------- #
def service_journaled(args, tracer: Optional[Tracer]) -> Dict[str, Any]:
    from loadgen import drive_service

    size = SIZES[args.workload][args.size]
    return drive_service(args, size, traced=bool(args.trace))


WORKLOADS = {
    "fleet-online-il": fleet_online_il,
    "fleet-governor-sharded": fleet_governor_sharded,
    "service-journaled": service_journaled,
    "paper-figures": paper_figures,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("bench", "smoke"),
                        default="bench")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace and args.workload != "service-journaled":
        tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
    out = WORKLOADS[args.workload](args, tracer)
    if tracer is not None:
        tracer.dump(str(args.out.with_suffix(".spans.json")))
        out["layers"] = layer_metrics([tracer.payload()],
                                      out.pop("layer_values", {}))
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
