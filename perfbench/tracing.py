"""In-memory span tracing installed from outside the program.

The benchmark never edits ``src/``: it wraps the public functions each
layer exposes, at the name the caller looks up (a function imported by
name into a caller module is re-bound there; a method is re-bound on its
class).  Every call records a span ``[name, start, end, parent]`` in a
list that stays in memory; :meth:`Tracer.dump` writes it once when the
process is done.  Counters are taken by the same wrappers, at the same
boundaries.

:func:`layer_metrics` turns the spans and counters of one traced
repetition into the ``<layer>.<what>`` per-layer metrics.  A layer's
``*_s`` figure is *self* time: the span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Span stack and counters of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self.engines: List[Any] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = _clock()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, kwargs, result)``
        updates counters once the call returned."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def payload(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "engine_steps": sum(e.steps_executed for e in self.engines),
            "engine_batched": sum(e.batched_executions for e in self.engines),
        }

    def dump(self, path: str) -> None:
        """Write spans and counters (once, when the process is done)."""
        with open(path, "w") as handle:
            json.dump(self.payload(), handle)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.index)


# --------------------------------------------------------------------- #
# Installing the wrappers
# --------------------------------------------------------------------- #
def _rebind_function(tracer: Tracer, module_name: str, attr: str, name: str,
                     after: Optional[Callable] = None) -> None:
    """Wrap a module-level function at every ``repro`` binding of it.

    Callers import these functions by name (``from repro.fleet.kernels
    import lockstep_execute``), so the caller's own module attribute is
    the name that is looked up at call time; each such binding (and the
    defining module's, for callers imported later) is replaced.
    """
    original = getattr(importlib.import_module(module_name), attr)
    traced = tracer.wrap(original, name, after)
    for mod_name, module in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) \
                and getattr(module, attr, None) is original:
            setattr(module, attr, traced)


def _rebind_method(tracer: Tracer, module_name: str, cls_name: str,
                   attr: str, name: str,
                   after: Optional[Callable] = None) -> None:
    """Wrap a method on its class (callers look it up through the class)."""
    cls = getattr(importlib.import_module(module_name), cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(cls, attr, type(raw)(tracer.wrap(raw.__func__, name, after)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, after))


#: Modules imported before the wrappers go in, so that every caller's
#: by-name binding exists when it is re-bound.
_CALLER_MODULES = (
    "repro.experiments.runner",
    "repro.experiments.fleet",
    "repro.experiments.common",
    "repro.experiments.figure5",
    "repro.service.run",
    "repro.service.server",
    "repro.service.journal",
    "repro.fleet",
    "repro.fleet.engine",
    "repro.fleet.sharding",
    "repro.fleet.supervisor",
    "repro.scenarios.runtime",
    "repro.core.framework",
    "repro.core.offline_il",
    "repro.core.online_il",
    "repro.ml.mlp",
    "repro.ml.rls",
    "repro.models.power",
    "repro.models.performance",
    "repro.control.explicit_nmpc",
    "repro.control.nmpc",
    "repro.gpu.simulator",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    for module_name in _CALLER_MODULES:
        importlib.import_module(module_name)
    counts = tracer.counts

    def count_hit(args, kwargs, result):
        counts["oracle.cache_hits"] += result is not None

    def count_rows(args, kwargs, result):
        counts["mlp.retrain_rows"] += len(args[1])

    def count_scalar(args, kwargs, result):
        if not kwargs.get("policy_observed", False):
            counts["session.scalar_steps"] += 1

    def count_snapshot_bytes(args, kwargs, result):
        counts["snapshot.bytes"] += os.path.getsize(args[1])

    def register_engine(args, kwargs, result):
        engine = args[0]
        if not getattr(engine, "_perfbench_seen", False):
            engine._perfbench_seen = True
            tracer.engines.append(engine)

    functions = (
        ("repro.workloads.sequences", "build_online_sequence",
         "workloads.trace", None),
        ("repro.core.oracle", "build_oracle", "oracle.build", None),
        ("repro.scenarios.runtime", "build_scenario_oracle",
         "oracle.build", None),
        ("repro.ml.rls", "rls_update_fleet", "rls.update", None),
        ("repro.fleet.kernels", "lockstep_execute", "kernels.execute", None),
        ("repro.service.journal", "read_journal", "journal.read", None),
    )
    for module_name, attr, name, after in functions:
        _rebind_function(tracer, module_name, attr, name, after)

    journal_cls = importlib.import_module("repro.service.journal").Journal
    append = journal_cls.append

    def traced_append(self, message):
        before = self._handle.tell()
        index = tracer.begin("journal.append")
        try:
            append(self, message)
        finally:
            tracer.end(index)
        counts["journal.bytes"] += self._handle.tell() - before

    journal_cls.append = traced_append

    methods = (
        ("repro.scenarios.base", "ScenarioSpec", "apply",
         "workloads.trace", None),
        ("repro.core.oracle", "OracleCache", "lookup", "oracle.lookup",
         count_hit),
        ("repro.core.oracle", "OracleCache", "store", "oracle.store", None),
        ("repro.soc.simulator", "SoCSimulator", "evaluate_expected_batch",
         "oracle.sweep", None),
        ("repro.core.framework", "OnlineLearningFramework", "train_offline",
         "offline_il.train", None),
        ("repro.core.online_il", "OnlineILPolicy", "fleet_decide",
         "online_il.decide", None),
        ("repro.core.online_il", "OnlineILPolicy", "fleet_observe",
         "online_il.observe", None),
        ("repro.ml.mlp", "FleetMLPStack", "partial_fit_rows", "mlp.retrain",
         count_rows),
        ("repro.ml.mlp", "MLPClassifier", "partial_fit", "mlp.partial_fit",
         None),
        ("repro.core.session", "PolicySession", "decide", "session.decide",
         None),
        ("repro.core.session", "PolicySession", "execute", "session.execute",
         None),
        ("repro.core.session", "PolicySession", "observe", "session.observe",
         count_scalar),
        ("repro.core.session", "PolicySession", "save_snapshot",
         "snapshot.save", count_snapshot_bytes),
        ("repro.core.session", "PolicySession", "load_snapshot",
         "snapshot.load", None),
        ("repro.fleet.engine", "FleetEngine", "step", "fleet.step",
         register_engine),
        ("repro.fleet.sharding", "ShardedFleetEngine", "__init__",
         "sharding.start", None),
        ("repro.fleet.sharding", "ShardedFleetEngine", "prepare",
         "sharding.start", None),
        ("repro.fleet.sharding", "ShardedFleetEngine", "execute",
         "sharding.run", None),
        ("repro.fleet.sharding", "ShardedFleetEngine", "close",
         "sharding.run", None),
        ("repro.fleet.supervisor", "FleetSupervisor", "step_round",
         "supervisor.round", None),
        ("repro.service.run", "ServiceRun", "recover", "service.recover",
         None),
        ("repro.service.run", "ServiceRun", "status", "service.status", None),
        ("repro.service.run", "ServiceRun", "dispatch", "service.dispatch",
         None),
        ("repro.service.run", "ServiceRun", "reports", "service.report", None),
        ("repro.control.explicit_nmpc", "ExplicitNMPCGpuController", "fit",
         "enmpc.fit", None),
        ("repro.control.nmpc", "NMPCGpuController", "solve", "enmpc.solve",
         None),
        ("repro.gpu.simulator", "GPUSimulator", "run", "gpu.sim", None),
    )
    for module_name, cls_name, attr, name, after in methods:
        _rebind_method(tracer, module_name, cls_name, attr, name, after)


# --------------------------------------------------------------------- #
# Spans -> per-layer metrics
# --------------------------------------------------------------------- #
#: Per-layer metric -> (unit, how it is read from a trace).  ``self:``
#: sums the self time of the named spans, ``calls:`` counts them, and
#: ``count:`` reads a counter taken by a wrapper.  The rest are derived
#: in :func:`layer_metrics` or measured by the workload itself.
LAYER_METRICS: Dict[str, tuple] = {
    "runner.import_s": ("s", "self:runner.import"),
    "workloads.trace_s": ("s", "self:workloads.trace"),
    "workloads.traces": ("count", "calls:workloads.trace"),
    "oracle.build_s": ("s", "self:oracle.build"),
    "oracle.sweep_s": ("s", "self:oracle.sweep"),
    "oracle.sweeps": ("count", "calls:oracle.sweep"),
    "oracle.cache_s": ("s", "self:oracle.lookup,oracle.store"),
    "oracle.cache_lookups": ("count", "calls:oracle.lookup"),
    "oracle.cache_hit_ratio": ("ratio", "derived"),
    "offline_il.train_s": ("s", "self:offline_il.train"),
    "online_il.decide_s": ("s", "self:online_il.decide"),
    "online_il.observe_s": ("s", "self:online_il.observe"),
    "mlp.retrain_s": ("s", "self:mlp.retrain"),
    "mlp.retrains": ("count", "calls:mlp.retrain"),
    "mlp.retrain_rows": ("count", "count:mlp.retrain_rows"),
    "mlp.partial_fit_s": ("s", "self:mlp.partial_fit"),
    "rls.update_s": ("s", "self:rls.update"),
    "session.decide_s": ("s", "self:session.decide"),
    "session.execute_s": ("s", "self:session.execute"),
    "session.observe_s": ("s", "self:session.observe"),
    "session.scalar_steps": ("count", "count:session.scalar_steps"),
    "fleet.step_s": ("s", "self:fleet.step"),
    "fleet.rounds": ("count", "calls:fleet.step"),
    "fleet.batched_frac": ("ratio", "derived"),
    "kernels.execute_s": ("s", "self:kernels.execute"),
    "sharding.start_s": ("s", "self:sharding.start"),
    "sharding.run_s": ("s", "self:sharding.run"),
    "sharding.single_s": ("s", "workload"),
    "sharding.speedup_vs_single": ("ratio", "workload"),
    "supervisor.round_s": ("s", "self:supervisor.round"),
    "journal.append_s": ("s", "self:journal.append"),
    "journal.appends": ("count", "calls:journal.append"),
    "journal.bytes": ("bytes", "count:journal.bytes"),
    "journal.read_s": ("s", "self:journal.read"),
    "snapshot.save_s": ("s", "self:snapshot.save"),
    "snapshot.saves": ("count", "calls:snapshot.save"),
    "snapshot.bytes": ("bytes", "count:snapshot.bytes"),
    "snapshot.load_s": ("s", "self:snapshot.load"),
    "service.recover_s": ("s", "self:service.recover"),
    "service.status_s": ("s", "self:service.status"),
    "service.dispatch_s": ("s", "self:service.dispatch"),
    "service.report_s": ("s", "self:service.report"),
    "http.status_ms": ("ms", "workload"),
    "http.dispatch_ms": ("ms", "workload"),
    "http.report_ms": ("ms", "workload"),
    "http.rounds_per_request": ("ratio", "workload"),
    "enmpc.fit_s": ("s", "self:enmpc.fit"),
    "enmpc.solves": ("count", "calls:enmpc.solve"),
    "gpu.sim_s": ("s", "self:gpu.sim"),
    "tracing.overhead_frac": ("ratio", "run"),
}


def self_times(spans: List[List[Any]]) -> Dict[str, float]:
    """Self time per span name (duration minus direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return totals


def layer_metrics(traces: List[Dict[str, Any]],
                  workload_values: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``traces`` are the dumps of every traced process of the repetition
    (one for in-process workloads; the load generator and the resumed
    server for the service).  ``workload_values`` carries the figures the
    workload measures itself (client-side HTTP latency, the
    single-process sharding base); a layer the workload never reaches
    reads 0.
    """
    selfs: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    engine_steps = engine_batched = 0
    for trace in traces:
        for name, value in self_times(trace["spans"]).items():
            selfs[name] += value
        calls.update(span[0] for span in trace["spans"])
        counts.update(trace["counts"])
        engine_steps += trace["engine_steps"]
        engine_batched += trace["engine_batched"]
    out: Dict[str, float] = {}
    for metric, (_unit, source) in LAYER_METRICS.items():
        kind, _, names = source.partition(":")
        if kind == "self":
            out[metric] = sum(selfs[n] for n in names.split(","))
        elif kind == "calls":
            out[metric] = float(sum(calls[n] for n in names.split(",")))
        elif kind == "count":
            out[metric] = float(counts[names])
        elif kind == "workload":
            out[metric] = float(workload_values.get(metric, 0.0))
    lookups = calls["oracle.lookup"]
    out["oracle.cache_hit_ratio"] = (
        counts["oracle.cache_hits"] / lookups if lookups else 0.0)
    out["fleet.batched_frac"] = (
        engine_batched / engine_steps if engine_steps else 0.0)
    return out
