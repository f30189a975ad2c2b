"""The service-journaled workload: a closed-loop client with one kill -9.

One repetition starts ``python -m repro.service serve`` (journaled,
``ondemand`` devices, every scenario in the rotation) as a subprocess and
drives it from this process over at most ``nproc`` (here 2) HTTP
connections with zero think time: each connection sends its next
request as soon as the previous answer is in.  asyncio multiplexes the
connections on this one thread; no other thread is started.

The request mix is fixed by the seed.  Connection 0 sends ``GET
/status``, ``POST /dispatch`` and ``GET /report``; its dispatches are
``restrict-space`` cap toggles, a fifth of them redelivering an earlier
idempotency key.  Connection 1 sends ``GET /status`` and ``GET
/report``.  Only connection 0 dispatches, so the order in which the
server accepts dispatches is the order they were sent.

Each request is timed from the moment its connection is opened and the
request written, to the last byte of the answer.  A request that is
refused, times out or gets a non-200 answer fails and counts at the
timeout latency.

When a status answer shows the run half done, both connections finish
their request, the server gets SIGKILL and ``serve --resume`` restarts
it; the load continues until a status answer shows the run done.  The
output check, outside the timed region, compares the final per-device
digests with an uninterrupted in-process ``ServiceRun`` that applies the
accepted dispatches at their receipt rounds.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service.server import PORT_FILE
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent

#: Concurrent connections of the closed loop (at most ``nproc``).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: Per-request deadline; a failed request counts at this latency.
TIMEOUT_S = 10.0

#: Share of dispatches that redeliver an earlier idempotency key.
REDELIVERY_SHARE = 0.2

Answer = Tuple[Optional[Dict[str, Any]], float]


async def _request(port: int, method: str, path: str,
                   body: bytes = b"") -> Answer:
    """One HTTP/1.1 request: ``(payload, seconds)``, or ``(None,
    TIMEOUT_S)`` when it is refused, times out or is not a 200."""
    start = time.perf_counter()
    writer = None
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", port), TIMEOUT_S)
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            .encode("ascii") + body)
        await writer.drain()
        left = max(0.001, TIMEOUT_S - (time.perf_counter() - start))
        raw = await asyncio.wait_for(reader.read(), left)
    except (OSError, asyncio.TimeoutError):
        return None, TIMEOUT_S
    finally:
        if writer is not None:
            writer.close()
    elapsed = time.perf_counter() - start
    head, _, payload = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2 or status_line[1] != b"200":
        return None, TIMEOUT_S
    try:
        return json.loads(payload), elapsed
    except ValueError:
        return None, TIMEOUT_S


class _Load:
    """Shared state of the closed loop (one event-loop thread)."""

    def __init__(self, seed: int, n_devices: int, port: int) -> None:
        self.seed = seed
        self.n_devices = n_devices
        self.port = port
        self.records: List[Tuple[str, float, bool]] = []
        self.rounds = 0
        self.done = False
        self.done_at: Optional[float] = None
        self.final_status: Optional[Dict[str, Any]] = None
        self.kill_round: Optional[int] = None
        self.accepted: List[Tuple[Any, int]] = []
        self.sent: List[Tuple[str, bytes, int]] = []
        self.redelivered = 0
        self.redelivery_mismatches = 0
        self.caps: Dict[str, Optional[int]] = {}
        self.keys = 0

    def half_done(self) -> bool:
        return self.done or (self.kill_round is not None
                             and self.rounds >= self.kill_round)

    def note_status(self, status: Dict[str, Any]) -> None:
        self.rounds = status["rounds"]
        if self.kill_round is None:
            self.kill_round = max(d["trace_steps"]
                                  for d in status["devices"]) // 2
        if status["done"] and not self.done:
            self.done = True
            self.done_at = time.monotonic()
            self.final_status = status

    async def connection(self, index: int, stop) -> None:
        from repro.service.protocol import (DispatchCommand, decode_message,
                                            dumps_message)

        rng = random.Random(f"service-load:{self.seed}:{index}")
        while not stop():
            draw = rng.random()
            if index == 0 and 0.4 <= draw < 0.8:
                await self._dispatch(rng, DispatchCommand, dumps_message,
                                     decode_message)
            elif draw < (0.4 if index == 0 else 0.7):
                payload, elapsed = await _request(self.port, "GET",
                                                  "/status")
                self.records.append(("status", elapsed, payload is not None))
                if payload is not None:
                    self.note_status(payload)
            else:
                payload, elapsed = await _request(self.port, "GET",
                                                  "/report")
                self.records.append(("report", elapsed, payload is not None))

    async def _dispatch(self, rng, command_cls, dumps, decode) -> None:
        if self.sent and rng.random() < REDELIVERY_SHARE:
            key, body, apply_round = self.sent[rng.randrange(len(self.sent))]
            payload, elapsed = await _request(self.port, "POST", "/dispatch",
                                              body)
            self.records.append(("dispatch", elapsed, payload is not None))
            if payload is not None:
                receipt = decode(payload)
                self.redelivered += 1
                if (receipt.status != "duplicate"
                        or receipt.apply_round != apply_round):
                    self.redelivery_mismatches += 1
            return
        device = f"device-{rng.randrange(self.n_devices):02d}"
        cap = None if self.caps.get(device) is not None else rng.randrange(4)
        self.keys += 1
        command = command_cls(command="restrict-space", device=device,
                              value=cap,
                              idempotency_key=f"load-{self.seed}-{self.keys}")
        body = dumps(command).encode("utf-8")
        payload, elapsed = await _request(self.port, "POST", "/dispatch",
                                          body)
        self.records.append(("dispatch", elapsed, payload is not None))
        if payload is None:
            return
        receipt = decode(payload)
        if receipt.status == "accepted":
            self.caps[device] = cap
            self.accepted.append((command, receipt.apply_round))
            self.sent.append((command.idempotency_key, body,
                              receipt.apply_round))

    async def run_phase(self, stop) -> None:
        await asyncio.gather(*(self.connection(i, stop)
                               for i in range(CONNECTIONS)))


def _server_command(args, size: Dict[str, Any], journal: Path,
                    resume: bool, spans: Optional[Path]) -> List[str]:
    from repro.scenarios import available_scenarios

    if spans is not None:
        command = [sys.executable, str(HERE / "serve.py"), str(spans)]
    else:
        command = [sys.executable, "-m", "repro.service"]
    command += ["serve", "--journal", str(journal)]
    if resume:
        return command + ["--resume"]
    command += ["--policy", "ondemand", "--scale", size["scale"],
                "--devices", str(size["devices"]), "--seed", str(args.seed),
                "--snapshot-every", str(size["snapshot_every"])]
    for name in available_scenarios():
        command += ["--scenario", name]
    return command


async def _wait_ready(server: subprocess.Popen, journal: Path,
                      deadline_s: float = 60.0) -> Tuple[int, Dict[str, Any]]:
    """Poll until the server's first 200 from ``/status``."""
    deadline = time.monotonic() + deadline_s
    port_file = journal / PORT_FILE
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with {server.returncode}")
        text = port_file.read_text().strip() if port_file.exists() else ""
        if text:
            payload, _ = await _request(int(text), "GET", "/status")
            if payload is not None:
                return int(text), payload
        await asyncio.sleep(0.002)
    raise RuntimeError("server did not answer /status in time")


def _reference_digests(args, size: Dict[str, Any],
                       accepted: List[Tuple[Any, int]]) -> Dict[str, str]:
    """Uninterrupted in-process run applying the accepted dispatches."""
    from repro.scenarios import available_scenarios
    from repro.service.run import RunConfig, ServiceRun

    config = RunConfig(policy="ondemand", scale=size["scale"],
                       n_devices=size["devices"], seed=args.seed,
                       scenarios=tuple(available_scenarios()),
                       snapshot_every=size["snapshot_every"])
    reference = ServiceRun.start(config=config)
    queue = sorted(accepted, key=lambda item: item[1])
    position = 0
    while not reference.done:
        while position < len(queue) and queue[position][1] == reference.rounds:
            reference.dispatch(queue[position][0])
            position += 1
        reference.step_round()
    return reference.digests()


async def _drive(args, size: Dict[str, Any], journal: Path,
                 spans_dir: Optional[Path]) -> Dict[str, Any]:
    def spans(tag: str) -> Optional[Path]:
        return spans_dir / f"{tag}.spans.json" if spans_dir else None

    command = _server_command(args, size, journal, False, spans("first"))
    # Set-up and wall time count from the server's process start.
    started = time.monotonic()
    server = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    try:
        port, status = await _wait_ready(server, journal)
        ready = time.monotonic()
        load = _Load(args.seed, size["devices"], port)
        load.note_status(status)
        await load.run_phase(load.half_done)
        resume_command = _server_command(args, size, journal, True,
                                         spans("resumed"))
        killed = time.monotonic()
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        (journal / PORT_FILE).unlink(missing_ok=True)
        server = subprocess.Popen(resume_command, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        load.port, status = await _wait_ready(server, journal)
        recovery_s = time.monotonic() - killed
        load.note_status(status)
        await load.run_phase(lambda: load.done)
        await _request(load.port, "POST", "/shutdown")
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
    return {"started": started, "ready": ready, "recovery_s": recovery_s,
            "load": load, "server_exit": server.returncode}


def drive_service(args, size: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """One service-journaled repetition; returns its measurements."""
    work = args.out.parent / f"service-{os.getpid()}"
    journal = work / "journal"
    work.mkdir(parents=True, exist_ok=True)
    try:
        driven = asyncio.run(_drive(args, size, journal,
                                    work if traced else None))
        load: _Load = driven["load"]
        if load.final_status is None or load.done_at is None:
            raise RuntimeError("the load ended before the run was done")
        out: Dict[str, Any] = {
            "setup_s": driven["ready"] - driven["started"],
            "wall_s": load.done_at - driven["started"],
            # Only the two server processes are children of this process.
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "recovery_s": driven["recovery_s"],
            "server_exit": driven["server_exit"],
            "requests": [[route, elapsed, ok]
                         for route, elapsed, ok in load.records],
            "redelivered": load.redelivered,
            "redelivery_mismatches": load.redelivery_mismatches,
        }
        devices = load.final_status["devices"]
        steps = sum(d["trace_steps"] for d in devices)
        out["device_steps"] = steps
        out["device_steps_per_s"] = steps / (load.done_at - driven["ready"])
        out["digests"] = {d["name"]: d["digest"] for d in devices}
        out["reference_digests"] = _reference_digests(args, size,
                                                      load.accepted)
        if traced:
            out["layers"] = _service_layers(work, load, driven)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def _service_layers(work: Path, load: _Load,
                    driven: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics: the resumed server's spans plus client timings.

    The SIGKILLed server's spans are lost with it (spans stay in memory
    until the process ends), so server-side layers cover the resumed
    half of the run, recovery included.
    """
    traces = [json.loads(path.read_text())
              for path in sorted(work.glob("*.spans.json"))]
    ok = [(route, elapsed) for route, elapsed, good in load.records if good]
    values: Dict[str, float] = {}
    for route in ("status", "dispatch", "report"):
        times = [elapsed for r, elapsed in ok if r == route]
        values[f"http.{route}_ms"] = (statistics.median(times) * 1e3
                                      if times else 0.0)
    rounds = load.final_status["rounds"] if load.final_status else 0
    busy = load.done_at - driven["ready"] - driven["recovery_s"]
    if ok and rounds and busy > 0:
        mean_latency = statistics.fmean(elapsed for _, elapsed in ok)
        values["http.rounds_per_request"] = mean_latency / (busy / rounds)
    return layer_metrics(traces, values)
