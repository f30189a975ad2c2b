"""Tests for the crash-safe fleet control-plane service.

The headline property — the **recovery invariant** — is pinned here:
``kill -9`` at any fleet-round boundary, then recover from the journal,
and the completed run's per-device state digests are bitwise identical
to an uninterrupted run.  The suite proves it in-process across kill
points, dispatch histories and damaged snapshots, and end-to-end over
HTTP with a real SIGKILL'd server subprocess.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fleet.device import build_fleet
from repro.service.journal import read_journal
from repro.service.protocol import (
    DispatchCommand,
    RunGenesis,
    ShutdownNotice,
    SnapshotManifest,
    StepBoundary,
)
from repro.service.run import RunConfig, ServiceRun, build_config_devices
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    ServiceServer,
)

CONFIG = RunConfig(policy="ondemand", scale="tiny", n_devices=2, seed=7,
                   snapshot_every=3)


def _run_reference(config=CONFIG, script=None):
    """Uninterrupted run (optionally with scripted dispatches)."""
    run = ServiceRun.start(config=config)
    _drive(run, script=dict(script or {}))
    return run


def _drive(run, script=None, stop_at=None):
    """Step to completion, issuing ``script[round]`` dispatches on the way."""
    script = script if script is not None else {}
    while not run.done:
        if run.rounds in script:
            receipt = run.dispatch(script.pop(run.rounds))
            assert receipt.status in ("accepted", "duplicate")
        run.step_round()
        if stop_at is not None and run.rounds >= stop_at:
            return


class TestZeroJournalIdentity:
    def test_matches_bare_fleet_engine(self):
        """The journal-free path adds nothing to the hot loop's results."""
        service = ServiceRun.start(config=CONFIG)
        service.run_to_completion()

        devices, simulator, space = build_config_devices(CONFIG)
        engine = build_fleet(devices, simulator, space)
        engine.run()
        bare = {device.name: session.state_digest()
                for device, session in zip(devices, engine.sessions)}
        assert service.digests() == bare

    def test_journaled_run_matches_unjournaled(self, tmp_path):
        """Journaling is pure observation: identical results either way."""
        plain = ServiceRun.start(config=CONFIG)
        plain.run_to_completion()
        journaled = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        journaled.run_to_completion()
        assert journaled.digests() == plain.digests()


class TestRecoveryInvariant:
    @pytest.mark.parametrize("kill_at", [1, 3, 5, 40])
    def test_kill_and_recover_is_bitwise(self, tmp_path, kill_at):
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=kill_at)
        del run  # kill -9: no shutdown, no close, journal left as-is
        recovered = ServiceRun.recover(tmp_path)
        _drive(recovered)
        assert recovered.digests() == reference.digests()

    @pytest.mark.parametrize("kill_at", [2, 4, 7])
    def test_recovery_replays_dispatches_bitwise(self, tmp_path, kill_at):
        """Dispatches journal-before-apply: caps and policy swaps survive
        the crash and re-apply at their recorded boundaries."""
        script = {
            1: DispatchCommand(command="restrict-space", device="device-00",
                               value=1, idempotency_key="cap-on"),
            3: DispatchCommand(command="set-policy", device="device-01",
                               value="powersave", idempotency_key="swap"),
            6: DispatchCommand(command="restrict-space", device="device-00",
                               value=None, idempotency_key="cap-off"),
        }
        reference = _run_reference(script=script)
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, script=dict(script), stop_at=kill_at)
        del run
        recovered = ServiceRun.recover(tmp_path)
        _drive(recovered, script=dict(script))  # redelivery: keys dedupe
        assert recovered.digests() == reference.digests()

    def test_recovery_survives_corrupt_newest_snapshot(self, tmp_path):
        """A bit-rotted snapshot fails its manifest sha256 and recovery
        falls back to the previous rotation — still bitwise identical."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=2 * CONFIG.snapshot_every)
        del run
        manifests = [m for m in read_journal(tmp_path / "journal.bin")[0]
                     if isinstance(m, SnapshotManifest)]
        newest = manifests[-1]
        victim = tmp_path / newest.files[0][1]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds < newest.round  # fell back
        _drive(recovered)
        assert recovered.digests() == reference.digests()

    def test_recovery_with_no_usable_snapshots_rebuilds_fresh(self, tmp_path):
        """All rotations destroyed: recovery replays from round 0."""
        import shutil

        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=4)
        del run
        shutil.rmtree(tmp_path / "snapshots")
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 0
        _drive(recovered)
        assert recovered.digests() == reference.digests()

    def test_external_fleet_mode_recovers(self, tmp_path):
        """A caller-built fleet journals too; the caller rebuilds the same
        fleet for recovery (the genesis records external mode)."""
        devices, simulator, space = build_config_devices(CONFIG)
        reference_engine = build_fleet(devices, simulator, space)
        reference_engine.run()
        expected = {device.name: session.state_digest()
                    for device, session in
                    zip(devices, reference_engine.sessions)}

        devices2, simulator2, space2 = build_config_devices(CONFIG)
        run = ServiceRun.start(devices=devices2, simulator=simulator2,
                               space=space2, journal_dir=tmp_path,
                               snapshot_every=3)
        _drive(run, stop_at=4)
        del run
        with pytest.raises(ValueError, match="externally built"):
            ServiceRun.recover(tmp_path)
        devices3, simulator3, space3 = build_config_devices(CONFIG)
        recovered = ServiceRun.recover(tmp_path, devices=devices3,
                                       simulator=simulator3, space=space3)
        _drive(recovered)
        assert recovered.digests() == expected


class TestDispatchSemantics:
    def test_journal_before_apply(self, tmp_path):
        """An accepted dispatch is durable before it mutates anything."""
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        run.step_round()
        receipt = run.dispatch(DispatchCommand(
            command="pause", idempotency_key="p1",
        ))
        assert receipt.status == "accepted"
        # Not yet applied (applies at the next boundary)...
        assert run.paused is False
        # ...but already journaled.
        journaled = [m for m in read_journal(tmp_path / "journal.bin")[0]
                     if isinstance(m, DispatchCommand)]
        assert journaled and journaled[-1].idempotency_key == "p1"
        run.step_round()
        assert run.paused is True
        run.close()

    def test_idempotent_redelivery(self):
        run = ServiceRun.start(config=CONFIG)
        command = DispatchCommand(command="restrict-space",
                                  device="device-00", value=1,
                                  idempotency_key="once")
        first = run.dispatch(command)
        second = run.dispatch(command)
        assert first.status == "accepted"
        assert second.status == "duplicate"
        assert second.apply_round == first.apply_round

    def test_idempotency_survives_restart(self, tmp_path):
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        run.step_round()
        command = DispatchCommand(command="restrict-space",
                                  device="device-00", value=1,
                                  idempotency_key="durable-key")
        assert run.dispatch(command).status == "accepted"
        del run
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.dispatch(command).status == "duplicate"

    def test_rejected_dispatches(self):
        run = ServiceRun.start(config=CONFIG)
        unknown = run.dispatch(DispatchCommand(
            command="restrict-space", device="no-such-device", value=1,
        ))
        assert unknown.status == "rejected"
        bad_policy = run.dispatch(DispatchCommand(
            command="set-policy", device="device-00", value="online-il",
        ))
        assert bad_policy.status == "rejected"
        assert run.errors  # surfaced as ErrorReports

    def test_pause_resume_and_recovery_while_paused(self, tmp_path):
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        run.dispatch(DispatchCommand(command="pause", idempotency_key="p"))
        run.step_round()  # applies the pause; no fleet progress
        assert run.paused
        run.run_to_completion()  # must terminate immediately, not spin
        assert not run.done
        del run
        recovered = ServiceRun.recover(tmp_path)  # paused state replays
        recovered.dispatch(DispatchCommand(command="resume",
                                           idempotency_key="r"))
        _drive(recovered)
        assert recovered.done
        assert recovered.digests() == reference.digests()


class TestTelemetry:
    def test_status_and_reports(self, tmp_path):
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=3)
        status = run.status()
        assert status["rounds"] == 3
        assert status["journaled"] is True
        assert len(status["devices"]) == CONFIG.n_devices
        reports = run.reports()
        assert [r.device for r in reports] == ["device-00", "device-01"]
        assert all(r.round == 3 for r in reports)
        assert all(r.state_digest for r in reports)
        run.close()

    def test_journal_records_genesis_boundaries_shutdown(self, tmp_path):
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=2)
        run.shutdown("test-drain")
        messages, truncated = read_journal(tmp_path / "journal.bin")
        assert truncated is False
        assert isinstance(messages[0], RunGenesis)
        boundaries = [m for m in messages if isinstance(m, StepBoundary)]
        assert [b.round for b in boundaries] == [1, 2]
        assert isinstance(messages[-1], ShutdownNotice)

    def test_flatline_alert_emitted_for_stalled_device(self):
        config = RunConfig(
            policy="ondemand", scale="tiny", n_devices=2, seed=7,
            snapshot_every=5,
            faults=({"type": "StragglerStall",
                     "params": {"device": "device-00", "step": 2,
                                "rounds": 8}},),
        )
        run = ServiceRun.start(config=config)
        run.run_to_completion()
        assert any(alert.device == "device-00" for alert in run.alerts)


# --------------------------------------------------------------------- #
# HTTP request parsing (in process, no socket)
# --------------------------------------------------------------------- #
class _CapturedWriter:
    """Stand-in for the connection's StreamWriter that keeps the bytes."""

    def __init__(self) -> None:
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass


def _exchange(raw: bytes, eof: bool = True):
    """Serve one raw request; return (status, JSON body, unread bytes)."""
    server = ServiceServer(ServiceRun.start(config=CONFIG),
                           request_timeout=5.0)

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        if eof:
            reader.feed_eof()
        writer = _CapturedWriter()
        await server._handle_connection(reader, writer)
        if not eof:
            reader.feed_eof()
        return writer.data, await reader.read()

    response, unread = asyncio.run(go())
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body), unread


class TestHTTPParsing:
    @pytest.mark.parametrize("value", ["abc", "-1", "+5", "1.5", "", "\u00b2"])
    def test_bad_content_length_is_400(self, value):
        raw = (f"POST /pause HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
               .encode("latin-1"))
        status, payload, _ = _exchange(raw)
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_oversized_body_is_413_and_never_read(self):
        body = b"x" * 32
        raw = (f"POST /dispatch HTTP/1.1\r\n"
               f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n").encode()
        # No EOF until the response is written: reading the announced body
        # would block until the request deadline (408) instead.
        status, payload, unread = _exchange(raw + body, eof=False)
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert unread == body

    def test_body_at_the_cap_is_accepted(self):
        raw = (f"POST /pause HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}"
               "\r\n\r\n").encode() + b" " * MAX_BODY_BYTES
        status, _, _ = _exchange(raw)
        # Whitespace is not a JSON object: rejected by the route, not the
        # size check.
        assert status == 400

    def test_too_many_headers_is_431(self):
        headers = "".join(f"X-Filler-{i}: {i}\r\n"
                          for i in range(MAX_HEADER_LINES + 1))
        raw = f"GET /status HTTP/1.1\r\n{headers}\r\n".encode()
        status, payload, _ = _exchange(raw)
        assert status == 431
        assert str(MAX_HEADER_LINES) in payload["error"]

    def test_headers_at_the_limit_are_served(self):
        headers = "".join(f"X-Filler-{i}: {i}\r\n"
                          for i in range(MAX_HEADER_LINES - 1))
        raw = (f"GET /status HTTP/1.1\r\n{headers}Content-Length: 0\r\n"
               "\r\n").encode()
        status, payload, _ = _exchange(raw)
        assert status == 200
        assert payload["rounds"] == 0


# --------------------------------------------------------------------- #
# End-to-end over HTTP (subprocess server)
# --------------------------------------------------------------------- #
def _service_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _wait_port(journal: Path, process, timeout=60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server died early with code {process.returncode}"
            )
        port_file = journal / "server.port"
        if port_file.exists() and port_file.read_text().strip():
            return int(port_file.read_text().strip())
        time.sleep(0.05)
    raise AssertionError("server never published its port")


class TestServerSubprocess:
    def test_sigterm_drains_gracefully(self, tmp_path):
        """SIGTERM: finish the round, journal the drain, exit 0."""
        journal = tmp_path / "run"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--journal", str(journal), "--devices", "2", "--seed", "7",
             "--snapshot-every", "3", "--step-delay", "0.05"],
            env=_service_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            port = _wait_port(journal, process)
            from repro.service.client import ServiceClient

            client = ServiceClient(port=port)
            status = client.wait_rounds(2)
            assert status["rounds"] >= 2
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        assert process.returncode == 0
        messages, truncated = read_journal(journal / "journal.bin")
        assert truncated is False
        assert isinstance(messages[-1], ShutdownNotice)
        assert messages[-1].reason == "SIGTERM"

    def test_demo_kill9_resume_bitwise(self):
        """The full CI exercise: serve -> dispatch -> kill -9 -> resume ->
        digests match an uninterrupted reference.  Exit 0 is the proof."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "demo",
             "--devices", "2", "--seed", "7", "--kill-after-rounds", "4"],
            env=_service_env(), capture_output=True, text=True, timeout=420,
        )
        assert result.returncode == 0, result.stderr
        assert "bitwise identical" in result.stderr
