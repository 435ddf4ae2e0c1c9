"""Remote execution backend: loopback fabric integration tests.

Everything here runs against real sockets on 127.0.0.1 — launched
worker subprocesses, dialed worker daemons, and hand-rolled misbehaving
peers — asserting the fabric's two core promises: byte-identical
results versus inline execution, and recovery (requeue through the
``worker-crash`` taxonomy) when workers die or go silent mid-sweep.
"""

import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib

import pytest

from repro import __version__
from repro.experiments import RunConfig, run_named
from repro.experiments.api import ExperimentSpec, SweepTask
from repro.experiments.backends import protocol
from repro.experiments.backends.base import execute_task
from repro.experiments.backends.protocol import (
    COMPRESS_MIN_BYTES,
    Channel,
    ProtocolError,
    available_codecs,
    format_addr,
    negotiate_codec,
    parse_addr,
    recv_frame,
    send_frame,
)
from repro.experiments.backends.remote import (
    RemoteBackend,
    RemoteFabricError,
)
from repro.experiments.cache import BlobCache
from repro.experiments.parallel import run_spec
from repro.experiments.resilience import ResilienceConfig
from repro.experiments.specs import merge_series_fragments
from repro.obs import Observability, TraceRecorder

SCALE = 0.02
SEED = 11

#: Launcher template whose workers heartbeat fast enough for the tight
#: liveness timeouts the drop tests use.
FAST_LAUNCHER = (f"{sys.executable} -m repro.cli worker "
                 "--connect {addr} --heartbeat-interval 0.2")


def probe_spec(params):
    return ExperimentSpec(
        name="remote-probe", description="d", tags=("t",),
        decompose=lambda scale, seed: [
            SweepTask("remote-probe", (p["index"],), "flaky_probe", p)
            for p in params],
        merge=lambda scale, seed, ordered: merge_series_fragments(ordered))


def clean_params(n=6):
    return [{"index": i, "value": float(i * 3)} for i in range(n)]


class TestProtocol:
    def test_parse_and_format_addr(self):
        assert parse_addr("10.0.0.7:781") == ("10.0.0.7", 781)
        assert parse_addr(":7800") == ("127.0.0.1", 7800)
        assert format_addr(("10.0.0.7", 781)) == "10.0.0.7:781"
        with pytest.raises(ValueError):
            parse_addr("no-port")

    def test_ipv6_addr_parse_and_format(self):
        assert parse_addr("[::1]:9000") == ("::1", 9000)
        assert parse_addr("[fe80::2]:81") == ("fe80::2", 81)
        assert format_addr(("::1", 9000)) == "[::1]:9000"
        # format/parse roundtrip on a bracketed literal
        assert parse_addr(format_addr(("fe80::2", 81))) == ("fe80::2", 81)
        with pytest.raises(ValueError, match="bracket it"):
            parse_addr("::1:9000")  # bare IPv6 literal, ambiguous
        with pytest.raises(ValueError, match="empty bracketed"):
            parse_addr("[]:9000")

    def test_negotiate_codec(self):
        assert "zlib" in available_codecs()
        assert negotiate_codec("auto", ("zlib",)) == "zlib"
        assert negotiate_codec("auto", ()) is None  # CFW1 peer
        assert negotiate_codec("none", ("zlib",)) is None
        assert negotiate_codec(None, ("zlib",)) is None
        assert negotiate_codec("zlib", ("zstd", "zlib")) == "zlib"
        # an explicit codec the peer lacks falls back to uncompressed
        assert negotiate_codec("zlib", ()) is None

    def test_compressed_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = {"blob": "x" * (COMPRESS_MIN_BYTES * 8)}
            n2 = send_frame(a, "result", payload, codec="zlib")
            n1 = send_frame(a, "result", payload)  # CFW1, uncompressed
            assert n2 < n1  # the compressible payload actually shrank
            assert recv_frame(b) == ("result", payload)
            assert recv_frame(b) == ("result", payload)
        finally:
            a.close()
            b.close()

    def test_small_frames_ship_raw_on_compressed_channel(self):
        a, b = socket.socketpair()
        try:
            # Below COMPRESS_MIN_BYTES the CFW2 frame is raw: exactly
            # one byte (the codec id) larger than its CFW1 twin.
            n2 = send_frame(a, "heartbeat", codec="zlib")
            n1 = send_frame(a, "heartbeat")
            assert n2 == n1 + 1
            assert recv_frame(b) == ("heartbeat", {})
            assert recv_frame(b) == ("heartbeat", {})
        finally:
            a.close()
            b.close()

    def test_incompressible_payload_ships_raw(self):
        a, b = socket.socketpair()
        try:
            payload = {"noise": os.urandom(COMPRESS_MIN_BYTES * 4)}
            send_frame(a, "result", payload, codec="zlib")
            kind, got = recv_frame(b)
            assert kind == "result"
            assert got["noise"] == payload["noise"]
        finally:
            a.close()
            b.close()

    def test_channel_meters_both_directions(self):
        a, b = socket.socketpair()
        tx, rx = Channel(a), Channel(b)
        try:
            tx.codec = "zlib"
            sent = tx.send("task", {"data": "y" * 4096})
            assert rx.recv() == ("task", {"data": "y" * 4096})
            assert tx.bytes_out == sent == rx.bytes_in
            assert sent < 4096  # compressed on the wire
        finally:
            tx.close()
            rx.close()

    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, "task", {"tid": 3, "params": [1.5, "x"]})
            send_frame(a, "heartbeat")
            assert recv_frame(b) == ("task", {"tid": 3,
                                              "params": [1.5, "x"]})
            assert recv_frame(b) == ("heartbeat", {})
        finally:
            a.close()
            b.close()

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"BOGUS-PROTOCOL-GARBAGE-LONG-ENOUGH")
            with pytest.raises(ProtocolError, match="bad frame magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    @staticmethod
    def _send_zlib_frame(sock, body):
        """Send ``body`` as a zlib-coded CFW2 frame from a thread (the
        reader may stop before draining it)."""
        frame = struct.pack(">4sBI", b"CFW2", 1, len(body)) + body
        t = threading.Thread(target=sock.sendall, args=(frame,),
                             daemon=True)
        t.start()
        return t

    def test_compression_bomb_rejected_in_bounded_memory(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1 << 20)
        comp = zlib.compressobj(9)
        zeros = bytes(1 << 20)
        body = b"".join(comp.compress(zeros) for _ in range(64))
        body += comp.flush()  # 64 MiB of zeros in well under 1 MiB
        del zeros
        a, b = socket.socketpair()
        try:
            sender = self._send_zlib_frame(a, body)
            tracemalloc.start()
            try:
                with pytest.raises(ProtocolError, match="over"):
                    recv_frame(b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert peak < 4 << 20, f"peak {peak / 2**20:.1f} MiB"
        finally:
            a.close()
            b.close()

    def test_trailing_bytes_after_zlib_stream_rejected(self):
        body = zlib.compress(b"payload") + b"junk"
        a, b = socket.socketpair()
        try:
            sender = self._send_zlib_frame(a, body)
            with pytest.raises(ProtocolError, match="trailing"):
                recv_frame(b)
            sender.join(timeout=10)
            assert not sender.is_alive()
        finally:
            a.close()
            b.close()

    def test_clean_eof_at_frame_boundary(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()


class TestLoopbackParity:
    def test_launched_workers_match_inline(self):
        inline = run_named("fig5a", SCALE, SEED)
        with RunConfig(backend="remote", launch=2) as cfg:
            remote = run_named("fig5a", SCALE, SEED, config=cfg)
        assert remote.digest == inline.digest
        assert ([s.to_dict() for s in remote.series]
                == [s.to_dict() for s in inline.series])
        assert remote.metrics == inline.metrics

    def test_traced_run_matches_inline_trace(self):
        def traced(cfg=None):
            obs = Observability(trace=TraceRecorder())
            run_named("fig5a", SCALE, SEED, obs=obs, config=cfg)
            return obs.digest()

        with RunConfig(backend="remote", launch=2) as cfg:
            remote_digest = traced(cfg)
        assert remote_digest == traced()

    def test_fabric_shared_across_runs_and_cache_is_artifact_store(
            self, tmp_path):
        with RunConfig(backend="remote", launch=2,
                       cache_dir=str(tmp_path / "cache")) as cfg:
            first = run_named("fig5a", SCALE, SEED, config=cfg)
            backend = cfg.make_backend()
            second = run_named("fig5b", SCALE, SEED, config=cfg)
            assert cfg.make_backend() is backend  # one fabric, both runs
        assert first.tasks_cached == 0
        # Worker-computed blobs landed in the scheduler-side cache: a
        # plain inline re-run is served entirely from it.
        warm = run_named(
            "fig5a", SCALE, SEED,
            config=RunConfig(cache_dir=str(tmp_path / "cache")))
        assert warm.tasks_cached == warm.tasks_total
        assert warm.digest == first.digest
        assert second.tasks_total > 0


class TestDialOutWorkers:
    def test_listening_daemons_serve_a_sweep(self):
        procs, addrs = [], []
        try:
            for i in range(2):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "worker",
                     "--listen", "127.0.0.1:0", "--once", "--id", f"w{i}"],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
                procs.append(proc)
                line = proc.stdout.readline()
                match = re.search(r"listening on (\S+)", line)
                assert match, f"no address line from worker: {line!r}"
                addrs.append(match.group(1))
            inline = run_named("fig5a", SCALE, SEED)
            with RunConfig(backend="remote",
                           workers=",".join(addrs)) as cfg:
                remote = run_named("fig5a", SCALE, SEED, config=cfg)
            assert remote.digest == inline.digest
            # --once: the bye at close() retires both daemons.
            for proc in procs:
                assert proc.wait(timeout=30) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.stdout.close()


class TestWorkerLoss:
    def test_killed_worker_requeues_onto_survivor(self, tmp_path):
        # Task 2 SIGKILLs its worker daemon on the first attempt; the
        # sweep must finish on the surviving worker with a digest
        # byte-identical to a run that never crashed.
        params = clean_params()
        params[2].update({"mode": "crash", "fail_attempts": 1,
                          "state_dir": str(tmp_path / "state")})
        clean = run_spec(probe_spec(clean_params()), SCALE, SEED)
        with RunConfig(
                backend="remote", launch=2, launcher=FAST_LAUNCHER,
                resilience=ResilienceConfig(max_retries=2,
                                            backoff_base_s=0.01)) as cfg:
            result = run_spec(probe_spec(params), SCALE, SEED, config=cfg)
        assert result.ok
        assert result.tasks_retried >= 1
        assert result.digest == clean.digest

    def test_silent_worker_is_dropped_on_heartbeat_timeout(self):
        # A connected-but-frozen peer: says hello, accepts tasks, then
        # never sends another frame. The scheduler must declare it dead
        # after heartbeat_timeout_s and requeue its task elsewhere.
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        addr = format_addr(srv.getsockname()[:2])

        def silent_peer():
            sock, _ = srv.accept()
            with sock:
                send_frame(sock, "hello", {"worker": "frozen", "pid": 0,
                                           "version": __version__,
                                           "slots": 1})
                try:
                    while recv_frame(sock):
                        pass  # swallow tasks, never reply
                except (EOFError, ProtocolError, OSError):
                    pass

        thread = threading.Thread(target=silent_peer, daemon=True)
        thread.start()
        backend = RemoteBackend(
            workers=(addr,), launch=1, launcher=FAST_LAUNCHER,
            heartbeat_timeout_s=1.0, poll_interval_s=0.02)
        clean = run_spec(probe_spec(clean_params()), SCALE, SEED)
        t0 = time.monotonic()
        with RunConfig(
                backend=backend,
                resilience=ResilienceConfig(max_retries=2,
                                            backoff_base_s=0.01)) as cfg:
            result = run_spec(probe_spec(clean_params()), SCALE, SEED,
                              config=cfg)
        srv.close()
        assert result.ok
        assert result.tasks_retried >= 1
        assert result.digest == clean.digest
        assert time.monotonic() - t0 < 30

    def test_slot_crash_requeues_without_losing_daemon(self, tmp_path):
        # Task 2 SIGKILLs its *slot process* inside a 2-slot worker.
        # The daemon must survive (pool rebuild), report the in-flight
        # tasks as worker-crash error frames, and the requeued retries
        # must land a digest byte-identical to a crash-free run —
        # without the scheduler ever counting a lost worker.
        params = clean_params()
        params[2].update({"mode": "crash", "fail_attempts": 1,
                          "state_dir": str(tmp_path / "state")})
        clean = run_spec(probe_spec(clean_params()), SCALE, SEED)
        launcher = (f"{sys.executable} -m repro.cli worker "
                    "--connect {addr} --slots 2 --heartbeat-interval 0.2")
        obs = Observability()
        with RunConfig(
                backend="remote", launch=1, launcher=launcher,
                resilience=ResilienceConfig(max_retries=3,
                                            backoff_base_s=0.01)) as cfg:
            result = run_spec(probe_spec(params), SCALE, SEED,
                              config=cfg, obs=obs)
        assert result.ok
        assert result.tasks_retried >= 1
        assert result.digest == clean.digest
        snap = obs.metrics.snapshot()
        assert snap["harness.worker_crashes"]["value"] >= 1
        # the daemon itself never died — only a slot inside it
        assert "harness.workers_lost" not in snap

    def test_version_skewed_worker_is_rejected(self):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        addr = format_addr(srv.getsockname()[:2])

        def stale_peer():
            sock, _ = srv.accept()
            with sock:
                send_frame(sock, "hello", {"worker": "stale", "pid": 0,
                                           "version": "0.0.0-ancient",
                                           "slots": 1})
                try:
                    recv_frame(sock)
                except (EOFError, ProtocolError, OSError):
                    pass

        thread = threading.Thread(target=stale_peer, daemon=True)
        thread.start()
        cfg = RunConfig(backend="remote", workers=(addr,))
        try:
            with pytest.raises(RemoteFabricError,
                               match="runs version '0.0.0-ancient'"):
                run_spec(probe_spec(clean_params()), SCALE, SEED,
                         config=cfg)
        finally:
            cfg.close()
            srv.close()


def _ipv6_loopback_available() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        probe = socket.socket(socket.AF_INET6, socket.SOCK_STREAM)
        probe.bind(("::1", 0))
        probe.close()
        return True
    except OSError:
        return False


class TestThroughputFabric:
    """CFW2: multi-slot workers, pipelining, compression, cached frames."""

    def test_multislot_compressed_matches_inline(self):
        inline = run_named("fig5a", SCALE, SEED)
        backend = RemoteBackend(launch=2, slots=2, compress="zlib")
        with RunConfig(backend=backend) as cfg:
            remote = run_named("fig5a", SCALE, SEED, config=cfg)
        assert remote.digest == inline.digest
        assert ([s.to_dict() for s in remote.series]
                == [s.to_dict() for s in inline.series])
        assert remote.metrics == inline.metrics
        stats = backend.wire_stats()
        assert stats["sent"] > 0 and stats["recv"] > 0

    def test_multislot_traced_run_matches_inline_trace(self):
        def traced(cfg=None):
            obs = Observability(trace=TraceRecorder())
            run_named("fig5a", SCALE, SEED, obs=obs, config=cfg)
            return obs.digest()

        with RunConfig(backend="remote", launch=2, slots=2,
                       compress="auto") as cfg:
            remote_digest = traced(cfg)
        assert remote_digest == traced()

    def test_prefetch_zero_matches_inline(self):
        inline = run_named("fig5a", SCALE, SEED)
        with RunConfig(backend="remote", launch=2, prefetch=0,
                       compress="auto") as cfg:
            remote = run_named("fig5a", SCALE, SEED, config=cfg)
        assert remote.digest == inline.digest
        assert remote.metrics == inline.metrics

    def test_mixed_wire_revision_fabric_matches_inline(self):
        # A hand-rolled CFW1 peer (no ``wire`` in its hello, speaks
        # only uncompressed legacy frames) serving alongside a launched
        # CFW2 worker under a compressing scheduler. Both must receive
        # frames they understand and the merged run must stay
        # byte-identical to inline.
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        addr = format_addr(srv.getsockname()[:2])
        served: list[int] = []

        def legacy_peer():
            sock, _ = srv.accept()
            with sock:
                send_frame(sock, "hello", {"worker": "legacy", "pid": 0,
                                           "version": __version__})
                try:
                    while True:
                        kind, payload = recv_frame(sock)
                        if kind == "bye":
                            return
                        if kind != "task":
                            continue
                        out = execute_task(
                            payload["task"], payload["scale"],
                            payload["seed"],
                            payload.get("capture", False))
                        send_frame(sock, "result",
                                   {"tid": payload["tid"],
                                    "index": payload["index"],
                                    "payload": out})
                        served.append(payload["index"])
                except (EOFError, ProtocolError, OSError):
                    return

        thread = threading.Thread(target=legacy_peer, daemon=True)
        thread.start()
        inline = run_named("fig5a", SCALE, SEED)
        backend = RemoteBackend(workers=(addr,), launch=1,
                                compress="auto")
        try:
            with RunConfig(backend=backend) as cfg:
                remote = run_named("fig5a", SCALE, SEED, config=cfg)
        finally:
            srv.close()
        assert remote.digest == inline.digest
        assert remote.metrics == inline.metrics
        assert served  # the CFW1 peer really carried some of the sweep

    def test_warm_rerun_ships_hashes_not_blobs(self, tmp_path):
        # Cold run fills the scheduler store; a warm re-run with a
        # metrics-only obs context (cache reads bypassed) dispatches
        # every task with ``have`` set, so workers answer with
        # hash-only cached frames and the response bytes collapse.
        backend = RemoteBackend(launch=2, slots=2, compress="zlib")
        with RunConfig(backend=backend,
                       cache_dir=str(tmp_path / "store")) as cfg:
            cold = run_named("fig5a", SCALE, SEED, config=cfg)
            w_cold = backend.wire_stats()
            obs = Observability()
            warm = run_named("fig5a", SCALE, SEED, config=cfg, obs=obs)
            w_warm = backend.wire_stats()
        assert warm.digest == cold.digest
        assert warm.metrics == cold.metrics
        assert warm.tasks_cached == 0  # reads were bypassed, not served
        snap = obs.metrics.snapshot()
        assert (snap["harness.cached_frames"]["value"]
                == warm.tasks_total)
        cold_recv = w_cold["recv"]
        warm_recv = w_warm["recv"] - w_cold["recv"]
        assert warm_recv < cold_recv * 0.6
        assert snap["harness.wire_bytes_recv"]["value"] == warm_recv

    def test_worker_local_blob_cache_replays_across_schedulers(
            self, tmp_path):
        # A --cache-dir worker keeps whole payload blobs keyed by the
        # scheduler's task digests: a second scheduler with a fresh
        # (empty) store still gets byte-identical results, served from
        # the worker's local cache.
        wcache = tmp_path / "worker-cache"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "127.0.0.1:0", "--id", "cachy",
             "--cache-dir", str(wcache)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            assert match, f"no address line from worker: {line!r}"
            addr = match.group(1)
            with RunConfig(backend="remote", workers=(addr,),
                           cache_dir=str(tmp_path / "s1")) as cfg:
                first = run_named("fig5a", SCALE, SEED, config=cfg)
            blobs = [f for _d, _s, files in os.walk(wcache)
                     for f in files if f.endswith(".pkl")]
            assert blobs  # the worker banked the payloads locally
            with RunConfig(backend="remote", workers=(addr,),
                           cache_dir=str(tmp_path / "s2")) as cfg:
                second = run_named("fig5a", SCALE, SEED, config=cfg)
            assert second.digest == first.digest
            assert second.metrics == first.metrics
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_scheduler_silence_returns_worker_to_accepting(self):
        # A fake scheduler acks the worker's CFW2 hello (arming the
        # silence deadline) then goes mute without closing the socket.
        # The worker must abandon the connection on its own and return
        # to accepting, where a real scheduler then gets a full sweep.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "127.0.0.1:0", "--id", "patient",
             "--scheduler-timeout", "1.0",
             "--heartbeat-interval", "0.2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            assert match, f"no address line from worker: {line!r}"
            addr = match.group(1)

            fake = socket.create_connection(parse_addr(addr), timeout=10)
            fake.settimeout(10)
            kind, hello = recv_frame(fake)
            assert kind == "hello" and hello["wire"] >= 2
            send_frame(fake, "hello", {"wire": 2, "codec": None,
                                       "codecs": (), "heartbeat_s": 0.2})
            t0 = time.monotonic()
            dropped = False
            try:
                while time.monotonic() - t0 < 10:
                    recv_frame(fake)  # drain heartbeats until the drop
            except (EOFError, ProtocolError, OSError):
                dropped = True
            fake.close()
            assert dropped, "worker never abandoned the mute scheduler"
            assert time.monotonic() - t0 < 8

            # ...and it is accepting again: a real fabric (pulsing
            # faster than the 1s deadline) completes a sweep.
            inline = run_named("fig5a", SCALE, SEED)
            backend = RemoteBackend(workers=(addr,),
                                    heartbeat_interval_s=0.3)
            with RunConfig(backend=backend) as cfg:
                remote = run_named("fig5a", SCALE, SEED, config=cfg)
            assert remote.digest == inline.digest
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_terminated_multislot_worker_reaps_its_slot_pool(self):
        # SIGTERM on a multi-slot daemon (how the scheduler tears down
        # launched workers) must take the slot processes with it —
        # orphans would hold inherited pipes open long after the sweep.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "127.0.0.1:0", "--id", "doomed", "--slots", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            assert match, f"no address line from worker: {line!r}"
            addr = match.group(1)
            # Hand-rolled scheduler: handshake, then park a long task
            # on the daemon so the slot pool actually spawns children.
            fake = socket.create_connection(parse_addr(addr), timeout=10)
            recv_frame(fake)  # the worker's hello
            send_frame(fake, "hello", {"wire": 2, "codec": None,
                                       "codecs": (), "heartbeat_s": 2.0})
            send_frame(fake, "task", {
                "tid": 1, "index": 0,
                "task": SweepTask("doom", (0,), "flaky_probe",
                                  {"index": 0, "sleep_s": 30}),
                "scale": 0.05, "seed": SEED, "capture": False,
                "digest": None, "have": False})
            time.sleep(1.5)  # let the pool spawn and adopt the task
            assert subprocess.run(
                ["pgrep", "-f", "id doomed"],
                capture_output=True).stdout.count(b"\n") >= 2
            proc.terminate()
            assert proc.wait(timeout=10) != 0  # SystemExit(143) path
            fake.close()
            deadline = time.monotonic() + 10
            alive = True
            while time.monotonic() < deadline:
                alive = subprocess.run(
                    ["pgrep", "-f", "id doomed"],
                    capture_output=True).returncode == 0
                if not alive:
                    break
                time.sleep(0.2)
            assert not alive, "slot processes outlived their daemon"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

    @pytest.mark.skipif(not _ipv6_loopback_available(),
                        reason="no IPv6 loopback")
    def test_ipv6_loopback_fabric(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "[::1]:0", "--once", "--id", "v6"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            assert match, f"no address line from worker: {line!r}"
            addr = match.group(1)
            assert addr.startswith("[")  # bracketed, parse_addr-ready
            inline = run_named("fig5a", SCALE, SEED)
            with RunConfig(backend="remote", workers=(addr,)) as cfg:
                remote = run_named("fig5a", SCALE, SEED, config=cfg)
            assert remote.digest == inline.digest
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()


class TestBlobCache:
    def test_payload_roundtrip_and_accounting(self, tmp_path):
        cache = BlobCache(str(tmp_path / "blobs"))
        digest = "ab" * 32
        assert cache.get(digest) is None
        payload = ({"series": [1.0, 2.0]},
                   {"m": {"kind": "counter", "value": 2}}, (), 0.5)
        cache.put(digest, payload)
        assert cache.get(digest) == payload
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = BlobCache(str(tmp_path / "blobs"))
        digest = "cd" * 32
        cache.put(digest, ("data", {}, (), 0.1))
        path = cache._path(digest)
        with open(path, "wb") as fp:
            fp.write(b"\x80torn")
        assert cache.get(digest) is None
        assert cache.misses == 1

    def test_tmp_droppings_swept_on_open(self, tmp_path):
        root = tmp_path / "blobs"
        root.mkdir()
        (root / "orphan.tmp").write_bytes(b"dead")
        BlobCache(str(root))
        assert not (root / "orphan.tmp").exists()
