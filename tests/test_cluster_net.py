"""Cross-host cluster tests: short-transfer framing, the HMAC
handshake matrix (wrong/missing secret, version skew, garbage,
slowloris), jittered backoff, heartbeat liveness, the TCP listener +
dial-in worker loop end to end (auth rejection, worker death →
reassignment, silent peer → heartbeat deadline, no-workers →
in-process fallback, byte-identical merged reports throughout), the
ChaosProxy fault gate, the worker CLI's exit codes, and cluster-run
provenance records."""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
import time
import urllib.request

import pytest

from repro.cli_options import endpoint
from repro.cluster import (
    AuthError,
    ClusterProvider,
    Coordinator,
    MessageKind,
    NetConfig,
    ProtocolError,
    SocketTransport,
    backoff_delay,
    client_handshake,
    run_worker,
    server_handshake,
)
from repro.cluster import protocol as proto
from repro.cluster.worker import heartbeat_pump
from repro.config import RunConfig
from repro.errors import WorkerError
from repro.live.http import LiveHTTPServer
from repro.packet.pcap import write_pcap
from repro.testing.faults import ChaosProxy, NetFaultPlan, _FaultGate
from repro.testing.traces import generate_trace

SECRET = "tests-shared-secret"


@pytest.fixture(scope="module")
def trace_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster_net") / "trace.pcap"
    write_pcap(path, generate_trace(seed=23, flows=24))
    return str(path)


@pytest.fixture(scope="module")
def reference_json(trace_pcap):
    """The single-process oracle all net-mode runs must match."""
    return Coordinator(trace_pcap, n_shards=1).run().report.to_json()


def transport_pair():
    a, b = socket.socketpair()
    return SocketTransport(a), SocketTransport(b)


# -- satellite 1: short-transfer framing --------------------------------


class OneByteTransport(SocketTransport):
    """Forces maximal fragmentation: every send/recv moves 1 byte."""

    def _write_some(self, view):
        return super()._write_some(view[:1])

    def _read_some(self, n):
        return super()._read_some(1)


class TestShortTransfers:
    def test_frames_survive_one_byte_io(self):
        # Sender runs on a thread: AF_UNIX accounts per-skb overhead
        # against SO_SNDBUF, so hundreds of 1-byte sends block unless
        # the peer drains concurrently (exactly the slow-link shape
        # the loops exist for).
        a_sock, b_sock = socket.socketpair()
        a, b = OneByteTransport(a_sock), OneByteTransport(b_sock)
        payload = {"shard": 5, "blob": "x" * 300}
        sender = threading.Thread(
            target=a.send, args=(MessageKind.PROGRESS, payload),
            daemon=True,
        )
        sender.start()
        try:
            message = b.recv()
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert message.kind is MessageKind.PROGRESS
            assert message.payload == payload
        finally:
            a.close()
            b.close()

    def test_mid_frame_eof_reports_byte_counts(self):
        a, b = transport_pair()
        header = proto._HEADER.pack(
            proto.MAGIC, proto.PROTOCOL_VERSION,
            int(MessageKind.PROGRESS), 100,
        )
        a._write(header + b"only-10b!!")  # 10 of 100 payload bytes
        a.close()
        with pytest.raises(ProtocolError, match=r"truncated.*10/100"):
            b.recv()
        b.close()

    def test_truncated_header_reports_byte_counts(self):
        a, b = transport_pair()
        a._write(b"RPCL\x00")  # 5 of 12 header bytes
        a.close()
        with pytest.raises(ProtocolError, match=r"5/12"):
            b.recv()
        b.close()

    def test_write_to_dead_peer_is_protocol_error(self):
        a, b = transport_pair()
        b.close()
        with pytest.raises(ProtocolError):
            for _ in range(64):  # until the pipe error surfaces
                a.send(MessageKind.PROGRESS, {"x": "y" * 4096})
        a.close()


# -- the handshake matrix ----------------------------------------------


def handshake_both(server_secret, client_secret,
                   info=None, **server_kw):
    """Run both handshake halves; returns (server_outcome, client_outcome)
    where each is the return value or the raised exception."""
    a, b = transport_pair()
    outcome = {}

    def serve():
        try:
            outcome["server"] = server_handshake(
                a, server_secret, **server_kw
            )
        except Exception as exc:
            outcome["server"] = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        outcome["client"] = client_handshake(
            b, client_secret, info=info or {"host": "t", "pid": 1}
        )
    except Exception as exc:
        outcome["client"] = exc
    thread.join(timeout=5)
    a.close()
    b.close()
    return outcome["server"], outcome["client"]


class TestHandshake:
    def test_server_ignores_dropped_auth_keys(self):
        # A worker that still sends the version/features keys the
        # handshake used to carry is admitted; WELCOME is the proof only.
        server, client = handshake_both(
            SECRET, SECRET,
            info={
                "host": "t", "pid": 1, "version": proto.PROTOCOL_VERSION,
                "features": ["heartbeat", "reassign"],
            },
        )
        assert (server["host"], server["pid"]) == ("t", 1)
        assert list(client) == ["digest"]

    def test_client_ignores_dropped_welcome_keys(self):
        # A coordinator that still sends version/features in CHALLENGE
        # and features/heartbeat_interval in WELCOME is accepted.
        a, b = transport_pair()
        coord_nonce = "c" * 32

        def serve():
            a.send(
                MessageKind.CHALLENGE,
                {
                    "nonce": coord_nonce,
                    "version": proto.PROTOCOL_VERSION,
                    "features": ["heartbeat", "reassign"],
                },
            )
            auth = a.recv(allowed=(MessageKind.AUTH,)).payload
            a.send(
                MessageKind.WELCOME,
                {
                    "digest": proto.auth_digest(
                        SECRET, "coordinator", auth["nonce"], coord_nonce
                    ),
                    "features": ["heartbeat", "reassign"],
                    "heartbeat_interval": 2.5,
                },
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        welcome = client_handshake(b, SECRET, info={"host": "t", "pid": 1})
        thread.join(timeout=5)
        a.close()
        b.close()
        assert welcome["heartbeat_interval"] == 2.5

    def test_wrong_secret_rejected_both_ends(self):
        server, client = handshake_both(SECRET, "not-the-secret")
        assert isinstance(server, AuthError)
        assert isinstance(client, AuthError)
        assert "wrong cluster secret" in str(client)

    def test_missing_secret_rejected_with_hint(self):
        server, client = handshake_both(SECRET, None)
        assert isinstance(server, AuthError)
        assert isinstance(client, AuthError)
        assert "cluster-secret" in str(server) or "secret" in str(client)

    def test_server_requires_secret(self):
        a, b = transport_pair()
        with pytest.raises(ValueError, match="secret"):
            server_handshake(a, "")
        a.close()
        b.close()

    def test_version_skew_detected(self):
        a, b = transport_pair()
        bad = proto._HEADER.pack(
            proto.MAGIC, proto.PROTOCOL_VERSION + 1,
            int(MessageKind.CHALLENGE), 2,
        ) + b"{}"
        a._write(bad)
        with pytest.raises(ProtocolError, match="version"):
            client_handshake(b, SECRET)
        a.close()
        b.close()

    def test_garbage_before_magic_detected(self):
        a, b = transport_pair()
        a._write(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        with pytest.raises(ProtocolError, match="magic"):
            client_handshake(b, SECRET)
        a.close()
        b.close()

    def test_preauth_frames_rejected_before_payload_decode(self):
        # A RESULT frame (pickle-coded kind) sent before AUTH must be
        # refused by kind alone -- its payload never reaches
        # pickle.loads even though it is valid pickle.
        a_sock, b_sock = socket.socketpair()
        a, b = SocketTransport(a_sock), SocketTransport(b_sock)
        a.send(MessageKind.RESULT, {"innocent": "looking"})

        def serve():
            with pytest.raises(ProtocolError, match="before auth"):
                server_handshake(b, SECRET, deadline=5.0)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        a.recv()  # consume the CHALLENGE so the server can proceed
        thread.join(timeout=5)
        assert not thread.is_alive()
        a.close()
        b.close()

    def test_slowloris_peer_hits_handshake_deadline(self):
        a_sock, b_sock = socket.socketpair()
        server_end = SocketTransport(b_sock)
        outcome = {}

        def serve():
            started = time.monotonic()
            try:
                server_handshake(server_end, SECRET, deadline=0.4)
            except ProtocolError as exc:
                outcome["error"] = exc
            outcome["elapsed"] = time.monotonic() - started
            server_end.close()  # what a listener does to a rejected peer

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        # Dribble a syntactically valid AUTH frame one byte at a time,
        # far slower than the deadline allows in aggregate (each byte
        # alone would beat a naive per-recv timeout).
        frame = proto._HEADER.pack(
            proto.MAGIC, proto.PROTOCOL_VERSION, int(MessageKind.AUTH), 100
        ) + b"{" + b" " * 99
        try:
            for i in range(len(frame)):
                a_sock.sendall(frame[i : i + 1])
                time.sleep(0.02)
        except OSError:
            pass  # server gave up and closed, as it should
        thread.join(timeout=5)
        assert isinstance(outcome["error"], ProtocolError)
        assert "deadline" in str(outcome["error"])
        assert outcome["elapsed"] < 3.0
        a_sock.close()
        server_end.close()


# -- satellite 2: jittered backoff -------------------------------------


class TestBackoffJitter:
    def test_deterministic_under_seed(self):
        a = [backoff_delay(0.1, n, random.Random(7)) for n in (1, 2, 3)]
        b = [backoff_delay(0.1, n, random.Random(7)) for n in (1, 2, 3)]
        assert a == b

    def test_jitter_stays_within_half_to_full_nominal(self):
        rng = random.Random(0)
        for attempt in (1, 2, 3, 4):
            nominal = 0.2 * 2 ** (attempt - 1)
            for _ in range(50):
                delay = backoff_delay(0.2, attempt, rng)
                assert nominal / 2 <= delay < nominal

    def test_different_seeds_spread(self):
        delays = {
            round(backoff_delay(1.0, 1, random.Random(seed)), 6)
            for seed in range(16)
        }
        assert len(delays) > 8  # a thundering herd would collapse to 1


# -- heartbeats ---------------------------------------------------------


class RecordingTransport(proto.Transport):
    def __init__(self):
        super().__init__()
        self.frames = []

    def _write_some(self, view):
        return len(view)

    def _read_some(self, n):
        return b""

    def send(self, kind, payload=None):
        self.frames.append((kind, payload))

    def close(self):
        pass


class TestHeartbeatPump:
    def test_beacons_while_active_then_stops(self):
        transport = RecordingTransport()
        with heartbeat_pump(transport, shard=3, interval=0.05):
            time.sleep(0.25)
        sent = len(transport.frames)
        assert sent >= 2
        assert all(k is MessageKind.HEARTBEAT for k, _ in transport.frames)
        assert transport.frames[0][1]["shard"] == 3
        time.sleep(0.15)
        assert len(transport.frames) == sent  # pump really stopped

    def test_disabled_interval_sends_nothing(self):
        transport = RecordingTransport()
        with heartbeat_pump(transport, shard=0, interval=None):
            time.sleep(0.05)
        assert transport.frames == []


# -- the listener + dial-in workers, end to end -------------------------


def start_listener(path, n_shards, *, net=None, run=None, **kw):
    """A Coordinator in net mode on a background thread; returns
    (coordinator, bound_address, outcome_box, thread)."""
    net = net or NetConfig(secret=SECRET, worker_grace=10.0)
    coord = Coordinator(
        path, n_shards=n_shards, net=net,
        run=run or RunConfig(retry_backoff=0.05),
        jitter_seed=7, **kw,
    )
    address = coord.bind()
    box = {}

    def target():
        try:
            box["result"] = coord.run()
        except BaseException as exc:  # surfaced by the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return coord, address, box, thread


def finish(box, thread, timeout=60):
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "coordinator never finished"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestListenerEndToEnd:
    def test_dial_in_workers_byte_identical(
        self, trace_pcap, reference_json
    ):
        coord, address, box, thread = start_listener(trace_pcap, 4)
        workers = [
            threading.Thread(
                target=run_worker, args=(address, SECRET),
                kwargs={"seed": i}, daemon=True,
            )
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        result = finish(box, thread)
        for worker in workers:
            worker.join(timeout=10)
        assert result.report.to_json() == reference_json
        assert result.transport == "tcp"
        assert result.workers_died == 0
        assert len(result.workers) == 2
        assert sum(w["shards_done"] for w in result.workers) == 4
        assert all(w["state"] == "released" for w in result.workers)

    def test_wrong_secret_worker_rejected_run_still_completes(
        self, trace_pcap, reference_json
    ):
        coord, address, box, thread = start_listener(trace_pcap, 2)
        with pytest.raises(AuthError):
            run_worker(address, "wrong-secret", max_retries=0)
        good = threading.Thread(
            target=run_worker, args=(address, SECRET), daemon=True
        )
        good.start()
        result = finish(box, thread)
        good.join(timeout=10)
        assert result.auth_failures >= 1
        assert result.report.to_json() == reference_json

    def test_worker_death_reassigns_shard(
        self, trace_pcap, reference_json
    ):
        coord, address, box, thread = start_listener(trace_pcap, 2)
        # A worker that authenticates, accepts a shard, then dies.
        flaky_sock = socket.create_connection(address)
        flaky = SocketTransport(flaky_sock)
        client_handshake(flaky, SECRET, info={"host": "flaky", "pid": 9})
        assignment = flaky.recv()
        assert assignment.kind is MessageKind.ASSIGN
        flaky.close()  # end of stream before RESULT = death
        good = threading.Thread(
            target=run_worker, args=(address, SECRET), daemon=True
        )
        good.start()
        result = finish(box, thread)
        good.join(timeout=10)
        assert result.workers_died >= 1
        assert result.reassignments >= 1
        assert result.report.to_json() == reference_json

    def test_silent_worker_lost_via_heartbeat_deadline(
        self, trace_pcap, reference_json
    ):
        coord, address, box, thread = start_listener(
            trace_pcap, 1,
            run=RunConfig(max_retries=0),
            heartbeat_deadline=1.0,
        )
        # Handshakes, takes the shard, then goes silent with the
        # connection open: TCP never reports it, the deadline must.
        silent_sock = socket.create_connection(address)
        silent = SocketTransport(silent_sock)
        client_handshake(silent, SECRET, info={"host": "mute", "pid": 1})
        assert silent.recv().kind is MessageKind.ASSIGN
        result = finish(box, thread)  # falls back in-process
        silent.close()
        assert result.heartbeat_misses >= 1
        assert result.workers_died >= 1
        assert result.report.to_json() == reference_json

    def test_no_workers_falls_back_in_process(
        self, trace_pcap, reference_json
    ):
        net = NetConfig(secret=SECRET, worker_grace=0.2)
        coord, address, box, thread = start_listener(
            trace_pcap, 2, net=net
        )
        result = finish(box, thread)
        assert result.report.to_json() == reference_json
        assert result.workers == []

    def test_listener_requires_secret(self, trace_pcap):
        coord = Coordinator(
            trace_pcap, n_shards=2, net=NetConfig(secret=None)
        )
        with pytest.raises(ValueError, match="secret"):
            coord.run()

    def test_checkpoint_resume_skips_finished_shards(
        self, trace_pcap, reference_json, tmp_path
    ):
        spool = tmp_path / "spool"
        net = NetConfig(secret=SECRET, worker_grace=0.1)
        first = Coordinator(
            trace_pcap, n_shards=2, net=net, checkpoint_dir=spool
        )
        first.bind()
        first_result = first.run()
        assert first_result.report.to_json() == reference_json
        second = Coordinator(
            trace_pcap, n_shards=2, net=net,
            checkpoint_dir=spool, resume=True,
        )
        resumed = second.run()  # no bind: todo is empty, no listener
        assert resumed.shards_resumed == 2
        assert resumed.report.to_json() == reference_json


class TestRunWorker:
    def test_unreachable_coordinator_raises_worker_error(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        address = sock.getsockname()[:2]
        sock.close()  # nothing listens here now
        with pytest.raises(WorkerError, match="cannot reach"):
            run_worker(
                address, SECRET, max_retries=1,
                retry_backoff=0.01, seed=0, connect_timeout=0.5,
            )

    def test_auth_error_is_not_retried(self, trace_pcap):
        coord, address, box, thread = start_listener(
            trace_pcap, 1,
            net=NetConfig(secret=SECRET, worker_grace=0.4),
        )
        started = time.monotonic()
        with pytest.raises(AuthError):
            run_worker(
                address, "bad", max_retries=50, retry_backoff=1.0
            )
        assert time.monotonic() - started < 5.0  # no 50-retry ladder
        finish(box, thread)


# -- ChaosProxy ---------------------------------------------------------


class TestFaultGate:
    def plan(self, **kw):
        return NetFaultPlan(**kw)

    def test_deterministic_for_seed(self):
        plan = self.plan(drop_rate=0.3, duplicate_rate=0.2,
                         truncate_rate=0.2)
        chunks = [bytes([i]) * 40 for i in range(30)]
        runs = []
        for _ in range(2):
            gate = _FaultGate(plan, random.Random(99))
            for chunk in chunks:
                gate.apply(chunk)
            runs.append(list(gate.actions))
        assert runs[0] == runs[1]
        assert set(runs[0]) >= {"pass", "drop"}

    def test_grace_bytes_pass_untouched(self):
        plan = self.plan(drop_rate=1.0, bytes_before_faults=100)
        gate = _FaultGate(plan, random.Random(0))
        first, close = gate.apply(b"x" * 100)
        assert first == [b"x" * 100] and not close
        second, close = gate.apply(b"y" * 10)
        assert second == [] and not close  # grace over: dropped

    def test_truncate_returns_strict_prefix_and_closes(self):
        gate = _FaultGate(self.plan(truncate_rate=1.0), random.Random(1))
        chunk = b"abcdefgh"
        pieces, close = gate.apply(chunk)
        assert close
        assert len(pieces) == 1
        assert 0 < len(pieces[0]) < len(chunk)
        assert chunk.startswith(pieces[0])

    def test_blackhole_after_threshold_swallows_forever(self):
        gate = _FaultGate(self.plan(blackhole_after=8), random.Random(2))
        assert gate.apply(b"12345678") == ([b"12345678"], False)
        assert gate.apply(b"more") == ([], False)
        assert gate.apply(b"even-more") == ([], False)
        assert gate.blackholed

    def test_duplicate_forwards_twice(self):
        gate = _FaultGate(self.plan(duplicate_rate=1.0), random.Random(3))
        assert gate.apply(b"zz") == ([b"zz", b"zz"], False)


class TestChaosProxy:
    def echo_server(self):
        """A tiny echo server; returns (address, closer)."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)

        def serve():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                def pump(c=conn):
                    try:
                        while True:
                            data = c.recv(4096)
                            if not data:
                                return
                            c.sendall(data)
                    except OSError:
                        pass
                threading.Thread(target=pump, daemon=True).start()

        threading.Thread(target=serve, daemon=True).start()
        return listener.getsockname()[:2], listener.close

    def test_clean_plan_passes_bytes_through(self):
        address, closer = self.echo_server()
        try:
            with ChaosProxy(*address, seed=1) as proxy:
                sock = socket.create_connection(proxy.address)
                sock.sendall(b"hello-through-proxy")
                sock.settimeout(5)
                assert sock.recv(4096) == b"hello-through-proxy"
                sock.close()
        finally:
            closer()

    def test_blackhole_leaves_connection_half_open(self):
        address, closer = self.echo_server()
        plan = NetFaultPlan(blackhole_after=4)
        try:
            with ChaosProxy(*address, seed=1, plan=plan) as proxy:
                sock = socket.create_connection(proxy.address)
                sock.sendall(b"abcd")  # forwarded: under the threshold
                sock.settimeout(5)
                assert sock.recv(4096) == b"abcd"
                sock.sendall(b"swallowed")
                sock.settimeout(0.4)
                with pytest.raises(socket.timeout):
                    sock.recv(4096)  # silence, not EOF: half-open
                sock.close()
        finally:
            closer()

    def test_per_connection_plans(self):
        address, closer = self.echo_server()
        plans = {
            0: NetFaultPlan(),
            1: NetFaultPlan(drop_rate=1.0),
        }
        try:
            with ChaosProxy(
                *address, seed=3, plan_for=lambda i: plans[i]
            ) as proxy:
                clean = socket.create_connection(proxy.address)
                lossy = socket.create_connection(proxy.address)
                clean.sendall(b"ok")
                clean.settimeout(5)
                assert clean.recv(4096) == b"ok"
                lossy.sendall(b"gone")
                lossy.settimeout(0.4)
                with pytest.raises(socket.timeout):
                    lossy.recv(4096)
                assert proxy.connections[1]["c2s"].actions == ["drop"]
                clean.close()
                lossy.close()
        finally:
            closer()


# -- worker CLI ---------------------------------------------------------


class TestWorkerCli:
    def test_missing_secret_is_usage_error(self, monkeypatch):
        from repro.cluster.worker_cli import main

        monkeypatch.delenv("REPRO_CLUSTER_SECRET", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["--connect", "127.0.0.1:1"])
        assert excinfo.value.code == 2

    def test_unreachable_coordinator_exit_1(self, monkeypatch, capsys):
        from repro.cluster.worker_cli import main

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        code = main([
            "--connect", f"127.0.0.1:{port}",
            "--cluster-secret", SECRET,
            "--max-retries", "0", "--retry-backoff", "0.01",
        ])
        assert code == 1
        assert "cluster-worker" in capsys.readouterr().err

    def test_wrong_secret_exit_2(self, trace_pcap, capsys):
        from repro.cluster.worker_cli import main

        coord, address, box, thread = start_listener(
            trace_pcap, 1,
            net=NetConfig(secret=SECRET, worker_grace=0.4),
        )
        code = main([
            "--connect", f"{address[0]}:{address[1]}",
            "--cluster-secret", "wrong",
        ])
        assert code == 2
        finish(box, thread)

    def test_completes_shards_exit_0(self, trace_pcap, capsys):
        from repro.cluster.worker_cli import main

        coord, address, box, thread = start_listener(trace_pcap, 2)
        code = main([
            "--connect", f"{address[0]}:{address[1]}",
            "--cluster-secret", SECRET,
            "--stats",
        ])
        result = finish(box, thread)
        assert code == 0
        assert "completed 2 shard(s)" in capsys.readouterr().err
        assert result.workers_died == 0

    def test_endpoint_parser_shared_syntax(self):
        assert endpoint("9000") == ("127.0.0.1", 9000)
        assert endpoint("0.0.0.0:81") == ("0.0.0.0", 81)
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            endpoint("nope")


# -- satellite 6: provenance + /shards.json workers ---------------------


class TestProvenanceAndHttp:
    def test_cluster_cli_records_provenance(
        self, trace_pcap, tmp_path, capsys
    ):
        from repro.cluster.cli import main
        from repro.results.store import ResultsStore

        store_path = tmp_path / "runs.jsonl"
        code = main([
            trace_pcap, "--shards", "2", "--json",
            "--results-store", str(store_path),
        ])
        assert code == 0
        capsys.readouterr()
        records = list(ResultsStore(store_path).iter_records())
        cluster_records = [r for r in records if r["kind"] == "cluster"]
        assert len(cluster_records) == 1
        metrics = cluster_records[0]["metrics"]
        assert metrics["n_shards"] == 2
        assert metrics["workers_died"] == 0
        assert "reassignments" in metrics
        assert "heartbeat_misses" in metrics
        assert cluster_records[0]["meta"]["transport"] == "socket"

    def test_shards_json_includes_worker_liveness(self, trace_pcap):
        result = Coordinator(trace_pcap, n_shards=2).run()
        server = LiveHTTPServer(ClusterProvider(result)).start()
        try:
            with urllib.request.urlopen(
                f"{server.url}/shards.json", timeout=10
            ) as response:
                payload = json.loads(response.read())
        finally:
            server.stop()
        assert len(payload["shards"]) == 2
        assert len(payload["workers"]) == 2
        for worker in payload["workers"]:
            assert worker["state"] == "done"
            assert worker["shards_done"] == 1
