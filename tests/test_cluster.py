"""Sharded-cluster tests: wire protocol, flow-hash sharding, the
shard-count-invariance property, real-subprocess coordinator runs
(worker death included), checkpoint/resume, and the HTTP aggregator."""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterProvider,
    Coordinator,
    MessageKind,
    NetConfig,
    ProtocolError,
    ShardSpec,
    SocketTransport,
    analyze_cluster,
    merge_shard_results,
    run_shard,
    run_worker,
)
from repro.cluster import net as cluster_net
from repro.cluster import protocol as proto
from repro.cluster.worker import KILL_DIR_ENV, KILL_SHARD_ENV
from repro.config import AnalysisConfig, RunConfig
from repro.core.report import ServiceReport
from repro.core.tapo import Tapo
from repro.errors import ErrorBudget
from repro.experiments.runner import run_flows
from repro.packet.columnar import OPT_ODD, PacketColumns, _LazySackOptions
from repro.packet.flow import FlowKey, flow_shard
from repro.packet.pcap import PcapReader, write_pcap
from repro.testing.faults import corrupt_pcap_records
from repro.testing.traces import generate_trace
from repro.workload import generate_flows, get_profile

SECRET = "tests-shared-secret"


@pytest.fixture(scope="module")
def trace_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "trace.pcap"
    write_pcap(path, generate_trace(seed=11, flows=36))
    return str(path)


#: Decode-slab size for the lossy capture: small enough that ~1 MB of
#: packets spans a dozen slabs, most of them without a single SYN.
SMALL_SLAB = 64 << 10


@pytest.fixture(scope="module")
def lossy_pcap(tmp_path_factory):
    """A few simulated cloud-storage flows over the stock lossy path,
    all starting together: SACK-dense ACK runs long after the
    handshakes, i.e. the paper's traffic."""
    path = tmp_path_factory.mktemp("cluster") / "lossy.pcap"
    results = run_flows(
        generate_flows(get_profile("cloud_storage"), 6, seed=3), workers=1
    ).results
    write_pcap(
        path,
        sorted(
            (packet for result in results for packet in result.packets),
            key=lambda packet: packet.timestamp,
        ),
    )
    return str(path)


def sack_only_slabs(path: str) -> list[PacketColumns]:
    """Slabs whose odd rows are all undecoded TS+SACK ones — the lazy
    mapping is an *empty* dict until somebody asks for a row."""
    with PcapReader(path) as reader:
        return [
            cols
            for cols in reader.iter_columns(SMALL_SLAB)
            if isinstance(cols.odd_options, _LazySackOptions)
            and not cols.odd_options
            and any(bits & OPT_ODD for bits in cols.optbits)
        ]


def batch_reference(path: str, service: str = "cluster") -> ServiceReport:
    """The single-process oracle: batch analysis, canonically sorted."""
    report = ServiceReport(service=service)
    for analysis in Tapo().analyze_pcap(path):
        report.add(analysis)
    return report.canonical_sort()


def channel_pair(kind: str = "socket"):
    """Both ends of a connected channel: a ``socketpair`` (what a
    forked local worker gets) or a loopback TCP connection (what a
    dial-in worker gets)."""
    if kind == "socket":
        a, b = socket.socketpair()
    else:
        with socket.create_server(("127.0.0.1", 0)) as server:
            a = socket.create_connection(server.getsockname())
            b, _ = server.accept()
    return SocketTransport(a), SocketTransport(b)


def run_with_dial_in_workers(path, n_shards, n_workers=2, **kw):
    """A ``--listen`` run: the coordinator here, ``n_workers``
    authenticated dial-in workers on threads."""
    coord = Coordinator(
        path, n_shards=n_shards, net=NetConfig(secret=SECRET), **kw
    )
    address = coord.bind()
    workers = [
        threading.Thread(
            target=run_worker, args=(address, SECRET),
            kwargs={"seed": i}, daemon=True,
        )
        for i in range(n_workers)
    ]
    for worker in workers:
        worker.start()
    result = coord.run()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    return result


class TestProtocol:
    @pytest.mark.parametrize("kind", ["socket", "tcp"])
    def test_round_trip(self, kind):
        a, b = channel_pair(kind)
        try:
            payload = {"shard": 3, "nested": [1, "two", {"x": 4.5}]}
            a.send(MessageKind.PROGRESS, payload)
            message = b.recv()
            assert message.kind is MessageKind.PROGRESS
            assert message.payload == payload
            b.send(MessageKind.SHUTDOWN)
            back = a.recv()
            assert back.kind is MessageKind.SHUTDOWN
            assert back.payload is None
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("kind", ["socket", "tcp"])
    def test_clean_eof_is_none(self, kind):
        a, b = channel_pair(kind)
        a.close()
        assert b.recv() is None
        b.close()

    def test_mid_frame_eof_raises(self):
        a, b = channel_pair()
        # Write a header promising more payload than ever arrives.
        a._write(
            proto._HEADER.pack(
                proto.MAGIC, proto.PROTOCOL_VERSION,
                int(MessageKind.RESULT), 1 << 20,
            )
            + b"short"
        )
        a.close()
        with pytest.raises(ProtocolError, match="truncated"):
            b.recv()
        b.close()

    def test_version_mismatch_raises(self):
        a, b = channel_pair()
        a._write(
            proto._HEADER.pack(
                proto.MAGIC, proto.PROTOCOL_VERSION + 1,
                int(MessageKind.HELLO), 0,
            )
        )
        with pytest.raises(ProtocolError, match="version"):
            b.recv()
        a.close()
        b.close()

    def test_bad_magic_raises(self):
        a, b = channel_pair()
        a._write(
            proto._HEADER.pack(
                b"NOPE", proto.PROTOCOL_VERSION, int(MessageKind.HELLO), 0
            )
        )
        with pytest.raises(ProtocolError, match="magic"):
            b.recv()
        a.close()
        b.close()

    def test_unknown_kind_raises(self):
        a, b = channel_pair()
        a.send(MessageKind.HELLO)  # prove the channel works first
        assert b.recv().kind is MessageKind.HELLO
        import pickle

        body = pickle.dumps(None)
        a._write(
            proto._HEADER.pack(
                proto.MAGIC, proto.PROTOCOL_VERSION, 99, len(body)
            )
            + body
        )
        with pytest.raises(ProtocolError, match="kind"):
            b.recv()
        a.close()
        b.close()


class TestFlowShard:
    def test_direction_invariant(self):
        for n in (1, 2, 3, 7, 16):
            assert flow_shard(1, 80, 2, 999, n) == flow_shard(
                2, 999, 1, 80, n
            )

    def test_key_shard_matches_function(self):
        key = FlowKey(0x0A000001, 80, 0x64400001, 31000)
        assert key.shard_of(5) == flow_shard(
            key.ip_a, key.port_a, key.ip_b, key.port_b, 5
        )

    @given(
        ips=st.tuples(
            st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)
        ),
        ports=st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
        n=st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_stable_and_in_range(self, ips, ports, n):
        shard = flow_shard(ips[0], ports[0], ips[1], ports[1], n)
        assert 0 <= shard < n
        assert shard == flow_shard(ips[0], ports[0], ips[1], ports[1], n)
        assert shard == flow_shard(ips[1], ports[1], ips[0], ports[0], n)


class TestColumnarSharding:
    def columns(self, trace_pcap) -> PacketColumns:
        with PcapReader(trace_pcap) as reader:
            batches = list(reader.iter_columns())
        assert batches
        return batches[0]

    def test_shard_ids_match_pure_python(self, trace_pcap):
        # The numpy vectorization and the scalar reference must agree
        # bit for bit — merge parity depends on it.
        for n in (1, 2, 3, 4, 13):
            cols = self.columns(trace_pcap)
            ids = cols.shard_ids(n)
            assert len(ids) == len(cols)
            for i in range(len(cols)):
                assert ids[i] == flow_shard(
                    cols.src_ip[i], cols.src_port[i],
                    cols.dst_ip[i], cols.dst_port[i], n,
                ), f"row {i} diverges at n={n}"

    def test_select_shard_partitions_rows(self, trace_pcap):
        cols = self.columns(trace_pcap)
        n = 4
        kept = [cols.select_shard(shard, n) for shard in range(n)]
        assert sum(len(k) for k in kept) == len(cols)
        # Every selected row carries its original field values.
        recs = {
            (r.timestamp, r.src_ip, r.src_port, r.seq)
            for r in cols.records()
        }
        for part in kept:
            for r in part.records():
                assert (r.timestamp, r.src_ip, r.src_port, r.seq) in recs

    def test_select_shard_single_shard_is_identity(self, trace_pcap):
        cols = self.columns(trace_pcap)
        assert cols.select_shard(0, 1) is cols

    def test_select_keeps_lazy_sack_options(self, lossy_pcap):
        cols = sack_only_slabs(lossy_pcap)[0]
        odd_rows = [
            i for i, bits in enumerate(cols.optbits) if bits & OPT_ODD
        ]
        # Every other SACK row plus some plain rows in between.
        indices = sorted(set(odd_rows[::2]) | set(range(0, len(cols), 3)))
        kept = cols.select(indices)
        kept_odd = [
            new for new, old in enumerate(indices) if old in odd_rows
        ]
        assert sorted(kept.odd_options) == kept_odd
        for new in kept_odd:
            options = kept.odd_options[new]
            assert options.sack_blocks
            assert options == cols.odd_options[indices[new]]


class TestShardInvariance:
    """The tentpole property: merged output is independent of shard
    count — ``merge(shard(trace, N)) == merge(shard(trace, M)) ==
    single-process`` — including coverage and fault accounting."""

    def run_in_process(self, path: str, n_shards: int):
        results = [
            run_shard(
                ShardSpec(
                    paths=(path,), shard=shard, n_shards=n_shards
                )
            )
            for shard in range(n_shards)
        ]
        return merge_shard_results(results, "cluster")

    @given(seed=st.integers(0, 30), pair=st.tuples(
        st.integers(1, 6), st.integers(1, 6)))
    @settings(max_examples=12, deadline=None)
    def test_merge_is_shard_count_invariant(self, tmp_path_factory,
                                            seed, pair):
        path = str(
            tmp_path_factory.mktemp("inv") / f"t{seed}.pcap"
        )
        write_pcap(path, generate_trace(seed=seed, flows=8))
        reference = batch_reference(path)
        n, m = pair
        report_n, _, faults_n = self.run_in_process(path, n)
        report_m, _, faults_m = self.run_in_process(path, m)
        assert report_n.to_json() == reference.to_json()
        assert report_m.to_json() == reference.to_json()
        assert faults_n.flows_skipped == faults_m.flows_skipped
        assert faults_n.corrupt_records == faults_m.corrupt_records

    def test_skipped_flow_accounting_is_invariant(self, tmp_path):
        # Damage a slice of records; under a lenient budget the fleet
        # must quarantine the same flows and count the same capture-
        # level faults regardless of shard count.
        clean = tmp_path / "clean.pcap"
        dirty = tmp_path / "dirty.pcap"
        write_pcap(clean, generate_trace(seed=3, flows=20))
        corrupt_pcap_records(clean, dirty, fraction=0.05, seed=9)
        config = AnalysisConfig(errors=ErrorBudget.lenient())

        outcomes = {}
        for n in (1, 3, 5):
            results = [
                run_shard(
                    ShardSpec(
                        paths=(str(dirty),), shard=shard, n_shards=n,
                        analysis=config,
                    )
                )
                for shard in range(n)
            ]
            report, _, faults = merge_shard_results(results, "cluster")
            outcomes[n] = (
                report.to_json(),
                faults.corrupt_records,
                faults.flows_skipped,
                sorted((s.key, s.error_type) for s in report.skipped),
            )
        assert outcomes[1] == outcomes[3] == outcomes[5]

    def test_provenance_counts_cover_every_flow(self, trace_pcap):
        report, _, _ = self.run_in_process(trace_pcap, 4)
        reference = batch_reference(trace_pcap)
        assert sum(report.provenance.values()) == len(reference.flows)
        assert set(report.provenance) == {
            f"shard-{i}" for i in range(4)
        }

    def test_registry_reader_counters_merge(self, tmp_path):
        clean = tmp_path / "clean.pcap"
        dirty = tmp_path / "dirty.pcap"
        write_pcap(clean, generate_trace(seed=3, flows=12))
        corrupt_pcap_records(clean, dirty, fraction=0.1, seed=4)
        config = AnalysisConfig(errors=ErrorBudget.lenient())
        results = [
            run_shard(
                ShardSpec(
                    paths=(str(dirty),), shard=shard, n_shards=3,
                    analysis=config,
                )
            )
            for shard in range(3)
        ]
        _, _, faults = merge_shard_results(results, "cluster")
        # Every worker decodes the whole capture: the merged reader-
        # level counts equal ONE worker's, not the sum of three.
        assert faults.corrupt_records == results[0].faults.corrupt_records
        assert faults.resyncs == results[0].faults.resyncs


class TestCoordinator:
    """Real forked-subprocess runs through the wire protocol."""

    @pytest.mark.parametrize("mode", ["local", "listen"])
    def test_four_shards_byte_identical(self, trace_pcap, mode):
        reference = batch_reference(trace_pcap)
        if mode == "local":
            result = Coordinator(trace_pcap, n_shards=4).run()
            assert result.transport == "socket"
        else:
            result = run_with_dial_in_workers(trace_pcap, 4)
            assert result.transport == "tcp"
        assert result.report.to_json() == reference.to_json()
        assert result.workers_died == 0
        assert [s["shard"] for s in result.shards] == [0, 1, 2, 3]
        assert result.n_shards == 4

    def test_analyze_cluster_facade(self, trace_pcap):
        merged = analyze_cluster(trace_pcap, shards=2)
        assert merged.to_json() == batch_reference(trace_pcap).to_json()

    def test_single_shard_runs_in_process(self, trace_pcap):
        result = Coordinator(trace_pcap, n_shards=1).run()
        assert result.report.to_json() == (
            batch_reference(trace_pcap).to_json()
        )
        assert result.workers_died == 0

    def test_survives_worker_death(self, trace_pcap, tmp_path,
                                   monkeypatch):
        monkeypatch.setenv(KILL_SHARD_ENV, "1")
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        result = Coordinator(trace_pcap, n_shards=4).run()
        assert result.workers_died == 1
        assert (tmp_path / "cluster_kill_once.sentinel").exists()
        assert result.report.to_json() == (
            batch_reference(trace_pcap).to_json()
        )

    def test_replacement_forked_after_death(self, trace_pcap, tmp_path,
                                            monkeypatch):
        # One shard outstanding (the other resumes from the spool), so
        # no idle survivor can take it over: the dead worker's
        # replacement must be a fresh fork.
        spool = tmp_path / "spool"
        Coordinator(trace_pcap, n_shards=2, checkpoint_dir=spool).run()
        (spool / "shard-1.pkl").write_bytes(b"not a pickle")
        monkeypatch.setenv(KILL_SHARD_ENV, "1")
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        result = Coordinator(
            trace_pcap, n_shards=2, checkpoint_dir=spool, resume=True,
            run=RunConfig(retry_backoff=0.05), jitter_seed=7,
        ).run()
        assert (result.workers_died, result.reassignments) == (1, 1)
        # Seen as end-of-stream, not by the deadline: nobody else held
        # a copy of the dead worker's end of the socketpair.
        assert result.heartbeat_misses == 0
        assert [
            (w["state"], w["shards_done"]) for w in result.workers
        ] == [("lost", 0), ("done", 1)]
        assert result.report.to_json() == (
            batch_reference(trace_pcap).to_json()
        )

    @staticmethod
    def _run_with_one_wedged_worker(
        trace_pcap, tmp_path, monkeypatch, on_wedge=lambda: None
    ):
        """Run two shards with the first worker to take one going
        silent (after calling ``on_wedge``); returns the result and the
        wedged worker's pid."""
        sentinel = tmp_path / "wedged.pid"
        serve = cluster_net.serve_assignments

        def wedge_once(transport, idle_timeout=None):
            try:
                with open(sentinel, "x") as handle:
                    handle.write(str(os.getpid()))
            except FileExistsError:
                yield from serve(transport, idle_timeout)
                return
            # Take the shard, then say nothing with the socket open:
            # only the heartbeat deadline can notice.
            assert transport.recv().kind is MessageKind.ASSIGN
            on_wedge()
            time.sleep(60)

        monkeypatch.setattr(cluster_net, "serve_assignments", wedge_once)
        result = Coordinator(
            trace_pcap, n_shards=2,
            heartbeat_interval=0.1, heartbeat_deadline=0.5,
            run=RunConfig(retry_backoff=0.05), jitter_seed=7,
        ).run()
        return result, int(sentinel.read_text())

    def test_wedged_local_worker_is_killed_and_its_shard_rerun(
        self, trace_pcap, tmp_path, monkeypatch
    ):
        result, wedged = self._run_with_one_wedged_worker(
            trace_pcap, tmp_path, monkeypatch
        )
        assert result.heartbeat_misses == 1
        assert (result.workers_died, result.reassignments) == (1, 1)
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(wedged, 0)
        # Both shards came back from workers, none from the in-process
        # last rung.
        assert sum(w["shards_done"] for w in result.workers) == 2
        assert result.report.to_json() == (
            batch_reference(trace_pcap).to_json()
        )

    def test_wedged_worker_does_not_inherit_a_sigterm_handler(
        self, trace_pcap, tmp_path, monkeypatch
    ):
        """A coordinator process that routes SIGTERM somewhere (a live
        daemon's "flush and stop") forks workers that still die on
        ``terminate()``."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            began = time.monotonic()
            result, wedged = self._run_with_one_wedged_worker(
                trace_pcap, tmp_path, monkeypatch
            )
            elapsed = time.monotonic() - began
        finally:
            signal.signal(signal.SIGTERM, previous)
        with pytest.raises(ProcessLookupError):
            os.kill(wedged, 0)
        assert elapsed < cluster_net._REAP_TIMEOUT  # died on SIGTERM
        assert (result.workers_died, result.reassignments) == (1, 1)

    def test_wedged_worker_that_ignores_sigterm_is_sent_sigkill(
        self, trace_pcap, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cluster_net, "_REAP_TIMEOUT", 0.2)
        result, wedged = self._run_with_one_wedged_worker(
            trace_pcap, tmp_path, monkeypatch,
            on_wedge=lambda: signal.signal(signal.SIGTERM, signal.SIG_IGN),
        )
        with pytest.raises(ProcessLookupError):
            os.kill(wedged, 0)
        assert (result.workers_died, result.reassignments) == (1, 1)
        assert sum(w["shards_done"] for w in result.workers) == 2

    def test_worker_crash_is_a_death_not_an_error_frame(
        self, trace_pcap, monkeypatch
    ):
        # The one crash rule: only a typed ReproError travels as an
        # ERROR frame.  A bug kills the worker, the death ladder runs,
        # and its last rung raises the original exception in-process.
        def crash(spec, progress_sink=None):
            raise RuntimeError(f"bug in shard {spec.shard}")

        monkeypatch.setattr(cluster_net, "run_shard", crash)
        coord = Coordinator(
            trace_pcap, n_shards=2,
            run=RunConfig(max_retries=1, retry_backoff=0.01),
            jitter_seed=7,
        )
        with pytest.raises(RuntimeError, match="bug in shard"):
            coord.run()
        assert coord.workers_died >= 2  # retried once before the rung

    def test_strict_budget_error_propagates(self, tmp_path):
        clean = tmp_path / "clean.pcap"
        dirty = tmp_path / "dirty.pcap"
        write_pcap(clean, generate_trace(seed=3, flows=12))
        corrupt_pcap_records(clean, dirty, fraction=0.1, seed=4)
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            Coordinator(str(dirty), n_shards=3).run()

    def test_multiple_captures(self, tmp_path):
        p1, p2 = tmp_path / "a.pcap", tmp_path / "b.pcap"
        write_pcap(p1, generate_trace(seed=1, flows=6))
        write_pcap(p2, generate_trace(seed=2, flows=6, start=5000.0))
        merged = analyze_cluster([str(p1), str(p2)], shards=3)
        single = analyze_cluster([str(p1), str(p2)], shards=1)
        assert merged.to_json() == single.to_json()

    def test_rejects_bad_arguments(self, trace_pcap):
        with pytest.raises(ValueError, match="n_shards"):
            Coordinator(trace_pcap, n_shards=0)
        with pytest.raises(ValueError, match="at least one"):
            Coordinator([], n_shards=2)


class TestCheckpointResume:
    def test_resume_loads_finished_shards(self, trace_pcap, tmp_path):
        spool = tmp_path / "spool"
        first = Coordinator(
            trace_pcap, n_shards=3, checkpoint_dir=spool
        ).run()
        state = json.loads((spool / "state.json").read_text())
        assert state["version"] == 1
        assert all(
            entry["status"] == "done"
            for entry in state["shards"].values()
        )
        second = Coordinator(
            trace_pcap, n_shards=3, checkpoint_dir=spool, resume=True
        ).run()
        assert second.shards_resumed == 3
        assert second.report.to_json() == first.report.to_json()

    def test_signature_mismatch_restarts(self, trace_pcap, tmp_path):
        spool = tmp_path / "spool"
        Coordinator(trace_pcap, n_shards=3, checkpoint_dir=spool).run()
        # Different shard count: the spool must be ignored, not merged.
        result = Coordinator(
            trace_pcap, n_shards=2, checkpoint_dir=spool, resume=True
        ).run()
        assert result.shards_resumed == 0
        assert result.report.to_json() == (
            batch_reference(trace_pcap).to_json()
        )

    def test_damaged_spool_entry_reruns_shard(self, trace_pcap,
                                              tmp_path):
        spool = tmp_path / "spool"
        Coordinator(trace_pcap, n_shards=2, checkpoint_dir=spool).run()
        (spool / "shard-1.pkl").write_bytes(b"not a pickle")
        result = Coordinator(
            trace_pcap, n_shards=2, checkpoint_dir=spool, resume=True
        ).run()
        assert result.shards_resumed == 1
        assert result.report.to_json() == (
            batch_reference(trace_pcap).to_json()
        )


class TestClusterProvider:
    def test_http_endpoints(self, trace_pcap):
        from repro.live.http import LiveHTTPServer

        result = Coordinator(trace_pcap, n_shards=2).run()
        with LiveHTTPServer(ClusterProvider(result)) as server:
            def fetch(route):
                with urllib.request.urlopen(
                    server.url + route, timeout=10
                ) as resp:
                    return resp.status, resp.read().decode()

            status, body = fetch("/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["n_shards"] == 2
            assert health["status"] == "ok"

            status, body = fetch("/shards.json")
            assert status == 200
            shards = json.loads(body)["shards"]
            assert [s["shard"] for s in shards] == [0, 1]

            status, body = fetch("/report.json")
            payload = json.loads(body)
            assert payload["cluster"]["n_shards"] == 2
            assert len(payload["report"]["flows"]) == len(
                result.report.flows
            )

            status, body = fetch("/metrics")
            assert status == 200
            assert "repro_" in body


class TestClusterCli:
    def test_cli_json_matches_facade(self, trace_pcap, capsys):
        from repro.cluster.cli import main

        assert main([trace_pcap, "--shards", "2", "--json"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip("\n") == analyze_cluster(
            trace_pcap, shards=2
        ).to_json()

    def test_cli_stats_and_metrics(self, trace_pcap, tmp_path, capsys):
        from repro.cluster.cli import main

        prefix = tmp_path / "metrics"
        assert (
            main(
                [
                    trace_pcap, "--shards", "2", "--stats",
                    "--metrics-out", str(prefix),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "shard 0:" in captured.err
        assert "flows analyzed" in captured.out
        assert prefix.with_suffix(".json").exists()
        assert prefix.with_suffix(".prom").exists()

    def test_unified_cli_dispatch(self, trace_pcap, capsys):
        from repro.cli import main

        assert main(["cluster", trace_pcap, "--shards", "2"]) == 0
        assert "flows analyzed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, says",
        [
            (["--shards", "2"], "unrecognized arguments: --shards 2"),
            (
                ["--idle-timeout", "1"],
                "--idle-timeout: only supported with --stream",
            ),
        ],
        ids=["shards", "idle-timeout"],
    )
    def test_tapo_refuses_flags_it_would_not_read(
        self, trace_pcap, capsys, flags, says
    ):
        # Sharding belongs to 'repro-paper cluster'; the idle timeout
        # only to --stream.  Neither is dropped silently.
        from repro.core.cli import main

        with pytest.raises(SystemExit) as exc:
            main([trace_pcap, *flags])
        assert exc.value.code == 2
        assert says in capsys.readouterr().err

    def test_bad_http_endpoint_refused_before_the_run(
        self, trace_pcap, capsys, monkeypatch
    ):
        from repro.cluster.cli import main

        def no_run(self):
            raise AssertionError("Coordinator.run reached")

        monkeypatch.setattr(Coordinator, "run", no_run)
        with pytest.raises(SystemExit) as exc:
            main([trace_pcap, "--shards", "1", "--http", "nope:xx"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --http: bad endpoint 'nope:xx'" in captured.err


class TestLossyMultiSlab:
    """A loss-heavy capture spanning many decode slabs: SACK-bearing
    ACKs land in slabs that hold no SYN, which is where row selection
    used to drop every option of the slab."""

    def test_every_shard_count_and_listener_byte_identical(
        self, lossy_pcap, monkeypatch
    ):
        assert sack_only_slabs(lossy_pcap)
        iter_columns = PcapReader.iter_columns
        monkeypatch.setattr(
            PcapReader, "iter_columns",
            lambda self, buffer_bytes=SMALL_SLAB: iter_columns(
                self, buffer_bytes
            ),
        )
        reports = {
            n: Coordinator(lossy_pcap, n_shards=n).run().report.to_json()
            for n in (1, 2, 4)
        }
        reports["listen"] = run_with_dial_in_workers(
            lossy_pcap, 2
        ).report.to_json()
        assert len(set(reports.values())) == 1
        assert reports[1] == batch_reference(lossy_pcap).to_json()
        assert sum(
            len(flow["stalls"]) for flow in json.loads(reports[1])["flows"]
        ) > 0
