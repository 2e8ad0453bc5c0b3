"""Streaming pipeline tests: bounded-memory demux, eviction, and
batch/stream equivalence.

The contract under test (ISSUE: streaming bounded-memory TAPO
pipeline): ``Tapo.analyze_stream`` must produce classifications
identical to ``Tapo.analyze_pcap`` / ``analyze_packets`` on the same
trace, for any chunking of the input and any worker count, while
evicting flows as soon as the stream shows they are over.
"""

from __future__ import annotations

import contextlib
import dataclasses
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig, RunConfig
from repro.core import columnar_pipeline
from repro.core.columnar_pipeline import ColumnarStreamDemuxer
from repro.core.report import ServiceReport
from repro.core import tapo as tapo_module
from repro.core.tapo import Tapo
from repro.obs.metrics import MetricsRegistry
from repro.packet.columnar import OPT_ODD, PacketColumns
from repro.packet.flow import (
    FlowKey,
    FlowTrace,
    StreamDemuxer,
    StreamStats,
    demux,
    demux_stream,
)
from repro.packet.headers import FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN
from repro.packet.options import TCPOptions
from repro.packet.packet import PacketRecord
from repro.packet.pcap import PcapReader, write_pcap
from repro.testing import reference_analyze

SERVER = (0x0A000001, 80)


def client(i: int) -> tuple[int, int]:
    return (0x64400001 + i, 31000 + i)


def pkt(src, dst, flags=FLAG_ACK, payload=0, ts=0.0, seq=0, ack=0):
    return PacketRecord(
        timestamp=ts,
        src_ip=src[0],
        src_port=src[1],
        dst_ip=dst[0],
        dst_port=dst[1],
        seq=seq,
        ack=ack,
        flags=flags,
        payload_len=payload,
    )


def tiny_flow(i: int, start: float, close: str = "fin") -> list[PacketRecord]:
    """A handshake, one data exchange, and a close at ``start``."""
    c = client(i)
    packets = [
        pkt(c, SERVER, flags=FLAG_SYN, ts=start, seq=100),
        pkt(SERVER, c, flags=FLAG_SYN | FLAG_ACK, ts=start + 0.01, seq=300),
        pkt(c, SERVER, ts=start + 0.02, seq=101, ack=301),
        pkt(c, SERVER, payload=50, ts=start + 0.03, seq=101, ack=301),
        pkt(SERVER, c, payload=1000, ts=start + 0.05, seq=301, ack=151),
        pkt(c, SERVER, ts=start + 0.07, seq=151, ack=1301),
    ]
    if close == "fin":
        packets += [
            pkt(SERVER, c, flags=FLAG_FIN | FLAG_ACK, ts=start + 0.08,
                seq=1301, ack=151),
            pkt(c, SERVER, flags=FLAG_FIN | FLAG_ACK, ts=start + 0.09,
                seq=151, ack=1302),
            pkt(SERVER, c, ts=start + 0.10, seq=1302, ack=152),
        ]
    elif close == "rst":
        packets.append(
            pkt(SERVER, c, flags=FLAG_RST, ts=start + 0.08, seq=1301)
        )
    return packets


def interleave(flows: list[list[PacketRecord]]) -> list[PacketRecord]:
    merged = [p for flow in flows for p in flow]
    merged.sort(key=lambda p: p.timestamp)
    return merged


def simulated_packets(flows: int = 5, seed: int = 7, spread: float = 0.8):
    """Realistic packets: simulate web-search flows, offset each flow
    by ``spread`` seconds so closes happen mid-stream."""
    from repro.experiments.runner import run_flows
    from repro.workload.generator import generate_flows
    from repro.workload.services import get_profile

    scenarios = list(
        generate_flows(get_profile("web_search"), flows, seed=seed)
    )
    result = run_flows(scenarios, workers=1)
    packets = [
        dataclasses.replace(p, timestamp=p.timestamp + i * spread)
        for i, trace in enumerate(result.traces)
        for p in trace
    ]
    packets.sort(key=lambda p: p.timestamp)
    return packets


def by_key(analyses):
    return {a.flow.key: a for a in analyses}


def assert_breakdowns_close(a, b):
    """Breakdowns fold floats in flow order, which streaming permutes;
    counts must match exactly, times/shares to float tolerance."""
    assert set(a) == set(b)
    for cause in a:
        assert a[cause].count == b[cause].count, cause
        assert a[cause].time == pytest.approx(b[cause].time)
        assert a[cause].volume_share == pytest.approx(b[cause].volume_share)
        assert a[cause].time_share == pytest.approx(b[cause].time_share)


def signature(analysis):
    """Everything the classifier decided about one flow."""
    return (
        analysis.flow.key,
        analysis.data_packets,
        analysis.retransmissions,
        analysis.timeouts,
        round(analysis.duration, 9),
        tuple(
            (
                round(s.start_time, 9),
                round(s.duration, 9),
                s.cause,
                s.retx_cause,
                s.double_kind,
            )
            for s in analysis.stalls
        ),
    )


@pytest.fixture(scope="module")
def sim_packets():
    return simulated_packets()


class TestDemuxStream:
    def test_batch_mode_equals_demux(self):
        packets = interleave([tiny_flow(i, i * 0.2) for i in range(4)])
        batch = demux(packets)
        streamed = list(
            demux_stream(packets, idle_timeout=None, close_linger=None)
        )
        assert [f.key for f in streamed] == [f.key for f in batch]
        assert [f.packets for f in streamed] == [f.packets for f in batch]

    def test_fin_close_evicts_mid_stream(self):
        # Flow 0 closes at t~0.1; flow 1 keeps the stream alive past
        # the close linger, so flow 0 must be yielded before the end.
        flows = [tiny_flow(0, 0.0)]
        c = client(1)
        keepalive = [
            pkt(c, SERVER, flags=FLAG_SYN, ts=0.0, seq=1)
        ] + [
            pkt(c, SERVER, payload=10, ts=t, seq=1, ack=1)
            for t in (1.0, 3.0, 6.0, 9.0)
        ]
        packets = interleave(flows + [keepalive])
        stats = StreamStats()
        yielded_before_end = []
        gen = demux_stream(packets, close_linger=1.0, stats=stats)
        for trace in gen:
            yielded_before_end.append((trace.key, stats.packets))
        key0 = FlowKey.from_packet(flows[0][0])
        # First yield is flow 0, before the stream was fully consumed.
        assert yielded_before_end[0][0] == key0
        assert yielded_before_end[0][1] < len(packets)
        assert stats.flows_closed == 1
        assert stats.flows_finalized == 1
        assert stats.flows_total == 2

    def test_rst_close_evicts(self):
        flows = [tiny_flow(0, 0.0, close="rst")]
        c = client(1)
        keepalive = [
            pkt(c, SERVER, payload=10, ts=t, seq=1) for t in (0.0, 5.0, 9.0)
        ]
        stats = StreamStats()
        list(
            demux_stream(
                interleave(flows + [keepalive]),
                close_linger=1.0,
                stats=stats,
            )
        )
        assert stats.flows_closed == 1

    def test_idle_timeout_evicts(self):
        # Flow 0 goes silent after 0.1s (no FIN); flow 1 advances the
        # clock far past the idle timeout.
        c0 = client(0)
        silent = [
            pkt(c0, SERVER, flags=FLAG_SYN, ts=0.0, seq=9),
            pkt(c0, SERVER, payload=10, ts=0.1, seq=10),
        ]
        c1 = client(1)
        keepalive = [
            pkt(c1, SERVER, payload=10, ts=t, seq=1)
            for t in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
        ]
        stats = StreamStats()
        yielded = []
        for trace in demux_stream(
            interleave([silent, keepalive]), idle_timeout=5.0, stats=stats
        ):
            yielded.append((trace.key, stats.packets))
        assert stats.flows_evicted_idle == 1
        assert yielded[0][0] == FlowKey.from_packet(silent[0])
        assert yielded[0][1] < stats.packets  # evicted before the end

    def test_buffered_packets_bounded_by_eviction(self):
        # 20 sequential flows that each close before the next starts:
        # the demuxer should never buffer much more than one flow.
        flows = [tiny_flow(i, i * 10.0) for i in range(20)]
        packets = interleave(flows)
        one_flow = len(flows[0])
        stats = StreamStats()
        traces = list(
            demux_stream(packets, close_linger=1.0, stats=stats)
        )
        assert len(traces) == 20
        assert stats.peak_buffered_packets <= 2 * one_flow
        assert stats.peak_active_flows <= 2
        # Batch demux, by contrast, holds everything.
        assert stats.packets == len(packets)

    def test_stats_to_registry(self):
        stats = StreamStats()
        list(demux_stream(tiny_flow(0, 0.0), stats=stats))
        registry = MetricsRegistry()
        stats.to_registry(registry)
        assert registry["repro_stream_packets_total"].value == stats.packets
        assert "repro_stream_peak_buffered_packets" in registry


class TestBatchStreamEquivalence:
    def test_serial_equivalence(self, sim_packets):
        tapo = Tapo()
        batch = by_key(tapo.analyze_packets(sim_packets))
        stream = by_key(
            tapo.analyze_stream(
                sim_packets, run=RunConfig(workers=1, idle_timeout=5.0)
            )
        )
        assert set(stream) == set(batch)
        for key in batch:
            assert signature(stream[key]) == signature(batch[key])

    def test_parallel_equivalence_and_order(self, sim_packets):
        tapo = Tapo()
        batch = tapo.analyze_packets(sim_packets)
        stream = list(
            tapo.analyze_stream(
                sim_packets,
                run=RunConfig(
                    workers=2, chunk_flows=2, max_in_flight_chunks=2
                ),
            )
        )
        assert len(stream) == len(batch)
        assert {signature(a) for a in stream} == {
            signature(a) for a in batch
        }

    def test_pcap_path_source(self, sim_packets, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sim_packets)
        tapo = Tapo()
        batch = by_key(tapo.analyze_pcap(path))
        stream = by_key(tapo.analyze_stream(str(path)))
        assert set(stream) == set(batch)
        for key in batch:
            assert signature(stream[key]) == signature(batch[key])

    def test_chunked_source(self, sim_packets):
        tapo = Tapo()
        batch = by_key(tapo.analyze_packets(sim_packets))
        chunks = [
            sim_packets[i : i + 37] for i in range(0, len(sim_packets), 37)
        ]
        stream = by_key(tapo.analyze_stream(chunks))
        assert {signature(a) for a in stream.values()} == {
            signature(a) for a in batch.values()
        }

    def test_stream_registry_counters(self, sim_packets):
        registry = MetricsRegistry()
        stats = StreamStats()
        analyses = list(
            Tapo().analyze_stream(
                sim_packets, stats=stats, registry=registry
            )
        )
        assert (
            registry["repro_stream_analyzed_flows_total"].value
            == len(analyses)
        )
        assert registry["repro_stream_packets_total"].value == len(
            sim_packets
        )
        assert registry["repro_stream_analysis_chunks_total"].value >= 1

    def test_report_stream_matches_batch_report(self, sim_packets):
        tapo = Tapo()
        batch = ServiceReport(service="s")
        for analysis in tapo.analyze_packets(sim_packets):
            batch.add(analysis)
        streamed = tapo.report_stream(
            sim_packets, service="s", run=RunConfig(chunk_flows=2)
        )
        assert len(streamed.flows) == len(batch.flows)
        assert streamed.total_stalls() == batch.total_stalls()
        assert_breakdowns_close(
            streamed.cause_breakdown(), batch.cause_breakdown()
        )


class TestChunkInvariance:
    @settings(deadline=None, max_examples=20)
    @given(chunk=st.integers(min_value=1, max_value=64))
    def test_analysis_invariant_under_chunk_size(self, chunk):
        packets = interleave(
            [tiny_flow(i, i * 0.1, close="fin" if i % 2 else "rst")
             for i in range(5)]
        )
        tapo = Tapo()
        expected = {signature(a) for a in tapo.analyze_packets(packets)}
        chunks = [
            packets[i : i + chunk] for i in range(0, len(packets), chunk)
        ]
        got = {
            signature(a)
            for a in tapo.analyze_stream(
                chunks, run=RunConfig(chunk_flows=chunk)
            )
        }
        assert got == expected

    @settings(deadline=None, max_examples=15)
    @given(
        idle=st.one_of(st.none(), st.floats(min_value=0.5, max_value=50.0)),
        linger=st.one_of(
            st.none(), st.floats(min_value=0.1, max_value=10.0)
        ),
    )
    def test_eviction_bounds_never_change_results(self, idle, linger):
        packets = interleave([tiny_flow(i, i * 3.0) for i in range(4)])
        expected = {signature(a) for a in Tapo().analyze_packets(packets)}
        got = {
            signature(a)
            for a in Tapo().analyze_stream(
                packets,
                run=RunConfig(idle_timeout=idle, close_linger=linger),
            )
        }
        assert got == expected


class TestServiceReportMerge:
    def _reports(self, sim_packets):
        analyses = Tapo().analyze_packets(sim_packets)
        parts = []
        for i in range(0, len(analyses), 2):
            part = ServiceReport(service="s")
            for analysis in analyses[i : i + 2]:
                part.add(analysis)
            parts.append(part)
        return analyses, parts

    def test_merged_equals_single_pass(self, sim_packets):
        analyses, parts = self._reports(sim_packets)
        single = ServiceReport(service="s")
        for analysis in analyses:
            single.add(analysis)
        merged = ServiceReport.merged(parts, service="s")
        assert merged.cause_breakdown() == single.cause_breakdown()
        assert merged.total_stalls() == single.total_stalls()
        assert [f.flow.key for f in merged.flows] == [
            f.flow.key for f in single.flows
        ]

    def test_merge_is_associative(self, sim_packets):
        _, parts = self._reports(sim_packets)
        if len(parts) < 3:
            pytest.skip("need >= 3 partial reports")
        a = ServiceReport.merged(
            [ServiceReport.merged(parts[:2], service="s")] + parts[2:],
            service="s",
        )
        b = ServiceReport.merged(
            parts[:1]
            + [ServiceReport.merged(parts[1:], service="s")],
            service="s",
        )
        assert a.cause_breakdown() == b.cause_breakdown()
        assert a.total_stalls() == b.total_stalls()

    def test_merged_empty(self):
        merged = ServiceReport.merged([], service="empty")
        assert merged.service == "empty"
        assert merged.flows == []


class TestPcapChunking:
    def test_iter_records_matches_iter(self, sim_packets, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sim_packets)
        with PcapReader(path) as reader:
            via_iter = list(reader)
        with PcapReader(path) as reader:
            via_records = list(reader.iter_records(buffer_bytes=4096))
        assert via_records == via_iter
        assert len(via_records) == len(sim_packets)

    def test_iter_chunks_flattens_to_records(self, sim_packets, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sim_packets)
        with PcapReader(path) as reader:
            chunks = list(reader.iter_chunks(chunk_packets=17))
        with PcapReader(path) as reader:
            records = list(reader.iter_records())
        assert all(len(c) <= 17 for c in chunks)
        assert all(len(c) == 17 for c in chunks[:-1])
        assert [p for c in chunks for p in c] == records

    def test_tiny_buffer_still_parses(self, tmp_path):
        packets = tiny_flow(0, 0.0)
        path = tmp_path / "small.pcap"
        write_pcap(path, packets)
        with PcapReader(path) as reader:
            # Smaller than one record: forces every top-up path.
            got = list(reader.iter_records(buffer_bytes=8))
        with PcapReader(path) as reader:
            whole = list(reader.iter_records())
        assert got == whole
        assert [(p.seq, p.flags, p.payload_len) for p in got] == [
            (p.seq, p.flags, p.payload_len) for p in packets
        ]


class TestAnalyzerFeedPath:
    def test_feed_finish_equals_run(self):
        from repro.core.flow_analyzer import FlowAnalyzer

        flows = list(
            demux_stream(
                interleave([tiny_flow(i, i * 0.2) for i in range(3)]),
                idle_timeout=None,
                close_linger=None,
            )
        )
        for flow in flows:
            batch = FlowAnalyzer(flow, config=AnalysisConfig()).run()
            incremental = FlowAnalyzer(flow, config=AnalysisConfig())
            for packet, direction in flow.packets:
                incremental.feed(packet, direction)
            streamed = incremental.finish()
            assert signature(streamed) == signature(batch)

    def test_feed_finish_equals_run_on_sack_heavy_flows(self):
        """One packet per ``feed`` call writes the loop's locals back
        after every row; lossy flows (SACK blocks, retransmissions,
        stalls) must come out field for field as from one ``run``."""
        from repro.core.flow_analyzer import FlowAnalyzer
        from repro.experiments.runner import run_flow
        from repro.workload.generator import generate_flows
        from repro.workload.services import get_profile

        traces = [
            run_flow(scenario).packets
            for scenario in generate_flows(
                get_profile("cloud_storage"), 6, seed=20141222
            )
        ]
        assert sum(
            bool(p.options.sack_blocks) for trace in traces for p in trace
        ) > 100
        stalls = 0
        for trace in traces:
            (flow,) = demux_stream(
                trace, idle_timeout=None, close_linger=None
            )
            whole = FlowAnalyzer(flow, config=AnalysisConfig())
            batch = whole.run()
            incremental = FlowAnalyzer(flow, config=AnalysisConfig())
            for packet, direction in flow.packets:
                incremental.feed(packet, direction)
            assert incremental.finish() == batch
            assert incremental.tracker.segments == whole.tracker.segments
            assert incremental._fed == whole._fed == len(flow.packets)
            stalls += len(batch.stalls)
        assert stalls


class TestEvictionEdgeCases:
    """Regression tests for the demuxer's eviction caveats: the same
    4-tuple reappearing after eviction, and stragglers around the
    close linger (ISSUE: fault-tolerant ingestion, satellite f)."""

    @staticmethod
    def clock(i: int, ticks: int, step: float = 1.0) -> list[PacketRecord]:
        """A long-lived flow whose packets advance trace time so the
        demuxer's sweeps actually fire between the interesting events."""
        c = client(i)
        packets = [pkt(c, SERVER, flags=FLAG_SYN, ts=0.0, seq=1)]
        packets += [
            pkt(c, SERVER, ts=(t + 1) * step, seq=2, ack=1)
            for t in range(ticks)
        ]
        return packets

    def test_tuple_reappearing_after_idle_eviction(self):
        c = client(0)
        tail = [
            pkt(c, SERVER, payload=10, ts=10.0, seq=200, ack=400),
            pkt(SERVER, c, ts=10.1, seq=400, ack=210),
        ]
        packets = interleave(
            [tiny_flow(0, 0.0, close="none"), tail, self.clock(99, 12)]
        )
        stats = StreamStats()
        flows = list(
            demux_stream(
                packets, idle_timeout=5.0, close_linger=1.0, stats=stats
            )
        )
        key = FlowKey.from_packet(tail[0])
        segments = [f for f in flows if f.key == key]
        # The idle gap split the flow: one evicted segment mid-stream,
        # one fresh segment for the reappearing tuple.
        assert len(segments) == 2
        assert stats.flows_evicted_idle >= 1
        assert stats.flows_reopened == 1  # the SYN-less restart
        assert sum(len(f.packets) for f in flows) == len(packets)

    def test_fin_then_retransmit_after_linger(self):
        c = client(0)
        # A retransmission of the last data segment, arriving well
        # after the close linger expired.
        straggler = [pkt(SERVER, c, payload=1000, ts=6.0, seq=301, ack=151)]
        packets = interleave(
            [tiny_flow(0, 0.0), straggler, self.clock(99, 8)]
        )
        stats = StreamStats()
        flows = list(
            demux_stream(
                packets, idle_timeout=60.0, close_linger=1.0, stats=stats
            )
        )
        key = FlowKey.from_packet(straggler[0])
        segments = [f for f in flows if f.key == key]
        assert len(segments) == 2
        assert len(segments[1].packets) == 1  # just the straggler
        assert stats.flows_closed == 1
        assert stats.flows_reopened == 1
        assert sum(len(f.packets) for f in flows) == len(packets)

    def test_straggler_within_linger_attaches(self):
        c = client(0)
        straggler = [pkt(SERVER, c, payload=1000, ts=0.5, seq=301, ack=151)]
        packets = interleave(
            [tiny_flow(0, 0.0), straggler, self.clock(99, 8)]
        )
        stats = StreamStats()
        flows = list(
            demux_stream(
                packets, idle_timeout=60.0, close_linger=2.0, stats=stats
            )
        )
        key = FlowKey.from_packet(straggler[0])
        segments = [f for f in flows if f.key == key]
        # Within the linger the retransmit still belongs to the flow.
        assert len(segments) == 1
        assert len(segments[0].packets) == len(tiny_flow(0, 0.0)) + 1
        assert stats.flows_reopened == 0
        assert stats.flows_closed == 1

    def test_port_reuse_with_syn_not_counted_reopened(self):
        reuse = tiny_flow(0, 10.0)  # same 4-tuple, brand-new SYN
        packets = interleave(
            [tiny_flow(0, 0.0, close="none"), reuse, self.clock(99, 14)]
        )
        stats = StreamStats()
        flows = list(
            demux_stream(
                packets, idle_timeout=5.0, close_linger=1.0, stats=stats
            )
        )
        key = FlowKey.from_packet(reuse[0])
        segments = [f for f in flows if f.key == key]
        assert len(segments) == 2
        # A SYN means a genuinely new connection, not a reopen.
        assert stats.flows_reopened == 0

    def test_eviction_disabled_merges_reappearance(self):
        """With both bounds off the demuxer matches batch demux: the
        reappearing tuple merges into the original flow."""
        c = client(0)
        tail = [pkt(c, SERVER, payload=10, ts=10.0, seq=200, ack=400)]
        packets = interleave([tiny_flow(0, 0.0, close="none"), tail])
        stats = StreamStats()
        flows = list(
            demux_stream(
                packets, idle_timeout=None, close_linger=None, stats=stats
            )
        )
        key = FlowKey.from_packet(tail[0])
        segments = [f for f in flows if f.key == key]
        assert len(segments) == 1
        assert len(segments[0].packets) == len(packets)
        batch = [f for f in demux(packets) if f.key == key]
        assert [p.timestamp for p, _ in segments[0].packets] == [
            p.timestamp for p, _ in batch[0].packets
        ]

    def test_reopened_segments_still_analyzable(self):
        """Both segments of a split flow survive analysis (the second
        has no handshake — exactly the shape lenient mode must take)."""
        c = client(0)
        tail = [
            pkt(c, SERVER, payload=10, ts=10.0, seq=200, ack=400),
            pkt(SERVER, c, payload=500, ts=10.1, seq=400, ack=210),
            pkt(c, SERVER, ts=10.2, seq=210, ack=900),
        ]
        packets = interleave(
            [tiny_flow(0, 0.0, close="none"), tail, self.clock(99, 12)]
        )
        tapo = Tapo()
        analyses = list(
            tapo.analyze_stream(
                packets,
                run=RunConfig(idle_timeout=5.0, close_linger=1.0),
            )
        )
        key = FlowKey.from_packet(tail[0])
        got = [a for a in analyses if a.flow.key == key]
        assert len(got) == 2
        assert all(a.duration >= 0 for a in got)


def _reference_image(flow):
    """What the column store of ``flow`` must hold, computed from the
    record-level demuxer's packets."""
    records = [record for record, _ in flow.packets]
    cols = PacketColumns.from_records(records)
    src_pk = array(
        "q", ((r.src_ip << 16) | r.src_port for r in records)
    )
    return (
        flow.key, flow.server, flow.client,
        (flow.server[0] << 16) | flow.server[1],
        sorted(cols.odd_options),
        [
            column.tobytes() for column in (
                cols.timestamps, src_pk, cols.seq, cols.ack, cols.flags,
                cols.window, cols.payload_len, cols.ts_val, cols.ts_ecr,
                cols.optbits,
            )
        ],
        records,
    )


def _columnar_image(trace):
    store = trace._store
    return (
        trace.key, trace.server, trace.client, store.server_pk,
        sorted(store.odd),
        [
            column.tobytes() for column in (
                store.times, store.src_pk, store.seq, store.ack,
                store.flags, store.window, store.payload, store.ts_val,
                store.ts_ecr, store.optbits,
            )
        ],
        [record for record, _ in trace.packets],
    )


def _small_slab_cases():
    """Short packet lists, each with the eviction clocks and server
    predicate it needs and a check, on the stats and flows of one
    demux, that it holds what it names."""
    c = client(0)
    by_predicate = lambda record: record.src_ip == SERVER[0]  # noqa: E731
    closed = tiny_flow(0, 0.0, close="none") + [
        pkt(SERVER, c, flags=FLAG_FIN | FLAG_ACK, ts=0.08, seq=1301, ack=151),
        pkt(c, SERVER, flags=FLAG_RST, ts=0.09, seq=151),
        pkt(SERVER, c, ts=0.2, seq=1302, ack=151),  # after the linger
    ]
    tail = [
        pkt(c, SERVER, payload=10, ts=2.0, seq=200, ack=400),
        pkt(SERVER, c, payload=500, ts=2.1, seq=400, ack=210),
    ]
    mid_stream = [  # no handshake: the server is inferred
        pkt(SERVER, c, payload=900, ts=0.0, seq=10, ack=5),
        pkt(c, SERVER, ts=0.01, seq=5, ack=910),
        pkt(c, SERVER, payload=30, ts=0.02, seq=5, ack=910),
    ]
    odd_ends = [
        dataclasses.replace(
            tiny_flow(0, 0.0)[0], options=TCPOptions(mss=1460, wscale=7)
        ),
        *tiny_flow(0, 0.0)[1:],
        pkt(c, SERVER, ts=0.2, seq=152, ack=1302),
    ]
    odd_ends[-1] = dataclasses.replace(
        odd_ends[-1],
        options=TCPOptions(sack_blocks=[(1400, 1500)], ts_val=9, ts_ecr=8),
    )
    served = lambda stats, flows: all(  # noqa: E731
        flow.server == SERVER for flow in flows
    )
    return {
        "several_connections": (
            interleave([tiny_flow(i, i * 0.004) for i in range(3)]),
            (None, None), None, lambda stats, flows: len(flows) == 3,
        ),
        "one_connection_syn_fin_rst": (
            closed, (60.0, 0.05), None,
            lambda stats, flows: stats.flows_closed == 1,
        ),
        "reused_and_reopened_tuple": (
            tiny_flow(0, 0.0) + tiny_flow(0, 1.0) + tail, (0.5, 0.05), None,
            lambda stats, flows: (stats.flows_closed, stats.flows_reopened)
            == (2, 1),
        ),
        "server_by_predicate": (
            interleave([mid_stream, tiny_flow(1, 0.005)]),
            (None, None), by_predicate, served,
        ),
        "server_by_volume": (
            interleave([mid_stream, tiny_flow(1, 0.005)]),
            (None, None), None, served,
        ),
        "odd_options_first_and_last_rows": (
            odd_ends, (None, None), None,
            lambda stats, flows: sorted(flows[0]._store.odd)
            == [0, len(odd_ends) - 1],
        ),
        "odd_options_in_a_reopened_tuple": (
            odd_ends + [
                dataclasses.replace(packet, timestamp=packet.timestamp + 1)
                for packet in odd_ends
            ],
            (0.5, 0.05), None,
            lambda stats, flows: [sorted(flow._store.odd) for flow in flows]
            == [[0, len(odd_ends) - 1]] * 2,
        ),
        "eviction_cuts": (
            interleave(
                [tiny_flow(i, i * 0.15, close="none") for i in range(5)]
            ),
            (0.3, 0.05), None,
            lambda stats, flows: stats.flows_evicted_idle >= 2,
        ),
    }


class TestSlabDemuxProperty:
    """``ColumnarStreamDemuxer.feed_columns`` works slab by slab; the
    record-level :class:`StreamDemuxer` works packet by packet.  For
    any trace cut into slabs anywhere they hand over the same flows in
    the same order with the same column bytes and the same
    :class:`StreamStats` after every slab."""

    @staticmethod
    def _compare(slabs, records, predicate, idle, linger):
        columnar = ColumnarStreamDemuxer(
            predicate, idle_timeout=idle, close_linger=linger
        )
        reference = StreamDemuxer(
            predicate, idle_timeout=idle, close_linger=linger
        )
        fed = 0
        for slab in slabs:
            columnar.feed_columns(slab)
            for record in records[fed : fed + len(slab)]:
                reference.feed(record)
            fed += len(slab)
            assert columnar.stats == reference.stats
            assert [_columnar_image(t) for t in columnar.poll()] == [
                _reference_image(f) for f in reference.poll()
            ]
        assert fed == len(records)
        assert [_columnar_image(t) for t in columnar.finish()] == [
            _reference_image(f) for f in reference.finish()
        ]
        assert columnar.stats == reference.stats

    @staticmethod
    def _perturbed(seed, flows, quantum, steps_back):
        """A generated trace, optionally with timestamps coarsened to
        ``quantum`` (ties on ``first_time``, many packets per sweep
        instant) and some packets moved back in time in place."""
        from repro.testing import generate_trace

        packets = generate_trace(seed, flows=flows)
        if quantum:
            packets = [
                dataclasses.replace(
                    p, timestamp=p.timestamp // quantum * quantum
                )
                for p in packets
            ]
        for index, back in steps_back:
            index %= len(packets)
            packets[index] = dataclasses.replace(
                packets[index],
                timestamp=max(0.0, packets[index].timestamp - back),
            )
        return packets

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 40),
        flows=st.integers(1, 8),
        quantum=st.sampled_from((0.0, 0.25, 2.0)),
        steps_back=st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.sampled_from((0.01, 0.4, 3.0)),
            ),
            max_size=4,
        ),
        cuts=st.one_of(
            st.just("rows"), st.just("one"),
            st.lists(st.integers(0, 10_000), max_size=6),
        ),
        eviction=st.sampled_from(
            ((None, None), (60.0, 5.0), (0.3, 0.05), (None, 0.01), (2.0, None))
        ),
        by_predicate=st.booleans(),
    )
    def test_record_batches(
        self, seed, flows, quantum, steps_back, cuts, eviction, by_predicate
    ):
        """``from_records`` batches cut at arbitrary rows: one-row
        slabs, one slab (flows evicted and re-opened inside it under
        the short timeouts), timestamps that step backwards across a
        sweep boundary, flows tied on ``first_time``, a server
        predicate — and the original record objects handed through."""
        from repro.testing.traces import SERVER_IP

        packets = self._perturbed(seed, flows, quantum, steps_back)
        if cuts == "rows":
            edges = list(range(len(packets) + 1))
        elif cuts == "one":
            edges = [0, len(packets)]
        else:
            edges = sorted(
                {0, len(packets), *(cut % len(packets) for cut in cuts)}
            )
        slabs = [
            PacketColumns.from_records(packets[a:b])
            for a, b in zip(edges, edges[1:])
        ]
        predicate = (
            (lambda record: record.src_ip == SERVER_IP)
            if by_predicate else None
        )
        self._compare(slabs, packets, predicate, *eviction)
        # Materialization returned the objects that went in.
        demuxer = ColumnarStreamDemuxer(idle_timeout=None, close_linger=None)
        for slab in slabs:
            demuxer.feed_columns(slab)
        out = {
            id(record)
            for trace in demuxer.finish() for record, _ in trace.packets
        }
        assert out == {id(record) for record in packets}

    @pytest.mark.parametrize("case", sorted(_small_slab_cases()))
    def test_small_slab_cases(self, case):
        """Each case in one slab and in two; every slab, one
        connection or several, is grouped by the one numpy sort."""
        packets, eviction, predicate, holds = _small_slab_cases()[case]
        half = len(packets) // 2
        for edges in ((0, len(packets)), (0, half, len(packets))):
            slabs = [
                PacketColumns.from_records(packets[a:b])
                for a, b in zip(edges, edges[1:])
            ]
            self._compare(slabs, packets, predicate, *eviction)
        idle, linger = eviction
        demuxer = ColumnarStreamDemuxer(
            predicate, idle_timeout=idle, close_linger=linger
        )
        sorted_slabs = []
        group_sorted = columnar_pipeline._group_sorted

        def spy(*args):
            sorted_slabs.append(args)
            return group_sorted(*args)

        with mock.patch.object(columnar_pipeline, "_group_sorted", spy):
            demuxer.feed_columns(PacketColumns.from_records(packets))
        assert len(sorted_slabs) == 1
        assert holds(demuxer.stats, demuxer.poll() + demuxer.finish())

    def test_one_slab_holds_the_hard_cases(self):
        """One pinned draw of the property above, so it cannot pass
        vacuously: inside a single slab connections are evicted and
        re-opened, the row after a sweep steps back in time past the
        sweep instant, and two flows tie on ``first_time``."""
        packets = self._perturbed(0, 6, 2.0, ())
        probe = ColumnarStreamDemuxer(idle_timeout=0.3, close_linger=0.05)
        swept = probe._sweep_rows(
            PacketColumns.from_records(packets).timestamps
        )
        after = swept[len(swept) // 2] + 1
        packets[after] = dataclasses.replace(
            packets[after], timestamp=packets[after].timestamp - 3.0
        )
        slab = PacketColumns.from_records(packets)
        self._compare([slab], packets, None, 0.3, 0.05)

        demuxer = ColumnarStreamDemuxer(idle_timeout=0.3, close_linger=0.05)
        demuxer.feed_columns(slab)
        stats = demuxer.stats
        assert stats.flows_reopened and stats.flows_evicted_idle
        assert stats.flows_closed and demuxer.poll()
        demuxer = ColumnarStreamDemuxer(idle_timeout=None, close_linger=None)
        demuxer.feed_columns(slab)
        firsts = [trace.first_time for trace in demuxer.finish()]
        assert len(set(firsts)) < len(firsts)

    def test_flows_join_in_the_order_their_servers_were_identified(self):
        """``finish`` breaks ``first_time`` ties by the order flows were
        *identified*, not first seen: a mid-capture connection whose
        SYN shows up later lines up behind one identified meanwhile."""
        server, early, late = (9, 80), (1, 1000), (2, 2000)
        packets = [
            pkt(early, server, payload=10, ts=5.0),  # no SYN yet
            pkt(late, server, FLAG_SYN, ts=5.0),
            pkt(server, late, FLAG_SYN | FLAG_ACK, ts=5.1),
            pkt(early, server, FLAG_SYN, ts=5.2),
            pkt((3, 3000), server, payload=10, ts=5.0),  # never identified
        ]
        slab = PacketColumns.from_records(packets)
        self._compare([slab], packets, None, None, None)
        demuxer = ColumnarStreamDemuxer(idle_timeout=None, close_linger=None)
        demuxer.feed_columns(slab)
        peers = [
            ({trace.server, trace.client} - {server}).pop()
            for trace in demuxer.finish()
        ]
        assert peers == [late, early, (3, 3000)]

    @staticmethod
    def _decoded(tmp_path_factory, seed, buffer_bytes):
        """``(slabs, records)`` of a generated capture read back in
        ``buffer_bytes`` windows; the slabs are fresh, their SACK rows
        still undecoded (``_LazySackOptions``)."""
        from repro.testing import generate_trace

        path = tmp_path_factory.mktemp("slabs") / "trace.pcap"
        write_pcap(path, generate_trace(seed, flows=6))
        with PcapReader(path) as reader:
            records = [
                record
                for slab in reader.iter_columns(buffer_bytes)
                for record in slab.records()
            ]
        with PcapReader(path) as reader:
            return list(reader.iter_columns(buffer_bytes)), records

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.sampled_from((1, 3, 6, 8, 9, 11)),
        buffer_bytes=st.integers(120, 6000),
        eviction=st.sampled_from(((None, None), (60.0, 5.0), (0.3, 0.05))),
    )
    def test_decoded_slabs(
        self, tmp_path_factory, seed, buffer_bytes, eviction
    ):
        slabs, records = self._decoded(tmp_path_factory, seed, buffer_bytes)
        self._compare(slabs, records, None, *eviction)

    def test_lazy_sack_rows_in_a_syn_free_slab(self, tmp_path_factory):
        """The case the mapping's own ``bool()`` / ``items()`` cannot
        see: a slab whose only odd rows are undecoded SACK rows."""
        slabs, records = self._decoded(tmp_path_factory, 9, 600)
        blind = [
            slab for slab in slabs
            if not slab.odd_options
            and any(bits & OPT_ODD for bits in slab.optbits)
        ]
        assert blind
        self._compare(slabs, records, None, None, None)


def _batch_cases():
    """Record lists for the batch ingest, each with its server
    predicate: every case of :func:`_small_slab_cases`, plus one
    connection whose server the predicate names against the data
    volume, one without a SYN whose heavier sender speaks second, one
    whose SYN+ACK comes first, one with a later SYN that points the
    other way, and the empty list."""
    cases = {
        name: (packets, predicate)
        for name, (packets, _eviction, predicate, _holds)
        in _small_slab_cases().items()
    }
    c = client(0)
    mid_stream = [  # no handshake; the client speaks first
        pkt(c, SERVER, payload=30, ts=0.0, seq=5, ack=10),
        pkt(SERVER, c, payload=900, ts=0.01, seq=10, ack=35),
        pkt(c, SERVER, ts=0.02, seq=35, ack=910),
    ]
    cases.update(
        predicate_over_volume=(
            mid_stream, lambda record: record.src_port == c[1]
        ),
        volume_not_first_row=(mid_stream, None),
        syn_ack_first=(tiny_flow(0, 0.0)[1:], None),
        first_syn_decides=(
            tiny_flow(0, 0.0) + [pkt(SERVER, c, flags=FLAG_SYN, ts=0.5)],
            None,
        ),
        empty=([], None),
    )
    return cases


class TestOneFlowIngest:
    """A record list of one connection is its one flow: a
    :class:`FlowTrace` of the records themselves
    (:func:`columnar_pipeline.one_flow`), equal to the flow the
    record-level batch demux hands over; batch mode takes that path and
    nothing else does."""

    @pytest.mark.parametrize("case", sorted(_batch_cases()))
    def test_matches_the_batch_demux(self, case):
        self._check(*_batch_cases()[case])

    def test_sack_rows_match_the_batch_demux(self):
        """A simulated connection whose client SACKs."""
        from repro.experiments.runner import run_flows
        from repro.workload.generator import generate_flows
        from repro.workload.services import get_profile

        traces = run_flows(
            list(generate_flows(get_profile("web_search"), 7, seed=7)),
            workers=1,
        ).traces
        self._check(
            next(
                trace for trace in traces
                if any(packet.options.sack_blocks for packet in trace)
            ),
            None,
        )

    @classmethod
    def _check(cls, packets, predicate):
        reference = StreamDemuxer(
            predicate, idle_timeout=None, close_linger=None
        )
        for record in packets:
            reference.feed(record)
        expected = reference.finish()
        flow = columnar_pipeline.one_flow(packets, predicate)
        if len({FlowKey.from_packet(packet) for packet in packets}) != 1:
            assert flow is None
        else:
            assert type(flow) is FlowTrace
            assert [flow] == expected  # key, endpoints, packets, directions
        tapo = Tapo()
        one = flow is not None
        with cls._skipping_the_demux() if one else contextlib.nullcontext():
            analyses = tapo.analyze_packets(packets, predicate)
        assert tapo.materialized_flows == 0
        analyzed, expected_report = ServiceReport("a"), ServiceReport("a")
        for analysis in analyses:
            analyzed.add(analysis)
        for analysis in reference_analyze(packets, None, predicate)[0]:
            expected_report.add(analysis)
        assert analyzed.to_json() == expected_report.to_json()

    def test_materializes_the_records_that_went_in(self):
        packets = tiny_flow(0, 0.0)
        flow = columnar_pipeline.one_flow(packets)
        assert [id(out) for out, _ in flow.packets] == list(map(id, packets))

    def test_rejects_what_is_not_a_list_of_records(self):
        packets = tiny_flow(0, 0.0)
        one_flow = columnar_pipeline.one_flow
        columns = PacketColumns.from_records(packets)
        assert one_flow([columns]) is None
        assert one_flow([packets]) is None
        assert one_flow([*packets, columns]) is None
        assert one_flow(tuple(packets)) is None
        assert one_flow([*packets, *tiny_flow(1, 0.5)]) is None
        assert one_flow([*packets, pkt(SERVER, (9, 9))]) is None

    @staticmethod
    def _forbidden(*args, **kwargs):
        raise AssertionError("a one-connection list was re-batched")

    @classmethod
    @contextlib.contextmanager
    def _skipping_the_demux(cls):
        with mock.patch.object(
            PacketColumns, "from_records", cls._forbidden
        ), mock.patch.object(
            tapo_module, "demux_columns_stream", cls._forbidden
        ):
            yield

    def test_single_connection_lists_skip_batching_and_the_demux(self):
        from repro import api

        packets = tiny_flow(0, 0.0)
        with self._skipping_the_demux():
            assert len(api.analyze(packets)) == 1
            tapo = Tapo()
            assert len(tapo.analyze_packets(packets)) == 1
            report = tapo.report([packets, tiny_flow(1, 0.5)])
            assert len(report.flows) == 2
            # Their packet objects were handed in, not built.
            assert tapo.materialized_flows == 0

    def test_everything_else_is_demuxed(self):
        demux = tapo_module.demux_columns_stream
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return demux(*args, **kwargs)

        packets = tiny_flow(0, 0.0)
        two = interleave([packets, tiny_flow(1, 0.005)])
        with mock.patch.object(tapo_module, "demux_columns_stream", spy):
            assert len(Tapo().analyze_packets(two)) == 2
            assert len(Tapo().analyze_packets(iter(packets))) == 1
            assert len(
                Tapo().analyze_packets([PacketColumns.from_records(packets)])
            ) == 1
            batch = RunConfig(idle_timeout=None, close_linger=None)
            stats = StreamStats()
            assert len(
                list(Tapo().analyze_stream(packets, run=batch, stats=stats))
            ) == 1
            assert (stats.packets, stats.flows_started) == (len(packets), 1)
            assert len(list(Tapo().analyze_stream(packets))) == 1
        assert len(calls) == 5
        assert calls[-1]["idle_timeout"] == RunConfig().idle_timeout


class TestCliOneAnswerPerCapture:
    """How ``tapo`` is asked to run and what it is asked to print never
    changes what it finds: only ``--stream`` turns eviction on."""

    @pytest.fixture
    def idle_gap_pcap(self, tmp_path):
        """Six connections, two of which fall silent mid-transfer for
        longer than the default 60 s idle timeout (100 s and 70 s)."""
        from collections import defaultdict

        from repro.testing import generate_trace

        packets = generate_trace(3, flows=6)
        rows = defaultdict(list)
        for index, packet in enumerate(packets):
            rows[FlowKey.from_packet(packet)].append(index)
        longest = sorted(rows.values(), key=len, reverse=True)[:2]
        for indices, gap in zip(longest, (100.0, 70.0)):
            for index in indices[len(indices) // 2 :]:
                packets[index] = dataclasses.replace(
                    packets[index],
                    timestamp=packets[index].timestamp + gap,
                )
        packets.sort(key=lambda p: p.timestamp)
        path = tmp_path / "idle-gap.pcap"
        write_pcap(path, packets)
        return path

    def _run(self, capsys, path, *flags):
        import json

        from repro.core.cli import main

        assert main([str(path), "--json", *flags]) == 0
        captured = capsys.readouterr()
        return captured.out, json.loads(captured.out), captured.err

    def test_flags_do_not_change_the_report(
        self, idle_gap_pcap, tmp_path, capsys
    ):
        plain, summary, _ = self._run(capsys, idle_gap_pcap)
        assert (summary["flows"], summary["stalls"]) == (6, 9)
        for flags in (
            ["--stats"],
            ["--metrics-out", str(tmp_path / "metrics")],
            ["--workers", "2"],
            ["--stats", "--workers", "2"],
        ):
            out, _, _ = self._run(capsys, idle_gap_pcap, *flags)
            assert out == plain, flags

    def test_only_stream_evicts_and_says_so(self, idle_gap_pcap, capsys):
        plain, _, _ = self._run(capsys, idle_gap_pcap)
        out, summary, err = self._run(
            capsys, idle_gap_pcap, "--stream", "--stats"
        )
        assert out != plain
        assert summary["flows"] == 7
        assert "1 idle-evicted, 1 reopened" in err
        _, _, err = self._run(capsys, idle_gap_pcap, "--stats")
        assert "0 idle-evicted, 0 reopened" in err

    def test_stream_reads_idle_timeout(self, idle_gap_pcap, capsys):
        # Both gaps (100 s, 70 s) are shorter than this timeout, so
        # nothing is idle-evicted and the report is the batch one.
        plain, _, _ = self._run(capsys, idle_gap_pcap)
        out, _, err = self._run(
            capsys, idle_gap_pcap, "--stream", "--idle-timeout", "200",
            "--stats",
        )
        assert out == plain
        assert "0 idle-evicted, 0 reopened" in err
