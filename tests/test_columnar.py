"""Columnar pipeline ↔ record-level reference parity.

Production analysis demultiplexes column batches only
(:mod:`repro.core.columnar_pipeline`).  For every input — clean or
damaged — it must produce a :class:`~repro.core.report.ServiceReport`
that serializes to *byte-identical* canonical JSON against the object
decode + object demux it replaced, which survive as
:func:`repro.testing.reference_analyze`.  These tests enforce that
contract:

* property-style parity over seedable random traces
  (:func:`repro.testing.generate_trace`) through every entry point
  (in-memory batch, pcap file, streaming), with and without
  ``record_series``;
* parity under 1 % record corruption, including fault-counter parity
  (resyncs, corrupt records, checksum errors) between the two framings;
* sequence-number wraparound handled on the raw uint32 columns by the
  analyzer's in-order branch (the flows must *stay* on it);
* analyzer crashes quarantine the same flows as
  :class:`~repro.errors.SkippedFlow` on both paths;
* a column-backed flow pickles as its columns, so worker processes and
  cluster shards replay without building packet objects either;
* stalled flows are replayed on their columns: a hypothesis search over
  lossy flows (:func:`lossy_flow`) holds the column-driven analyzer to
  the reference byte for byte without building one packet object,
  and the SACK-walk shortcuts of
  :class:`~repro.core.segments.SegmentTracker` to the plain walk;
* the in-order branch is held to the general loop it promotes to:
  promoting at any earlier row moves no byte (:class:`TestInOrderBranch`).
"""

from __future__ import annotations

import importlib.util
import json
import pickle
import random
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.config import AnalysisConfig, RunConfig
from repro.core import ServiceReport, Tapo
from repro.core.classifier import classify_flow
from repro.core.cli import main as cli_main
from repro.core import columnar_pipeline
from repro.core.columnar_pipeline import (
    LazyFlowTrace,
    batch_records,
    demux_columns_stream,
    fast_replay_flow,
)
from repro.core.flow_analyzer import FlowAnalyzer
from repro.core.segments import SegmentTracker
from repro.errors import ErrorBudget, FlowAnalysisError
from repro.experiments.runner import run_flows
from repro.packet.headers import FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN
from repro.packet.options import TCPOptions
from repro.packet.packet import PacketRecord
from repro.packet.columnar import PacketColumns, _LazySackOptions
from repro.packet.pcap import PcapReader, PcapWriter
from repro.packet.seqnum import seq_after, seq_geq, seq_leq
from repro.testing import (
    corrupt_pcap_records,
    generate_trace,
    inject_flow_crash,
    no_packet_objects,
    reference_analyze,
)
from repro.testing.traces import _FlowBuilder
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

PARITY_SEEDS = range(10)


def _report(tapo: Tapo, analyses) -> ServiceReport:
    report = ServiceReport("parity")
    for analysis in analyses:
        report.add(analysis)
    report.skipped.extend(tapo.faults.skipped)
    return report


def _reference(source, config=None, **eviction):
    """``(report, faults)`` of the record-level reference pipeline."""
    analyses, faults = reference_analyze(source, config, **eviction)
    report = ServiceReport(
        "parity", flows=analyses, skipped=list(faults.skipped)
    )
    return report, faults


def _write(path, packets):
    with PcapWriter(path) as writer:
        for record in packets:
            writer.write(record)


class TestParityProperty:
    """Random traces → identical canonical JSON on both pipelines."""

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_in_memory_batch(self, seed):
        packets = generate_trace(seed)
        columnar = Tapo(config=AnalysisConfig())
        fast = _report(columnar, columnar.analyze_packets(packets))
        slow, faults = _reference(packets)
        assert fast.to_json() == slow.to_json()
        assert columnar.faults == faults

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_pcap_file(self, seed, tmp_path):
        path = tmp_path / "trace.pcap"
        _write(path, generate_trace(seed))
        columnar = Tapo(config=AnalysisConfig())
        fast = _report(columnar, columnar.analyze_pcap(path))
        slow, _ = _reference(path)
        assert fast.to_json() == slow.to_json()

    def _streaming_pair(self, seed, tmp_path, run):
        path = tmp_path / "trace.pcap"
        _write(path, generate_trace(seed))
        columnar = Tapo(config=AnalysisConfig())
        fast = _report(columnar, list(columnar.analyze_stream(path, run=run)))
        slow, _ = _reference(
            path, idle_timeout=run.idle_timeout, close_linger=run.close_linger
        )
        return columnar, fast, slow

    @pytest.mark.parametrize("seed", (0, 3))
    def test_streaming(self, seed, tmp_path):
        _, fast, slow = self._streaming_pair(seed, tmp_path, RunConfig())
        # Streaming evicts flows in the same order on both paths, so
        # even the flow *ordering* inside the report must agree.
        assert fast.to_json() == slow.to_json()

    def test_streaming_fan_out(self, tmp_path):
        """Worker fan-out demultiplexes columns too: flows cross the
        process boundary as arrays, in both directions."""
        columnar, fast, slow = self._streaming_pair(
            3, tmp_path, RunConfig(workers=2, chunk_flows=4)
        )
        assert fast.to_json() == slow.to_json()

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_record_series(self, seed, tmp_path):
        """``record_series`` rides the column path like everything
        else: same ``kernel_series`` as the reference through every
        entry point, no packet object built."""
        packets = generate_trace(seed)
        path = tmp_path / "trace.pcap"
        _write(path, packets)
        config = AnalysisConfig(record_series=True)
        slow, _ = _reference(packets, config)
        assert any(a.kernel_series for a in slow.flows)
        tapo = Tapo(config=config)
        for analyses in (
            tapo.analyze_packets(packets),
            tapo.analyze_pcap(path),
            sorted(
                tapo.analyze_stream(path),
                key=lambda a: a.flow.first_time,
            ),
        ):
            assert [a.kernel_series for a in analyses] == [
                a.kernel_series for a in slow.flows
            ]
            assert _report(tapo, analyses).to_json() == slow.to_json()

    def test_both_paths_actually_ran(self):
        """The generator exercises fast-path AND fallback flows."""
        fast_total = fallback_total = 0
        for seed in PARITY_SEEDS:
            tapo = Tapo(config=AnalysisConfig())
            tapo.analyze_packets(generate_trace(seed))
            fast_total += tapo.fast_flows
            fallback_total += tapo.fallback_flows
        assert fast_total > 0
        assert fallback_total > 0

    def test_generator_is_deterministic(self):
        assert generate_trace(7) == generate_trace(7)
        assert generate_trace(7) != generate_trace(8)


class TestSimulatedTraces:
    """The per-connection traces the simulator hands over — web-search
    flows under the five recovery policies, as the benchmark's
    ``sim_policies`` workload analyzes them — each enter the analyzer
    as its one flow (:func:`columnar_pipeline.one_flow`), and analyzed
    one trace at a time through ``api.analyze``, as the same records
    fed as :class:`PacketColumns` (batched and demuxed) and through
    ``Tapo.report`` they match the record-level reference byte for
    byte."""

    POLICIES = (
        ("native", {}),
        ("tlp", {}),
        ("srto", {"t1": 5, "t2": 5}),
        ("tracks", {}),
        ("mobile", {}),
    )

    @pytest.mark.parametrize(
        "policy, kwargs", POLICIES, ids=[name for name, _ in POLICIES]
    )
    def test_per_trace_analysis(self, policy, kwargs):
        scenarios = generate_flows(
            get_profile("web_search"), 137, seed=20141222,
            policy=policy, policy_kwargs=kwargs,
        )
        traces = run_flows(scenarios, workers=1).traces
        assert all(columnar_pipeline.one_flow(trace) for trace in traces)
        config = AnalysisConfig()
        expected, analyzed, as_columns = (
            ServiceReport(policy) for _ in range(3)
        )
        for trace in traces:
            for analysis in reference_analyze(trace, config)[0]:
                expected.add(analysis)
            for analysis in api.analyze(trace, config=config):
                analyzed.add(analysis)
            columns = [PacketColumns.from_records(trace)]
            for analysis in api.analyze(columns, config=config):
                as_columns.add(analysis)
        assert analyzed.to_json() == expected.to_json()
        assert as_columns.to_json() == expected.to_json()
        assert Tapo(config).report(traces, policy).to_json() == (
            expected.to_json()
        )


class TestCorruptSlabs:
    """1 % record damage: identical reports and fault accounting."""

    @pytest.mark.parametrize("seed", (0, 1))
    def test_parity_under_corruption(self, seed, tmp_path):
        clean = tmp_path / "clean.pcap"
        bad = tmp_path / "bad.pcap"
        _write(clean, generate_trace(seed, flows=30))
        plan = corrupt_pcap_records(clean, bad, fraction=0.01, seed=seed)
        assert plan.records_damaged  # must actually damage something
        config = AnalysisConfig(errors=ErrorBudget.lenient())
        columnar = Tapo(config=config)
        fast = _report(columnar, columnar.analyze_pcap(bad))
        slow, faults = _reference(bad, config)
        assert fast.to_json() == slow.to_json()
        assert columnar.faults.corrupt_records == faults.corrupt_records
        assert columnar.faults.resyncs == faults.resyncs
        assert columnar.faults.option_errors == faults.option_errors

    def test_checksum_errors_counted_on_every_path(self, tmp_path):
        """verify_checksums is honoured wherever columns are decoded —
        batch, worker fan-out, cluster shards, live sources — and
        counts what the record-level ``drain`` counts."""

        from repro.cluster import Coordinator
        from repro.live.sources import PcapTailSource, SourceCounters

        path = tmp_path / "trace.pcap"
        _write(path, generate_trace(2, flows=5))
        raw = bytearray(path.read_bytes())
        # Flip one bit of the first record's TCP window field: framing
        # and header decode stay valid but the checksum no longer does.
        raw[24 + 16 + 20 + 14] ^= 0x01
        # Two records the decoder skips — one relabelled UDP, one cut
        # inside its TCP header — whose checksums nobody may judge.
        (incl,) = struct.unpack_from("<I", raw, 24 + 8)
        packet = bytes(raw[24 + 16 : 24 + 16 + incl])
        header = bytes(raw[24 : 24 + 8])
        not_tcp = packet[:9] + b"\x11" + packet[10:]
        for body in (not_tcp, packet[:30]):
            raw += header + struct.pack("<II", len(body), len(body)) + body
        path.write_bytes(bytes(raw))

        config = AnalysisConfig(verify_checksums=True)
        _, reference_faults = _reference(path, config)
        assert reference_faults.checksum_errors == 1
        tapo = Tapo(config=config)
        tapo.analyze_pcap(path)
        assert tapo.faults.checksum_errors == 1
        list(tapo.analyze_stream(path, run=RunConfig(workers=2)))
        assert tapo.faults.checksum_errors == 1
        cluster = Coordinator(str(path), n_shards=2, analysis=config).run()
        assert cluster.faults.checksum_errors == 1
        source = PcapTailSource(
            path, counters=SourceCounters(verify_checksums=True)
        )
        rows = sum(len(batch) for batch in source.poll_columns())
        source.close()
        assert source.counters.checksum_errors == 1
        assert source.counters.skipped == 2 and rows == len(
            generate_trace(2, flows=5)
        )
        # Off by default: nothing verified, nothing counted.
        default = Tapo(config=AnalysisConfig())
        default.analyze_pcap(path)
        assert default.faults.checksum_errors == 0

        # Captures that stress the segment bounds, each counted the same
        # by the record reference and the columnar path: Ethernet
        # framing, odd payloads (the last byte is a padded word's high
        # byte) and frames longer than their IP total_length (trailer
        # bytes are not segment bytes).
        packets = generate_trace(2, flows=2)
        data = [i for i, p in enumerate(packets) if p.payload_len]
        window = 20 + 14  # offset of the TCP window field's low byte

        def capture(name, bodies, linktype=101):
            out = tmp_path / name
            raw = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535,
                              linktype)
            for packet, body in zip(packets, bodies, strict=True):
                usec = round(packet.timestamp * 1e6)
                raw += struct.pack("<IIII", usec // 10**6, usec % 10**6,
                                   len(body), len(body)) + body
            out.write_bytes(raw)
            return out

        def flipped(body, offset):
            body = bytearray(body)
            body[offset] ^= 0x01
            return bytes(body)

        bodies = [p.encode() for p in packets]
        ethernet = [bytes(12) + b"\x08\x00" + b for b in bodies]
        ethernet[0] = flipped(ethernet[0], 14 + window)
        odd = [
            p.copy(payload_len=p.payload_len | 1).encode() for p in packets
        ]
        for i in data[:2]:
            odd[i] = flipped(odd[i], -1)
        trailer = [b + b"\xaa\xbb\xcc" for b in bodies]
        trailer[data[0]] = flipped(trailer[data[0]], window)
        for name, bodies, linktype, expected in (
            ("ethernet.pcap", ethernet, 1, 1),
            ("odd.pcap", odd, 101, 2),
            ("trailer.pcap", trailer, 101, 1),
        ):
            path = capture(name, bodies, linktype)
            _, reference_faults = _reference(path, config)
            tapo = Tapo(config=config)
            tapo.analyze_pcap(path)
            assert reference_faults.checksum_errors == expected, name
            assert tapo.faults.checksum_errors == expected, name


def test_one_decoder_numpy_at_import():
    """numpy is a declared dependency, imported when the module loads:
    no numpy-less decoder exists to drift from the vectorized one, and
    that one handles the degenerate empty slab itself."""
    from array import array

    import numpy

    from repro.live.sources import SourceCounters
    from repro.packet import columnar as columnar_module

    assert columnar_module.np is numpy
    assert not hasattr(columnar_module, "_decode_spans_python")
    counters = SourceCounters()
    kept: list[int] = []
    for ethernet in (False, True):
        cols = columnar_module.decode_spans(
            b"", array("q"), array("q"), "<", ethernet, True, counters, kept
        )
        assert len(cols) == 0 and list(cols.records()) == []
    assert kept == [] and counters.skipped == 0


class TestSeqWraparound:
    """ISNs one window below 2^32: raw uint32 columns must wrap."""

    def _clean_wrap_flow(self, seed):
        builder = _FlowBuilder(random.Random(seed), 1000.0, index=1)
        assert builder.isn_s > 0xFFFF0000  # really starts near the wrap
        builder.handshake()
        builder.request()
        builder.respond(8)  # 8 MSS crosses the wrap for every MSS choice
        builder.close()
        return builder.packets

    @pytest.mark.parametrize("seed", (11, 12, 13))
    def test_wrap_flow_stays_on_fast_path(self, seed):
        packets = self._clean_wrap_flow(seed)
        columnar = Tapo(config=AnalysisConfig())
        fast = _report(columnar, columnar.analyze_packets(packets))
        slow, _ = _reference(packets)
        assert columnar.fast_flows == 1, "wraparound must not trip a bail"
        assert columnar.fallback_flows == 0
        assert fast.to_json() == slow.to_json()
        analysis = fast.flows[0]
        assert analysis.bytes_out == 8 * analysis.mss

    def test_fast_replay_handles_wrap_directly(self):
        """The in-order branch alone settles the flow, as the record
        list's own flow and as the demux's column-backed one."""
        packets = self._clean_wrap_flow(21)
        tapo = Tapo(config=AnalysisConfig())
        (analysis,) = tapo.analyze_packets(packets)
        for flow in (analysis.flow, *_lazy_flows(packets)):
            replayed = fast_replay_flow(flow, tapo.config)
            assert replayed is not None
            assert replayed.bytes_out == analysis.bytes_out


class TestCrashQuarantine:
    """Injected analyzer crashes skip the same flows on both paths."""

    def test_skipped_flow_parity(self):
        packets = generate_trace(4, flows=25)
        config = AnalysisConfig(errors=ErrorBudget.lenient())
        with inject_flow_crash(fraction=0.3, seed=9):
            columnar = Tapo(config=config)
            fast = _report(columnar, columnar.analyze_packets(packets))
        with inject_flow_crash(fraction=0.3, seed=9):
            slow, faults = _reference(packets, config)
        assert columnar.faults.flows_skipped > 0
        assert columnar.faults.flows_skipped == faults.flows_skipped
        assert [s.key for s in fast.skipped] == [s.key for s in slow.skipped]
        assert fast.to_json() == slow.to_json()

    def test_strict_mode_still_raises(self):
        packets = generate_trace(4, flows=5)
        with inject_flow_crash(fraction=1.0, seed=0):
            tapo = Tapo(config=AnalysisConfig())
            with pytest.raises(FlowAnalysisError):
                tapo.analyze_packets(packets)

    def test_crash_inside_column_driven_replay(self, monkeypatch):
        """A crash in the middle of a flow replayed on its columns
        surfaces typed, with the flow key and the row reached, and
        quarantines under a lenient budget — like the reference."""
        packets = lossy_flow(random.Random(1))
        (flow,) = _lazy_flows(packets)
        crash_row = next(
            index for index, row in enumerate(flow.rows())
            if row[1] and row[8] is not None and row[8].sack_blocks
        )

        def explode(self, blocks, ack, now):
            raise RuntimeError("scoreboard exploded")

        monkeypatch.setattr(SegmentTracker, "apply_sack", explode)
        with pytest.raises(FlowAnalysisError) as caught:
            Tapo(config=AnalysisConfig()).analyze_flow(flow)
        assert caught.value.key == flow.key
        assert caught.value.packet_index == crash_row
        config = AnalysisConfig(errors=ErrorBudget.lenient())
        columnar = Tapo(config=config)
        assert columnar.analyze_packets(packets) == []
        analyses, faults = reference_analyze(packets, config)
        assert analyses == []
        (skipped,) = columnar.faults.skipped
        assert skipped == faults.skipped[0]
        assert (skipped.key, skipped.packet_index, skipped.packets) == (
            flow.key, crash_row, len(packets),
        )
        assert skipped.error_type == "FlowAnalysisError"


# -- stalled flows replayed on their columns -------------------------------

_MASK = 0xFFFFFFFF
_SERVER = (0x0A00_0001, 80)
_CLIENT = (0xC0A8_0042, 40000)


class _LossyFlow:
    """One connection with everything that promotes a flow off the
    analyzer's in-order branch: losses answered with SACK blocks (repeated from ACK to
    ACK as receivers do), DSACKs for spurious retransmissions,
    reordered arrivals, retransmissions with new boundaries — also
    inside a SACKed range —, data captured out of sequence order,
    sequence numbers crossing 2**32, zero-window probes, retransmitted
    client requests, SACK blocks that fit no segment, and stalls.

    Sequence numbers are kept as offsets from the ISN and wrapped on
    emission.  The server side is not a TCP: it sends and retransmits
    as the random stream says, which is the point — the two analyzer
    feeders must agree on any input, plausible or not.
    """

    def __init__(self, rng):
        self.rng = rng
        self.t = 1000.0
        self.rtt = rng.uniform(0.01, 0.08)
        self.mss = rng.choice((536, 1000, 1448))
        self.use_ts = rng.random() < 0.5
        self.wscale = rng.choice((0, 2, 7))
        self.window = min(0xFFFF, rng.randrange(8, 64) * self.mss >> self.wscale)
        if rng.random() < 0.3:
            self.isn_s = (_MASK - rng.randrange(1, 6) * self.mss) & _MASK
        else:
            self.isn_s = rng.getrandbits(32)
        self.isn_c = rng.getrandbits(32)
        self.snd_nxt = 0          # server offsets: next new byte
        self.sent: list[tuple[int, int]] = []
        self.rcv_nxt = 0          # client offsets: cumulative ACK point
        self.blocks: list[list[int]] = []  # above rcv_nxt, newest first
        self.req = 0              # client offset: next request byte
        self.packets: list[PacketRecord] = []

    # -- emission -------------------------------------------------------
    def _tick(self, lo=0.0002, hi=0.003):
        self.t += self.rng.uniform(lo, hi)

    def _emit(self, out, seq, ack, flags, payload=0, window=None,
              sack=(), syn_options=None):
        from repro.tcp.constants import ts_now

        if syn_options is not None:
            options = syn_options
        elif self.use_ts:
            options = TCPOptions(
                ts_val=ts_now(self.t),
                ts_ecr=ts_now(self.t - self.rtt / 2),
                sack_blocks=list(sack),
            )
        else:
            options = TCPOptions(sack_blocks=list(sack))
        src, dst = (_SERVER, _CLIENT) if out else (_CLIENT, _SERVER)
        self.packets.append(
            PacketRecord(
                timestamp=round(self.t * 1e6) / 1e6,
                src_ip=src[0], dst_ip=dst[0],
                src_port=src[1], dst_port=dst[1],
                seq=seq & _MASK, ack=ack & _MASK, flags=flags,
                window=self.window if window is None else window,
                payload_len=payload, options=options,
            )
        )

    def _s(self, offset):  # server offset -> wire sequence number
        return self.isn_s + 1 + offset

    def _c(self, offset):
        return self.isn_c + 1 + offset

    def _data(self, start, end, fin=False):
        self._tick()
        flags = FLAG_ACK | FLAG_PSH | (FLAG_FIN if fin else 0)
        self._emit(True, self._s(start), self._c(self.req), flags,
                   payload=end - start)

    def _ack(self, sack=(), window=None, payload=0):
        self._tick()
        self._emit(False, self._c(self.req), self._s(self.rcv_nxt),
                   FLAG_ACK, payload=payload, window=window,
                   sack=[(self._s(a) & _MASK, self._s(b) & _MASK)
                         for a, b in sack])
        self.req += payload

    # -- the client's receive side ---------------------------------------
    def _arrive(self, start, end):
        """Deliver ``[start, end)``; the client answers with an ACK
        carrying the block it just changed first, then the others —
        or a DSACK first when it had the bytes already."""
        covered = end <= self.rcv_nxt or any(
            a <= start and end <= b for a, b in self.blocks
        )
        sack = []
        if covered:
            sack.append((start, end))
        else:
            merged = [max(start, self.rcv_nxt), end]
            rest = []
            for a, b in self.blocks:
                if b < merged[0] or a > merged[1]:
                    rest.append([a, b])
                else:
                    merged = [min(a, merged[0]), max(b, merged[1])]
            self.blocks = [merged] + rest
            while True:
                for block in self.blocks:
                    if block[0] <= self.rcv_nxt:
                        self.rcv_nxt = max(self.rcv_nxt, block[1])
                        self.blocks.remove(block)
                        break
                else:
                    break
        limit = 3 if self.use_ts else 4
        sack.extend((a, b) for a, b in self.blocks)
        self._ack(sack=sack[:limit])

    # -- steps --------------------------------------------------------------
    def handshake(self):
        from repro.tcp.constants import ts_now

        def syn_opts():
            return TCPOptions(
                mss=self.mss, wscale=self.wscale or None,
                sack_permitted=True,
                ts_val=ts_now(self.t) if self.use_ts else None,
            )

        self._emit(False, self.isn_c, 0, FLAG_SYN, syn_options=syn_opts())
        self.t += self.rtt / 2
        self._emit(True, self.isn_s, self.isn_c + 1, FLAG_SYN | FLAG_ACK,
                   syn_options=syn_opts())
        self.t += self.rtt / 2
        self._ack()

    def request(self):
        size = self.rng.randrange(60, 400)
        self._ack(payload=size)
        if self.rng.random() < 0.3:
            # Retransmitted request: same bytes, same ACK number.
            self.req -= size
            self.t += self.rng.choice((0.005, 0.4))
            self._ack(payload=size)

    def send_new(self):
        rng = self.rng
        burst = []
        for _ in range(rng.randrange(1, 7)):
            size = self.mss if rng.random() < 0.85 else rng.randrange(1, self.mss)
            burst.append((self.snd_nxt, self.snd_nxt + size))
            self.snd_nxt += size
        capture_order = list(burst)
        if rng.random() < 0.12:
            rng.shuffle(capture_order)  # tap saw them out of order
        for start, end in capture_order:
            self._data(start, end)
            self.sent.append((start, end))
        arrivals = [seg for seg in burst if rng.random() > 0.25]
        if rng.random() < 0.2:
            rng.shuffle(arrivals)  # network reordering
        self.t += self.rtt / 2
        for start, end in arrivals:
            self._arrive(start, end)

    def retransmit(self):
        rng = self.rng
        if not self.sent:
            return
        outstanding = [seg for seg in self.sent if seg[1] > self.rcv_nxt]
        start, end = rng.choice(
            outstanding if outstanding and rng.random() < 0.85 else self.sent
        )
        shape = rng.random()
        if shape < 0.5:
            pass                                   # same boundaries
        elif shape < 0.65 and end - start > 1:
            end = start + (end - start) // 2       # first half
        elif shape < 0.8 and end - start > 1:
            start += (end - start) // 2            # new seq inside
        elif shape < 0.9:
            end = min(self.snd_nxt, end + self.mss)  # coalesced with next
        elif self.blocks:
            a, b = rng.choice(self.blocks)         # inside a SACKed range
            if b - a > 2:
                start = rng.randrange(a, b - 1)
                end = rng.randrange(start + 1, b + 1)
        if rng.random() < 0.5:
            self.t += rng.choice((0.25, 0.6, 1.5))  # timer-driven
        self._data(start, end)
        if rng.random() < 0.85:
            self.t += self.rtt / 2
            self._arrive(start, end)

    def zero_window(self):
        self._ack(window=0)
        self.t += self.rng.uniform(0.3, 0.8)
        self._tick()
        self._emit(True, self._s(self.rcv_nxt - 1), self._c(self.req),
                   FLAG_ACK, payload=1)  # probe: one already-acked byte
        self._ack(window=0)
        self.t += self.rng.uniform(0.2, 0.5)
        self._ack()

    def odd_sack(self):
        """Blocks a real receiver would not send: off segment
        boundaries, beyond snd_nxt, stale sub-ranges repeated."""
        rng = self.rng
        blocks = [
            (self.snd_nxt + 100, self.snd_nxt + 100 + self.mss),
            (self.rcv_nxt + 7, self.rcv_nxt + 7 + self.mss),
        ]
        blocks += [(a, a + max(1, (b - a) // 2)) for a, b in self.blocks]
        rng.shuffle(blocks)
        self._ack(sack=blocks[: rng.randrange(1, 4)])

    def build(self):
        rng = self.rng
        if rng.random() < 0.9:
            self.handshake()
        self.request()
        steps = (
            (self.send_new, 10), (self.retransmit, 6), (self.request, 2),
            (self.zero_window, 1), (self.odd_sack, 1),
        )
        actions = [step for step, weight in steps for _ in range(weight)]
        for _ in range(rng.randrange(4, 40)):
            if rng.random() < 0.15:
                self.t += rng.choice((0.3, 1.0, 2.5))  # stall
            rng.choice(actions)()
        if rng.random() < 0.5:
            self._data(self.snd_nxt, self.snd_nxt, fin=True)
            self.sent.append((self.snd_nxt, self.snd_nxt + 1))
            self.snd_nxt += 1
            self.t += self.rtt / 2
            self._arrive(self.snd_nxt - 1, self.snd_nxt)
        return self.packets


def lossy_flow(rng) -> list[PacketRecord]:
    """A server-side capture of one lossy connection, drawn from
    ``rng`` (a :class:`random.Random` or hypothesis's stand-in)."""
    return _LossyFlow(rng).build()


def clean_flow(rng) -> list[PacketRecord]:
    """A loss-free connection: requests answered by in-order bursts,
    acked cumulatively every one to three segments (a stretch ACK grows
    the shadow window by more than one), zero-window episodes with
    their probe, idle gaps long enough to be stalls, and a FIN."""
    flow = _LossyFlow(rng)
    flow.handshake()
    for _ in range(rng.randrange(1, 4)):
        flow.request()
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.3:
                flow.t += rng.choice((0.3, 1.0, 2.5))  # stall
            burst = []
            for _ in range(rng.randrange(1, 9)):
                burst.append((flow.snd_nxt, flow.snd_nxt + flow.mss))
                flow.snd_nxt += flow.mss
                flow._data(*burst[-1])
            flow.t += flow.rtt / 2
            every = rng.randrange(1, 4)
            for index in range(every - 1, len(burst) + every - 1, every):
                flow.rcv_nxt = burst[min(index, len(burst) - 1)][1]
                flow._ack()
            if rng.random() < 0.1:
                flow.zero_window()
    flow._data(flow.snd_nxt, flow.snd_nxt, fin=True)
    flow.snd_nxt += 1
    flow.t += flow.rtt / 2
    flow.rcv_nxt = flow.snd_nxt
    flow._ack()
    return flow.packets


def _lazy_flows(packets) -> list[LazyFlowTrace]:
    return list(
        demux_columns_stream(
            batch_records(packets), idle_timeout=None, close_linger=None
        )
    )


#: The short_flows flow (default seed, client port 20711) on which the
#: old clean-flow lane and the analyzer disagreed: a retransmitted client
#: request repeats ``snd_una`` while the response is outstanding, which
#: the analyzer counts as a duplicate ACK (Open -> Disorder -> Open).
#: Rows: (out, seconds, seq offset, ack offset, flags, payload).
_REQUEST_RETRANSMIT_FLOW = (
    (0, 0.000000, -1, None, FLAG_SYN, 0),
    (1, 0.000000, -1, 0, FLAG_SYN | FLAG_ACK, 0),
    (0, 0.441222, 0, 0, FLAG_ACK, 0),
    (0, 0.441222, 0, 0, FLAG_ACK | FLAG_PSH, 461),
    (1, 0.441222, 0, 461, FLAG_ACK, 0),
    (1, 0.441222, 0, 461, FLAG_ACK | FLAG_PSH, 1448),
    (1, 0.441222, 1448, 461, FLAG_ACK | FLAG_PSH, 1448),
    (1, 0.441222, 2896, 461, FLAG_ACK | FLAG_PSH, 1448),
    (1, 0.441222, 4344, 461, FLAG_ACK | FLAG_PSH, 1448),
    (1, 0.441222, 5792, 461, FLAG_ACK | FLAG_PSH, 759),
    (1, 0.441222, 6551, 461, FLAG_ACK | FLAG_FIN, 0),
    (0, 0.473134, 0, 0, FLAG_ACK | FLAG_PSH, 461),   # the retransmit
    (1, 0.473134, 6552, 461, FLAG_ACK, 0),
    (0, 0.552875, 461, 1448, FLAG_ACK, 0),
    (0, 0.566143, 461, 2896, FLAG_ACK, 0),
    (0, 0.567017, 461, 4344, FLAG_ACK, 0),
    (0, 0.570272, 461, 5792, FLAG_ACK, 0),
    (0, 0.579793, 461, 6551, FLAG_ACK, 0),
    (0, 0.581640, 461, 6552, FLAG_ACK, 0),
)


def _request_retransmit_flow() -> list[PacketRecord]:
    from repro.tcp.constants import ts_now

    isn_c, isn_s = 3237009755, 573142879
    packets = []
    for out, seconds, seq, ack, flags, payload in _REQUEST_RETRANSMIT_FLOW:
        t = 1000.0 + seconds
        mine, theirs = (isn_s, isn_c) if out else (isn_c, isn_s)
        if flags & FLAG_SYN:
            options = TCPOptions(mss=1448, wscale=7, sack_permitted=True,
                                 ts_val=ts_now(t), ts_ecr=0)
        else:
            options = TCPOptions(ts_val=ts_now(t), ts_ecr=ts_now(t - 0.05))
        src, dst = (_SERVER, _CLIENT) if out else (_CLIENT, _SERVER)
        packets.append(
            PacketRecord(
                timestamp=t, src_ip=src[0], dst_ip=dst[0],
                src_port=src[1], dst_port=dst[1],
                seq=(mine + 1 + seq) & _MASK,
                ack=0 if ack is None else (theirs + 1 + ack) & _MASK,
                flags=flags, window=8192 if out else 2058,
                payload_len=payload, options=options,
            )
        )
    return packets


class TestColumnDrivenReplay:
    """The analyzer core fed from columns ≡ fed from packet objects."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_lossy_flows_byte_identical(self, rng):
        packets = lossy_flow(rng)
        columnar = Tapo(config=AnalysisConfig())
        fast = _report(columnar, columnar.analyze_packets(packets))
        slow, _ = _reference(packets)
        assert fast.to_json() == slow.to_json()

    def test_generator_reaches_the_hard_cases(self):
        """Over a fixed set of seeds the generator produces what its
        docstring promises, so the property above is not vacuous."""
        seen = set()
        for seed in range(40):
            packets = lossy_flow(random.Random(seed))
            analysis = Tapo(config=AnalysisConfig()).analyze_packets(packets)[0]
            analyzer = FlowAnalyzer(analysis.flow, config=AnalysisConfig())
            analyzer.run()
            if analyzer.tracker and analyzer.tracker._last_unordered >= 0:
                seen.add("unordered")
            if analysis.spurious_retransmissions:
                seen.add("dsack")
            if analysis.stalls:
                seen.add("stall")
            if analysis.zero_window_seen:
                seen.add("zero-window")
            if any(p.options.sack_blocks for p in packets):
                seen.add("sack")
            seqs = [p.seq for p in packets if p.src_port == 80]
            if max(seqs) - min(seqs) > 1 << 31:
                seen.add("wrap")
        assert seen == {
            "unordered", "dsack", "stall", "zero-window", "sack", "wrap"
        }

    def test_request_retransmit_regression(self):
        """Scenario ``short_flows:20711``: a client request
        retransmitted while the response is outstanding repeats
        snd_una — a duplicate ACK, which promotes the flow off the
        in-order branch and logs the Disorder excursion — both
        pipelines, same ``state_log``."""
        packets = _request_retransmit_flow()
        (flow,) = _lazy_flows(packets)
        assert fast_replay_flow(flow, AnalysisConfig()) is None
        columnar = Tapo(config=AnalysisConfig())
        fast = _report(columnar, columnar.analyze_packets(packets))
        slow, _ = _reference(packets)
        assert [state.value for _, state in fast.flows[0].state_log] == [
            "Disorder", "Open",
        ]
        assert fast.to_json() == slow.to_json()
        assert columnar.fallback_flows == 1

    def _stalled_flow(self):
        """The last two segments of a response are lost and the first
        of them is timeout-retransmitted: a retransmission stall, so
        classification needs lookahead past the stall."""
        flow = _LossyFlow(random.Random(5))
        flow.handshake()
        flow.request()
        segments = [(i * flow.mss, (i + 1) * flow.mss) for i in range(6)]
        for start, end in segments:
            flow._data(start, end)
        flow.t += flow.rtt / 2
        for start, end in segments[:4]:
            flow._arrive(start, end)
        flow.t += 1.0
        for start, end in segments[4:]:
            flow._data(start, end)
            flow.t += flow.rtt / 2
            flow._arrive(start, end)
        return flow.packets

    def test_stalled_flow_stays_unmaterialized(self):
        (flow,) = _lazy_flows(self._stalled_flow())
        tapo = Tapo(config=AnalysisConfig())
        with no_packet_objects():
            analysis = tapo.analyze_flow(flow)
            assert len(flow.packets) == len(self._stalled_flow())
        assert tapo.fallback_flows == 1
        assert [s.cause.value for s in analysis.stalls] == ["retransmission"]
        assert analysis.stalls[0].retx_cause is not None

    def test_run_after_materialization_is_identical(self):
        packets = self._stalled_flow()
        (untouched,) = _lazy_flows(packets)
        (touched,) = _lazy_flows(packets)
        iter(touched.packets)  # what the perf benchmark's probe does
        first = Tapo(config=AnalysisConfig()).analyze_flow(untouched)
        second = Tapo(config=AnalysisConfig()).analyze_flow(touched)
        report_a, report_b = ServiceReport("a"), ServiceReport("a")
        report_a.add(first)
        report_b.add(second)
        assert report_a.to_json() == report_b.to_json()


def _replayed(flow, config, promote_at=None) -> tuple:
    """The classified analysis of ``flow`` as canonical JSON, and the
    analyzer's segment tracker and state machine at the end (a flow
    still on the branch is promoted after its last row to show them):
    the natural run, or with the flow promoted off the in-order branch
    before row ``promote_at`` (0: the general loop throughout)."""
    rows = list(flow.rows())
    analyzer = FlowAnalyzer(flow, config=config)
    if promote_at is None:
        analyzer.feed_rows(rows)
    else:
        analyzer.feed_rows(rows[:promote_at])
        analyzer.promote()
        analyzer.feed_rows(rows[promote_at:])
    analysis = analyzer.finish() if rows else analyzer.analysis
    classify_flow(analysis, analyzer.tracker)
    analysis_json = json.dumps(
        ServiceReport._flow_dict(analysis), sort_keys=True
    )
    analyzer.promote()
    return analysis_json, vars(analyzer.tracker), vars(analyzer.ca)


def _branch_oracle(flow, config=AnalysisConfig()) -> tuple[int, int]:
    """Hold the in-order branch to the general loop on ``flow``: the
    natural run equals promotion forced at row 0 and at every row the
    branch takes — analysis, tracker and state machine — and feeding
    one row per call equals :meth:`run`.
    Returns ``(rows the branch took, stalls it recorded)``."""
    natural = _replayed(flow, config)
    branch = FlowAnalyzer(flow, config=config)
    branch._feed_in_order(iter(flow.rows()))
    taken = branch._fed
    for promote_at in range(taken + 1):
        assert _replayed(flow, config, promote_at) == natural, promote_at
    by_row = FlowAnalyzer(flow, config=config)
    for row in flow.rows():
        by_row.feed_rows((row,))
    rows = len(flow.packets)
    assert by_row._fed == rows
    assert (by_row.tracker is None) == (taken == rows)
    if rows:
        by_row.finish()
    classify_flow(by_row.analysis, by_row.tracker)
    assert json.dumps(
        ServiceReport._flow_dict(by_row.analysis), sort_keys=True
    ) == natural[0]
    return taken, len(branch.analysis.stalls)


def _ledger_workloads():
    """The perf benchmark's workload module (read, never changed)."""
    path = Path(__file__).parents[1] / "benchmarks" / "perf" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perf_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestInOrderBranch:
    """Every flow starts on ``FlowAnalyzer``'s in-order branch and is
    promoted to the general loop at the first row the branch cannot
    take.  The differential oracle: promoting at any earlier row —
    row 0 is the general loop alone — must not move one byte of the
    classified analysis."""

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_generated_flows(self, rng, lossy):
        """:func:`lossy_flow`, which promotes early, and
        :func:`clean_flow`, which the branch mostly settles whole — as
        the record list's own flow and as the demux's column-backed
        one."""
        packets = (lossy_flow if lossy else clean_flow)(rng)
        (lazy,) = _lazy_flows(packets)
        for flow in (columnar_pipeline.one_flow(packets), lazy):
            _branch_oracle(flow)

    def test_clean_flows_stay_on_the_branch(self):
        """The branch, not promotion, settles clean flows: stalls,
        stretch ACKs and zero-window probes included."""
        settled = stalls = 0
        for seed in range(20):
            packets = clean_flow(random.Random(seed))
            taken, branch_stalls = _branch_oracle(
                columnar_pipeline.one_flow(packets)
            )
            settled += taken == len(packets)
            stalls += branch_stalls
        assert settled >= 10 and stalls

    @pytest.mark.parametrize(
        "policy, kwargs", TestSimulatedTraces.POLICIES,
        ids=[name for name, _ in TestSimulatedTraces.POLICIES],
    )
    def test_simulated_traces(self, policy, kwargs):
        """The ``sim_policies`` traces, each as its own flow."""
        scenarios = generate_flows(
            get_profile("web_search"), 137, seed=20141222,
            policy=policy, policy_kwargs=kwargs,
        )
        settled = branch_stalls = promoted = 0
        for trace in run_flows(scenarios, workers=1).traces:
            flow = columnar_pipeline.one_flow(trace)
            taken, stalls = _branch_oracle(flow)
            settled += taken == len(trace)
            promoted += taken < len(trace)
            branch_stalls += stalls
        # Both ways out are taken, and the branch records stalls itself.
        assert settled and promoted and branch_stalls

    @pytest.mark.parametrize(
        "name", ("stalled_bulk", "clean_bulk", "short_flows")
    )
    def test_ledger_capture_flows(self, name, tmp_path):
        """The flows of the perf benchmark's captures (at a small
        packet budget), read back from the pcap as column-backed
        flows."""
        workloads = _ledger_workloads()
        workload = workloads.scaled(workloads.WORKLOADS[name], 0.02)
        results, _, _ = workloads.simulate_to_budget(workload, 20141222)
        capture = tmp_path / f"{name}.pcap"
        workloads.write_capture(results, capture, workload.mean_gap, 20141222)
        analyses = Tapo(config=AnalysisConfig()).analyze_pcap(capture)
        assert analyses
        for analysis in analyses:
            _branch_oracle(analysis.flow)


class TestFlattenedLoop:
    """The pieces of ``FlowAnalyzer.feed_rows`` and of the lazy SACK
    decode that no parity suite sees (both sides share them)."""

    edges = st.one_of(st.sampled_from((0, 1, _MASK - 1, _MASK)),
                      st.integers(0, _MASK))

    sack_rows = st.lists(
        st.tuples(
            st.lists(st.tuples(edges, edges), min_size=1, max_size=4),
            edges, edges,
        ),
        min_size=1, max_size=12,
    )

    @given(sack_rows)
    def test_lazy_sack_rows_equal_decode(self, rows):
        """TS+SACK rows built from the two big-endian columns equal
        what ``TCPOptions.decode`` makes of the same bytes: 1-4 blocks
        (the pattern's range; the wire fits three beside timestamps, so
        the encoder writes no more and the areas are packed here),
        edges at both ends of the sequence space."""
        expected = [
            TCPOptions(sack_blocks=blocks, ts_val=ts_val, ts_ecr=ts_ecr)
            for blocks, ts_val, ts_ecr in rows
        ]
        areas = [
            struct.pack(
                "!BBIIBB%dI" % (2 * len(blocks)), 8, 10, ts_val, ts_ecr,
                5, 2 + 8 * len(blocks),
                *[edge for block in blocks for edge in block],
            )
            for blocks, ts_val, ts_ecr in rows
        ]
        raw = np.zeros((len(rows), 44), dtype=np.uint8)
        for at, area in enumerate(areas):
            raw[at, : len(area)] = list(area)
        lazy = _LazySackOptions(
            {10 + at: at for at in range(len(rows))}, raw,
            [len(area) for area in areas],
        )
        assert not lazy and 10 in lazy and 9 not in lazy
        for at, (options, area) in enumerate(zip(expected, areas)):
            assert lazy[10 + at] == TCPOptions.decode(area) == options
            assert all(
                type(edge) is int
                for block in lazy[10 + at].sack_blocks for edge in block
            )
        with pytest.raises(KeyError):
            lazy[9]

    @settings(max_examples=25, deadline=None)
    @given(sack_rows)
    def test_lazy_sack_rows_off_the_wire(self, tmp_path_factory, rows):
        """The same through the decoder, in a slab with no SYN (the
        mapping starts out an empty dict)."""
        packets = [
            PacketRecord(
                timestamp=1.0 + index, src_ip=_CLIENT[0], dst_ip=_SERVER[0],
                src_port=_CLIENT[1], dst_port=_SERVER[1], seq=1, ack=1,
                flags=FLAG_ACK, window=100,
                options=TCPOptions(
                    sack_blocks=blocks[:3], ts_val=ts_val, ts_ecr=ts_ecr
                ),
            )
            for index, (blocks, ts_val, ts_ecr) in enumerate(rows)
        ]
        path = tmp_path_factory.mktemp("sack") / "sack.pcap"
        _write(path, packets)
        with PcapReader(path) as reader:
            (cols,) = reader.iter_columns()
        lazy = cols.odd_options
        assert isinstance(lazy, _LazySackOptions) and not lazy
        assert [lazy[row] for row in range(len(cols))] == [
            packet.options for packet in packets
        ]

    @pytest.mark.parametrize("crash_row", [0, 1, 2, 7, 40, -1])
    def test_crash_at_any_row_reports_that_row(self, crash_row):
        """State lives in locals while the loop runs; a crash at row
        *k* — whatever kind of row — still surfaces with
        ``packet_index == k``."""

        class Boom:
            def __and__(self, other):
                raise RuntimeError("bad flags")

        packets = lossy_flow(random.Random(1))
        (flow,) = _lazy_flows(packets)
        rows = list(flow.rows())
        crash_row %= len(rows)
        row = rows[crash_row]
        rows[crash_row] = (*row[:4], Boom(), *row[5:])
        flow.rows = lambda start=0: iter(rows[start:])
        with pytest.raises(FlowAnalysisError) as caught:
            Tapo(config=AnalysisConfig()).analyze_flow(flow)
        assert caught.value.packet_index == crash_row
        # The same through the one-packet adapter.
        analyzer = FlowAnalyzer(flow, config=AnalysisConfig())
        with pytest.raises(RuntimeError):
            for row in rows:
                analyzer.feed_rows((row,))
        assert analyzer._fed == crash_row

    def test_ack_half_the_sequence_space_ahead(self):
        """``new_ack`` is ``seq_before(snd_una, ack)``, the tracker
        advances on ``seq_after(ack, snd_una)``; they differ at exactly
        2**31 apart, where the ACK counts as new (it restarts the
        timer base and clears the backoff) but acknowledges nothing."""
        iss = 5000
        rows = [
            (0.0, True, 99, 0, FLAG_SYN, 1000, 0, 0, None),
            (0.0, False, iss, 100, FLAG_SYN | FLAG_ACK, 1000, 0, 0, None),
            (0.1, True, 100, iss + 1, FLAG_ACK, 1000, 0, 0, None),
            (0.1, False, iss + 1, 100, FLAG_ACK, 1000, 1000, 0, None),
            (0.2, True, 100, (iss + 1 + (1 << 31)) & _MASK, FLAG_ACK,
             1000, 0, 0, None),
        ]
        analyzer = FlowAnalyzer(None, config=AnalysisConfig())
        analyzer.rto_est.backoff = 3
        analyzer.feed_rows(rows)
        assert analyzer._fed == 5
        assert analyzer.tracker is None  # all on the in-order branch
        analyzer.promote()
        assert analyzer.tracker.snd_una == iss + 1  # nothing acked
        assert analyzer.analysis.in_flight_on_ack == [0, 1]
        assert analyzer._last_new_ack_time == 0.2   # ...yet a new ACK
        assert analyzer.rto_est.backoff == 0
        assert analyzer.ca.dup_acks == 0
        # One step closer it acknowledges the segment, one step
        # further it is an old ACK.
        for delta, new_ack_time, snd_una in (
            ((1 << 31) - 1, 0.2, (iss + (1 << 31)) & _MASK),
            ((1 << 31) + 1, None, iss + 1),
        ):
            analyzer = FlowAnalyzer(None, config=AnalysisConfig())
            ack = (iss + 1 + delta) & _MASK
            analyzer.feed_rows(rows[:4] + [(*rows[4][:3], ack, *rows[4][4:])])
            analyzer.promote()
            assert analyzer.tracker.snd_una == snd_una
            assert analyzer._last_new_ack_time == new_ack_time


class TestLazyFlowPickle:
    """A column-backed flow crosses a process boundary as its columns."""

    @pytest.mark.parametrize("from_pcap", (True, False))
    def test_round_trip_ships_columns_only(self, from_pcap, tmp_path):
        packets = lossy_flow(random.Random(2))
        if from_pcap:
            path = tmp_path / "flow.pcap"
            _write(path, packets)
            (analysis,) = Tapo(config=AnalysisConfig()).analyze_pcap(path)
            flow = analysis.flow
        else:
            (flow,) = _lazy_flows(packets)
        with no_packet_objects():
            blob = pickle.dumps(flow)
            copy = pickle.loads(blob)
        assert b"PacketRecord" not in blob
        assert isinstance(copy, LazyFlowTrace)
        assert (copy.key, copy.server, copy.client) == (
            flow.key, flow.server, flow.client,
        )
        assert list(copy.rows()) == list(flow.rows())
        assert copy.packets == flow.packets
        reports = []
        for trace in (flow, copy):
            report = ServiceReport("pickle")
            report.add(Tapo(config=AnalysisConfig()).analyze_flow(trace))
            reports.append(report.to_json())
        assert reports[0] == reports[1]


class TestFlowCounters:
    """fast / replayed flow counts reach the operator."""

    NAMES = ("repro_flows_fast_total", "repro_flows_replayed_total")

    def _counts(self, registry):
        rendered = registry.render_prometheus()
        values = {}
        for line in rendered.splitlines():
            name, _, value = line.partition(" ")
            if name in self.NAMES:
                values[name] = int(float(value))
        return tuple(values[name] for name in self.NAMES)

    @pytest.mark.parametrize("fast_replay", (True, False))
    def test_stream_registry(self, fast_replay):
        """``record_series`` promotes every flow at row 0 (the in-order
        branch records no kernel series) — on its columns all the
        same."""
        from repro.obs.metrics import MetricsRegistry

        packets = generate_trace(3)
        registry = MetricsRegistry()
        tapo = Tapo(config=AnalysisConfig(record_series=not fast_replay))
        flows = list(tapo.analyze_stream(iter(packets), registry=registry))
        fast, replayed = self._counts(registry)
        assert (fast, replayed) == tapo.flow_counts()
        assert fast + replayed == len(flows)
        assert replayed > 0
        assert (fast > 0) == fast_replay

    def test_worker_counts_fold_into_the_caller(self):
        packets = generate_trace(3)
        tapo = Tapo(config=AnalysisConfig())
        flows = list(
            tapo.analyze_stream(iter(packets), run=RunConfig(workers=2))
        )
        fast, replayed = tapo.flow_counts()
        assert fast > 0 and replayed > 0
        assert fast + replayed == len(flows)

    def test_cluster_shards_materialize_nothing(self, tmp_path):
        from repro.cluster import Coordinator

        path = tmp_path / "trace.pcap"
        _write(path, generate_trace(3))
        with no_packet_objects():
            result = Coordinator(str(path), n_shards=2).run()
        fast, replayed = self._counts(result.registry)
        assert fast > 0 and replayed > 0
        assert fast + replayed == len(result.report.flows)

    def test_cli_stats_line(self, tmp_path, capsys):
        path = tmp_path / "trace.pcap"
        _write(path, generate_trace(5))
        assert cli_main([str(path), "--json", "--stats"]) == 0
        err = capsys.readouterr().err
        (line,) = [l for l in err.splitlines() if l.startswith("replay:")]
        assert re.fullmatch(
            r"replay: \d+ flows settled on the in-order branch, "
            r"\d+ promoted to the general loop",
            line,
        )


class TestNoPacketObjects:
    """Every analysis path runs on columns: with packet-object building
    rigged to raise, each still finishes with the reference's bytes."""

    def test_no_analysis_path_builds_a_packet_object(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        path = tmp_path / "trace.pcap"
        _write(path, generate_trace(3))
        expected, _ = _reference(path)
        streamed, _ = _reference(path, idle_timeout=60.0, close_linger=5.0)
        assert cli_main([str(path), "--json", "--stats"]) == 0
        tapo_out = capsys.readouterr().out
        assert repro_main(["cluster", str(path), "--shards", "1", "--json"]) == 0
        cluster_out = capsys.readouterr().out
        with no_packet_objects():
            batch = ServiceReport("parity", flows=api.analyze(path))
            stream = ServiceReport(
                "parity",
                flows=list(
                    api.analyze_stream(path, run=RunConfig(workers=2))
                ),
            )
            # ServiceReport.to_json reads every flow's packet count.
            assert batch.to_json() == expected.to_json()
            assert stream.to_json() == streamed.to_json()
            assert repro_main(
                ["cluster", str(path), "--shards", "2", "--json"]
            ) == 0
            assert capsys.readouterr().out == cluster_out
            assert cli_main([str(path), "--json", "--stats"]) == 0
            assert capsys.readouterr().out == tapo_out


class _PlainWalkTracker(SegmentTracker):
    """The reference SACK rule: every block walks the outstanding
    segments from the oldest, no entry point, no memory of blocks."""

    def apply_sack(self, blocks, ack, now):
        newly, dsack = [], False
        for index, (left, right) in enumerate(blocks):
            if seq_leq(right, ack):
                dsack = True
                self._record_dsack(left, right, now)
                continue
            if index == 0 and len(blocks) > 1:
                outer_left, outer_right = blocks[1]
                if seq_geq(left, outer_left) and seq_leq(right, outer_right):
                    dsack = True
                    self._record_dsack(left, right, now)
                    continue
            for segment in self.segments[self._first_unacked:]:
                if seq_geq(segment.seq, right):
                    break
                if segment.sacked_at is not None:
                    continue
                if seq_geq(segment.seq, left) and seq_leq(
                    segment.end_seq, right
                ):
                    segment.sacked_at = now
                    newly.append(segment)
                    self._sacked_out += 1
                    if len(segment.tx_times) > 1:
                        self._retrans_out -= 1
                    if self.highest_sacked is None or seq_after(
                        segment.end_seq, self.highest_sacked
                    ):
                        self.highest_sacked = segment.end_seq
        return newly, dsack


_UNIT = 100  # segment size of the tracker-level scripts

# (kind, a, b): new segments, a retransmission of units [a, a+b) shifted
# by half a unit or not, a cumulative ACK, a SACK of up to three blocks.
_tracker_ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(1, 4), st.booleans()),
        st.tuples(st.just("retx"), st.integers(0, 30), st.integers(0, 3)),
        st.tuples(st.just("ack"), st.integers(0, 30), st.just(0)),
        st.tuples(
            st.just("sack"),
            st.lists(
                st.tuples(st.integers(0, 60), st.integers(1, 12)),
                min_size=1, max_size=3,
            ),
            st.booleans(),
        ),
    ),
    max_size=60,
)


def _tracker_state(tracker):
    return (
        [(s.seq, s.end_seq, s.sacked_at, s.acked_at, s.spurious_at,
          tuple(s.tx_times)) for s in tracker.segments],
        tracker.packets_out, tracker.sacked_out, tracker.retrans_out(),
        tracker.highest_sacked, tracker.snd_una, tracker.transmitted_max,
        tracker.holes(),
        [tracker.unsacked_below_sacked(n) for n in (0, 3)],
    )


def _run_tracker_script(ops, iss):
    fast, plain = SegmentTracker(), _PlainWalkTracker()
    for tracker in (fast, plain):
        tracker.init_seq(iss)
    base = iss + 1
    nxt = 0  # next new unit
    last_blocks = None
    for now, (kind, a, b) in enumerate(ops):
        results = []
        for tracker in (fast, plain):
            if kind == "send":
                units = list(range(nxt, nxt + a))
                if b:
                    units.reverse()  # captured out of order
                for unit in units:
                    seq = (base + unit * _UNIT) & _MASK
                    tracker.record_segment(
                        seq, (seq + _UNIT) & _MASK, False, float(now)
                    )
            elif kind == "retx":
                # b odd: new boundaries (half a unit in, 1.5 units long).
                seq = (base + a * _UNIT + (b % 2) * _UNIT // 2) & _MASK
                length = _UNIT * (1 + b // 2) + (b % 2) * _UNIT // 2
                tracker.record_segment(
                    seq, (seq + length) & _MASK, False, float(now)
                )
            elif kind == "ack":
                results.append(
                    [s.seq for s in tracker.apply_ack(
                        (base + a * _UNIT) & _MASK, float(now))]
                )
            else:
                blocks = [
                    ((base + left * _UNIT // 2) & _MASK,
                     (base + (left + width) * _UNIT // 2) & _MASK)
                    for left, width in a
                ]
                if b and last_blocks:
                    blocks = last_blocks  # repeated verbatim
                newly, dsack = tracker.apply_sack(
                    blocks, tracker.snd_una, float(now)
                )
                results.append(([s.seq for s in newly], dsack))
                if tracker is plain:
                    last_blocks = blocks
        if kind == "send":
            nxt += a
        assert results[: len(results) // 2] == results[len(results) // 2:]
        assert _tracker_state(fast) == _tracker_state(plain)


class TestSackWalkShortcuts:
    """``SegmentTracker.apply_sack`` skips repeated blocks and enters
    the walk at a block's left edge; both must equal the plain walk."""

    @settings(max_examples=300, deadline=None)
    @given(_tracker_ops, st.sampled_from((1000, _MASK - 450, _MASK - 2450)))
    def test_equals_plain_walk(self, ops, iss):
        _run_tracker_script(ops, iss)

    def test_repacketized_retransmission_inside_sacked_range(self):
        """A block applied once must be walked again after a
        retransmission with new boundaries lands inside it."""
        _run_tracker_script(
            [
                ("send", 4, False), ("send", 4, False),
                ("sack", [(4, 8)], False),      # units 2..5 SACKed
                ("retx", 3, 1),                 # new segment at 3.5 units
                ("sack", [(4, 8)], True),       # the same block again
                ("sack", [(4, 12)], False),
                ("ack", 2, 0),
                ("sack", [(4, 12)], True),
            ],
            1000,
        )
        tracker = SegmentTracker()
        tracker.init_seq(0)
        for unit in range(5):
            tracker.record_segment(
                1 + unit * 100, 1 + (unit + 1) * 100, False, 0.0
            )
        tracker.apply_sack([(201, 501)], 1, 1.0)
        segment, _ = tracker.record_segment(351, 401, False, 2.0)
        assert segment.sacked_at is None
        newly, _ = tracker.apply_sack([(201, 501)], 1, 3.0)
        assert newly == [segment]

    def test_out_of_order_append(self):
        """Segments captured out of sequence order break the sorted
        run; the shortcuts must stand down until they are acked."""
        _run_tracker_script(
            [
                ("send", 3, True),              # units 2, 1, 0
                ("send", 3, False),
                ("sack", [(2, 2)], False),
                ("sack", [(2, 2), (8, 2)], False),
                ("sack", [(2, 2), (8, 2)], True),
                ("ack", 3, 0),
                ("sack", [(8, 2)], False),
                ("send", 2, False),
                ("sack", [(8, 6)], False),
                ("sack", [(8, 6)], True),
            ],
            _MASK - 450,
        )

    def test_repeated_blocks_are_not_rewalked(self):
        """The point of the shortcut: a block reported again, or a
        shorter one with the same left edge, touches no segment."""
        tracker = SegmentTracker()
        tracker.init_seq(0)
        for unit in range(50):
            tracker.record_segment(
                1 + unit * 100, 1 + (unit + 1) * 100, False, 0.0
            )

        class Counting(list):
            reads = 0

            def __getitem__(self, index):
                Counting.reads += 1
                return super().__getitem__(index)

        tracker.segments = Counting(tracker.segments)
        tracker.apply_sack([(1001, 4001)], 1, 1.0)
        assert tracker.sacked_out == 30
        first_walk = Counting.reads
        tracker.apply_sack([(1001, 4001), (1001, 3001)], 1, 2.0)
        assert Counting.reads - first_walk <= 1  # only segments[first]
        before = Counting.reads
        tracker.apply_sack([(1001, 4201), (1001, 4001)], 1, 3.0)
        assert tracker.sacked_out == 32
        assert Counting.reads - before <= 5  # two new segments + stop
