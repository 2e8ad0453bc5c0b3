"""pcap reader/writer tests."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet.headers import FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN
from repro.packet.options import TCPOptions
from repro.packet.packet import PacketRecord
from repro.packet.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    PcapFormatError,
    PcapReader,
    PcapWriter,
    read_pcap,
    write_pcap,
)


def make_packets(n=5):
    return [
        PacketRecord(
            timestamp=i * 0.25,
            src_ip=0x0A000001,
            dst_ip=0x64400000 + i,
            src_port=80,
            dst_port=30000 + i,
            seq=i * 1000,
            ack=i * 500,
            flags=FLAG_SYN if i == 0 else FLAG_ACK,
            window=1000 + i,
            payload_len=i * 100,
        )
        for i in range(n)
    ]


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "trace.pcap"
        packets = make_packets()
        assert write_pcap(path, packets) == len(packets)
        loaded = read_pcap(path)
        assert len(loaded) == len(packets)
        for original, decoded in zip(packets, loaded):
            assert decoded.seq == original.seq
            assert decoded.payload_len == original.payload_len
            assert decoded.timestamp == pytest.approx(
                original.timestamp, abs=1e-6
            )

    def test_ethernet_linktype(self, tmp_path):
        path = tmp_path / "eth.pcap"
        packets = make_packets(3)
        write_pcap(path, packets, linktype=LINKTYPE_ETHERNET)
        loaded = read_pcap(path)
        assert [p.seq for p in loaded] == [p.seq for p in packets]

    def test_context_managers(self, tmp_path):
        path = tmp_path / "ctx.pcap"
        with PcapWriter(path) as writer:
            writer.write(make_packets(1)[0])
            assert writer.packets_written == 1
        with PcapReader(path) as reader:
            assert len(list(reader)) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(path, [])
        assert read_pcap(path) == []

    def test_microsecond_precision(self, tmp_path):
        path = tmp_path / "precision.pcap"
        pkt = make_packets(1)[0].copy(timestamp=123.456789)
        write_pcap(path, [pkt])
        assert read_pcap(path)[0].timestamp == pytest.approx(
            123.456789, abs=2e-6
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=10))
    def test_timestamps_survive(self, timestamps):
        import tempfile
        from pathlib import Path

        tmp = tempfile.mkdtemp()
        path = Path(tmp) / "t.pcap"
        base = make_packets(1)[0]
        packets = [base.copy(timestamp=t) for t in sorted(timestamps)]
        write_pcap(path, packets)
        loaded = read_pcap(path)
        for original, decoded in zip(packets, loaded):
            assert decoded.timestamp == pytest.approx(
                original.timestamp, abs=2e-6
            )


class TestFormatEdges:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)
        with pytest.raises(PcapFormatError):
            PcapReader(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1\x02")
        with pytest.raises(PcapFormatError):
            PcapReader(path)

    def test_truncated_packet_body(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        write_pcap(path, make_packets(1))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(PcapFormatError):
            read_pcap(path)

    def test_unsupported_linktype(self, tmp_path):
        path = tmp_path / "linktype.pcap"
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 105)
        path.write_bytes(header)
        with pytest.raises(PcapFormatError):
            PcapReader(path)

    @pytest.mark.parametrize("linktype", [0, 105, 113])
    def test_writer_rejects_linktype_reader_refuses(self, tmp_path, linktype):
        path = tmp_path / "linktype.pcap"
        with pytest.raises(ValueError, match="linktype"):
            PcapWriter(path, linktype=linktype)
        assert not path.exists()

    def test_non_ip_ethernet_frames_skipped(self, tmp_path):
        path = tmp_path / "arp.pcap"
        with PcapWriter(path, linktype=LINKTYPE_ETHERNET) as writer:
            writer.write(make_packets(1)[0])
        # Append an ARP frame by hand.
        arp = b"\x00" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 28
        with open(path, "ab") as f:
            f.write(struct.pack("<IIII", 1, 0, len(arp), len(arp)))
            f.write(arp)
        with PcapReader(path) as reader:
            packets = list(reader)
            assert len(packets) == 1
            assert reader.skipped == 1

    def test_big_endian_read(self, tmp_path):
        """Swapped-magic (big-endian) captures are readable."""
        path = tmp_path / "be.pcap"
        pkt = make_packets(1)[0]
        body = pkt.encode()
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack(">IIII", 3, 500000, len(body), len(body))
        path.write_bytes(header + record + body)
        loaded = read_pcap(path)
        assert len(loaded) == 1
        assert loaded[0].timestamp == pytest.approx(3.5)


def pinned_records():
    """One of each header shape the simulator writes: a SYN with every
    handshake option, timestamped data, a timestamped ACK carrying three
    SACK blocks, a FIN, an odd payload and a zero window.  The last
    timestamp rounds up into the next second."""
    client, server = 0x0A000002, 0x0A000001

    def segment(timestamp, inbound, **fields):
        src, dst = (client, server) if inbound else (server, client)
        ports = (40000, 80) if inbound else (80, 40000)
        return PacketRecord(
            timestamp=timestamp, src_ip=src, dst_ip=dst,
            src_port=ports[0], dst_port=ports[1], **fields,
        )

    return [
        segment(
            1.000001, True, seq=1000, ack=0, flags=FLAG_SYN, window=29200,
            options=TCPOptions(
                mss=1460, wscale=7, sack_permitted=True, ts_val=100, ts_ecr=0
            ),
        ),
        segment(
            1.25, False, seq=5000, ack=1001, flags=FLAG_ACK | FLAG_PSH,
            window=501, payload_len=1448,
            options=TCPOptions(ts_val=200, ts_ecr=100),
        ),
        segment(
            1.3, True, seq=1001, ack=6448, window=4000,
            options=TCPOptions(
                ts_val=130, ts_ecr=200,
                sack_blocks=[(7896, 9344), (10792, 12240), (13688, 15136)],
            ),
        ),
        segment(
            1.5, False, seq=15136, ack=1001, flags=FLAG_ACK | FLAG_FIN,
            window=501, options=TCPOptions(ts_val=230, ts_ecr=130),
        ),
        segment(
            1.75, False, seq=6448, ack=1001, window=501, payload_len=333,
            options=TCPOptions(ts_val=240, ts_ecr=130),
        ),
        segment(
            1.9999996, True, seq=1001, ack=15137, window=0,
            options=TCPOptions(ts_val=260, ts_ecr=240),
        ),
    ]


class TestCaptureBytes:
    """The writer's output is pinned byte for byte: an encoder change
    that moves a header byte fails here, not only in a digest taken
    far downstream.  The digests were taken with the word-loop checksum
    and the per-header encoder the current writer replaced."""

    PINNED = {
        LINKTYPE_RAW: (
            "90901557ee9c8f2a43bd59b83679cee6"
            "f44b53790d0d334b8068d412413c6df0"
        ),
        LINKTYPE_ETHERNET: (
            "e98f11eeb24145832533b2ad6476ffaf"
            "7eb4dea380646e72c3d30dc0f4768db8"
        ),
    }

    @pytest.mark.parametrize("linktype", [LINKTYPE_RAW, LINKTYPE_ETHERNET])
    def test_capture_sha256_pinned(self, tmp_path, linktype):
        path = tmp_path / "pinned.pcap"
        write_pcap(path, pinned_records(), linktype=linktype)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED[linktype]

    @pytest.mark.parametrize("linktype", [LINKTYPE_RAW, LINKTYPE_ETHERNET])
    def test_written_checksums_verify(self, tmp_path, linktype):
        """Every checksum the writer fills verifies, on the record and
        the columnar path alike."""
        path = tmp_path / "verified.pcap"
        records = pinned_records() + make_packets(8)
        write_pcap(path, records, linktype=linktype)
        with PcapReader(path, verify_checksums=True) as reader:
            assert len(list(reader.iter_records())) == len(records)
            assert reader.checksum_errors == 0
        with PcapReader(path, verify_checksums=True) as reader:
            rows = sum(len(batch) for batch in reader.iter_columns())
            assert rows == len(records)
            assert reader.checksum_errors == 0
