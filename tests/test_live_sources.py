"""Live capture sources: tailing, rotation, stdin, resume offsets.

The invariant under test everywhere: feeding the same bytes
incrementally (any chunking, any poll cadence) produces exactly the
records and fault counters a batch :class:`PcapReader` produces on
the finished file — because both run the same scanner.  Sources hand
over column batches (what the daemon pumps); the tests read them back
as records through :func:`poll` / :func:`finish` below.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.errors import ErrorBudget
from repro.live.sources import (
    LiveSource,
    PcapTailSource,
    RotatingDirectorySource,
    SourceCounters,
    StdinSource,
)
from repro.packet.headers import FLAG_ACK, FLAG_FIN, FLAG_SYN
from repro.packet.packet import PacketRecord
from repro.packet.pcap import PcapFormatError, PcapReader, write_pcap
from repro.testing.faults import corrupt_pcap_records

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


def tiny_flow(i: int, start: float) -> list[PacketRecord]:
    c = client(i)
    return [
        pkt(c, SERVER, flags=FLAG_SYN, ts=start, seq=100),
        pkt(SERVER, c, flags=FLAG_SYN | FLAG_ACK, ts=start + 0.01, seq=300),
        pkt(c, SERVER, ts=start + 0.02, seq=101, ack=301),
        pkt(c, SERVER, payload=50, ts=start + 0.03, seq=101, ack=301),
        pkt(SERVER, c, payload=1000, ts=start + 0.05, seq=301, ack=151),
        pkt(c, SERVER, ts=start + 0.07, seq=151, ack=1301),
        pkt(SERVER, c, flags=FLAG_FIN | FLAG_ACK, ts=start + 0.08,
            seq=1301, ack=151),
        pkt(c, SERVER, flags=FLAG_FIN | FLAG_ACK, ts=start + 0.09,
            seq=151, ack=1302),
    ]


def make_pcap(path, n=10, first=0):
    packets = [
        p for i in range(n) for p in tiny_flow(first + i, (first + i) * 0.2)
    ]
    packets.sort(key=lambda p: p.timestamp)
    write_pcap(path, packets)
    return packets


def record_sig(record: PacketRecord):
    return (
        record.timestamp,
        record.src_ip,
        record.src_port,
        record.dst_ip,
        record.dst_port,
        record.seq,
        record.ack,
        record.flags,
        record.payload_len,
    )


def counters_sig(c) -> tuple:
    return (
        c.records_read,
        c.skipped,
        c.corrupt_records,
        c.resyncs,
        c.bytes_skipped,
        c.option_errors,
    )


def _records(batches) -> list[PacketRecord]:
    return [r for cols in batches for r in cols.records()]


def poll(source) -> list[PacketRecord]:
    """Everything ``source.poll_columns()`` hands over, as records."""
    return _records(source.poll_columns())


def finish(source) -> list[PacketRecord]:
    return _records(source.finish_columns())


def drip_feed(path, data, source, chunks):
    """Append ``data`` to ``path`` in the given chunk sizes, polling
    the source after each append; return every record yielded."""
    records = []
    offset = 0
    with open(path, "ab") as sink:
        for size in chunks:
            sink.write(data[offset : offset + size])
            sink.flush()
            offset += size
            records.extend(poll(source))
        assert offset == len(data)
    records.extend(finish(source))
    return records


@pytest.mark.parametrize(
    "cls", [LiveSource, PcapTailSource, RotatingDirectorySource, StdinSource]
)
def test_sources_have_no_record_twin(cls):
    """A stale ``.poll()`` caller gets ``AttributeError``, not columns."""
    assert not hasattr(cls, "poll") and not hasattr(cls, "finish")
    assert callable(cls.poll_columns) and callable(cls.finish_columns)


class TestPcapTail:
    def test_tail_matches_batch_read(self, tmp_path):
        path = tmp_path / "grow.pcap"
        make_pcap(path, n=8)
        data = path.read_bytes()
        grow = tmp_path / "tail.pcap"
        grow.write_bytes(b"")
        source = PcapTailSource(grow)
        rng = random.Random(42)
        chunks = []
        left = len(data)
        while left:
            size = min(left, rng.randrange(1, 200))
            chunks.append(size)
            left -= size
        got = drip_feed(grow, data, source, chunks)
        with PcapReader(path) as reader:
            want = list(reader)
            assert [record_sig(r) for r in got] == [
                record_sig(r) for r in want
            ]
            assert counters_sig(source.counters) == counters_sig(reader)
        assert source.offset == len(data)

    def test_half_written_record_waits(self, tmp_path):
        path = tmp_path / "grow.pcap"
        make_pcap(path, n=2)
        data = path.read_bytes()
        grow = tmp_path / "tail.pcap"
        cut = len(data) - 7  # mid-record
        grow.write_bytes(data[:cut])
        source = PcapTailSource(grow)
        first = poll(source)
        with open(grow, "ab") as sink:
            sink.write(data[cut:])
        rest = poll(source)
        assert len(first) + len(rest) == 16
        assert len(rest) >= 1  # the split record arrived intact

    def test_header_trickle(self, tmp_path):
        path = tmp_path / "grow.pcap"
        make_pcap(path, n=1)
        data = path.read_bytes()
        grow = tmp_path / "tail.pcap"
        grow.write_bytes(data[:10])  # partial global header
        source = PcapTailSource(grow)
        assert poll(source) == []
        assert source.offset == 0
        with open(grow, "ab") as sink:
            sink.write(data[10:])
        assert len(poll(source)) == 8

    def test_bad_magic_raises(self, tmp_path):
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\x00" * 64)
        source = PcapTailSource(bad)
        with pytest.raises(PcapFormatError):
            poll(source)

    def test_truncated_tail_strict_vs_lenient(self, tmp_path):
        path = tmp_path / "full.pcap"
        make_pcap(path, n=2)
        data = path.read_bytes()
        cut = tmp_path / "cut.pcap"
        cut.write_bytes(data[:-5])
        strict = PcapTailSource(cut)
        with pytest.raises(PcapFormatError):
            finish(strict)
        lenient = PcapTailSource(cut, errors="lenient")
        got = finish(lenient)
        assert len(got) == 15
        assert lenient.counters.corrupt_records >= 1

    def test_checkpoint_resume_continues_exactly(self, tmp_path):
        path = tmp_path / "cap.pcap"
        make_pcap(path, n=6)
        with PcapReader(path) as reader:
            want = [record_sig(r) for r in reader]
        source = PcapTailSource(path)
        first = [record_sig(r) for r in poll(source)]
        state = json.loads(json.dumps(source.checkpoint()))
        source.close()
        resumed = PcapTailSource.restore(state)
        rest = [record_sig(r) for r in finish(resumed)]
        assert first + rest == want
        # counters carried across the resume
        assert resumed.counters.records_read == len(want)

    def test_restores_checkpoint_with_retired_counter(self, tmp_path):
        """A checkpoint written before ``checksums_skipped`` was
        removed still restores; the counters it shares carry over."""
        path = tmp_path / "cap.pcap"
        make_pcap(path, n=6)
        state = {
            "type": "pcap_tail",
            "path": str(path),
            "offset": 24,
            "counters": {
                "records_read": 7, "skipped": 1, "corrupt_records": 2,
                "resyncs": 2, "bytes_skipped": 40, "option_errors": 0,
                "checksum_errors": 3, "checksums_skipped": 11,
                "verify_checksums": False,
            },
        }
        resumed = PcapTailSource.restore(json.loads(json.dumps(state)))
        assert len(finish(resumed)) == 48
        counters = resumed.counters
        assert (counters.records_read, counters.checksum_errors) == (55, 3)
        assert "checksums_skipped" not in counters.to_state()

    def test_resume_mid_file_replays_nothing(self, tmp_path):
        path = tmp_path / "cap.pcap"
        make_pcap(path, n=6)
        data = path.read_bytes()
        grow = tmp_path / "tail.pcap"
        cut = len(data) // 2
        grow.write_bytes(data[:cut])
        source = PcapTailSource(grow)
        first = [record_sig(r) for r in poll(source)]
        state = source.checkpoint()
        assert 24 <= state["offset"] <= cut
        source.close()
        with open(grow, "ab") as sink:
            sink.write(data[cut:])
        resumed = PcapTailSource.restore(state)
        rest = [record_sig(r) for r in finish(resumed)]
        with PcapReader(path) as reader:
            assert first + rest == [record_sig(r) for r in reader]

    def test_recycled_path_restarts_from_zero(self, tmp_path):
        path = tmp_path / "cap.pcap"
        make_pcap(path, n=6)
        state = {
            "type": "pcap_tail",
            "path": str(path),
            "offset": path.stat().st_size + 1000,  # file "shrank"
            "counters": SourceCounters().to_state(),
        }
        resumed = PcapTailSource.restore(state)
        assert len(finish(resumed)) == 48

    def test_corruption_recovery_matches_batch(self, tmp_path):
        clean = tmp_path / "clean.pcap"
        make_pcap(clean, n=40)
        dirty = tmp_path / "dirty.pcap"
        corrupt_pcap_records(clean, dirty, fraction=0.05, seed=3)
        data = dirty.read_bytes()
        grow = tmp_path / "tail.pcap"
        grow.write_bytes(b"")
        source = PcapTailSource(grow, errors="lenient")
        rng = random.Random(7)
        chunks = []
        left = len(data)
        while left:
            size = min(left, rng.randrange(1, 997))
            chunks.append(size)
            left -= size
        got = drip_feed(grow, data, source, chunks)
        with PcapReader(dirty, errors="lenient") as reader:
            want = list(reader)
            assert [record_sig(r) for r in got] == [
                record_sig(r) for r in want
            ]
            assert counters_sig(source.counters) == counters_sig(reader)


class TestRotatingDirectory:
    def test_processes_files_in_name_order(self, tmp_path):
        make_pcap(tmp_path / "cap-000.pcap", n=3, first=0)
        make_pcap(tmp_path / "cap-001.pcap", n=3, first=3)
        make_pcap(tmp_path / "cap-002.pcap", n=3, first=6)
        source = RotatingDirectorySource(tmp_path)
        got = [record_sig(r) for r in finish(source)]
        want = []
        for name in ("cap-000.pcap", "cap-001.pcap", "cap-002.pcap"):
            with PcapReader(tmp_path / name) as reader:
                want.extend(record_sig(r) for r in reader)
        assert got == want
        assert source.files_completed == 3

    def test_newest_is_tailed_until_rotation(self, tmp_path):
        make_pcap(tmp_path / "cap-000.pcap", n=2, first=0)
        source = RotatingDirectorySource(tmp_path)
        got = poll(source)
        assert len(got) == 16  # newest file's available records
        assert source.files_completed == 0  # still tailing it
        # rotation: a newer file appears -> cap-000 finalizes
        make_pcap(tmp_path / "cap-001.pcap", n=2, first=2)
        got2 = poll(source)
        assert source.files_completed == 1
        assert len(got2) == 16  # cap-001's records (cap-000 had no tail)

    def test_dedup_never_reprocesses(self, tmp_path):
        make_pcap(tmp_path / "cap-000.pcap", n=2, first=0)
        make_pcap(tmp_path / "cap-001.pcap", n=2, first=2)
        source = RotatingDirectorySource(tmp_path)
        first = poll(source)
        # touch the finished file; it must not re-enter processing
        make_pcap(tmp_path / "cap-000.pcap", n=5, first=10)
        again = poll(source)
        assert again == []
        assert len(first) == 32

    def test_glob_pattern_filters(self, tmp_path):
        make_pcap(tmp_path / "cap-000.pcap", n=2, first=0)
        (tmp_path / "notes.txt").write_text("not a capture")
        make_pcap(tmp_path / "other.dump", n=2, first=2)
        source = RotatingDirectorySource(tmp_path, pattern="cap-*.pcap")
        assert len(finish(source)) == 16

    def test_checkpoint_restore_roundtrip(self, tmp_path):
        make_pcap(tmp_path / "cap-000.pcap", n=3, first=0)
        make_pcap(tmp_path / "cap-001.pcap", n=3, first=3)
        source = RotatingDirectorySource(tmp_path)
        first = [record_sig(r) for r in poll(source)]
        state = json.loads(json.dumps(source.checkpoint()))
        source.close()
        assert state["done"] == ["cap-000.pcap"]
        assert state["current"] == "cap-001.pcap"
        make_pcap(tmp_path / "cap-002.pcap", n=3, first=6)
        resumed = RotatingDirectorySource.restore(state)
        rest = [record_sig(r) for r in finish(resumed)]
        want = []
        for name in ("cap-000.pcap", "cap-001.pcap", "cap-002.pcap"):
            with PcapReader(tmp_path / name) as reader:
                want.extend(record_sig(r) for r in reader)
        assert first + rest == want

    def test_restore_with_deleted_current_file(self, tmp_path):
        make_pcap(tmp_path / "cap-000.pcap", n=2, first=0)
        source = RotatingDirectorySource(tmp_path)
        poll(source)
        state = source.checkpoint()
        source.close()
        (tmp_path / "cap-000.pcap").unlink()
        make_pcap(tmp_path / "cap-001.pcap", n=2, first=2)
        resumed = RotatingDirectorySource.restore(state)
        got = finish(resumed)
        assert len(got) == 16  # only the new file; old one marked done

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RotatingDirectorySource(tmp_path / "nope")


class TestStdin:
    def test_reads_stream_to_exhaustion(self, tmp_path):
        path = tmp_path / "cap.pcap"
        make_pcap(path, n=4)
        source = StdinSource(stream=io.BytesIO(path.read_bytes()))
        got = poll(source)
        assert len(got) == 32
        assert source.exhausted
        assert poll(source) == []

    def test_finish_drains_remaining(self, tmp_path):
        path = tmp_path / "cap.pcap"
        make_pcap(path, n=4)
        source = StdinSource(stream=io.BytesIO(path.read_bytes()))
        got = finish(source)
        assert len(got) == 32

    def test_checkpoint_is_stateless(self, tmp_path):
        source = StdinSource(stream=io.BytesIO(b""))
        assert source.checkpoint() == {"type": "stdin"}

    def test_real_pipe_poll_does_not_block(self, tmp_path):
        import os

        read_fd, write_fd = os.pipe()
        try:
            reader = os.fdopen(read_fd, "rb", buffering=0)
            source = StdinSource(stream=reader)
            assert poll(source) == []  # nothing yet; returns
            path = tmp_path / "cap.pcap"
            make_pcap(path, n=2)
            os.write(write_fd, path.read_bytes())
            got = poll(source)
            assert len(got) == 16
            assert not source.exhausted
            os.close(write_fd)
            write_fd = None
            poll(source)
            assert source.exhausted
        finally:
            if write_fd is not None:
                os.close(write_fd)
            reader.close()

    def test_error_budget_applies(self, tmp_path):
        path = tmp_path / "cap.pcap"
        make_pcap(path, n=2)
        data = path.read_bytes()[:-5]
        strict = StdinSource(stream=io.BytesIO(data))
        with pytest.raises(PcapFormatError):
            finish(strict)
        lenient = StdinSource(
            stream=io.BytesIO(data), errors=ErrorBudget.lenient()
        )
        assert len(finish(lenient)) == 15
