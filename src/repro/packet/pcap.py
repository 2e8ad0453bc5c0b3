"""Classic libpcap file reader and writer.

Implements the original pcap format (magic ``0xa1b2c3d4``, microsecond
timestamps, both byte orders on read) with the ``LINKTYPE_RAW`` (101)
and ``LINKTYPE_ETHERNET`` (1) link types.  Raw IP is the native format
for simulator output; Ethernet frames are supported on read so traces
captured with tcpdump on a real interface can be analyzed too.
"""

from __future__ import annotations

import mmap
import os
import stat
import struct
from array import array
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..errors import ErrorBudget, ParseError
from .checksum import verify_tcp_checksum
from .columnar import PacketColumns, decode_spans
from .headers import HeaderDecodeError
from .packet import PacketRecord


def _subtract_spans(incls: "array", starts: "array", header_size: int) -> None:
    """In place: ``incls[i] -= starts[i] + header_size`` (turns the
    next-offset chain into record body lengths)."""
    out = np.frombuffer(incls, dtype=np.int64)
    out -= np.frombuffer(starts, dtype=np.int64)
    out -= header_size


def _shift_spans(starts: "array", header_size: int) -> None:
    """In place: ``starts[i] += header_size`` (header offsets from the
    strict chase become body offsets)."""
    out = np.frombuffer(starts, dtype=np.int64)
    out += header_size

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101

_GLOBAL_HEADER = struct.Struct("IHHiIII")
#: Record header as :class:`PcapWriter` writes it (little-endian).
_RECORD_HEADER = struct.Struct("<IIII")
ETHERTYPE_IPV4 = 0x0800

#: What :class:`PcapWriter` puts between a record header and the IP
#: packet, per link type: nothing, or an Ethernet header with zeroed
#: MAC addresses and the IPv4 ethertype.
_LINK_HEADERS = {
    LINKTYPE_RAW: b"",
    LINKTYPE_ETHERNET: bytes(12) + struct.pack("!H", ETHERTYPE_IPV4),
}
#: Zero bytes every written payload is a slice of (an IPv4 packet is at
#: most 65,535 bytes long).
_ZERO_PAYLOAD = memoryview(bytes(1 << 16))

#: Lenient-mode framing sanity bound: no sane capture carries a record
#: this large (the classic snaplen cap is 65535), so a bigger
#: ``incl_len`` means the record header itself is damaged.
_MAX_RECORD_BYTES = 1 << 20

#: Lenient-mode resync heuristic: a candidate record header whose
#: ``ts_sec`` jumps more than this from the last good record is
#: treated as garbage rather than a one-day capture gap.
_RESYNC_TS_WINDOW = 86_400


class PcapFormatError(ParseError):
    """Raised when a pcap file is malformed."""


class PcapWriter:
    """Stream packet records into a classic pcap file.

    Usable as a context manager::

        with PcapWriter(path) as writer:
            writer.write(record)
    """

    def __init__(self, path: str | Path, linktype: int = LINKTYPE_RAW):
        # Only the link types the reader accepts: a file it would
        # refuse is never written.
        if linktype not in _LINK_HEADERS:
            raise ValueError(
                "unsupported linktype %d (PcapWriter writes %d or %d)"
                % (linktype, LINKTYPE_RAW, LINKTYPE_ETHERNET)
            )
        self._file: BinaryIO = open(path, "wb")
        self.linktype = linktype
        self._link_header = _LINK_HEADERS[linktype]
        self._lead = _RECORD_HEADER.size + len(self._link_header)
        header = struct.pack(
            "<IHHiIII",
            PCAP_MAGIC,
            2,
            4,
            0,
            0,
            65535,
            linktype,
        )
        self._file.write(header)
        self.packets_written = 0

    def write(self, record: PacketRecord) -> None:
        """Append one packet record.

        One file write holds the record header, the link header and the
        IP/TCP headers; the zero payload is written from a shared
        buffer.
        """
        lead = self._lead
        data = record.encode_headers(lead)
        payload_len = record.payload_len
        length = len(data) - _RECORD_HEADER.size + payload_len
        timestamp = record.timestamp
        ts_sec = int(timestamp)
        ts_usec = round((timestamp - ts_sec) * 1_000_000)
        if ts_usec >= 1_000_000:
            ts_sec += 1
            ts_usec -= 1_000_000
        _RECORD_HEADER.pack_into(data, 0, ts_sec, ts_usec, length, length)
        if self._link_header:
            data[_RECORD_HEADER.size : lead] = self._link_header
        self._file.write(data)
        if payload_len:
            self._file.write(_ZERO_PAYLOAD[:payload_len])
        self.packets_written += 1

    def write_all(self, records: Iterable[PacketRecord]) -> int:
        """Append every record from an iterable; return the count."""
        count = 0
        for record in records:
            self.write(record)
            count += 1
        return count

    def flush(self) -> None:
        """Push buffered records to the OS (visible to live tailers)."""
        self._file.flush()

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Default file-read granularity for :meth:`PcapReader.iter_records`.
#: One syscall per buffer instead of two per packet.
READ_BUFFER_BYTES = 1 << 20

#: Default window for :meth:`PcapReader.iter_columns`.  Columnar
#: decode has a fixed vectorization cost per batch, so it prefers
#: fewer, larger windows; 4 MiB bounds what a capture pass keeps
#: resident while making the per-batch overhead negligible.
COLUMN_BUFFER_BYTES = 4 << 20


def parse_global_header(raw: bytes) -> tuple[str, int]:
    """Validate a 24-byte pcap global header; return (endian, linktype).

    Shared by :class:`PcapReader` and the follow-mode tail source in
    :mod:`repro.live.sources`, so both accept exactly the same files.
    """
    if len(raw) < _GLOBAL_HEADER.size:
        raise PcapFormatError("pcap global header truncated")
    magic = struct.unpack("<I", raw[:4])[0]
    if magic == PCAP_MAGIC:
        endian = "<"
    elif magic == PCAP_MAGIC_SWAPPED:
        endian = ">"
    else:
        raise PcapFormatError("bad pcap magic %#010x" % magic)
    fields = struct.unpack(endian + "IHHiIII", raw)
    linktype = fields[6]
    if linktype not in (LINKTYPE_RAW, LINKTYPE_ETHERNET):
        raise PcapFormatError("unsupported linktype %d" % linktype)
    return endian, linktype


def _checksum_ok(packet: bytes, src_ip: int, dst_ip: int) -> bool:
    """Verify the TCP checksum of one decoded IPv4 packet.

    The segment runs from the end of the IP header to ``total_length``,
    or to the end of the captured bytes when those are fewer or
    ``total_length`` is 0.  The one rule both the record and the
    columnar path apply.
    """
    ip_len = (packet[0] & 0x0F) * 4
    total_length = (packet[2] << 8) | packet[3]
    end = (
        min(len(packet), max(total_length, ip_len))
        if total_length
        else len(packet)
    )
    return verify_tcp_checksum(src_ip, dst_ip, packet[ip_len:end])


class PcapScanner:
    """Incremental pcap record scanner: push bytes in, drain records out.

    The framing/recovery state machine behind :class:`PcapReader`,
    factored into push form so a *growing* capture can be scanned too:
    :meth:`push` appends whatever bytes are available, :meth:`drain`
    yields every record that is complete so far and stops (without
    error) at a partial record, and :meth:`finish` marks end-of-input
    so the tail is then judged — truncated records become faults
    instead of "wait for more data".

    ``counters`` is the object that carries the public fault/progress
    attributes (``records_read``, ``skipped``, ``corrupt_records``,
    ``resyncs``, ``bytes_skipped``, ``option_errors``) —
    :class:`PcapReader` passes itself, so its counter surface is
    unchanged.  Recovery semantics (plausibility, chain-checked
    resync, budget accounting) are identical between batch reads and
    incremental tails because this is the only implementation.
    """

    def __init__(
        self,
        endian: str,
        linktype: int,
        errors: ErrorBudget,
        counters,
    ):
        self._endian = endian
        self._struct = struct.Struct(endian + "IIII")
        self._incl_struct = struct.Struct(endian + "8xI")
        self._ethernet = linktype == LINKTYPE_ETHERNET
        self._budget = errors
        self._counters = counters
        self._buffer = b""
        self._offset = 0
        self._last_ts: int | None = None
        self._final = False
        self._resyncing = False

    @property
    def pending_bytes(self) -> int:
        """Bytes pushed but not yet consumed by a parse decision.

        A resumable source offset is ``bytes_pushed - pending_bytes``:
        re-reading from there replays no already-parsed record.
        """
        return len(self._buffer) - self._offset

    def push(self, data: bytes) -> None:
        """Append newly available capture bytes."""
        if not data:
            return
        if self._offset >= len(self._buffer):
            # Fully consumed: adopt the new slab without copying.
            self._buffer = data
            self._offset = 0
            return
        if self._offset:
            self._buffer = self._buffer[self._offset :]
            self._offset = 0
        self._buffer += data

    def finish(self) -> None:
        """Mark end-of-input: the next :meth:`drain` judges the tail."""
        self._final = True

    def drop_pending(self) -> None:
        """Forget the unconsumed tail and the buffer holding it.

        For memory-mapped windows: dropping the scanner's view lets
        the window be unmapped, and the caller maps the tail again at
        the *front* of the next window — which :meth:`push` then adopts
        by reference instead of paying a buffer concatenation.
        """
        self._buffer = b""
        self._offset = 0

    # -- framing heuristics (identical to the historical reader) ------
    def _plausible(self, pos: int) -> bool:
        """Sanity-check a candidate record header at ``pos``."""
        ts_sec, ts_usec, incl_len, orig_len = self._struct.unpack_from(
            self._buffer, pos
        )
        if ts_usec >= 1_000_000 or incl_len > _MAX_RECORD_BYTES:
            return False
        # No record can be smaller than one IPv4 header.
        if incl_len < 20 or incl_len > orig_len:
            return False
        if orig_len > _MAX_RECORD_BYTES:
            return False
        if (
            self._last_ts is not None
            and abs(ts_sec - self._last_ts) > _RESYNC_TS_WINDOW
        ):
            return False
        return True

    def _chain_ok(self, pos: int) -> bool | None:
        """A resync candidate must also be followed by a plausible
        header — a single 16-byte check syncs on garbage too easily.
        ``None`` means undecidable yet: the next header lies beyond the
        bytes pushed so far."""
        if not self._plausible(pos):
            return False
        incl_len = self._struct.unpack_from(self._buffer, pos)[2]
        nxt = pos + self._struct.size + incl_len
        if nxt + self._struct.size <= len(self._buffer):
            return self._plausible(nxt)
        return None

    def _corrupt(self, reason: str) -> None:
        """Count one framing fault; raise unless the budget allows."""
        if not self._budget.tolerant:
            raise PcapFormatError(reason)
        counters = self._counters
        counters.corrupt_records += 1
        self._budget.check(
            counters.corrupt_records,
            counters.records_read + counters.corrupt_records,
            "corrupt pcap records",
        )

    def _begin_resync(self) -> None:
        """Skip at least one byte and start scanning for a boundary."""
        self._offset += 1
        self._counters.bytes_skipped += 1
        self._resyncing = True

    def _scan_resync(self) -> bool:
        """Advance to the next plausible record header.

        True: positioned on a boundary (resync over).  False: need
        more pushed bytes, or — after :meth:`finish` — the rest of the
        input holds no boundary and was discarded.
        """
        counters = self._counters
        limit = len(self._buffer) - self._struct.size
        while self._offset <= limit:
            ok = self._chain_ok(self._offset)
            if ok is None and not self._final:
                return False  # candidate needs the next header's bytes
            if ok is not False:  # True, or undecidable at end of input
                self._resyncing = False
                return True
            self._offset += 1
            counters.bytes_skipped += 1
        if not self._final:
            return False
        counters.bytes_skipped += len(self._buffer) - self._offset
        self._offset = len(self._buffer)
        return False

    # -- record extraction ---------------------------------------------
    def drain(self) -> Iterator[PacketRecord]:
        """Yield every record decodable from the bytes pushed so far.

        Stops silently at a partial record until :meth:`finish` is
        called; after that, a partial tail is a framing fault handled
        under the error budget.
        """
        header_size = self._struct.size
        unpack_header = self._struct.unpack_from
        counters = self._counters
        tolerant = self._budget.tolerant
        verify = getattr(counters, "verify_checksums", False)
        while True:
            if self._resyncing and not self._scan_resync():
                return
            available = len(self._buffer) - self._offset
            if available < header_size:
                if not self._final:
                    return
                if available > 0:
                    self._corrupt("pcap record header truncated")
                    counters.bytes_skipped += available
                    self._offset = len(self._buffer)
                return
            if tolerant and not self._plausible(self._offset):
                self._corrupt("pcap record framing implausible")
                counters.resyncs += 1
                self._begin_resync()
                continue
            ts_sec, ts_usec, incl_len, _orig_len = unpack_header(
                self._buffer, self._offset
            )
            if available < header_size + incl_len:
                if not self._final:
                    return  # body still being written; wait for bytes
                # Strict raises here.  Lenient resyncs instead of
                # dropping the tail outright: a "truncated body" can
                # also be a corrupt length field swallowing real
                # records behind it.
                self._corrupt("pcap packet body truncated")
                counters.resyncs += 1
                self._begin_resync()
                continue
            start = self._offset + header_size
            data = self._buffer[start : start + incl_len]
            self._offset = start + incl_len
            self._last_ts = ts_sec
            counters.records_read += 1
            if self._ethernet:
                if len(data) < 14:
                    counters.skipped += 1
                    continue
                ethertype = struct.unpack("!H", data[12:14])[0]
                if ethertype != ETHERTYPE_IPV4:
                    counters.skipped += 1
                    continue
                data = data[14:]
            timestamp = ts_sec + ts_usec / 1_000_000
            try:
                record = PacketRecord.decode(
                    data, timestamp, lenient=tolerant
                )
            except HeaderDecodeError:
                counters.skipped += 1
                continue
            if record.options.truncated_options:
                counters.option_errors += 1
            if verify and not _checksum_ok(
                data, record.src_ip, record.dst_ip
            ):
                counters.checksum_errors += 1
            yield record

    # -- columnar extraction ---------------------------------------------
    def _collect_spans(self) -> tuple[array, array]:
        """Advance framing over every complete record; return spans.

        The framing walk — plausibility checks, resync, budget
        accounting — matches the state machine :meth:`drain` runs;
        only record *decoding* is deferred, so the columnar layer
        (:func:`repro.packet.columnar.decode_spans`) can batch it.
        Returned arrays are parallel ``(body_offset, body_length)``
        per record, with offsets into the current buffer (valid until
        the next :meth:`push`).  Record timestamps sit at
        ``body_offset - 16``; the columnar decoder extracts them in
        bulk.
        """
        counters = self._counters
        starts = array("q")
        incls = array("q")
        if not self._budget.tolerant:
            # Strict mode never resyncs — any framing damage raises —
            # so the walk reduces to chasing ``incl_len``.  Bodies abut
            # (no bytes are ever skipped), so lengths are derived from
            # consecutive offsets afterwards instead of being appended
            # inside the hot loop.
            buffer = self._buffer
            blen = len(buffer)
            offset = self._offset
            header_size = self._struct.size
            limit = blen - header_size
            unpack_incl = self._incl_struct.unpack_from
            found: list[int] = []
            append_start = found.append
            while offset <= limit:
                (incl_len,) = unpack_incl(buffer, offset)
                nxt = offset + header_size + incl_len
                if nxt > blen:
                    if self._final:
                        self._corrupt("pcap packet body truncated")
                    break  # body still being written; wait for bytes
                # Header offsets, not body offsets: one add less per
                # record here; the uniform +16 happens vectorized below.
                append_start(offset)
                offset = nxt
            else:
                if self._final and blen - offset > 0:
                    self._corrupt("pcap record header truncated")
            self._offset = offset
            starts = array("q", found)
            count = len(starts)
            counters.records_read += count
            if count:
                # Next-record offsets; the sentinel for the final
                # record is its body end so the uniform subtraction
                # below yields each body length.
                incls = array("q", starts)
                del incls[0]
                incls.append(offset)
                _subtract_spans(incls, starts, header_size)
                _shift_spans(starts, header_size)
            return starts, incls
        header_size = self._struct.size
        unpack_header = self._struct.unpack_from
        while True:
            if self._resyncing and not self._scan_resync():
                break
            available = len(self._buffer) - self._offset
            if available < header_size:
                if not self._final:
                    break
                if available > 0:
                    self._corrupt("pcap record header truncated")
                    counters.bytes_skipped += available
                    self._offset = len(self._buffer)
                break
            if not self._plausible(self._offset):
                self._corrupt("pcap record framing implausible")
                counters.resyncs += 1
                self._begin_resync()
                continue
            ts_sec, _ts_usec, incl_len, _orig_len = unpack_header(
                self._buffer, self._offset
            )
            if available < header_size + incl_len:
                if not self._final:
                    break  # body still being written; wait for bytes
                self._corrupt("pcap packet body truncated")
                counters.resyncs += 1
                self._begin_resync()
                continue
            start = self._offset + header_size
            self._offset = start + incl_len
            self._last_ts = ts_sec
            counters.records_read += 1
            starts.append(start)
            incls.append(incl_len)
        return starts, incls

    def drain_columns(self) -> PacketColumns:
        """Columnar counterpart of :meth:`drain`: decode every record
        complete so far into one :class:`PacketColumns` batch.

        Counter and recovery semantics are identical to the object
        path; the batch may be empty when no complete record is
        buffered.
        """
        starts, incls = self._collect_spans()
        verify = getattr(self._counters, "verify_checksums", False)
        kept: list[int] | None = [] if verify else None
        columns = decode_spans(
            self._buffer,
            starts,
            incls,
            endian=self._endian,
            ethernet=self._ethernet,
            tolerant=self._budget.tolerant,
            counters=self._counters,
            kept_spans=kept,
        )
        if kept is not None:
            self._verify_rows(columns, starts, incls, kept)
        return columns

    def _verify_rows(
        self, columns: PacketColumns, starts: array, incls: array,
        kept: list[int],
    ) -> None:
        """Verify the TCP checksum of every decoded row (``kept[row]``
        is its span) by the rule :meth:`drain` applies.  Records the
        decoder skipped have no row and are not counted."""
        buffer = self._buffer
        lead = 14 if self._ethernet else 0
        src_ips, dst_ips = columns.src_ip, columns.dst_ip
        for row, span in enumerate(kept):
            start = starts[span]
            if not _checksum_ok(
                buffer[start + lead : start + incls[span]],
                src_ips[row], dst_ips[row],
            ):
                self._counters.checksum_errors += 1


class PcapReader:
    """Iterate packet records out of a classic pcap file.

    Non-IPv4 frames and packets that fail to parse as TCP are skipped
    and counted in :attr:`skipped` — production traces always contain
    ARP and other noise, and the analyzer should not die on it.

    Framing damage is governed by ``errors``, an
    :class:`~repro.errors.ErrorBudget` (or its string spec).  Strict —
    the default — raises a typed :class:`PcapFormatError` at the first
    truncated or corrupt record, exactly the historical behavior.
    Tolerant budgets instead *recover*: a record with an implausible
    header is skipped and the reader scans forward for the next
    plausible record boundary (resync), a truncated tail is dropped,
    and malformed TCP option areas are parsed partially.  Every
    recovery is counted (:attr:`corrupt_records`, :attr:`resyncs`,
    :attr:`bytes_skipped`, :attr:`option_errors`) so dirty input is
    visible, never silent.

    Iteration is streaming: the file is read in
    :data:`READ_BUFFER_BYTES` slabs and decoded one record at a time,
    so traces never need to fit in memory.  :meth:`iter_chunks` groups
    the same stream into bounded lists for fan-out to workers.
    """

    def __init__(
        self,
        path: str | Path,
        errors: "ErrorBudget | str | None" = None,
        verify_checksums: bool = False,
    ):
        self._file: BinaryIO = open(path, "rb")
        try:
            raw = self._file.read(_GLOBAL_HEADER.size)
            self._endian, self.linktype = parse_global_header(raw)
            self.errors = ErrorBudget.parse(errors)
        except BaseException:
            # No reader comes back for the caller to close.
            self._file.close()
            raise
        #: Verify each decoded packet's TCP checksum.
        self.verify_checksums = verify_checksums
        self.skipped = 0
        self.records_read = 0
        #: Records lost to framing damage (skipped over or truncated).
        self.corrupt_records = 0
        #: Times the reader had to scan for the next record boundary.
        self.resyncs = 0
        #: Bytes discarded while resyncing or dropping a corrupt tail.
        self.bytes_skipped = 0
        #: Packets whose TCP option area was malformed and parsed
        #: partially (tolerant budgets only).
        self.option_errors = 0
        #: Packets whose TCP checksum failed verification.
        self.checksum_errors = 0

    def __iter__(self) -> Iterator[PacketRecord]:
        return self.iter_records()

    def iter_records(
        self, buffer_bytes: int = READ_BUFFER_BYTES
    ) -> Iterator[PacketRecord]:
        """Yield records one at a time, reading the file in
        ``buffer_bytes`` slabs (constant memory regardless of trace
        size)."""
        scanner = PcapScanner(
            self._endian, self.linktype, self.errors, counters=self
        )
        while True:
            slab = self._file.read(buffer_bytes)
            if not slab:
                break
            scanner.push(slab)
            yield from scanner.drain()
        scanner.finish()
        yield from scanner.drain()

    def iter_columns(
        self, buffer_bytes: int = COLUMN_BUFFER_BYTES
    ) -> Iterator[PacketColumns]:
        """Yield :class:`~repro.packet.columnar.PacketColumns` batches,
        one per ``buffer_bytes`` window — the columnar counterpart of
        :meth:`iter_records`, with identical skip/recovery counters.

        The capture is read one window at a time, and each window is
        released before its batch is yielded: resident memory is one
        window plus what the caller keeps, never the capture size, and
        a caller that stops early holds no capture byte.  A regular
        file's window is memory-mapped, decoded zero-copy and unmapped;
        an unmappable source (a pipe, a FIFO, ``/dev/stdin``) is read
        instead, the scanner carrying the partial-record tail.  Either
        way a window spans ``buffer_bytes`` from the first unconsumed
        byte, and a record larger than the window doubles it until the
        record fits."""
        scanner = PcapScanner(
            self._endian, self.linktype, self.errors, counters=self
        )
        source = self._file
        fd = source.fileno()
        info = os.fstat(fd)
        size = info.st_size if stat.S_ISREG(info.st_mode) else None
        # Capture bytes [pos, end) sit with the scanner; pos is the
        # first byte no parse decision has consumed yet.
        pos = end = source.tell() if size is not None else 0
        window = buffer_bytes
        region = None
        try:
            while True:
                if size is None:
                    data = source.read(pos + window - end)
                elif end < size:
                    base = end - end % mmap.ALLOCATIONGRANULARITY
                    region = mmap.mmap(
                        fd, min(pos + window, size) - base,
                        offset=base, access=mmap.ACCESS_READ,
                    )
                    data = memoryview(region)[end - base :]
                else:
                    data = b""
                if not data:
                    break
                end += len(data)
                scanner.push(data)
                del data  # the scanner's reference is the one to drop
                columns = scanner.drain_columns()
                held = scanner.pending_bytes
                pos = end - held
                # A tail as long as a window is the head of a record
                # larger than it: double the window past the tail.
                window = buffer_bytes
                while window <= held:
                    window *= 2
                if region is not None:
                    # The partial-record tail is re-mapped at the head
                    # of the next window; at EOF it is copied out for
                    # finish() to judge.
                    tail = b""
                    if end == size:
                        tail = region[pos - base : end - base]
                    scanner.drop_pending()
                    region.close()
                    region = None
                    scanner.push(tail)
                    end = pos + len(tail)
                if len(columns):
                    yield columns
            scanner.finish()
            columns = scanner.drain_columns()
            if len(columns):
                yield columns
        finally:
            if region is not None:
                scanner.drop_pending()
                try:
                    region.close()
                except BufferError:
                    # A decode error in flight still holds a view of
                    # the window; it is unmapped with that traceback.
                    pass

    def iter_chunks(
        self,
        chunk_packets: int = 4096,
        buffer_bytes: int = READ_BUFFER_BYTES,
    ) -> Iterator[list[PacketRecord]]:
        """Yield records grouped into lists of ``chunk_packets`` (the
        last may be shorter) — the unit of fan-out for streaming
        analysis."""
        if chunk_packets < 1:
            raise ValueError("chunk_packets must be >= 1")
        chunk: list[PacketRecord] = []
        for record in self.iter_records(buffer_bytes):
            chunk.append(record)
            if len(chunk) >= chunk_packets:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def fold_faults(self, faults) -> None:
        """Fold this reader's recovery counters into a
        :class:`repro.errors.FaultStats`."""
        faults.corrupt_records += self.corrupt_records
        faults.resyncs += self.resyncs
        faults.option_errors += self.option_errors
        faults.checksum_errors += self.checksum_errors

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_pcap(
    path: str | Path,
    records: Iterable[PacketRecord],
    linktype: int = LINKTYPE_RAW,
) -> int:
    """Write all ``records`` to ``path``; return the packet count."""
    with PcapWriter(path, linktype=linktype) as writer:
        return writer.write_all(records)


def read_pcap(
    path: str | Path, errors: "ErrorBudget | str | None" = None
) -> list[PacketRecord]:
    """Read every packet record from ``path``."""
    with PcapReader(path, errors=errors) as reader:
        return list(reader)
