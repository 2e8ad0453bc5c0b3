"""Zero-copy columnar batch decode of pcap slabs.

Record-level decode materializes one :class:`~repro.packet.packet.
PacketRecord` (plus a :class:`~repro.packet.options.TCPOptions`) per
packet *before* demux ever sees it, which caps single-core throughput;
analysis therefore ingests columns only.  This module parses a whole slab of
framed pcap records into :class:`PacketColumns` — parallel arrays of
timestamps, endpoints, seq/ack numbers, flags, windows and payload
lengths — so the demux, the first-pass stall screen and the analyzer
itself run over plain integers, and packet objects are built only for
a caller that asks for ``flow.packets``.

There is one decoder, :func:`decode_spans`, vectorized with
:mod:`numpy` (a declared dependency of the package, imported when this
module loads): field bytes are gathered straight out of the slab buffer
(zero copy) and assembled with array arithmetic.  numpy stays an
implementation detail — nothing in the public API exposes numpy types;
columns are stdlib :class:`array.array` objects holding plain Python
ints/floats.  The record-level decoder it must agree with is
:meth:`PacketRecord.decode <repro.packet.packet.PacketRecord.decode>`,
which the tests reach through ``PcapReader.iter_records``.

Validation mirrors :meth:`PacketRecord.decode
<repro.packet.packet.PacketRecord.decode>` *exactly* — the same
records are skipped, the same option areas raise in strict mode —
because the columnar path must be indistinguishable from the object
path in everything but speed.

TCP options are the one variable-length part of a packet.  The
overwhelmingly common case in server traces is a 12-byte timestamp
option area (``NOP NOP TS`` or ``TS`` + padding); those are decoded
with a branch-free pattern match into ``ts_val``/``ts_ecr`` columns.
Anything else — SYN options, SACK blocks, malformed areas — falls
back to the real :meth:`TCPOptions.decode
<repro.packet.options.TCPOptions.decode>` and the decoded object is
kept in a side table, so materialization reproduces the object path's
options byte for byte (including ``truncated_options`` accounting and
strict-mode :class:`~repro.packet.options.OptionDecodeError`).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator

import numpy as np

from .options import TCPOptions
from .packet import PacketRecord

#: Typecode holding an unsigned 32-bit value exactly.
_U32 = "I" if array("I").itemsize == 4 else "L"
_U32_ITEMSIZE = array(_U32).itemsize

#: ``optbits`` flags.
OPT_TS = 0x01   #: pattern-matched timestamp option (ts_val/ts_ecr valid)
OPT_ODD = 0x02  #: full decode kept in :attr:`PacketColumns.odd_options`


def option_columns(opts: TCPOptions) -> tuple[int, int, int]:
    """``(ts_val, ts_ecr, optbits)`` for a record's options: a lone
    timestamp option fills the timestamp columns (:data:`OPT_TS`), any
    other option makes the row odd (:data:`OPT_ODD`: the object is kept
    beside the columns)."""
    if (
        opts.mss is None
        and opts.wscale is None
        and not opts.sack_permitted
        and not opts.sack_blocks
        and not opts.truncated_options
    ):
        if opts.ts_val is None:
            return 0, 0, 0
        return (
            opts.ts_val & 0xFFFFFFFF, (opts.ts_ecr or 0) & 0xFFFFFFFF, OPT_TS
        )
    return 0, 0, OPT_ODD


class PacketColumns:
    """One batch of decoded packets as parallel arrays.

    Column ``i`` across every array describes packet ``i`` of the
    batch, in capture order.  All values are plain Python ints/floats
    (``seq``/``ack`` are raw uint32 — callers use
    :mod:`repro.packet.seqnum` for wraparound-correct comparisons).

    ``optbits[i]`` says how packet ``i``'s TCP options were handled:
    :data:`OPT_TS` means the timestamp columns are valid, or
    :data:`OPT_ODD` means the fully-decoded
    :class:`~repro.packet.options.TCPOptions` sits in
    :attr:`odd_options`; ``0`` means the option area was empty.

    Batches built from already-materialized records (see
    :meth:`from_records`) keep the original objects in
    :attr:`source_records`, so :meth:`record` returns them unchanged.
    """

    __slots__ = (
        "timestamps", "src_ip", "dst_ip", "src_port", "dst_port",
        "seq", "ack", "flags", "window", "payload_len",
        "ts_val", "ts_ecr", "optbits", "odd_options", "source_records",
    )

    def __init__(self) -> None:
        self.timestamps = array("d")
        self.src_ip = array(_U32)
        self.dst_ip = array(_U32)
        self.src_port = array("H")
        self.dst_port = array("H")
        self.seq = array(_U32)
        self.ack = array(_U32)
        self.flags = array("B")
        self.window = array("H")
        self.payload_len = array(_U32)
        self.ts_val = array(_U32)
        self.ts_ecr = array(_U32)
        self.optbits = array("B")
        self.odd_options: dict[int, TCPOptions] = {}
        self.source_records: list[PacketRecord] | None = None

    def __len__(self) -> int:
        return len(self.timestamps)

    # -- construction --------------------------------------------------
    @classmethod
    def from_records(cls, records: list[PacketRecord]) -> "PacketColumns":
        """Wrap materialized records into columns (for callers that
        enter the pipeline with objects, e.g. ``analyze_packets``).

        The originals are kept, so materializing a flow back out of
        these columns is free and exact.
        """
        cols = cls()
        append = cols._append_record
        for record in records:
            append(record)
        cols.source_records = list(records)
        return cols

    def _append_record(self, record: PacketRecord) -> None:
        index = len(self.timestamps)
        self.timestamps.append(record.timestamp)
        self.src_ip.append(record.src_ip)
        self.dst_ip.append(record.dst_ip)
        self.src_port.append(record.src_port)
        self.dst_port.append(record.dst_port)
        self.seq.append(record.seq)
        self.ack.append(record.ack)
        self.flags.append(record.flags & 0xFF)
        self.window.append(record.window)
        self.payload_len.append(record.payload_len)
        opts = record.options
        ts_val, ts_ecr, bits = option_columns(opts)
        self.ts_val.append(ts_val)
        self.ts_ecr.append(ts_ecr)
        self.optbits.append(bits)
        if bits & OPT_ODD:
            self.odd_options[index] = opts

    # -- materialization ----------------------------------------------
    def options_for(self, index: int) -> TCPOptions:
        """The options object the object path would have produced."""
        bits = self.optbits[index]
        if bits & OPT_ODD:
            return self.odd_options[index]
        if bits & OPT_TS:
            return TCPOptions(
                ts_val=self.ts_val[index], ts_ecr=self.ts_ecr[index]
            )
        return TCPOptions()

    def record(self, index: int) -> PacketRecord:
        """Materialize packet ``index`` as a full object record."""
        source = self.source_records
        if source is not None:
            return source[index]
        return PacketRecord(
            timestamp=self.timestamps[index],
            src_ip=self.src_ip[index],
            dst_ip=self.dst_ip[index],
            src_port=self.src_port[index],
            dst_port=self.dst_port[index],
            seq=self.seq[index],
            ack=self.ack[index],
            flags=self.flags[index],
            window=self.window[index],
            payload_len=self.payload_len[index],
            options=self.options_for(index),
        )

    def records(self) -> Iterator[PacketRecord]:
        """Materialize every packet (mostly for tests/debugging)."""
        for index in range(len(self)):
            yield self.record(index)

    # -- cluster fan-out ----------------------------------------------
    _COLUMN_NAMES = (
        "timestamps", "src_ip", "dst_ip", "src_port", "dst_port",
        "seq", "ack", "flags", "window", "payload_len",
        "ts_val", "ts_ecr", "optbits",
    )

    def shard_ids(self, n_shards: int) -> array:
        """Per-packet shard assignment under ``n_shards``-way sharding.

        Row ``i`` gets :func:`repro.packet.flow.flow_shard` of packet
        ``i``'s endpoints — the same explicit SplitMix64-XOR mix
        :meth:`FlowKey.shard_of <repro.packet.flow.FlowKey.shard_of>`
        computes, vectorized over the whole slab.  Both directions of a connection always map to the
        same shard, so a flow never straddles two cluster workers.
        """
        u64 = np.uint64
        src = (
            np.frombuffer(self.src_ip, dtype=np.uint32).astype(u64)
            << u64(16)
        ) | np.frombuffer(self.src_port, dtype=np.uint16).astype(u64)
        dst = (
            np.frombuffer(self.dst_ip, dtype=np.uint32).astype(u64)
            << u64(16)
        ) | np.frombuffer(self.dst_port, dtype=np.uint16).astype(u64)
        with np.errstate(over="ignore"):
            mixed = None
            for endpoint in (src, dst):
                x = endpoint
                x = (x ^ (x >> u64(30))) * u64(0xBF58476D1CE4E5B9)
                x = (x ^ (x >> u64(27))) * u64(0x94D049BB133111EB)
                x = x ^ (x >> u64(31))
                mixed = x if mixed is None else mixed ^ x
        ids = (mixed % u64(n_shards)).astype(np.uint16)
        out = array("H")
        out.frombytes(ids.tobytes())
        return out

    def select(self, indices) -> "PacketColumns":
        """A new batch holding rows ``indices`` (ascending), in order."""
        out = PacketColumns()
        for name in self._COLUMN_NAMES:
            column = getattr(self, name)
            getattr(out, name).extend(column[i] for i in indices)
        # Decide per row, never on the mapping's truthiness: a lazy
        # mapping holding only undecoded SACK rows is an empty dict.
        odd = self.odd_options
        optbits = self.optbits
        out.odd_options = {
            new_index: odd[old_index]
            for new_index, old_index in enumerate(indices)
            if optbits[old_index] & OPT_ODD
        }
        source = self.source_records
        if source is not None:
            out.source_records = [source[i] for i in indices]
        return out

    def select_shard(self, shard: int, n_shards: int) -> "PacketColumns":
        """Rows of this slab owned by cluster shard ``shard``.

        This is the fan-out primitive of :mod:`repro.cluster`: each
        worker decodes the capture slab-by-slab and keeps only its own
        rows, so flow state, analysis, and result shipping all scale
        with ``1/n_shards`` of the trace.
        """
        if n_shards <= 1:
            return self
        ids = self.shard_ids(n_shards)
        mask = np.frombuffer(ids, dtype=np.uint16) == shard
        indices = np.nonzero(mask)[0].tolist()
        if len(indices) == len(ids):
            return self
        return self.select(indices)


def decode_spans(
    buffer: bytes,
    starts: array,
    incls: array,
    endian: str,
    ethernet: bool,
    tolerant: bool,
    counters,
    kept_spans: list[int] | None = None,
) -> PacketColumns:
    """Decode framed record spans out of ``buffer`` into columns.

    ``starts``/``incls`` are body offsets and lengths produced by the
    pcap framing layer; each record's ``(ts_sec, ts_usec)`` pair sits
    in the 16-byte header preceding its body (``endian`` byte order).
    ``counters`` carries the same fault surface the object reader
    updates (``skipped``, ``option_errors``).  ``kept_spans``, when given,
    receives the span index behind each row of the batch, in row order
    (skipped records leave no row and no entry).
    """
    buf = np.frombuffer(buffer, dtype=np.uint8)
    limit = len(buf) - 1
    count = len(starts)
    off = np.frombuffer(starts, dtype=np.int64)
    avail = np.frombuffer(incls, dtype=np.int64)
    i64 = np.int64
    # Gather indices fit int32 for any slab under 2 GiB — half the
    # index-matrix memory traffic of int64.
    idx_dtype = np.int32 if len(buf) < (1 << 31) else np.int64

    def take(base, width):
        """One ``(width, rows)`` byte-matrix gather: row ``k`` holds
        byte ``base + k`` of every record, contiguous for cheap field
        math.  The matrix stays uint8 — callers cast the few rows they
        do arithmetic on (:func:`be32`/:func:`u16`) instead of paying
        an 8x widening copy of the whole matrix.  Bases are clamped so
        the whole window stays inside the buffer — a length-``rows``
        pass, an order of magnitude cheaper than clipping the full
        index matrix.  A clamp shifts a row's window, but callers keep
        windows narrow enough that no *valid* record's window can
        overrun (spans guarantee bodies lie inside the buffer); every
        consumer of a possibly-shifted row is fenced by the validity
        mask or by length predicates (``opt_len``) that come from
        ``doff``, not from these bytes."""
        safe = np.minimum(base, len(buf) - width).astype(idx_dtype)
        np.maximum(safe, 0, out=safe)
        idx = np.arange(width, dtype=idx_dtype)[:, None] + safe[None, :]
        return buf[idx]

    def take_exact(base, width):
        """Element-clipped gather for windows that may legitimately
        overrun their record (the SACK area): in-range bytes must stay
        at their true columns, so clip per element, not per base."""
        idx = np.arange(width, dtype=np.int64)[:, None] + base[None, :]
        return buf[np.minimum(idx, limit)]

    u32 = np.uint32

    def be32(matrix, row):
        out = matrix[row].astype(u32)
        out <<= 8
        out |= matrix[row + 1]
        out <<= 8
        out |= matrix[row + 2]
        out <<= 8
        out |= matrix[row + 3]
        return out

    def u16(matrix, row):
        out = matrix[row].astype(np.uint16)
        out <<= 8
        out |= matrix[row + 1]
        return out

    # Record-header timestamps, in the file's byte order (the body
    # offset in ``starts`` sits 16 bytes past its record header).
    def le32(matrix, row):
        out = matrix[row + 3].astype(u32)
        out <<= 8
        out |= matrix[row + 2]
        out <<= 8
        out |= matrix[row + 1]
        out <<= 8
        out |= matrix[row]
        return out

    # One sparse gather covers every header byte the decode consults:
    # the record timestamp, [the ethertype,] the needed IPv4 fields,
    # and — speculatively, valid whenever no record carries IP
    # options, i.e. always on real traffic — the fixed TCP header.
    # Gathering a hand-picked row list instead of a dense window
    # skips the 20 bytes nothing reads (``incl_len``/``orig_len``,
    # IP id/frag/ttl/checksum), which is most of the gather cost.
    # Bases are clamped per record (see :func:`take`); the window's
    # last byte sits 36 bytes into the body, inside any valid record
    # (minimum body: a 40-byte IP+TCP header pair), so no valid row
    # ever clamps.
    lead = (16 + 14) if ethernet else 16
    picks = [0, 1, 2, 3, 4, 5, 6, 7]  # record-header timestamp
    if ethernet:
        picks += [28, 29]  # ethertype
    picks += [lead, lead + 2, lead + 3, lead + 9]  # ver_ihl, length, proto
    picks += list(range(lead + 12, lead + 20))  # src, dst
    picks += list(range(lead + 20, lead + 36))  # TCP header (no IP options)
    width = lead + 36
    safe = np.minimum(off - 16, len(buf) - width).astype(idx_dtype)
    np.maximum(safe, 0, out=safe)
    rows = np.array(picks, dtype=idx_dtype)
    m = buf[rows[:, None] + safe[None, :]]
    # Row indices within the sparse matrix (groups stay consecutive
    # so the multi-byte helpers work unchanged).
    r_eth = 8
    r_ip = 8 + (2 if ethernet else 0)  # ver_ihl, len_hi, len_lo, proto
    r_addr = r_ip + 4                  # src_ip, dst_ip
    r_tcp = r_addr + 8

    if endian == "<":
        ts_sec = le32(m, 0)
        ts_usec = le32(m, 4)
    else:
        ts_sec = be32(m, 0)
        ts_usec = be32(m, 4)
    ts = ts_sec.astype(np.float64) + ts_usec.astype(np.float64) / 1_000_000

    ok = np.ones(count, dtype=bool)
    if ethernet:
        ok &= (avail >= 14) & (m[r_eth] == 0x08) & (m[r_eth + 1] == 0x00)
        off = off + 14
        avail = avail - 14
    ok &= avail >= 20

    # IPv4 fields (uint8 — comparisons and the 4-bit fields stay in
    # range without widening).
    ver_ihl = m[r_ip]
    ihl = (ver_ihl & 0x0F).astype(i64) * 4
    ok &= (ver_ihl >> 4) == 4
    ok &= (ihl >= 20) & (ihl <= avail)
    ok &= m[r_ip + 3] == 6  # TCP only
    total_length = u16(m, r_ip + 1)
    end_rel = np.where(
        total_length > 0,
        np.minimum(avail, np.maximum(total_length, ihl)),
        avail,
    )
    src_ip = be32(m, r_addr)
    dst_ip = be32(m, r_addr + 4)

    # TCP fixed header (16 bytes is enough: the checksum and
    # urgent-pointer rows are never consulted).  When every valid
    # record has a 20-byte IP header the speculative rows of the
    # sparse gather are the real thing; IP options (never seen on
    # sane traffic) fall back to a gather at the per-record offsets.
    tcp_off = off + ihl
    tcp_avail = end_rel - ihl
    ok &= tcp_avail >= 20
    if bool(np.all((ihl == 20) | ~ok)):
        tcp = m[r_tcp:]
    else:
        tcp = take(tcp_off, 16)
    doff = (tcp[12] >> 4).astype(i64) * 4
    ok &= (doff >= 20) & (doff <= tcp_avail)

    # Option-area pattern match, full width: the ubiquitous 12-byte
    # timestamp area, ``NOP NOP TS`` or ``TS`` + padding; anything
    # else goes to ``TCPOptions.decode`` below.  Garbage rows — no options, or a window that
    # overran its record and clamp-shifted — are fenced out by
    # ``has_opts`` and the length predicates: every pattern requires
    # ``opt_len >= 12``, and such a record's body (and therefore this
    # window) provably lies inside the buffer.
    opt_len = doff - 20
    opt_off = tcp_off + 20
    opts = take(opt_off, 12)
    has_opts = ok & (opt_len > 0)
    b0, b1 = opts[0], opts[1]
    b10, b11 = opts[10], opts[11]
    is12 = has_opts & (opt_len == 12)
    pat_nop = (
        is12 & (b0 == 1) & (b1 == 1)
        & (opts[2] == 8) & (opts[3] == 10)
    )
    pat_raw = (
        is12 & (b0 == 8) & (b1 == 10)
        & ((b10 == 0) | ((b10 == 1) & (b11 <= 1)))
    )
    if pat_raw.any():
        has_ts = pat_nop | pat_raw
        ts_val = np.where(pat_nop, be32(opts, 4), be32(opts, 2))
        ts_ecr = np.where(pat_nop, be32(opts, 8), be32(opts, 6))
    else:  # NOP-NOP-TS is the layout every sane stack emits
        has_ts = pat_nop
        ts_val = be32(opts, 4)
        ts_ecr = be32(opts, 8)
    ts_val = ts_val * has_ts
    ts_ecr = ts_ecr * has_ts
    # ``TS`` followed by one SACK option (1-4 blocks) — the layout
    # the native encoder emits on every SACK-carrying ACK.  The
    # sizes work out with no padding: 10 + 2 + 8k for k blocks,
    # always a multiple of 4, and the SACK length byte pins the
    # block count.
    pat_sack = (
        has_opts
        & ((opt_len >= 20) & (opt_len <= 44) & ((opt_len & 7) == 4))
        & (b0 == 8) & (b1 == 10) & (b10 == 5) & (b11 == opt_len - 10)
    )
    odd = has_opts & ~has_ts

    kept = int(np.count_nonzero(ok))
    counters.skipped += count - kept

    cols = PacketColumns()
    if kept == count:
        # Nothing dropped (the common case on real traces): every
        # computed vector is already the output column.
        keep = slice(None)
    else:
        keep = np.nonzero(ok)[0]
    if kept_spans is not None:
        kept_spans.extend(range(count) if kept == count else keep.tolist())
    _fill(cols.timestamps, ts[keep])
    _fill(cols.src_ip, src_ip[keep])
    _fill(cols.dst_ip, dst_ip[keep])
    _fill(cols.src_port, u16(tcp, 0)[keep])
    _fill(cols.dst_port, u16(tcp, 2)[keep])
    _fill(cols.seq, be32(tcp, 4)[keep])
    _fill(cols.ack, be32(tcp, 8)[keep])
    _fill(cols.flags, tcp[13][keep])
    _fill(cols.window, u16(tcp, 14)[keep])
    _fill(cols.payload_len, (tcp_avail - doff)[keep])
    _fill(cols.ts_val, ts_val[keep])
    _fill(cols.ts_ecr, ts_ecr[keep])
    optbits = np.zeros(count, dtype=np.uint8)
    optbits[has_ts] = OPT_TS
    optbits[odd] = OPT_ODD
    _fill(cols.optbits, optbits[keep])

    if odd.any():
        # Row index within the compacted batch for each odd packet.
        position = np.cumsum(ok) - 1
        sack_rows = np.nonzero(pat_sack)[0]
        if len(sack_rows):
            # TS+SACK areas are the bulk of odd packets on a stally
            # trace; copy their raw bytes out of the slab (tiny — at
            # most 44 per row) and decode each one only if somebody
            # actually asks for it.  The pattern guarantees the area
            # is well-formed, so deferral can't hide an
            # ``option_errors`` count the object path would have made.
            raw = np.ascontiguousarray(take_exact(opt_off[sack_rows], 44).T)
            cols.odd_options = _LazySackOptions(
                dict(zip(position[sack_rows].tolist(), range(len(sack_rows)))),
                raw,
                opt_len[sack_rows].tolist(),
            )
        odd_options = cols.odd_options
        decode_rows = np.nonzero(odd & ~pat_sack)[0]
        option_errors = 0
        decode = TCPOptions.decode
        for start, length, out_row in zip(
            opt_off[decode_rows].tolist(),
            opt_len[decode_rows].tolist(),
            position[decode_rows].tolist(),
        ):
            options = decode(
                buffer[start : start + length], lenient=tolerant
            )
            if options.truncated_options:
                option_errors += 1
            odd_options[out_row] = options
        counters.option_errors += option_errors
    return cols


class _LazySackOptions(dict):
    """``odd_options`` mapping that decodes TS+SACK rows on demand.

    Eagerly-decoded oddballs (SYN options, damage) live in the dict
    itself; pattern-matched SACK rows keep only their raw option
    bytes until first access.  The pattern pins the layout — TS
    kind/len at bytes 0-1, ``ts_val`` at 2, ``ts_ecr`` at 6, SACK
    kind/len at 10-11, block edges from 12, ``(opt_len - 12) / 8``
    blocks — so the first access reads every row's timestamps and edges
    as two big-endian columns, and a row's object is built from them:
    equal field for field to what :meth:`TCPOptions.decode
    <repro.packet.options.TCPOptions.decode>`, the oracle the object
    path runs, returns for the same bytes.  Flows that never leave the
    fast path never pay for it.
    """

    __slots__ = ("_at", "_raw", "_lengths", "_columns")

    def __init__(self, at, raw, lengths):
        super().__init__()
        self._at = at          #: batch row -> row of ``_raw``
        self._raw = raw        #: (rows, 44) uint8 option-area bytes
        self._lengths = lengths
        self._columns = None   #: per-row (timestamps, edges) lists

    def __missing__(self, key):
        at = self._at.get(key)
        if at is None:
            raise KeyError(key)
        if self._columns is None:
            # A column slice is not contiguous: copy before the view.
            self._columns = (
                self._raw[:, 2:10].copy().view(">u4").tolist(),
                self._raw[:, 12:44].copy().view(">u4").tolist(),
            )
        timestamps, edges = self._columns
        ts_val, ts_ecr = timestamps[at]
        last = (self._lengths[at] - 12) >> 2  # two edges per block
        row = edges[at]
        options = TCPOptions(
            sack_blocks=list(zip(row[0:last:2], row[1:last:2])),
            ts_val=ts_val,
            ts_ecr=ts_ecr,
        )
        self[key] = options
        return options

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key):
        return dict.__contains__(self, key) or key in self._at


def _fill(column: array, values) -> None:
    """Move a numpy vector into a stdlib array without per-item boxing."""
    typecode = column.typecode
    if typecode == "d":
        dtype = np.float64
    elif typecode == "B":
        dtype = np.uint8
    elif typecode == "H":
        dtype = np.uint16
    else:  # the u32 column type ('I' or platform fallback 'L')
        dtype = np.uint32 if _U32_ITEMSIZE == 4 else np.uint64
    # frombytes accepts any byte-shaped buffer, so hand it the numpy
    # memory directly rather than an intermediate ``bytes`` copy.
    column.frombytes(np.ascontiguousarray(values, dtype=dtype).data.cast("B"))
