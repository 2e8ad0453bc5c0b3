"""Columnar flow demux and the one-flow ingest.

This is the analysis half of the zero-copy columnar path
(:mod:`repro.packet.columnar` is the decode half).  Batches of decoded
columns flow through :class:`ColumnarStreamDemuxer`, which mirrors
:class:`repro.packet.flow.StreamDemuxer` decision for decision —
server identification, eviction order, :class:`StreamStats`
accounting — but keys flows by packed integers, buffers per-flow
*columns* instead of per-packet objects, and works a slab at a time:
rows are grouped by flow with one numpy sort and each flow's columns
grow by one slice, so only SYN/FIN/RST and odd-option rows cost a
Python step each (DESIGN.md 5.2).  Completed flows come out as
:class:`LazyFlowTrace` objects: real :class:`FlowTrace`\\ s whose
packet list materializes only if someone actually needs the objects,
and which :class:`~repro.core.flow_analyzer.FlowAnalyzer` replays on
their columns; a flow pickles as its columns, so worker processes and
cluster shards replay the same way.  A record list that is already one
connection — what the simulator hands over per flow — skips the
batching and the demux: :func:`one_flow` makes it the object
:class:`FlowTrace` of its records.  The object demux is the reference
the parity tests hold this module to
(:func:`repro.testing.reference_analyze`).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from copy import copy
from operator import attrgetter

import numpy as np

from ..config import AnalysisConfig
from ..packet.columnar import OPT_ODD, OPT_TS, PacketColumns
from ..packet.flow import (
    Direction,
    FlowKey,
    FlowTrace,
    PacketRow,
    ServerPredicate,
    StreamStats,
)
from ..packet.headers import FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN
from ..packet.options import TCPOptions
from ..packet.packet import PacketRecord
from .classifier import classify_flow
from .flow_analyzer import FlowAnalysis, FlowAnalyzer

#: The flag bits whose rows the per-group loop visits: a SYN names the
#: server; a FIN or RST starts a close linger, so only with one.
_SERVER_FLAGS = FLAG_SYN
_CLOSE_FLAGS = FLAG_SYN | FLAG_FIN | FLAG_RST

# :func:`_group_sorted` hands :meth:`ColumnarStreamDemuxer.feed_columns`
# this tuple:
#
# ``slab``     the ten :attr:`_FlowStore.COLUMNS`, rows in group order;
# ``records``  the source records in that order, or ``None``;
# ``rows``     the slab row at each grouped position (capture order
#              inside a group);
# ``starts``   each group's first position; ``lo``/``hi`` its packed
#              endpoints;
# ``flagged``  the rows with a bit of ``flags`` set, group by group,
#              split by ``flagged_at`` (group ``g`` owns
#              ``flagged[flagged_at[g]:flagged_at[g + 1]]``);
# ``odd``      the grouped *positions* of odd-option rows, split by
#              ``odd_at`` the same way;
# ``visit``    the groups in order of first row.
#
# A connection's rows on either side of a sweep cut are separate groups.


def _marked(mask, starts: list[int]) -> tuple[list[int], list[int]]:
    """Positions where ``mask`` is set, and the offsets that split them
    among the groups starting at ``starts`` (group ``g`` owns
    ``positions[offsets[g]:offsets[g + 1]]``)."""
    positions = mask.nonzero()[0]
    offsets = (
        np.searchsorted(positions, starts).tolist()
        if len(starts) > 1 else [0]
    )
    offsets.append(len(positions))
    return positions.tolist(), offsets


def _owned(typecode: str, values) -> array:
    """A copy of the contiguous numpy array ``values`` as an ``array``."""
    out = array(typecode)
    out.frombytes(memoryview(values).cast("B"))
    return out


def _group_sorted(
    cols: PacketColumns, cuts: list[int], flags: int
) -> tuple:
    """Group a slab by flow with one stable sort of its packed keys and
    one gather per column."""
    count = len(cols)
    src = np.asarray(cols.src_ip).astype(np.int64)
    src <<= 16
    src |= np.asarray(cols.src_port)
    dst = np.asarray(cols.dst_ip).astype(np.int64)
    dst <<= 16
    dst |= np.asarray(cols.dst_port)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    slab = [
        cols.timestamps, _owned("q", src), cols.seq, cols.ack, cols.flags,
        cols.window, cols.payload_len, cols.ts_val, cols.ts_ecr,
        cols.optbits,
    ]
    records = cols.source_records
    if (lo != lo[0]).any() or (hi != hi[0]).any():
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        change = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        if cuts:
            segment = np.searchsorted(cuts, order)
            change |= segment[1:] != segment[:-1]
        starts = change.nonzero()[0]
        starts += 1
        starts = [0, *starts.tolist()]
        lo, hi = lo[starts].tolist(), hi[starts].tolist()
        rows = order.tolist()
        slab = [
            _owned(column.typecode, np.asarray(column)[order])
            for column in slab
        ]
        if records is not None:
            gathered = np.empty(count, dtype=object)
            gathered[:] = records
            records = gathered[order].tolist()
    else:
        # One connection: the slab is its own group, nothing to sort
        # or gather.
        starts = [0, *(cut + 1 for cut in cuts if cut + 1 < count)]
        lo, hi = [int(lo[0])] * len(starts), [int(hi[0])] * len(starts)
        rows = range(count)
    flagged, flagged_at = _marked(
        np.asarray(slab[4]) & flags, starts
    )
    flagged = [rows[at] for at in flagged]
    odd, odd_at = _marked(np.asarray(slab[9]) & OPT_ODD, starts)
    # Groups in order of first row: ``_flows`` / ``_pending`` keep
    # insertion order and ``finish`` breaks ties with it.
    visit = sorted(
        range(len(starts)), key=[rows[at] for at in starts].__getitem__
    )
    return (
        slab, records, rows, starts, lo, hi,
        flagged, flagged_at, odd, odd_at, visit,
    )


def _endpoint(packed: int) -> tuple[int, int]:
    """Unpack a 48-bit ``(ip << 16) | port`` endpoint."""
    return packed >> 16, packed & 0xFFFF


class _FlowStore:
    """Per-flow packet buffer as compact parallel arrays.

    Rows are appended in capture order, a slab's worth of one
    connection at a time; ``src_pk`` keeps the packed
    source endpoint so direction is derivable once the server is
    known (which, for pending flows, is only at resolution time).
    When every appended row came from a batch that kept its source
    :class:`PacketRecord` objects, ``records`` preserves them so
    materialization returns the *original* objects.
    """

    #: The per-row columns, in the order a slab lists them.
    COLUMNS = (
        "times", "src_pk", "seq", "ack", "flags", "window",
        "payload", "ts_val", "ts_ecr", "optbits",
    )
    __slots__ = ("pk_a", "pk_b", "server_pk", *COLUMNS, "odd", "records")
    columns = property(attrgetter(*COLUMNS))

    def __init__(
        self, pk_a: int, pk_b: int, columns: list[array],
        records: list[PacketRecord] | None,
    ):
        """A flow whose first rows are ``columns`` (owned arrays, in
        :attr:`COLUMNS` order) and, if the batch kept them, their
        source ``records``."""
        self.pk_a = pk_a
        self.pk_b = pk_b
        self.server_pk: int | None = None
        (
            self.times, self.src_pk, self.seq, self.ack, self.flags,
            self.window, self.payload, self.ts_val, self.ts_ecr,
            self.optbits,
        ) = columns
        self.odd: dict[int, TCPOptions] = {}
        self.records = records

    def __len__(self) -> int:
        return len(self.times)

    def extend(
        self, slab: list[array], start: int, end: int,
        records: list[PacketRecord] | None,
    ) -> None:
        """Append rows ``start..end`` of a slab's columns.  Slicing an
        ``array`` copies, so the store owns its rows and keeps no slab
        alive."""
        for column, source in zip(self.columns, slab):
            column.extend(source[start:end])
        if records is None:
            self.records = None
        elif self.records is not None:
            self.records.extend(records[start:end])

    def options_at(self, index: int) -> TCPOptions:
        bits = self.optbits[index]
        if bits & OPT_ODD:
            return self.odd[index]
        if bits & OPT_TS:
            return TCPOptions(
                ts_val=self.ts_val[index], ts_ecr=self.ts_ecr[index]
            )
        return TCPOptions()

    def rows(self, start: int = 0) -> Iterator[PacketRow]:
        """Rows ``start..`` as :data:`~repro.packet.flow.PacketRow`\\ s,
        read off the columns.  Only odd-option rows (SYN options, SACK
        blocks) carry an options object; their ``ts_ecr`` comes from it,
        the column holding 0 for them."""
        server = self.server_pk
        cut = slice(start, None)
        ts_ecr = self.ts_ecr[cut].tolist()
        options: list[TCPOptions | None] = [None] * len(ts_ecr)
        for index, odd in self.odd.items():
            if index >= start:
                options[index - start] = odd
                ts_ecr[index - start] = odd.ts_ecr or 0
        return zip(
            self.times[cut].tolist(),
            [src != server for src in self.src_pk[cut]],
            self.seq[cut].tolist(), self.ack[cut].tolist(),
            self.flags[cut].tolist(), self.window[cut].tolist(),
            self.payload[cut].tolist(), ts_ecr, options,
        )

    def resolve_server_by_volume(self) -> None:
        """Mirror of :meth:`FlowDemuxer._resolve_pending`: the heavier
        sender, ties broken by first appearance."""
        by_endpoint: dict[int, int] = {}
        payloads = self.payload
        for index, src in enumerate(self.src_pk):
            by_endpoint[src] = by_endpoint.get(src, 0) + payloads[index]
        self.server_pk = max(by_endpoint, key=by_endpoint.get)

    def build_packets(self) -> list[tuple[PacketRecord, Direction]]:
        """Materialize the rows exactly as the object demux would
        have buffered them."""
        server = self.server_pk
        records = self.records
        if records is not None and len(records) == len(self.times):
            return [
                (
                    record,
                    Direction.IN if src != server else Direction.OUT,
                )
                for record, src in zip(records, self.src_pk)
            ]
        out: list[tuple[PacketRecord, Direction]] = []
        for index, src in enumerate(self.src_pk):
            dst = self.pk_b if src == self.pk_a else self.pk_a
            src_ip, src_port = _endpoint(src)
            dst_ip, dst_port = _endpoint(dst)
            record = PacketRecord(
                timestamp=self.times[index],
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=src_port,
                dst_port=dst_port,
                seq=self.seq[index],
                ack=self.ack[index],
                flags=self.flags[index],
                window=self.window[index],
                payload_len=self.payload[index],
                options=self.options_at(index),
            )
            out.append(
                (record, Direction.IN if src != server else Direction.OUT)
            )
        return out


class _LazyPackets(list):
    """A packet list that fills itself from a :class:`_FlowStore` on
    first *element* access.

    ``len()`` is answered from the store, so report aggregation and
    :class:`~repro.errors.SkippedFlow` accounting never force
    materialization.
    """

    __slots__ = ("_store",)

    def __init__(self, store: _FlowStore):
        super().__init__()
        self._store: _FlowStore | None = store

    def _materialize(self) -> None:
        store = self._store
        if store is not None:
            self._store = None
            super().extend(store.build_packets())

    def __len__(self) -> int:
        store = self._store
        if store is not None:
            return len(store)
        return super().__len__()

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        self._materialize()
        return super().__iter__()

    def __getitem__(self, index):
        self._materialize()
        return super().__getitem__(index)

    def __eq__(self, other):
        self._materialize()
        if isinstance(other, _LazyPackets):
            other._materialize()
        return list.__eq__(self, other)

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None


class LazyFlowTrace(FlowTrace):
    """A :class:`FlowTrace` backed by columns.

    Behaves exactly like the object-demuxed trace — same key, same
    endpoints, same packets in the same order — but the packet objects
    exist only once something touches ``packets``.  Time properties
    are answered straight from the timestamp column.
    """

    def __init__(
        self,
        key: FlowKey,
        server: tuple[int, int],
        client: tuple[int, int],
        store: _FlowStore,
    ):
        super().__init__(
            key=key, server=server, client=client,
            packets=_LazyPackets(store),
        )
        self._store = store

    def __reduce__(self):
        """Pickle as columns, never as packet objects: a flow crosses
        a process boundary as arrays and is replayed on them there."""
        store = copy(self._store)
        store.records = None
        return LazyFlowTrace, (self.key, self.server, self.client, store)

    def rows(self, start: int = 0) -> Iterator[PacketRow]:
        return self._store.rows(start)

    @property
    def materialized(self) -> bool:
        return self.packets._store is None

    @property
    def first_time(self) -> float:
        times = self._store.times
        return times[0] if len(times) else 0.0

    @property
    def last_time(self) -> float:
        times = self._store.times
        return times[-1] if len(times) else 0.0

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time


def _trace(store: _FlowStore) -> LazyFlowTrace:
    """The flow of a store whose server is known."""
    key = FlowKey(
        store.pk_a >> 16, store.pk_a & 0xFFFF,
        store.pk_b >> 16, store.pk_b & 0xFFFF,
    )
    server = _endpoint(store.server_pk)
    other = store.pk_b if store.server_pk == store.pk_a else store.pk_a
    return LazyFlowTrace(key, server, _endpoint(other), store)


_ENDPOINTS = attrgetter("src_ip", "src_port", "dst_ip", "dst_port")


def one_flow(
    records: list[PacketRecord], server_side: ServerPredicate | None = None
) -> FlowTrace | None:
    """The flow of a list of records of one connection, exactly as the
    record-level batch demux would hand it over: a :class:`FlowTrace`
    of the records themselves.  ``None`` for anything else — not a
    list, empty, or holding something other than records of one
    connection.  The server is inferred by the demux's rules in its
    order: ``server_side`` on the first row, the first SYN row, then
    data volume."""
    if (
        not isinstance(records, list) or not records
        or set(map(type, records)) != {PacketRecord}
    ):
        return None
    first = records[0]
    a, b = (first.src_ip, first.src_port), (first.dst_ip, first.dst_port)
    syn = next((r for r in records if r.flags & FLAG_SYN), None)
    if server_side is not None:
        server = a if server_side(first) else b
    elif syn is not None:
        # SYN+ACK comes from the server, a bare SYN points at it.
        server = (
            (syn.src_ip, syn.src_port) if syn.flags & FLAG_ACK
            else (syn.dst_ip, syn.dst_port)
        )
    else:
        # The heavier sender, ties to the first row's.
        sent = sum(
            r.payload_len if (r.src_ip, r.src_port) == b else -r.payload_len
            for r in records
        )
        server = b if sent > 0 else a
    client = b if server == a else a
    # Each direction's endpoints to its tag: a second connection misses.
    tags = {
        (*client, *server): Direction.IN, (*server, *client): Direction.OUT
    }
    directions = list(map(tags.get, map(_ENDPOINTS, records)))
    if None in directions:
        return None
    return FlowTrace(
        FlowKey.from_packet(first), server, client,
        list(zip(records, directions)),
    )


class ColumnarStreamDemuxer:
    """Streaming flow demux over :class:`PacketColumns` batches.

    A decision-for-decision mirror of
    :class:`repro.packet.flow.StreamDemuxer`: the same server
    inference (predicate, then SYN+ACK source, then SYN destination,
    then data volume), the same FIN/RST + linger and idle-timeout
    eviction with the same sweep cadence and hand-off order, and the
    same :class:`StreamStats` accounting — against packed-integer keys
    and per-flow column buffers instead of object traces.  Integer
    keys pack ``(ip, port)`` endpoints major-to-minor, so comparisons
    order exactly like :class:`FlowKey` tuples.
    """

    _SWEEP_FRACTION = 0.25

    def __init__(
        self,
        server_side: ServerPredicate | None = None,
        *,
        idle_timeout: float | None = 60.0,
        close_linger: float | None = 5.0,
        stats: StreamStats | None = None,
    ):
        self._server_side = server_side
        self.idle_timeout = idle_timeout
        self.close_linger = close_linger
        self.stats = stats if stats is not None else StreamStats()
        self._flows: dict[int, _FlowStore] = {}
        self._pending: dict[int, _FlowStore] = {}
        self._ready: list[LazyFlowTrace] = []
        self._fins: dict[int, set[int]] = {}
        self._closed_at: dict[int, float] = {}
        self._last_seen: dict[int, float] = {}
        self._flags = _SERVER_FLAGS if close_linger is None else _CLOSE_FLAGS
        bounds = [b for b in (idle_timeout, close_linger) if b is not None]
        self._sweep_every = (
            max(min(bounds) * self._SWEEP_FRACTION, 1e-3) if bounds else None
        )
        self._next_sweep: float | None = None

    # -- feeding ------------------------------------------------------
    def feed_columns(self, cols: PacketColumns) -> None:
        """Demultiplex one batch of decoded columns.

        Rows are grouped by flow key with one stable sort and every
        flow's buffers grow by one slice of the grouped columns; only
        SYN rows, FIN/RST rows when a close linger is on, and
        odd-option rows are visited one at a time.  With eviction on
        the slab is cut after each row at which a sweep falls due, and
        a connection's rows on either side of a cut are separate
        groups, so eviction order and re-opened tuples come out as
        they would row by row.
        """
        count = len(cols)
        if not count:
            return
        cuts = self._sweep_rows(cols.timestamps)
        (
            slab, records, rows, starts, lo, hi,
            flagged, flagged_at, odd, odd_at, visit,
        ) = _group_sorted(cols, cuts, self._flags)
        ends = [*starts[1:], count]

        timestamps = cols.timestamps
        flag_col = cols.flags
        odd_options = cols.odd_options
        predicate = self._server_side
        flows = self._flows
        pending = self._pending
        stats = self.stats
        closed_at = self._closed_at
        identified: list[tuple[int, int, _FlowStore]] = []
        cut_at = 0
        done = 0

        for group in visit:
            start = starts[group]
            end = ends[group]
            first = rows[start]
            if cut_at < len(cuts) and first > cuts[cut_at]:
                # The previous group closed a segment: sweep at its
                # last row before this one's packets count.
                self._end_segment(cuts[cut_at] + 1 - done, identified)
                done = cuts[cut_at] + 1
                self._sweep(timestamps[cuts[cut_at]])
                cut_at += 1
            key = (lo[group] << 48) | hi[group]
            store = flows.get(key)
            waiting = store is None
            # The row that names the server, and whether it sent it.
            identifying: tuple[int, int] | None = None
            if waiting:
                store = pending.get(key)
                if predicate is not None:
                    identifying = first, predicate(cols.record(first))
            if store is None:
                store = _FlowStore(
                    lo[group], hi[group],
                    [column[start:end] for column in slab],
                    None if records is None else records[start:end],
                )
                base = -start
                stats.flows_started += 1
                if not flag_col[first] & FLAG_SYN:
                    stats.flows_reopened += 1
                stats.active_flows += 1
            else:
                base = len(store) - start
                store.extend(slab, start, end, records)
            for row in flagged[flagged_at[group]:flagged_at[group + 1]]:
                bits = flag_col[row]
                if bits & FLAG_SYN and waiting and identifying is None:
                    # SYN+ACK comes from the server, a bare SYN points
                    # at it.
                    identifying = row, bits & FLAG_ACK
                if bits & FLAG_RST:
                    closed_at.setdefault(key, timestamps[row])
                elif bits & FLAG_FIN:
                    fins = self._fins.setdefault(key, set())
                    fins.add((cols.src_ip[row] << 16) | cols.src_port[row])
                    if len(fins) >= 2:
                        closed_at.setdefault(key, timestamps[row])
            if identifying is not None:
                row, from_server = identifying
                server = (cols.src_ip[row] << 16) | cols.src_port[row]
                if not from_server:
                    server = lo[group] + hi[group] - server  # its peer
                store.server_pk = server
                identified.append((row, key, store))
                pending.pop(key, None)
            elif waiting:
                pending[key] = store

            for at in odd[odd_at[group]:odd_at[group + 1]]:
                # By row, never through the mapping's own iteration: a
                # lazy mapping does not list its undecoded SACK rows.
                store.odd[base + at] = odd_options[rows[at]]
            self._last_seen[key] = timestamps[rows[end - 1]]

        self._end_segment(count - done, identified)
        if cut_at < len(cuts):  # the slab's last row is itself due
            self._sweep(timestamps[cuts[cut_at]])

    def _sweep_rows(self, timestamps: array) -> list[int]:
        """The rows of a slab after which :meth:`_sweep` falls due
        (none with eviction off), advancing the sweep clock past it."""
        every = self._sweep_every
        if every is None:
            return []
        due = self._next_sweep
        if due is None:
            due = timestamps[0] + every
        # Timestamps may step backwards, but every row before the one
        # that reaches ``due`` is below it, so the running maximum
        # crosses ``due`` exactly there — and it is sorted.
        peak = np.maximum.accumulate(np.asarray(timestamps))
        cuts = []
        row = int(peak.searchsorted(due))
        while row < len(peak):
            cuts.append(row)
            due = timestamps[row] + every
            row = int(peak.searchsorted(due))
        self._next_sweep = due
        return cuts

    def _end_segment(
        self, packets: int, identified: list[tuple[int, int, _FlowStore]]
    ) -> None:
        """Book a run of rows no sweep interrupts.  Inside one the
        buffered-packet and open-flow counts only grow, so their peaks
        are the values at its end; flows whose server was identified
        in it join ``_flows`` in the order of the identifying rows,
        which :meth:`finish` relies on to break ``first_time`` ties."""
        stats = self.stats
        stats.packets += packets
        stats.buffered_packets += packets
        if stats.buffered_packets > stats.peak_buffered_packets:
            stats.peak_buffered_packets = stats.buffered_packets
        if stats.active_flows > stats.peak_active_flows:
            stats.peak_active_flows = stats.active_flows
        identified.sort()
        for _row, key, store in identified:
            self._flows[key] = store
        identified.clear()

    # -- eviction -----------------------------------------------------
    def _sweep(self, now: float) -> None:
        evict: list[tuple[float, int, bool]] = []
        for key, last in self._last_seen.items():
            closed = self._closed_at.get(key)
            if (
                self.close_linger is not None
                and closed is not None
                and now - closed >= self.close_linger
            ):
                evict.append((closed, key, True))
            elif (
                self.idle_timeout is not None
                and now - last >= self.idle_timeout
            ):
                evict.append((last, key, False))
        evict.sort(key=lambda item: (item[0], item[1]))
        for _when, key, was_closed in evict:
            self._evict(key, was_closed)

    def _evict(self, key: int, was_closed: bool) -> None:
        store = self._flows.pop(key, None)
        if store is None:
            store = self._pending.pop(key, None)
            if store is None:
                return
            store.resolve_server_by_volume()
        self._fins.pop(key, None)
        self._closed_at.pop(key, None)
        self._last_seen.pop(key, None)
        stats = self.stats
        stats.buffered_packets -= len(store)
        stats.active_flows -= 1
        if was_closed:
            stats.flows_closed += 1
        else:
            stats.flows_evicted_idle += 1
        self._ready.append(_trace(store))

    # -- hand-off -----------------------------------------------------
    def poll(self) -> list[LazyFlowTrace]:
        """Flows completed since the last call (possibly empty)."""
        ready, self._ready = self._ready, []
        return ready

    def finish(self) -> list[LazyFlowTrace]:
        """Flush every still-open flow in batch order (sorted by first
        packet time, ties by arrival)."""
        for key, store in self._pending.items():
            store.resolve_server_by_volume()
            self._flows[key] = store
        self._pending.clear()
        traces = [_trace(store) for store in self._flows.values()]
        traces.sort(key=lambda trace: trace.first_time)
        self._flows.clear()
        self._fins.clear()
        self._closed_at.clear()
        self._last_seen.clear()
        stats = self.stats
        for trace in traces:
            stats.buffered_packets -= len(trace._store)
            stats.active_flows -= 1
            stats.flows_finalized += 1
        return traces


def demux_columns_stream(
    batches: Iterable[PacketColumns],
    server_side: ServerPredicate | None = None,
    *,
    idle_timeout: float | None = 60.0,
    close_linger: float | None = 5.0,
    stats: StreamStats | None = None,
) -> Iterator[LazyFlowTrace]:
    """Incrementally demultiplex column batches, yielding each flow as
    it completes and flushing the rest at end of stream — the columnar
    counterpart of :func:`repro.packet.flow.demux_stream`."""
    demuxer = ColumnarStreamDemuxer(
        server_side,
        idle_timeout=idle_timeout,
        close_linger=close_linger,
        stats=stats,
    )
    for cols in batches:
        demuxer.feed_columns(cols)
        if demuxer._ready:
            yield from demuxer.poll()
    yield from demuxer.finish()


# -- the in-order branch alone ---------------------------------------


def fast_replay_flow(
    flow: FlowTrace, config: AnalysisConfig
) -> FlowAnalysis | None:
    """The classified analysis of a flow :class:`FlowAnalyzer` settles
    on its in-order branch, or ``None`` when the flow has to be
    promoted (or the replay failed): what ``Tapo.analyze_flow`` would
    return, computed only as far as the first promoting row."""
    analyzer = FlowAnalyzer(flow, config)
    try:
        if (
            analyzer.tracker is not None
            or analyzer._feed_in_order(iter(flow.rows())) is not None
        ):
            return None
        analysis = analyzer.finish() if analyzer._fed else analyzer.analysis
        classify_flow(analysis, None)
    except Exception:
        return None
    return analysis


def batch_records(
    packets: Iterable[PacketRecord] | Iterable[list[PacketRecord]],
    batch_size: int = 4096,
) -> Iterator[PacketColumns]:
    """Wrap an object-record stream into column batches.

    Accepts the same shapes as the object entry points: records,
    record chunks, or ready-made :class:`PacketColumns` batches
    (passed through unchanged).
    """
    batch: list[PacketRecord] = []
    for item in packets:
        if isinstance(item, PacketRecord):
            batch.append(item)
            if len(batch) >= batch_size:
                yield PacketColumns.from_records(batch)
                batch = []
        elif isinstance(item, PacketColumns):
            if batch:
                yield PacketColumns.from_records(batch)
                batch = []
            yield item
        else:
            for record in item:
                batch.append(record)
                if len(batch) >= batch_size:
                    yield PacketColumns.from_records(batch)
                    batch = []
    if batch:
        yield PacketColumns.from_records(batch)
