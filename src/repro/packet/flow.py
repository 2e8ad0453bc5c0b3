"""Flow identification and demultiplexing.

A *flow* is one TCP connection identified by its canonical 4-tuple.
The analyzer works from the server's point of view, so every flow is
oriented: the *server endpoint* is the sender whose stalls we classify,
and packets are tagged :data:`Direction.OUT` (server -> client) or
:data:`Direction.IN` (client -> server).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .packet import PacketRecord


class Direction(enum.Enum):
    """Packet direction relative to the server endpoint."""

    OUT = "out"  # server -> client
    IN = "in"  # client -> server


_M64 = 0xFFFFFFFFFFFFFFFF


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value.

    The columnar batch decoder vectorizes this exact sequence
    (:meth:`repro.packet.columnar.PacketColumns.shard_ids`), so the two
    implementations must stay in lockstep bit for bit.
    """
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


def flow_shard(
    src_ip: int, src_port: int, dst_ip: int, dst_port: int, n_shards: int
) -> int:
    """Deterministic shard of a flow, direction-invariant.

    Each endpoint packs into 48 bits (``ip << 16 | port``) and runs
    through :func:`_mix64`; the two hashes combine with XOR, which is
    commutative, so both directions of a connection land on the same
    shard without canonicalizing the endpoint order first.  The mix is
    explicit (not Python ``hash()``) so shard assignment is identical
    across processes, platforms, and interpreter versions — the
    cluster's checkpoint/resume and merge-parity guarantees depend on
    that.
    """
    a = _mix64((src_ip << 16) | src_port)
    b = _mix64((dst_ip << 16) | dst_port)
    return (a ^ b) % n_shards


@dataclass(frozen=True, order=True)
class FlowKey:
    """Canonical 4-tuple: the endpoints sorted so either direction maps
    to the same key."""

    ip_a: int
    port_a: int
    ip_b: int
    port_b: int

    @classmethod
    def from_packet(cls, pkt: PacketRecord) -> "FlowKey":
        a = (pkt.src_ip, pkt.src_port)
        b = (pkt.dst_ip, pkt.dst_port)
        if a > b:
            a, b = b, a
        return cls(a[0], a[1], b[0], b[1])

    def endpoints(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.ip_a, self.port_a), (self.ip_b, self.port_b)

    def shard_of(self, n_shards: int) -> int:
        """Which of ``n_shards`` cluster shards owns this flow."""
        return flow_shard(
            self.ip_a, self.port_a, self.ip_b, self.port_b, n_shards
        )


ServerPredicate = Callable[[PacketRecord], bool]

#: One packet as the primitive fields the analyzer core consumes:
#: ``(time, dir_in, seq, ack, flags, window, payload_len, ts_ecr,
#: options)``.  ``ts_ecr`` is 0 when the packet carries no timestamp;
#: ``options`` is the full :class:`~repro.packet.options.TCPOptions`,
#: and may be ``None`` when it holds nothing beyond the timestamp.
PacketRow = tuple


def server_by_ip(*server_ips: int) -> ServerPredicate:
    """Predicate: the server endpoint is any of the given IPs."""
    ips = frozenset(server_ips)

    def predicate(pkt: PacketRecord) -> bool:
        return pkt.src_ip in ips

    return predicate


def server_by_port(*server_ports: int) -> ServerPredicate:
    """Predicate: the server endpoint is any of the given ports
    (e.g. 80/443 for a front-end web server)."""
    ports = frozenset(server_ports)

    def predicate(pkt: PacketRecord) -> bool:
        return pkt.src_port in ports

    return predicate


@dataclass
class FlowTrace:
    """All packets of one connection, oriented toward the server.

    ``server`` / ``client`` are (ip, port) endpoints; ``packets`` is the
    time-ordered capture with a direction tag per packet.
    """

    key: FlowKey
    server: tuple[int, int]
    client: tuple[int, int]
    packets: list[tuple[PacketRecord, Direction]]

    def direction_of(self, pkt: PacketRecord) -> Direction:
        if (pkt.src_ip, pkt.src_port) == self.server:
            return Direction.OUT
        return Direction.IN

    def append(self, pkt: PacketRecord) -> None:
        self.packets.append((pkt, self.direction_of(pkt)))

    def rows(self, start: int = 0) -> Iterator[PacketRow]:
        """The packets from index ``start`` on as :data:`PacketRow`\\ s.

        What the analyzer and the classifier's lookahead read, so that
        a column-backed trace
        (:class:`~repro.core.columnar_pipeline.LazyFlowTrace`) can
        answer without building packet objects.
        """
        inbound = Direction.IN
        return iter([
            (
                pkt.timestamp, direction is inbound, pkt.seq, pkt.ack,
                pkt.flags, pkt.window, pkt.payload_len,
                pkt.options.ts_ecr or 0, pkt.options,
            )
            for pkt, direction in self.packets[start:]
        ])

    @property
    def first_time(self) -> float:
        return self.packets[0][0].timestamp if self.packets else 0.0

    @property
    def last_time(self) -> float:
        return self.packets[-1][0].timestamp if self.packets else 0.0

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time


class FlowDemuxer:
    """Group a packet stream into per-connection :class:`FlowTrace`\\ s.

    The ``server_side`` predicate decides, for each packet, whether its
    *source* is the server endpoint.  When no predicate is given the
    demuxer infers the server as the endpoint that sent the SYN+ACK
    (falling back to the destination of the first SYN, then to the
    endpoint sending the most data).
    """

    def __init__(self, server_side: ServerPredicate | None = None):
        self._server_side = server_side
        self._flows: dict[FlowKey, FlowTrace] = {}
        self._pending: dict[FlowKey, list[PacketRecord]] = defaultdict(list)

    def feed(self, pkt: PacketRecord) -> FlowKey:
        key = FlowKey.from_packet(pkt)
        flow = self._flows.get(key)
        if flow is not None:
            flow.append(pkt)
            return key
        server = self._identify_server(key, pkt)
        if server is None:
            self._pending[key].append(pkt)
            return key
        endpoints = key.endpoints()
        client = endpoints[1] if endpoints[0] == server else endpoints[0]
        flow = FlowTrace(key=key, server=server, client=client, packets=[])
        for earlier in self._pending.pop(key, []):
            flow.append(earlier)
        flow.append(pkt)
        self._flows[key] = flow
        return key

    def feed_all(self, packets: Iterable[PacketRecord]) -> None:
        for pkt in packets:
            self.feed(pkt)

    def _identify_server(
        self, key: FlowKey, pkt: PacketRecord
    ) -> tuple[int, int] | None:
        if self._server_side is not None:
            if self._server_side(pkt):
                return (pkt.src_ip, pkt.src_port)
            return (pkt.dst_ip, pkt.dst_port)
        # Inference: SYN+ACK source is the server; a bare SYN points at it.
        if pkt.syn and pkt.has_ack:
            return (pkt.src_ip, pkt.src_port)
        if pkt.syn:
            return (pkt.dst_ip, pkt.dst_port)
        return None

    def _resolve_pending(self, key: FlowKey) -> FlowTrace:
        """Force a still-ambiguous flow into a trace, inferring the
        server by data volume (the heavier sender is assumed to be the
        server)."""
        packets = self._pending.pop(key)
        by_endpoint: dict[tuple[int, int], int] = defaultdict(int)
        for pkt in packets:
            by_endpoint[(pkt.src_ip, pkt.src_port)] += pkt.payload_len
        server = max(by_endpoint, key=by_endpoint.get)  # type: ignore[arg-type]
        endpoints = key.endpoints()
        client = endpoints[1] if endpoints[0] == server else endpoints[0]
        flow = FlowTrace(key=key, server=server, client=client, packets=[])
        for pkt in packets:
            flow.append(pkt)
        return flow

    def flows(self) -> list[FlowTrace]:
        """Finalized flows, resolving any still-ambiguous ones by data
        volume (the heavier sender is assumed to be the server)."""
        for key in list(self._pending):
            self._flows[key] = self._resolve_pending(key)
        return sorted(self._flows.values(), key=lambda f: f.first_time)


def demux(
    packets: Iterable[PacketRecord],
    server_side: ServerPredicate | None = None,
) -> list[FlowTrace]:
    """Convenience wrapper: demultiplex ``packets`` into flows."""
    demuxer = FlowDemuxer(server_side)
    demuxer.feed_all(packets)
    return demuxer.flows()


# -- streaming demux ------------------------------------------------------


@dataclass
class StreamStats:
    """Accounting for one streaming demux pass.

    ``buffered_packets`` tracks the packets currently held by open
    flows (identified and pending); its peak is the demuxer's actual
    memory bound and what :mod:`benchmarks.bench_stream_memory`
    asserts stays flat as the trace grows.
    """

    packets: int = 0
    flows_started: int = 0
    flows_closed: int = 0  # evicted after FIN/FIN or RST + linger
    flows_evicted_idle: int = 0  # evicted on the idle timeout
    flows_finalized: int = 0  # still open at end of stream
    flows_reopened: int = 0  # tuple seen again after eviction (no SYN)
    buffered_packets: int = 0
    peak_buffered_packets: int = 0
    active_flows: int = 0
    peak_active_flows: int = 0

    @property
    def flows_total(self) -> int:
        return self.flows_closed + self.flows_evicted_idle + self.flows_finalized

    def to_registry(self, registry, prefix: str = "repro_stream_") -> None:
        """Fold this pass into a :class:`repro.obs.metrics.MetricsRegistry`."""
        registry.counter(
            prefix + "packets_total", "Packets demultiplexed"
        ).inc(self.packets)
        registry.counter(
            prefix + "flows_closed_total", "Flows evicted after FIN/RST"
        ).inc(self.flows_closed)
        registry.counter(
            prefix + "flows_evicted_idle_total",
            "Flows evicted on the idle timeout",
        ).inc(self.flows_evicted_idle)
        registry.counter(
            prefix + "flows_finalized_total",
            "Flows still open at end of stream",
        ).inc(self.flows_finalized)
        registry.counter(
            prefix + "flows_reopened_total",
            "Flows restarted mid-stream after eviction (no SYN seen)",
        ).inc(self.flows_reopened)
        registry.gauge(
            prefix + "peak_buffered_packets",
            "Most packets buffered in open flows at once",
        ).set(float(self.peak_buffered_packets))
        registry.gauge(
            prefix + "peak_active_flows", "Most flows open at once"
        ).set(float(self.peak_active_flows))


class StreamDemuxer(FlowDemuxer):
    """Demultiplex an unbounded packet stream with bounded memory.

    Flows are *evicted* — removed from the demuxer and handed to the
    caller as completed :class:`FlowTrace`\\ s — as soon as the stream
    shows they are over:

    * a clean close (FIN seen from both endpoints) or an RST, after
      ``close_linger`` seconds of trace time so straggling
      retransmissions still attach to the flow;
    * no packets for ``idle_timeout`` seconds of trace time.

    Memory is therefore O(open flows), not O(trace).  Either bound may
    be ``None`` to disable it; with both disabled the demuxer holds
    everything and :meth:`finish` reproduces batch :func:`demux`
    exactly.  Trace-time monotonicity is assumed, as everywhere else
    in the analyzer.

    The caveat versus batch demux: if the same 4-tuple reappears
    *after* its flow was evicted (port reuse, or a straggler beyond
    the linger), the new packets start a fresh flow instead of merging
    into the old one.  ``stats.flows_reopened`` counts flows that
    started without a SYN, which upper-bounds how often that happened.
    """

    #: Eviction sweeps cost O(open flows); amortize by sweeping at
    #: most once per this fraction of the smallest timeout.
    _SWEEP_FRACTION = 0.25

    def __init__(
        self,
        server_side: ServerPredicate | None = None,
        *,
        idle_timeout: float | None = 60.0,
        close_linger: float | None = 5.0,
        stats: StreamStats | None = None,
    ):
        super().__init__(server_side)
        self.idle_timeout = idle_timeout
        self.close_linger = close_linger
        self.stats = stats if stats is not None else StreamStats()
        self._ready: list[FlowTrace] = []
        self._fins: dict[FlowKey, set[tuple[int, int]]] = {}
        self._closed_at: dict[FlowKey, float] = {}
        self._last_seen: dict[FlowKey, float] = {}
        bounds = [b for b in (idle_timeout, close_linger) if b is not None]
        self._sweep_every = (
            max(min(bounds) * self._SWEEP_FRACTION, 1e-3) if bounds else None
        )
        self._next_sweep: float | None = None

    # -- feeding ------------------------------------------------------
    def feed(self, pkt: PacketRecord) -> FlowKey:
        known_before = self._is_known(FlowKey.from_packet(pkt))
        key = super().feed(pkt)
        stats = self.stats
        stats.packets += 1
        stats.buffered_packets += 1
        if stats.buffered_packets > stats.peak_buffered_packets:
            stats.peak_buffered_packets = stats.buffered_packets
        if not known_before:
            stats.flows_started += 1
            if not pkt.syn:
                stats.flows_reopened += 1
            stats.active_flows += 1
            if stats.active_flows > stats.peak_active_flows:
                stats.peak_active_flows = stats.active_flows
        now = pkt.timestamp
        self._last_seen[key] = now
        if pkt.rst:
            self._closed_at.setdefault(key, now)
        elif pkt.fin:
            fins = self._fins.setdefault(key, set())
            fins.add((pkt.src_ip, pkt.src_port))
            if len(fins) >= 2:
                self._closed_at.setdefault(key, now)
        if self._sweep_every is not None:
            if self._next_sweep is None:
                self._next_sweep = now + self._sweep_every
            elif now >= self._next_sweep:
                self._sweep(now)
                self._next_sweep = now + self._sweep_every
        return key

    def _is_known(self, key: FlowKey) -> bool:
        return key in self._flows or key in self._pending

    # -- eviction -----------------------------------------------------
    def _sweep(self, now: float) -> None:
        evict: list[tuple[float, FlowKey, bool]] = []
        for key, last in self._last_seen.items():
            closed_at = self._closed_at.get(key)
            if (
                self.close_linger is not None
                and closed_at is not None
                and now - closed_at >= self.close_linger
            ):
                evict.append((closed_at, key, True))
            elif (
                self.idle_timeout is not None
                and now - last >= self.idle_timeout
            ):
                evict.append((last, key, False))
        # Deterministic hand-off order: by close/last-activity time.
        evict.sort(key=lambda item: (item[0], item[1]))
        for _when, key, was_closed in evict:
            self._evict(key, was_closed)

    def _evict(self, key: FlowKey, was_closed: bool) -> None:
        flow = self._flows.pop(key, None)
        if flow is None:
            if key not in self._pending:
                return
            flow = self._resolve_pending(key)
        self._fins.pop(key, None)
        self._closed_at.pop(key, None)
        self._last_seen.pop(key, None)
        stats = self.stats
        stats.buffered_packets -= len(flow.packets)
        stats.active_flows -= 1
        if was_closed:
            stats.flows_closed += 1
        else:
            stats.flows_evicted_idle += 1
        self._ready.append(flow)

    # -- hand-off -----------------------------------------------------
    def poll(self) -> list[FlowTrace]:
        """Flows completed since the last call (possibly empty)."""
        ready, self._ready = self._ready, []
        return ready

    def finish(self) -> list[FlowTrace]:
        """Flush every still-open flow, sorted by first packet time
        (the batch :meth:`FlowDemuxer.flows` order)."""
        remaining = self.flows()  # resolves pending, sorts by first_time
        self._flows.clear()
        self._fins.clear()
        self._closed_at.clear()
        self._last_seen.clear()
        stats = self.stats
        for flow in remaining:
            stats.buffered_packets -= len(flow.packets)
            stats.active_flows -= 1
            stats.flows_finalized += 1
        return remaining


def demux_stream(
    packets: Iterable[PacketRecord],
    server_side: ServerPredicate | None = None,
    *,
    idle_timeout: float | None = 60.0,
    close_linger: float | None = 5.0,
    stats: StreamStats | None = None,
) -> Iterator[FlowTrace]:
    """Incrementally demultiplex ``packets``, yielding each flow as it
    completes (FIN/RST close or idle timeout) and flushing the rest at
    end of stream.  Memory stays O(open flows); see
    :class:`StreamDemuxer` for the eviction rules.
    """
    demuxer = StreamDemuxer(
        server_side,
        idle_timeout=idle_timeout,
        close_linger=close_linger,
        stats=stats,
    )
    for pkt in packets:
        demuxer.feed(pkt)
        if demuxer._ready:
            yield from demuxer.poll()
    yield from demuxer.finish()
