"""TCP endpoints and connections.

A :class:`TcpEndpoint` glues a :class:`~repro.tcp.sender.SenderHalf`
and a :class:`~repro.tcp.receiver.ReceiverHalf` behind one (ip, port),
handles the three-way handshake (the client's SYN advertises the
*initial receive window* the paper's Fig. 6 / Table 4 study), and turns
transport events into wire packets.

A :class:`TcpConnection` wires a client and a server endpoint across a
:class:`~repro.netsim.link.DuplexPath`, with a capture tap at the
server NIC — the same vantage point as the paper's dataset.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from ..netsim.engine import EventLoop, Timer
from ..netsim.link import Link, PathConfig
from ..netsim.trace import CaptureTap
from ..packet.headers import FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN
from ..packet.options import TCPOptions
from ..packet.packet import PacketRecord
from ..packet.seqnum import seq_add
from .congestion import CongestionControl, make_congestion_control
from .constants import (
    DEFAULT_INIT_CWND,
    DEFAULT_MSS,
    DEFAULT_RCV_BUF,
    DEFAULT_WSCALE,
    DELACK_MAX,
    SYN_RTO,
    ts_now,
)
from .policies import RecoveryPolicy, make_policy
from .receiver import AppReader, ImmediateReader, ReceiverHalf
from .sender import SenderHalf


@dataclass
class EndpointConfig:
    """Transport parameters of one endpoint."""

    ip: int
    port: int
    mss: int = DEFAULT_MSS
    wscale: int = DEFAULT_WSCALE
    rcv_buf: int = DEFAULT_RCV_BUF
    max_rcv_buf: int | None = None
    rcv_buf_auto_grow: bool = True
    delack_timeout: float = DELACK_MAX
    init_cwnd: int = DEFAULT_INIT_CWND
    congestion: str = "cubic"
    policy: str = "native"
    policy_kwargs: dict = field(default_factory=dict)
    early_retransmit: bool = False
    #: Pace new data across the RTT instead of bursting per ACK.
    pacing: bool = False
    #: F-RTO spurious-timeout detection (RFC 5682).
    frto: bool = False
    #: Destination-cache seeding of the RTT estimator (None = fresh).
    init_srtt: float | None = None
    init_rttvar: float | None = None
    reader: AppReader = field(default_factory=ImmediateReader)

    def build_congestion(self) -> CongestionControl:
        return make_congestion_control(self.congestion)

    def build_policy(self) -> RecoveryPolicy:
        return make_policy(self.policy, **self.policy_kwargs)


class TcpEndpoint:
    """One side of a TCP connection."""

    def __init__(
        self,
        engine: EventLoop,
        config: EndpointConfig,
        rng: random.Random,
        tap: CaptureTap | None = None,
        recorder=None,
    ):
        self.engine = engine
        self.config = config
        self.rng = rng
        self.tap = tap
        #: Optional :class:`~repro.obs.recorder.FlightRecorder` handed
        #: to the sender half when it is created.
        self.recorder = recorder
        self.link: Link | None = None  # outgoing link, set by wiring
        self.peer: tuple[int, int] | None = None
        self.established = False
        self.closed = False
        self.sender: SenderHalf | None = None
        self.receiver: ReceiverHalf | None = None
        self.on_established: Callable[[], None] | None = None
        self._iss = rng.randrange(1, 1 << 32)
        self._syn_timer: Timer | None = None
        self._syn_tries = 0
        self._syn_sent_at: float | None = None
        self._is_server = False
        self._handshake_done_cb: Callable[[], None] | None = None

    # -- wiring -----------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        self.link = link

    def _make_halves(self) -> None:
        self.sender = SenderHalf(
            self.engine,
            transmit=self._transmit_data,
            iss=self._iss,
            mss=self.config.mss,
            init_cwnd=self.config.init_cwnd,
            congestion=self.config.build_congestion(),
            policy=self.config.build_policy(),
            early_retransmit=self.config.early_retransmit,
            init_srtt=self.config.init_srtt,
            init_rttvar=self.config.init_rttvar,
            pacing=self.config.pacing,
            frto=self.config.frto,
        )
        if self.recorder is not None:
            self.sender.attach_recorder(self.recorder)
        self.receiver = ReceiverHalf(
            self.engine,
            send_ack=self._send_pure_ack,
            rcv_buf=self.config.rcv_buf,
            max_rcv_buf=self.config.max_rcv_buf,
            delack_timeout=self.config.delack_timeout,
            auto_grow=self.config.rcv_buf_auto_grow,
            mss=self.config.mss,
        )

    # -- handshake ----------------------------------------------------------
    def connect(self, peer: tuple[int, int]) -> None:
        """Client side: start the three-way handshake."""
        self.peer = peer
        self._is_server = False
        self._make_halves()
        self._send_syn()

    def listen(self) -> None:
        """Server side: wait for a SYN."""
        self._is_server = True

    def _send_syn(self) -> None:
        options = TCPOptions(
            mss=self.config.mss,
            wscale=self.config.wscale,
            sack_permitted=True,
            ts_val=ts_now(self.engine.now),
        )
        # The SYN advertises the *initial* receive window.  Deviation
        # from RFC 7323 (documented in DESIGN.md): the field is stored
        # pre-scaled (buf >> wscale) so that the analyzer can recover
        # ``init_rwnd = window << wscale`` for any buffer size; clients
        # with small windows use wscale 0, so the paper's 2-MSS case is
        # represented exactly.
        window = min(self.config.rcv_buf >> self.config.wscale, 65535)
        pkt = self._base_packet(
            seq=self._iss, ack=0, flags=FLAG_SYN, window=window, options=options
        )
        self._syn_sent_at = self.engine.now if self._syn_tries == 0 else None
        self._emit(pkt)
        self._syn_tries += 1
        if self._syn_tries <= 6:
            self._syn_timer = self.engine.schedule(
                SYN_RTO * (1 << (self._syn_tries - 1)), self._resend_syn
            )

    def _resend_syn(self) -> None:
        if not self.established:
            self._send_syn()

    def _send_syn_ack(self) -> None:
        assert self.receiver is not None
        options = TCPOptions(
            mss=self.config.mss,
            wscale=self.config.wscale,
            sack_permitted=True,
            ts_val=ts_now(self.engine.now),
            ts_ecr=self.receiver.ts_recent or None,
        )
        window = min(self.config.rcv_buf >> self.config.wscale, 65535)
        pkt = self._base_packet(
            seq=self._iss,
            ack=self.receiver.rcv_nxt,
            flags=FLAG_SYN | FLAG_ACK,
            window=window,
            options=options,
        )
        self._syn_sent_at = self.engine.now if self._syn_tries == 0 else None
        self._emit(pkt)
        self._syn_tries += 1
        if self._syn_tries <= 6:
            self._syn_timer = self.engine.schedule(
                SYN_RTO * (1 << (self._syn_tries - 1)), self._resend_syn_ack
            )

    def _resend_syn_ack(self) -> None:
        if not self.established:
            self._send_syn_ack()

    def _become_established(self) -> None:
        if self.established:
            return
        self.established = True
        # Seed the RTT estimator from the handshake exchange, as the
        # kernel does (a SYN/SYN+ACK that was never retransmitted gives
        # a clean sample).
        if self._syn_sent_at is not None and self.sender is not None:
            self.sender.rto_estimator.observe(
                self.engine.now - self._syn_sent_at, now=self.engine.now
            )
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None
        self.config.reader.start(self.receiver, self.engine)
        if self.on_established is not None:
            self.on_established()

    # -- packet reception --------------------------------------------------
    def receive(self, pkt: PacketRecord) -> None:
        """Entry point for packets delivered by the network."""
        if self.tap is not None:
            pkt = self.tap.capture(pkt)
        if self.closed:
            return
        flags = pkt.flags
        if flags & FLAG_SYN:
            if flags & FLAG_ACK:
                self._on_syn_ack(pkt)
            else:
                self._on_syn(pkt)
            return
        if self.sender is None or self.receiver is None:
            return  # packet for a connection we never opened
        if not self.established and self._is_server:
            # Final handshake ACK.
            if pkt.ack == seq_add(self._iss, 1):
                self._become_established()
        if flags & FLAG_ACK:
            self.sender.on_ack(pkt)
        if pkt.payload_len > 0 or flags & FLAG_FIN:
            self.receiver.on_data(pkt)

    def _on_syn(self, pkt: PacketRecord) -> None:
        if not self._is_server:
            return
        if self.sender is None:
            self.peer = (pkt.src_ip, pkt.src_port)
            self._make_halves()
            self.receiver.on_syn(pkt.seq)
            if pkt.options.ts_val is not None:
                self.receiver.ts_recent = pkt.options.ts_val
            # The client's SYN window is its initial receive window
            # (pre-scaled, see _send_syn).
            self.sender.rwnd = pkt.window << (pkt.options.wscale or 0)
            if pkt.options.wscale is not None:
                self.sender.peer_wscale = pkt.options.wscale
            if pkt.options.mss is not None:
                self.sender.mss = min(self.sender.mss, pkt.options.mss)
        self._syn_tries = 0
        self._send_syn_ack()

    def _on_syn_ack(self, pkt: PacketRecord) -> None:
        if self._is_server or self.sender is None or self.established:
            if self.established and self.receiver is not None:
                self._send_pure_ack()  # duplicate SYN+ACK: re-ACK
            return
        self.receiver.on_syn(pkt.seq)
        if pkt.options.ts_val is not None:
            self.receiver.ts_recent = pkt.options.ts_val
        if pkt.options.wscale is not None:
            self.sender.peer_wscale = pkt.options.wscale
        if pkt.options.mss is not None:
            self.sender.mss = min(self.sender.mss, pkt.options.mss)
        self.sender.on_ack(pkt)
        self._become_established()
        self._send_pure_ack()

    # -- packet construction -------------------------------------------------
    def _base_packet(
        self,
        seq: int,
        ack: int,
        flags: int,
        window: int,
        options: TCPOptions | None = None,
        payload_len: int = 0,
    ) -> PacketRecord:
        assert self.peer is not None or self._is_server
        dst_ip, dst_port = self.peer if self.peer else (0, 0)
        config = self.config
        return PacketRecord(
            self.engine.now, config.ip, dst_ip, config.port, dst_port,
            seq, ack, flags, window, payload_len, options or TCPOptions(),
        )

    def _window_field(self) -> int:
        assert self.receiver is not None
        window = self.receiver.advertised_window() >> self.config.wscale
        return window if window < 65535 else 65535

    def _ack_options(self) -> TCPOptions:
        assert self.receiver is not None
        return TCPOptions(
            sack_blocks=self.receiver.sack_blocks(),
            ts_val=ts_now(self.engine.now),
            ts_ecr=self.receiver.ts_recent or None,
        )

    def _transmit_data(
        self, seq: int, length: int, fin: bool, is_retrans: bool
    ) -> None:
        """Sender-half transmit callback."""
        assert self.receiver is not None
        flags = FLAG_ACK | (FLAG_PSH if length else 0)
        if fin:
            flags |= FLAG_FIN
        pkt = self._base_packet(
            seq=seq,
            ack=self.receiver.rcv_nxt,
            flags=flags,
            window=self._window_field(),
            options=self._ack_options(),
            payload_len=length,
        )
        self._emit(pkt)

    def _send_pure_ack(self) -> None:
        if self.receiver is None:
            return
        pkt = self._base_packet(
            seq=self.sender.snd_nxt if self.sender else 0,
            ack=self.receiver.rcv_nxt,
            flags=FLAG_ACK,
            window=self._window_field(),
            options=self._ack_options(),
        )
        self._emit(pkt)

    def _emit(self, pkt: PacketRecord) -> None:
        if self.closed:
            return
        if self.tap is not None:
            # ``_base_packet`` stamped the record with ``engine.now``
            # one call ago and nothing mutates a record, so the tap
            # keeps this one rather than a copy.
            self.tap.record(pkt)
        if self.link is None:
            raise RuntimeError("endpoint has no outgoing link attached")
        self.link.send(pkt)

    # -- application interface -----------------------------------------------
    def write(self, nbytes: int) -> None:
        if self.sender is None:
            raise RuntimeError("write before connect/accept")
        self.sender.write(nbytes)

    def close(self) -> None:
        if self.sender is not None:
            self.sender.close()

    def abort(self) -> None:
        """Tear down without FIN (used when a simulation scenario ends)."""
        self.closed = True
        if self._syn_timer is not None:
            self._syn_timer.cancel()
        if self.sender is not None:
            # Stop all timers so no further traffic is generated.
            self.sender.failed = True
            self.sender._cancel_retx_timer()
            if self.sender._persist_timer is not None:
                self.sender._persist_timer.cancel()


class TcpConnection:
    """A client and a server endpoint joined by a duplex path.

    The capture tap records all packets at the *server* NIC: outgoing
    data at transmission time, incoming ACKs at arrival time.
    """

    def __init__(
        self,
        engine: EventLoop,
        client_config: EndpointConfig,
        server_config: EndpointConfig,
        path_config: PathConfig,
        rng: random.Random,
        tap: CaptureTap | None = None,
        recorder=None,
    ):
        self.engine = engine
        self.tap = tap if tap is not None else CaptureTap(engine)
        self.client = TcpEndpoint(engine, client_config, rng)
        # The flight recorder, like the tap, observes the *server* side
        # — the vantage point the paper's analysis takes.
        self.server = TcpEndpoint(
            engine, server_config, rng, tap=self.tap, recorder=recorder
        )
        self.path = path_config.build(
            engine,
            to_client=self.client.receive,
            to_server=self.server.receive,
            rng=rng,
        )
        self.server.attach_link(self.path.forward)
        self.client.attach_link(self.path.reverse)
        self.server.listen()

    def open(self) -> None:
        """Start the handshake (client -> server)."""
        self.client.connect((self.server.config.ip, self.server.config.port))

    def teardown(self) -> None:
        self.client.abort()
        self.server.abort()
