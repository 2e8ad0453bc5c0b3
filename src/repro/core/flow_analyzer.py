"""Pass 1 of TAPO: replay one flow's trace and extract everything.

The analyzer walks the server-side packet stream of a single flow in
time order, mimicking the server's TCP stack as it goes:

* it reconstructs the retransmission queue (:mod:`.segments`), the
  congestion state machine and a shadow cwnd (:mod:`.state_machine`),
  and the kernel's SRTT/RTO estimators (:mod:`repro.tcp.rto` — the
  *same* code the simulated sender runs);
* it detects stalls — inter-packet gaps exceeding
  ``min(2*SRTT, RTO)`` — and snapshots the Table 2 parameters at each
  stall's start;
* it records the per-ACK in-flight series (Fig. 11), per-flow RTT
  samples and per-timeout RTO values (Fig. 1), and the client's
  initial receive window (Fig. 6 / Table 4).

Classification of the collected stalls is pass 2
(:mod:`.classifier`), which needs whole-flow lookahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import AnalysisConfig
from ..packet.flow import Direction, FlowTrace, packet_row
from ..packet.headers import FLAG_ACK, FLAG_FIN, FLAG_SYN
from ..packet.options import TCPOptions
from ..packet.packet import PacketRecord
from ..packet.seqnum import SEQ_HALF, SEQ_MASK, SEQ_SPACE, seq_before, seq_leq
from ..tcp.constants import ts_to_time
from ..tcp.rto import RTOEstimator
from .segments import AnalyzedSegment, SegmentTracker
from .state_machine import FAST, PROBE, RTO, CaStateTracker
from .stalls import CaState, Stall, StallContext


@dataclass
class FlowAnalysis:
    """Everything TAPO extracts from one flow."""

    flow: FlowTrace
    mss: int = 1448
    init_rwnd: int = 0  # bytes, from the client SYN
    wscale: int = 0
    stalls: list[Stall] = field(default_factory=list)
    rtt_samples: list[float] = field(default_factory=list)
    rto_samples: list[float] = field(default_factory=list)  # at timeouts
    in_flight_on_ack: list[int] = field(default_factory=list)
    zero_window_seen: bool = False
    request_count: int = 0
    data_packets: int = 0
    retransmissions: int = 0
    bytes_out: int = 0
    duration: float = 0.0
    timeouts: int = 0
    fast_retransmits: int = 0
    probe_retransmissions: int = 0
    spurious_retransmissions: int = 0
    final_srtt: float | None = None
    final_rto: float = 0.0
    state_log: list[tuple[float, CaState]] = field(default_factory=list)
    #: Per-ACK inferred kernel variables ``(time, cwnd, srtt, rto)`` —
    #: only populated when the analyzer runs with ``record_series``
    #: (the ``repro-paper trace`` inference-error path).
    kernel_series: list[tuple[float, int, float | None, float]] = field(
        default_factory=list
    )

    @property
    def avg_rtt(self) -> float | None:
        if not self.rtt_samples:
            return None
        return sum(self.rtt_samples) / len(self.rtt_samples)

    @property
    def avg_rto(self) -> float | None:
        if not self.rto_samples:
            return None
        return sum(self.rto_samples) / len(self.rto_samples)

    @property
    def stalled_time(self) -> float:
        return sum(stall.duration for stall in self.stalls)

    @property
    def stall_ratio(self) -> float:
        """Stalled time over flow transmission time (Fig. 3)."""
        if self.duration <= 0:
            return 0.0
        return min(1.0, self.stalled_time / self.duration)

    @property
    def loss_estimate(self) -> float:
        """Retransmitted fraction of data packets (Table 1's pkt loss)."""
        if not self.data_packets:
            return 0.0
        return self.retransmissions / self.data_packets

    @property
    def avg_speed(self) -> float:
        """Bytes per second over the flow lifetime (Table 1)."""
        if self.duration <= 0:
            return 0.0
        return self.bytes_out / self.duration

    @property
    def init_rwnd_mss(self) -> int:
        return self.init_rwnd // self.mss if self.mss else 0


class FlowAnalyzer:
    """Replays one flow; produces a :class:`FlowAnalysis`.

    The core is row-level: :meth:`feed_row` and everything below it
    consume the primitive fields of a
    :data:`~repro.packet.flow.PacketRow`, which :meth:`run` reads from
    ``flow.rows()`` — straight off the columns for a column-backed
    trace, so a stalled flow is replayed without one packet object.
    :meth:`feed` is the packet-object adapter.
    """

    def __init__(self, flow: FlowTrace,
                 config: "AnalysisConfig | None" = None):
        config = config or AnalysisConfig()
        self.flow = flow
        self.tau = config.tau
        self.record_series = config.record_series
        self.analysis = FlowAnalysis(flow=flow)
        self.tracker = SegmentTracker()
        self.ca = CaStateTracker(init_cwnd=config.init_cwnd)
        self.rto_est = RTOEstimator()
        self.rwnd = 0
        self.established = False
        self._synack_time: float | None = None
        self._synack_count = 0
        self._handshake_sampled = False
        self._request_pending = False
        self._response_started = False
        self._bytes_sent = 0
        self._last_new_ack_time: float | None = None
        self._last_in_packet_time: float | None = None
        self._counted_recovery_point: int | None = None
        self._prev_time: float | None = None
        #: ``rto_est.stall_threshold(tau)``, or ``None`` after anything
        #: that moves it (an RTT sample, a new ACK, a timeout).
        self._threshold: float | None = None
        self._fed = 0

    # -- public API -------------------------------------------------------
    def run(self) -> FlowAnalysis:
        """Replay the whole flow: feed every packet, then finish."""
        if not self.flow.packets:
            return self.analysis
        feed_row = self.feed_row  # hoist the bound-method lookup
        for row in self.flow.rows():
            feed_row(*row)
        return self.finish()

    def feed(self, pkt: PacketRecord, direction: Direction) -> None:
        """Process one packet object incrementally.

        The analyzer's own state is O(window) — the segment tracker
        and estimators drop segments as they are cumulatively acked —
        so a caller that feeds packets as they arrive (instead of
        materializing the flow first and calling :meth:`run`) holds no
        per-trace state here.  Feeding the whole flow in order then
        calling :meth:`finish` is exactly :meth:`run`.
        """
        self.feed_row(*packet_row(pkt, direction))

    def feed_row(
        self, t: float, dir_in: bool, seq: int, ack: int, flags: int,
        window: int, payload: int, ts_ecr: int = 0,
        options: TCPOptions | None = None,
    ) -> None:
        """Process one packet given as a
        :data:`~repro.packet.flow.PacketRow`."""
        prev_time = self._prev_time
        if prev_time is not None and self.established and not flags & FLAG_SYN:
            # Handshake retransmissions (SYN / SYN+ACK) are not
            # data-transfer stalls; the paper's analysis starts at
            # established connections.
            threshold = self._threshold
            if threshold is None:
                threshold = self._threshold = self.rto_est.stall_threshold(
                    self.tau
                )
            if t - prev_time > threshold:
                self._record_stall(
                    t, dir_in, seq, flags, payload, prev_time, threshold
                )
        if dir_in:
            self._process_in(t, ack, flags, window, payload, ts_ecr, options)
        else:
            self._process_out(t, seq, flags, payload)
        self._prev_time = t
        self._fed += 1

    def finish(self) -> FlowAnalysis:
        """Finalize after the last packet and return the analysis."""
        self._finalize()
        return self.analysis

    # -- stall snapshots -----------------------------------------------------
    def _record_stall(
        self, t: float, dir_in: bool, seq: int, flags: int, payload: int,
        start_time: float, threshold: float,
    ) -> None:
        is_data = payload > 0 or bool(flags & FLAG_FIN)
        is_retrans = (
            not dir_in
            and is_data
            and seq_before(seq, self.tracker.transmitted_max)
        )
        context = self._snapshot_context()
        self.analysis.stalls.append(
            Stall(
                start_time=start_time,
                end_time=t,
                threshold=threshold,
                cur_pkt_index=self._fed,
                cur_pkt_dir_in=dir_in,
                cur_pkt_is_data=is_data,
                cur_pkt_is_retrans=is_retrans,
                cur_pkt_seq=seq,
                cur_pkt_payload=payload,
                context=context,
            )
        )

    def _snapshot_context(self) -> StallContext:
        tracker = self.tracker
        packets_out = tracker.packets_out
        sacked_out = tracker.sacked_out
        lost_out = self._estimate_lost_out()
        retrans_out = tracker.retrans_out()
        return StallContext(
            ca_state=self.ca.state,
            packets_out=packets_out,
            sacked_out=sacked_out,
            lost_out=lost_out,
            retrans_out=retrans_out,
            holes=tracker.holes(),
            in_flight=max(
                0, packets_out + retrans_out - (sacked_out + lost_out)
            ),
            unsacked_out=packets_out - sacked_out,
            snd_una=tracker.snd_una,
            snd_nxt=tracker.transmitted_max,
            cwnd=self.ca.cwnd,
            rwnd=self.rwnd,
            init_rwnd=self.analysis.init_rwnd,
            mss=self.analysis.mss,
            request_pending=self._request_pending,
            response_started=self._response_started,
            bytes_sent=self._bytes_sent,
        )

    def _estimate_lost_out(self) -> int:
        """Mimic the kernel's loss marking for the current instant:
        everything unSACKed in Loss, what has dupthres SACKed segments
        above it in Recovery."""
        state = self.ca.state
        if state is CaState.LOSS:
            return self.tracker.unsacked_below_sacked(0)
        if state is CaState.RECOVERY:
            return self.tracker.unsacked_below_sacked(self.ca.dup_thresh)
        return 0

    def _observe(self, rtt: float, now: float) -> None:
        """Fold one positive RTT sample into the estimator and the
        flow's sample list."""
        self.rto_est.observe(rtt, now=now)
        self.analysis.rtt_samples.append(rtt)
        self._threshold = None

    # -- packet processing ---------------------------------------------------
    def _process_in(
        self, t: float, ack: int, flags: int, window: int, payload: int,
        ts_ecr: int, options: TCPOptions | None,
    ) -> None:
        analysis = self.analysis
        if flags & FLAG_SYN:
            # Client SYN: initial receive window and options.
            analysis.wscale = 0
            if options is not None:
                analysis.wscale = options.wscale or 0
                if options.mss:
                    analysis.mss = min(analysis.mss, options.mss)
            self.rwnd = analysis.init_rwnd = window << analysis.wscale
            return
        # Window update (scaled after the handshake).
        self.rwnd = rwnd = window << analysis.wscale
        if rwnd < analysis.mss and analysis.bytes_out > 0:
            # The advertised window cannot hold one full segment: the
            # sender is (or is about to be) blocked on the receiver.
            analysis.zero_window_seen = True

        has_ack = flags & FLAG_ACK
        # Handshake RTT sample (SYN+ACK -> first ACK), Karn-guarded.
        if (
            not self._handshake_sampled
            and has_ack
            and self._synack_time is not None
        ):
            self._handshake_sampled = True
            if self._synack_count == 1:
                rtt = t - self._synack_time
                if rtt > 0:
                    self._observe(rtt, t)

        if payload > 0:
            # Client request data.
            if not self._request_pending:
                analysis.request_count += 1
            self._request_pending = True
            self._response_started = False

        if not has_ack:
            return
        tracker = self.tracker
        ca = self.ca
        snd_una_before = tracker.snd_una
        blocks = options.sack_blocks if options is not None else None
        if blocks:
            newly_sacked, dsack = tracker.apply_sack(blocks, ack, t)
            if dsack:
                analysis.spurious_retransmissions += 1
        else:
            newly_sacked = ()
            dsack = False
        acked_segments = tracker.apply_ack(ack, t)
        # seq_before(snd_una_before, ack)
        new_ack = (snd_una_before - ack) & SEQ_MASK >= SEQ_HALF
        self._last_in_packet_time = t
        if new_ack:
            self._last_new_ack_time = t
            self.rto_est.on_ack()
            self._threshold = None
        if new_ack or newly_sacked:
            self._sample_rtts(t, ts_ecr, acked_segments, newly_sacked)
        packets_out = tracker.packets_out
        # Known deviation (DESIGN.md 6): any ACK-bearing packet that
        # repeats snd_una counts, pure or not -- the historical rule
        # tested ``pkt.is_pure_ack`` without calling it.
        is_dupack = (
            not new_ack and ack == snd_una_before and packets_out > 0
        )
        ca.on_ack(
            t,
            tracker,
            new_ack=new_ack,
            acked_segments=len(acked_segments),
            is_dupack=is_dupack,
            dsack=dsack,
        )
        # Per-ACK in-flight sample (Fig. 11), Equation (1).
        in_flight = (
            packets_out
            + tracker.retrans_out()
            - tracker.sacked_out
            - self._estimate_lost_out()
        )
        analysis.in_flight_on_ack.append(in_flight if in_flight > 0 else 0)
        if self.record_series:
            # Inferred counterpart of the sender's per-ACK ``vars``
            # flight-recorder snapshot, sampled at the same capture
            # timestamps (the tap stamps an arriving ACK with the
            # simulation time at which the sender processes it).
            analysis.kernel_series.append(
                (t, ca.cwnd, self.rto_est.srtt, self.rto_est.rto)
            )

    def _sample_rtts(
        self, now: float, ts_ecr: int, acked_segments, newly_sacked
    ) -> None:
        """RTT samples for an ACK carrying new information, exactly as
        the mimicked sender computes them.

        Timestamps (``now - TSecr``) when the trace carries them;
        otherwise sequence-based samples under Karn's rule, taken at
        SACK time for SACKed segments and skipping stale cumulative
        ACKs of segments SACKed earlier.
        """
        if ts_ecr:
            rtt = now - ts_to_time(ts_ecr)
            if rtt > 0:
                self._observe(rtt, now)
            return
        # FLAG_RETRANS_DATA_ACKED (see the sender): a batch containing
        # a retransmitted segment yields no sequence-based samples.
        if not any(seg.retransmitted for seg in acked_segments):
            for segment in acked_segments:
                if segment.sacked or not segment.tx_times:
                    continue
                rtt = segment.acked_at - segment.tx_times[0]
                if rtt > 0:
                    self._observe(rtt, now)
        for segment in newly_sacked:
            if segment.retrans_count == 0 and segment.tx_times:
                rtt = now - segment.tx_times[0]
                if rtt > 0:
                    self._observe(rtt, now)

    def _process_out(
        self, t: float, seq: int, flags: int, payload: int
    ) -> None:
        tracker = self.tracker
        if flags & FLAG_SYN:
            # SYN+ACK from the server.
            tracker.init_seq(seq)
            self.established = True
            self._synack_time = t
            self._synack_count += 1
            return
        fin = flags & FLAG_FIN
        if not payload > 0 and not fin:
            return
        end_seq = (seq + payload + (1 if fin else 0)) % SEQ_SPACE
        snd_una = tracker.snd_una
        # Zero-window probe: one already-acked byte.
        if (
            payload == 1
            and seq_before(seq, snd_una)
            and seq_leq(end_seq, snd_una)
        ):
            return
        segment, is_retrans = tracker.record_segment(
            seq, end_seq, payload, bool(fin), t
        )
        analysis = self.analysis
        analysis.data_packets += 1
        if not is_retrans:
            analysis.bytes_out += payload
            self._bytes_sent += payload
            self._request_pending = False
            self._response_started = True
            return
        analysis.retransmissions += 1
        ca = self.ca
        rto = self.rto_est.rto
        kind = ca.classify_retransmission(
            segment,
            t,
            tracker,
            rto=rto,
            srtt=self.rto_est.srtt,
            last_new_ack=self._last_new_ack_time,
            last_in_packet=self._last_in_packet_time,
        )
        if kind == RTO:
            # Count timer *expiries*, not go-back-N continuations:
            # a new timeout either enters Loss or re-fires for the
            # head after another RTO-scale silence (backoff).
            tx_times = segment.tx_times
            previous_tx = tx_times[-2] if len(tx_times) >= 2 else None
            new_expiry = ca.state != CaState.LOSS or (
                segment.seq == tracker.snd_una
                and segment.rto_retrans_times  # backoff re-expiry
                and previous_tx is not None
                and t - previous_tx >= 0.85 * rto
            )
            if new_expiry:
                analysis.rto_samples.append(rto)
                analysis.timeouts += 1
                self.rto_est.on_timeout()
                self._threshold = None
            segment.rto_retrans_times.append(t)
        elif kind == FAST:
            # The kernel performs one fast retransmit per Recovery
            # episode; follow-up hole repairs are recovery
            # retransmissions, not new fast-retransmit events.  The
            # shadow machine enters Recovery on the triggering ACK,
            # so episodes are keyed by its recovery point.
            if self._counted_recovery_point != ca.high_seq:
                analysis.fast_retransmits += 1
                self._counted_recovery_point = ca.high_seq
            segment.fast_retrans_times.append(t)
        else:
            analysis.probe_retransmissions += 1
            segment.probe_retrans_times.append(t)
        ca.on_retransmission(kind, t, tracker)

    def _finalize(self) -> None:
        self.analysis.duration = self.flow.duration
        self.analysis.final_srtt = self.rto_est.srtt
        self.analysis.final_rto = self.rto_est.rto
        self.analysis.state_log = list(self.ca.state_log)
