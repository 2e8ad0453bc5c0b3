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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, count, repeat

from ..config import AnalysisConfig
from ..packet.flow import Direction, FlowTrace, PacketRow, packet_row
from ..packet.headers import FLAG_ACK, FLAG_FIN, FLAG_SYN
from ..packet.options import TCPOptions
from ..packet.packet import PacketRecord
from ..packet.seqnum import SEQ_HALF, SEQ_MASK, seq_before, seq_leq
from ..tcp.constants import ts_to_time
from ..tcp.rto import RTOEstimator
from .segments import AnalyzedSegment, SegmentTracker
from .state_machine import FAST, PROBE, RTO, CaStateTracker, ShadowWindow
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

    The core is one row-level state machine over the primitive fields
    of :data:`~repro.packet.flow.PacketRow` tuples, which :meth:`run`
    reads from ``flow.rows()`` — straight off the columns for a
    column-backed trace, so a flow is replayed without one packet
    object.  It has two loops.  Every flow starts on the *in-order
    branch* (:meth:`_feed_in_order`): while the server sends only new
    data at snd_nxt and the client's ACKs carry no SACK blocks and
    repeat no outstanding snd_una, the retransmission queue is a run of
    segments whose ends, send times and ack times fit in three lists,
    and the congestion state machine stays in Open.  The first row the
    branch cannot take *promotes* the flow (:meth:`promote`): the
    segment tracker and the state machine are built from that state and
    the general loop (:meth:`_feed_general`) carries on at the same
    row.  Only the rare events (client SYN, stall snapshot,
    sequence-based RTT sampling, retransmission classification) are
    methods.  :meth:`feed` is the packet-object adapter.
    """

    def __init__(self, flow: FlowTrace,
                 config: "AnalysisConfig | None" = None):
        config = config or AnalysisConfig()
        self.flow = flow
        self.tau = config.tau
        self.record_series = config.record_series
        self.analysis = FlowAnalysis(flow=flow)
        #: The reconstructed retransmission queue and congestion state
        #: machine: ``None`` while the flow is on the in-order branch.
        self.tracker: SegmentTracker | None = None
        self.ca: CaStateTracker | None = None
        self._window = ShadowWindow(cwnd=config.init_cwnd)
        self.rto_est = RTOEstimator()
        self.rwnd = 0
        self.established = False
        self._synack_time: float | None = None
        self._synack_count = 0
        self._handshake_sampled = False
        self._request_pending = False
        self._response_started = False
        self._last_new_ack_time: float | None = None
        self._last_in_packet_time: float | None = None
        self._counted_recovery_point: int | None = None
        self._prev_time: float | None = None
        self._fed = 0
        # The in-order branch's queue, one run of segments under half
        # the sequence space: segment j spans [tx_end[j - 1], tx_end[j])
        # (the first starts at _tx_start), was sent at tx_time[j] and,
        # if acked, was acked at acked_at[j]; _fins lists the FIN-bearing
        # ones, _snd_una is the tracker's snd_una.
        self._tx_start = 0
        self._tx_end: list[int] = []
        self._tx_time: list[float] = []
        self._acked_at: list[float] = []
        self._fins: list[int] = []
        self._snd_una = 0
        if self.record_series:
            # The branch records no kernel series.
            self.promote()

    # -- public API -------------------------------------------------------
    def run(self) -> FlowAnalysis:
        """Replay the whole flow: feed every packet, then finish (a flow
        without packets keeps its untouched analysis)."""
        self.feed_rows(self.flow.rows())
        return self.finish() if self._fed else self.analysis

    def feed(self, pkt: PacketRecord, direction: Direction) -> None:
        """Process one packet object incrementally.

        The analyzer's own state is O(window) — the segment tracker
        and estimators drop segments as they are cumulatively acked —
        so a caller that feeds packets as they arrive (instead of
        materializing the flow first and calling :meth:`run`) holds no
        per-trace state here.  Feeding the whole flow in order then
        calling :meth:`finish` is exactly :meth:`run`.
        """
        self.feed_rows((packet_row(pkt, direction),))

    def feed_rows(self, rows: Iterable[PacketRow]) -> None:
        """Process :data:`~repro.packet.flow.PacketRow` tuples, in order:
        on the in-order branch until a row promotes the flow, then in
        the general loop from that row on.  Resumable: feeding rows one
        call at a time equals one call with all of them."""
        if self.tracker is None:
            rows = iter(rows)
            row = self._feed_in_order(rows)
            if row is None:
                return
            self.promote()
            rows = chain((row,), rows)
        self._feed_general(rows)

    def promote(self) -> None:
        """Leave the in-order branch: build the segment tracker and the
        congestion state machine from its state — what the general
        loop would have built from the same rows (each segment a
        contiguous first transmission, acked in order).  Called before
        row 0 it makes the whole replay the general loop's."""
        if self.tracker is not None:
            return
        tracker = self.tracker = SegmentTracker()
        ends = self._tx_end
        starts = [self._tx_start, *ends[:-1]]
        segments = tracker.segments
        segments.extend(map(
            AnalyzedSegment, starts, ends, repeat(False), count(),
            [[sent] for sent in self._tx_time],
        ))
        for ordinal in self._fins:
            segments[ordinal].is_fin = True
        for segment, acked_at in zip(segments, self._acked_at):
            segment.acked_at = acked_at
        tracker._by_seq = dict(zip(starts, segments))
        tracker._first_unacked = len(self._acked_at)
        tracker._max_length = max(
            [(end - seq) & SEQ_MASK for seq, end in zip(starts, ends)],
            default=0,
        )
        tracker.snd_una = self._snd_una
        tracker.transmitted_max = ends[-1] if ends else self._tx_start
        self.ca = CaStateTracker()
        self.ca.window = self._window

    def finish(self) -> FlowAnalysis:
        """Finalize after the last packet and return the analysis."""
        analysis = self.analysis
        analysis.duration = self.flow.duration
        analysis.final_srtt = self.rto_est.srtt
        analysis.final_rto = self.rto_est.rto
        analysis.state_log = [] if self.ca is None else list(self.ca.state_log)
        return analysis

    # -- the in-order branch ---------------------------------------------
    def _feed_in_order(self, rows: Iterator[PacketRow]) -> PacketRow | None:
        """Feed ``rows`` while the flow stays on the in-order branch;
        the first row it cannot take is returned unconsumed, ``None``
        once ``rows`` is exhausted.

        The rows that promote: an incoming row whose options carry SACK
        blocks, a duplicate ACK (one that repeats snd_una with data
        outstanding), outgoing data that is neither at snd_nxt nor a
        zero-window probe, data that would take the run past half the
        sequence space (where segment starts could repeat), a SYN+ACK
        after data (it re-bases the sequence space), and, with
        ``record_series``, row 0.  Every other row changes exactly what
        the general loop would change, in locals written back in the
        ``finally``.
        """
        analysis = self.analysis
        stalls = analysis.stalls
        est = self.rto_est
        observe = est.observe
        stall_floor = est.stall_floor
        tau = self.tau
        add_rtt = analysis.rtt_samples.append
        add_in_flight = analysis.in_flight_on_ack.append
        tx_end = self._tx_end
        tx_time = self._tx_time
        add_end = tx_end.append
        add_time = tx_time.append
        add_acked = self._acked_at.append
        shadow = self._window
        cwnd = shadow.cwnd
        ssthresh = shadow.ssthresh
        avoid = shadow._avoid_count
        tx_start = self._tx_start
        tx_len = len(tx_end)
        head = len(self._acked_at)
        snd_una = self._snd_una
        snd_nxt = tx_end[-1] if tx_end else tx_start
        rwnd = self.rwnd
        established = self.established
        handshake_sampled = self._handshake_sampled
        request_pending = self._request_pending
        response_started = self._response_started
        last_new_ack = self._last_new_ack_time
        last_in_packet = self._last_in_packet_time
        prev_time = self._prev_time
        fed = self._fed
        request_count = analysis.request_count
        data_packets = analysis.data_packets
        bytes_out = analysis.bytes_out
        zero_window_seen = analysis.zero_window_seen
        wscale = analysis.wscale
        mss = analysis.mss
        floor = stall_floor(tau)
        try:
            # Unpacked in the ``for``: a row tuple no name holds is
            # reused by ``zip`` for the next row.
            for (
                t, dir_in, seq, ack, flags, window, payload, ts_ecr, options
            ) in rows:
                syn = flags & FLAG_SYN
                if established and not syn and t - prev_time > floor:
                    threshold = est.stall_threshold(tau)
                    if t - prev_time > threshold:
                        # Recorded before the row is screened; a row
                        # that promotes takes its stall back below.
                        out = tx_len - head
                        self._record_stall(
                            t, dir_in, seq, flags, payload, prev_time,
                            threshold, fed, snd_nxt,
                            StallContext(
                                ca_state=CaState.OPEN, packets_out=out,
                                in_flight=out, unsacked_out=out,
                                snd_una=snd_una, snd_nxt=snd_nxt,
                                cwnd=cwnd, rwnd=rwnd,
                                init_rwnd=analysis.init_rwnd, mss=mss,
                                request_pending=request_pending,
                                response_started=response_started,
                                bytes_sent=bytes_out,
                            ),
                        )
                if not dir_in:
                    if syn:  # SYN+ACK: SegmentTracker.init_seq
                        if tx_len:
                            break
                        snd_una = snd_nxt = tx_start = (seq + 1) & SEQ_MASK
                        established = True
                        self._synack_time = t
                        self._synack_count += 1
                    elif payload > 0 or flags & FLAG_FIN:
                        fin = flags & FLAG_FIN
                        length = payload + 1 if fin else payload
                        end_seq = (seq + length) & SEQ_MASK
                        if payload != 1 or not (
                            seq_before(seq, snd_una)
                            and seq_leq(end_seq, snd_una)
                        ):  # not a zero-window probe, which is not recorded
                            if (
                                seq != snd_nxt or length >= SEQ_HALF
                                or (end_seq - tx_start) & SEQ_MASK >= SEQ_HALF
                            ):
                                break
                            if fin:
                                self._fins.append(tx_len)
                            add_end(end_seq)
                            add_time(t)
                            tx_len += 1
                            snd_nxt = end_seq
                            data_packets += 1
                            bytes_out += payload
                            request_pending = False
                            response_started = True
                elif syn:
                    self._client_syn(window, options)
                    rwnd = self.rwnd
                    wscale = analysis.wscale
                    mss = analysis.mss
                else:
                    if options is not None and options.sack_blocks:
                        break
                    has_ack = flags & FLAG_ACK
                    ahead = (ack - snd_una) & SEQ_MASK
                    if has_ack and not ahead and head < tx_len:
                        break  # a duplicate ACK
                    # Window update (scaled after the handshake).
                    rwnd = window << wscale
                    if rwnd < mss and bytes_out > 0:
                        zero_window_seen = True
                    if not handshake_sampled and has_ack and established:
                        handshake_sampled = True
                        self._sample_handshake(t)
                        floor = stall_floor(tau)
                    if payload > 0:  # client request data
                        if not request_pending:
                            request_count += 1
                        request_pending = True
                        response_started = False
                    if has_ack:
                        last_in_packet = t
                        if 0 < ahead <= SEQ_HALF:  # a new ACK
                            first = head
                            if ahead < SEQ_HALF:  # SegmentTracker.apply_ack
                                while head < tx_len and not (
                                    0 < (tx_end[head] - ack) & SEQ_MASK
                                    < SEQ_HALF
                                ):
                                    add_acked(t)
                                    head += 1
                                snd_una = ack
                            last_new_ack = t
                            est.on_ack()
                            if ts_ecr:
                                rtt = t - ts_to_time(ts_ecr)
                                if rtt > 0:
                                    observe(rtt, t)
                                    add_rtt(rtt)
                                    floor = stall_floor(tau)
                            elif first < head:
                                # Sequence-based: nothing on the branch
                                # was retransmitted or SACKed.
                                sampled = False
                                for sent in tx_time[first:head]:
                                    rtt = t - sent
                                    if rtt > 0:
                                        observe(rtt, t)
                                        add_rtt(rtt)
                                        sampled = True
                                if sampled:
                                    floor = stall_floor(tau)
                            # ShadowWindow.on_new_ack(head - first, ...)
                            # in Open.
                            if cwnd < ssthresh:
                                cwnd += head - first
                            else:
                                avoid += head - first
                                if avoid >= cwnd:
                                    avoid -= cwnd
                                    cwnd += 1
                        # Per-ACK in-flight sample (Fig. 11), Eq. (1).
                        add_in_flight(tx_len - head)
                prev_time = t
                fed += 1
            else:
                return None
            if stalls and stalls[-1].cur_pkt_index == fed:
                stalls.pop()  # the general loop records it again
            return t, dir_in, seq, ack, flags, window, payload, ts_ecr, options
        finally:
            shadow.cwnd = cwnd
            shadow._avoid_count = avoid
            self._tx_start = tx_start
            self._snd_una = snd_una
            self.rwnd = rwnd
            self.established = established
            self._handshake_sampled = handshake_sampled
            self._request_pending = request_pending
            self._response_started = response_started
            self._last_new_ack_time = last_new_ack
            self._last_in_packet_time = last_in_packet
            self._prev_time = prev_time
            self._fed = fed
            analysis.request_count = request_count
            analysis.data_packets = data_packets
            analysis.bytes_out = bytes_out
            analysis.zero_window_seen = zero_window_seen

    # -- the general loop ------------------------------------------------
    def _feed_general(self, rows: Iterable[PacketRow]) -> None:
        """Feed rows to a promoted flow.

        The state every row touches lives in locals and is written back
        in the ``finally``, so a crash at row *k* leaves ``_fed == k``.
        Two steady-state steps run in place, each under the guard that
        makes it what the general step does: new data at snd_nxt skips
        ``SegmentTracker.record_segment``, a new ACK in Open with
        nothing SACKed skips ``CaStateTracker.on_ack`` (DESIGN.md 5.2).
        """
        analysis = self.analysis
        tracker = self.tracker
        segments = tracker.segments
        by_seq = tracker._by_seq
        ca = self.ca
        shadow = ca.window
        est = self.rto_est
        observe = est.observe
        stall_floor = est.stall_floor
        tau = self.tau
        record_series = self.record_series
        add_rtt = analysis.rtt_samples.append
        add_in_flight = analysis.in_flight_on_ack.append
        OPEN = CaState.OPEN
        prev_time = self._prev_time
        fed = self._fed
        established = self.established
        # Refreshed where an RTT sample is folded in: only a gap above
        # it has to consult the exact stall threshold.
        floor = stall_floor(tau)
        wscale = analysis.wscale
        mss = analysis.mss
        try:
            for (
                t, dir_in, seq, ack, flags, window, payload, ts_ecr, options
            ) in rows:
                syn = flags & FLAG_SYN
                # Handshake retransmissions (SYN / SYN+ACK) are not
                # data-transfer stalls; the paper's analysis starts at
                # established connections (which have seen a row).
                if established and not syn and t - prev_time > floor:
                    threshold = est.stall_threshold(tau)
                    if t - prev_time > threshold:
                        self._record_stall(
                            t, dir_in, seq, flags, payload, prev_time,
                            threshold, fed, tracker.transmitted_max,
                            self._snapshot_context(),
                        )
                if not dir_in:
                    if syn:  # SYN+ACK from the server
                        tracker.init_seq(seq)
                        established = True
                        self._synack_time = t
                        self._synack_count += 1
                    elif payload > 0 or flags & FLAG_FIN:
                        fin = flags & FLAG_FIN
                        length = payload + (1 if fin else 0)
                        end_seq = (seq + length) & SEQ_MASK
                        snd_una = tracker.snd_una
                        if (
                            payload == 1
                            and seq_before(seq, snd_una)
                            and seq_leq(end_seq, snd_una)
                        ):
                            pass  # zero-window probe: one acked byte
                        elif (
                            seq != tracker.transmitted_max
                            or seq in by_seq
                            or length >= SEQ_HALF
                        ):
                            self._record_data(t, seq, end_seq, payload, fin)
                        else:
                            # New data at snd_nxt: record_segment's
                            # contiguous first transmission.
                            by_seq[seq] = segment = AnalyzedSegment(
                                seq, end_seq, bool(fin), len(segments), [t]
                            )
                            segments.append(segment)
                            if length > tracker._max_length:
                                tracker._max_length = length
                            tracker.transmitted_max = end_seq
                            analysis.data_packets += 1
                            analysis.bytes_out += payload
                            self._request_pending = False
                            self._response_started = True
                elif syn:
                    self._client_syn(window, options)
                    wscale = analysis.wscale
                    mss = analysis.mss
                else:
                    # Window update (scaled after the handshake).
                    self.rwnd = rwnd = window << wscale
                    if rwnd < mss and analysis.bytes_out > 0:
                        # The advertised window cannot hold one full
                        # segment: the sender is (or is about to be)
                        # blocked on the receiver.
                        analysis.zero_window_seen = True
                    has_ack = flags & FLAG_ACK
                    if not self._handshake_sampled and has_ack and established:
                        self._sample_handshake(t)
                        floor = stall_floor(tau)
                    if payload > 0:  # client request data
                        if not self._request_pending:
                            analysis.request_count += 1
                        self._request_pending = True
                        self._response_started = False
                    if has_ack:
                        snd_una = tracker.snd_una
                        newly_sacked = ()
                        dsack = False
                        if options is not None and options.sack_blocks:
                            newly_sacked, dsack = tracker.apply_sack(
                                options.sack_blocks, ack, t
                            )
                            if dsack:
                                analysis.spurious_retransmissions += 1
                        # apply_ack advances on seq_after(ack, snd_una);
                        # new_ack is seq_before(snd_una, ack), which
                        # also holds at exactly SEQ_HALF ahead.
                        ahead = (ack - snd_una) & SEQ_MASK
                        new_ack = 0 < ahead <= SEQ_HALF
                        acked = ()
                        if 0 < ahead < SEQ_HALF:
                            acked = tracker.apply_ack(ack, t)
                        self._last_in_packet_time = t
                        if new_ack:
                            self._last_new_ack_time = t
                            est.on_ack()
                        if new_ack or newly_sacked:
                            # RTT samples as the mimicked sender takes
                            # them: ``now - TSecr`` when the trace has
                            # timestamps, else sequence-based.
                            if not ts_ecr:
                                sampled = self._sample_seq_rtts(
                                    t, acked, newly_sacked
                                )
                            else:
                                rtt = t - ts_to_time(ts_ecr)
                                sampled = rtt > 0
                                if sampled:
                                    observe(rtt, t)
                                    add_rtt(rtt)
                            if sampled:
                                floor = stall_floor(tau)
                        packets_out = len(segments) - tracker._first_unacked
                        sacked_out = tracker._sacked_out
                        lost_out = 0
                        if (
                            new_ack and ca.state is OPEN
                            and not sacked_out and not dsack
                        ):
                            # CaStateTracker.on_ack would stay in Open.
                            ca.dup_acks = 0
                            shadow.on_new_ack(len(acked), False, False)
                        else:
                            # Known deviation (DESIGN.md 6): any packet
                            # with an ACK that repeats snd_una counts
                            # as a duplicate, pure ACK or not.
                            is_dupack = not new_ack and (
                                ack == snd_una and packets_out > 0
                            )
                            ca.on_ack(
                                t, tracker, new_ack, len(acked), is_dupack,
                                dsack,
                            )
                            if ca.state is not OPEN:
                                lost_out = self._estimate_lost_out()
                        # Per-ACK in-flight sample (Fig. 11), Equation (1).
                        in_flight = (
                            packets_out + tracker._retrans_out
                            - sacked_out - lost_out
                        )
                        add_in_flight(in_flight if in_flight > 0 else 0)
                        if record_series:
                            # The sender's per-ACK ``vars`` snapshot,
                            # inferred, at the same capture timestamps.
                            analysis.kernel_series.append(
                                (t, shadow.cwnd, est.srtt, est.rto)
                            )
                prev_time = t
                fed += 1
        finally:
            self._prev_time = prev_time
            self._fed = fed
            self.established = established

    # -- stall snapshots -----------------------------------------------------
    def _record_stall(
        self, t: float, dir_in: bool, seq: int, flags: int, payload: int,
        start_time: float, threshold: float, index: int, snd_nxt: int,
        context: StallContext,
    ) -> None:
        is_data = payload > 0 or bool(flags & FLAG_FIN)
        is_retrans = not dir_in and is_data and seq_before(seq, snd_nxt)
        self.analysis.stalls.append(
            Stall(
                start_time=start_time,
                end_time=t,
                threshold=threshold,
                cur_pkt_index=index,
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
            bytes_sent=self.analysis.bytes_out,
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

    # -- the rare rows -------------------------------------------------------
    def _sample_handshake(self, t: float) -> None:
        """Handshake RTT sample (SYN+ACK -> first ACK), Karn-guarded."""
        self._handshake_sampled = True
        rtt = t - self._synack_time
        if self._synack_count == 1 and rtt > 0:
            self.rto_est.observe(rtt, t)
            self.analysis.rtt_samples.append(rtt)

    def _client_syn(self, window: int, options: TCPOptions | None) -> None:
        """Client SYN: initial receive window and options."""
        analysis = self.analysis
        analysis.wscale = 0
        if options is not None:
            analysis.wscale = options.wscale or 0
            if options.mss:
                analysis.mss = min(analysis.mss, options.mss)
        self.rwnd = analysis.init_rwnd = window << analysis.wscale

    def _sample_seq_rtts(self, now: float, acked, newly_sacked) -> bool:
        """Sequence-based RTT samples, for an ACK carrying new
        information in a trace without timestamps; whether any was
        taken.

        Under Karn's rule, taken at SACK time for SACKed segments and
        skipping stale cumulative ACKs of segments SACKed earlier.
        """
        rtts = []
        # FLAG_RETRANS_DATA_ACKED (see the sender): a batch containing
        # a retransmitted segment yields no sequence-based samples.
        if not any(seg.retransmitted for seg in acked):
            rtts += [
                segment.acked_at - segment.tx_times[0]
                for segment in acked
                if not segment.sacked and segment.tx_times
            ]
        rtts += [
            now - segment.tx_times[0]
            for segment in newly_sacked
            if segment.retrans_count == 0 and segment.tx_times
        ]
        rtts = [rtt for rtt in rtts if rtt > 0]
        for rtt in rtts:
            self.rto_est.observe(rtt, now)
        self.analysis.rtt_samples += rtts
        return bool(rtts)

    def _record_data(
        self, t: float, seq: int, end_seq: int, payload: int, fin: int
    ) -> None:
        """An outgoing data/FIN segment that is not plain new data at
        snd_nxt: a retransmission, or new boundaries the tracker has to
        place."""
        tracker = self.tracker
        segment, is_retrans = tracker.record_segment(seq, end_seq, bool(fin), t)
        analysis = self.analysis
        analysis.data_packets += 1
        if not is_retrans:
            analysis.bytes_out += payload
            self._request_pending = False
            self._response_started = True
            return
        analysis.retransmissions += 1
        ca = self.ca
        rto = self.rto_est.rto
        kind = ca.classify_retransmission(
            segment, t, tracker, rto=rto, srtt=self.rto_est.srtt,
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
