"""Pass 2 of TAPO: the decision-tree stall classifier (Fig. 5).

For every stall collected in pass 1, the classifier looks at the packet
that *ends* the stall (``cur_pkt``) plus the Table 2 parameter snapshot
frozen at the stall's start, with whole-flow lookahead where the paper
uses it (tail detection, DSACK-verified spuriousness):

Top level (Table 3 categories)::

    cur_pkt is an incoming request           -> client idle
    cur_pkt is an incoming window update
        after a zero window                  -> zero rwnd
    cur_pkt is an incoming ACK               -> packet delay
    cur_pkt is an outgoing retransmission    -> timeout retransmission
        (zero-window probes                  -> zero rwnd)
    cur_pkt is outgoing new data:
        a request was pending unanswered     -> data unavailable
        window closed                        -> zero rwnd
        window open, app supplied nothing    -> resource constraint

Timeout-retransmission breakdown (Table 5, rules examined in order)::

    segment already retransmitted before     -> double retransmission
        (first retransmission fast/timeout   -> f-double / t-double)
    no data beyond the hole until the next
        request (end of file)                -> tail retransmission
    in_flight < 4, cwnd-limited              -> small cwnd
    in_flight < 4, rwnd-limited              -> small rwnd
    >= 4 outstanding, none SACKed            -> continuous loss
    DSACK shows the retransmission was
        spurious (data had arrived)          -> ACK delay/loss
    otherwise                                -> undetermined
"""

from __future__ import annotations

from ..packet.seqnum import seq_before, seq_geq
from .flow_analyzer import FlowAnalysis
from .segments import AnalyzedSegment, SegmentTracker
from .stalls import CaState, DoubleKind, RetxCause, Stall, StallCause

#: in_flight below this many segments cannot produce dupthres dupacks.
SMALL_IN_FLIGHT = 4

#: Outstanding windows of at least this size with zero dupacks indicate
#: the whole window was lost.
CONTINUOUS_LOSS_MIN = 4


class StallClassifier:
    """Classifies all stalls of one analyzed flow."""

    def __init__(self, analysis: FlowAnalysis, tracker: SegmentTracker):
        self.analysis = analysis
        self.tracker = tracker

    def classify_all(self) -> None:
        for stall in self.analysis.stalls:
            self.classify(stall)

    # -- top level (Fig. 5) -------------------------------------------------
    def classify(self, stall: Stall) -> None:
        ctx = stall.context
        stall.position = self._position(stall)
        if stall.cur_pkt_dir_in:
            self._classify_incoming(stall)
        elif stall.cur_pkt_is_retrans:
            if self._is_window_probe(stall):
                stall.cause = StallCause.ZERO_RWND
            else:
                stall.cause = StallCause.RETRANSMISSION
                self._classify_retransmission(stall)
        elif stall.cur_pkt_is_data:
            self._classify_new_data(stall)
        else:
            # Outgoing pure ACK / control packet ends the stall.
            if ctx.rwnd == 0:
                stall.cause = StallCause.ZERO_RWND
            elif ctx.request_pending:
                stall.cause = StallCause.DATA_UNAVAILABLE
            else:
                stall.cause = StallCause.UNDETERMINED

    def _classify_incoming(self, stall: Stall) -> None:
        ctx = stall.context
        if stall.cur_pkt_is_data:
            stall.cause = StallCause.CLIENT_IDLE
        elif ctx.rwnd == 0 or self._window_blocked(ctx):
            stall.cause = StallCause.ZERO_RWND
        else:
            # Outstanding data whose acknowledgment took this long:
            # the network delayed data or ACKs without forcing a
            # retransmission.
            stall.cause = StallCause.PACKET_DELAY

    @staticmethod
    def _window_blocked(ctx) -> bool:
        """The advertised window left no room for a full segment: the
        sender was blocked on the receiver even though the last
        advertised value was not literally zero."""
        outstanding_bytes = (ctx.snd_nxt - ctx.snd_una) % (1 << 32)
        return ctx.rwnd < outstanding_bytes + ctx.mss and ctx.response_started

    def _classify_new_data(self, stall: Stall) -> None:
        ctx = stall.context
        if ctx.request_pending:
            stall.cause = StallCause.DATA_UNAVAILABLE
        elif ctx.rwnd < ctx.mss:
            stall.cause = StallCause.ZERO_RWND
        elif ctx.packets_out == 0:
            stall.cause = StallCause.RESOURCE_CONSTRAINT
        elif self._window_had_room(ctx):
            # Data was in flight, the window had room, yet the server
            # sent nothing new for the whole stall: the application
            # supplied no data.
            stall.cause = StallCause.RESOURCE_CONSTRAINT
        else:
            stall.cause = StallCause.UNDETERMINED

    @staticmethod
    def _window_had_room(ctx) -> bool:
        outstanding_bytes = (ctx.snd_nxt - ctx.snd_una) % (1 << 32)
        return (
            outstanding_bytes + ctx.mss <= ctx.rwnd
            and ctx.packets_out < ctx.cwnd
        )

    def _is_window_probe(self, stall: Stall) -> bool:
        return stall.cur_pkt_payload <= 1 and seq_before(
            stall.cur_pkt_seq, stall.context.snd_una
        )

    # -- retransmission breakdown (Table 5) -----------------------------------
    def _classify_retransmission(self, stall: Stall) -> None:
        ctx = stall.context
        segment = self.tracker.find_covering(stall.cur_pkt_seq)
        if segment is None:
            stall.retx_cause = RetxCause.UNDETERMINED
            return
        stall.position = self._segment_position(segment)
        spurious = self._is_spurious(segment, stall)

        prior_tx = [
            t for t in segment.tx_times if t <= stall.start_time + 1e-9
        ]
        if len(prior_tx) >= 2:
            stall.retx_cause = RetxCause.DOUBLE
            stall.double_kind = self._double_kind(segment, prior_tx)
            return
        if (
            not spurious
            and ctx.unsacked_out <= SMALL_IN_FLIGHT
            and self._is_tail(stall)
        ):
            stall.retx_cause = RetxCause.TAIL
            stall.tail_state = (
                CaState.OPEN
                if ctx.ca_state == CaState.OPEN
                else CaState.RECOVERY
            )
            return
        if not spurious and ctx.in_flight < SMALL_IN_FLIGHT:
            if ctx.rwnd < SMALL_IN_FLIGHT * ctx.mss:
                stall.retx_cause = RetxCause.SMALL_RWND
            else:
                stall.retx_cause = RetxCause.SMALL_CWND
            return
        if (
            not spurious
            and ctx.unsacked_out >= CONTINUOUS_LOSS_MIN
            and ctx.sacked_out == 0
        ):
            stall.retx_cause = RetxCause.CONTINUOUS_LOSS
            return
        if spurious:
            stall.retx_cause = RetxCause.ACK_DELAY_LOSS
            return
        stall.retx_cause = RetxCause.UNDETERMINED

    @staticmethod
    def _is_spurious(segment: AnalyzedSegment, stall: Stall) -> bool:
        """The retransmission ending this stall was answered by a DSACK
        (the original had arrived; its ACK was delayed or lost)."""
        return (
            segment.spurious_at is not None
            and segment.spurious_at >= stall.start_time
        )

    @staticmethod
    def _double_kind(
        segment: AnalyzedSegment, prior_tx: list[float]
    ) -> DoubleKind:
        first_retrans_time = prior_tx[1]
        if any(
            abs(t - first_retrans_time) < 1e-9
            for t in segment.rto_retrans_times
        ):
            return DoubleKind.T_DOUBLE
        # Fast retransmit or probe: either way the first recovery did
        # not cost a timeout.
        return DoubleKind.F_DOUBLE

    def _is_tail(self, stall: Stall) -> bool:
        """No new data above the stalled hole until the next request
        (or the end of the flow): the loss sat at the end of a file."""
        snd_nxt = stall.context.snd_nxt
        rows = self.analysis.flow.rows(stall.cur_pkt_index + 1)
        for _t, dir_in, seq, _ack, _flags, _window, payload, *_ in rows:
            if payload > 0:
                if dir_in:
                    return True
                if seq_geq(seq, snd_nxt):
                    return False
        return True

    # -- positions (Fig. 7a / 10a) -------------------------------------------
    def _segment_position(self, segment: AnalyzedSegment) -> float:
        total = max(1, self.tracker.total_segments)
        return segment.ordinal / total

    def _position(self, stall: Stall) -> float:
        total = max(1, self.analysis.bytes_out)
        return min(1.0, stall.context.bytes_sent / total)


def classify_flow(analysis: FlowAnalysis, tracker: SegmentTracker) -> None:
    """Classify every stall of one analyzed flow in place."""
    if analysis.stalls:
        StallClassifier(analysis, tracker).classify_all()
