"""The sending half of a TCP endpoint: a 2.6.32-style data sender.

Implements the machinery whose failure modes the paper classifies:

* the four-state congestion machine (Open / Disorder / Recovery / Loss,
  Fig. 4), with rate-halving cwnd reduction in Recovery;
* SACK-driven loss marking with ``dupthres`` (initially 3, raised when
  DSACKs reveal reordering);
* the 2.6.32 rule that a fast-retransmitted segment is never fast-
  retransmitted again — the mechanism behind *f-double* stalls;
* RFC 6298 RTO with exponential backoff; Loss state marks everything
  lost, restarts cwnd from 1 MSS and go-back-N retransmits;
* zero-window persist probes;
* a pluggable :mod:`recovery policy <repro.tcp.policies>` slot hosting
  TLP or the paper's S-RTO.

The sender is transport-only: the application supplies a byte count via
:meth:`SenderHalf.write` and the endpoint provides a ``transmit``
callback that turns (seq, length, flags) into a wire packet.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..netsim.engine import EventLoop, Timer
from ..packet.headers import FLAG_SYN
from ..packet.packet import PacketRecord
from ..packet.seqnum import SEQ_HALF, SEQ_MASK, seq_add, seq_geq, seq_sub
from .congestion import CongestionControl, NewReno
from .constants import (
    DEFAULT_INIT_CWND,
    DEFAULT_MSS,
    DUP_THRESH,
    INITIAL_SSTHRESH,
    MAX_RETRIES,
    MIN_CWND,
    PERSIST_MAX,
    PERSIST_MIN,
    ts_to_time,
)
from .policies import PROBE, RTO, NativePolicy, RecoveryPolicy
from .rto import RTOEstimator
from .scoreboard import Scoreboard, Segment

#: ``transmit(seq, length, fin, is_retrans)`` — provided by the endpoint.
TransmitFn = Callable[[int, int, bool, bool], None]


@dataclass
class SenderStats:
    """Counters mirroring the kernel's per-connection MIB entries."""

    data_segments_sent: int = 0
    bytes_sent: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    rto_timeouts: int = 0
    probe_retransmissions: int = 0
    zero_window_probes: int = 0
    enter_recovery: int = 0
    enter_loss: int = 0
    dsacks_received: int = 0
    undo_events: int = 0
    frto_spurious_detected: int = 0
    rtt_samples: int = 0
    state_log: list[tuple[float, str]] = field(default_factory=list)

    @property
    def retransmission_ratio(self) -> float:
        total = self.data_segments_sent
        if not total:
            return 0.0
        return self.retransmissions / total


class SenderHalf:
    """Send-side TCP state for one endpoint."""

    OPEN = "Open"
    DISORDER = "Disorder"
    RECOVERY = "Recovery"
    LOSS = "Loss"

    def __init__(
        self,
        engine: EventLoop,
        transmit: TransmitFn,
        iss: int = 0,
        mss: int = DEFAULT_MSS,
        init_cwnd: int = DEFAULT_INIT_CWND,
        congestion: CongestionControl | None = None,
        policy: RecoveryPolicy | None = None,
        early_retransmit: bool = False,
        init_srtt: float | None = None,
        init_rttvar: float | None = None,
        pacing: bool = False,
        frto: bool = False,
    ):
        self.engine = engine
        self.transmit = transmit
        self.mss = mss
        self.iss = iss
        self.snd_una = seq_add(iss, 1)  # SYN consumes one
        self.snd_nxt = seq_add(iss, 1)
        self.cwnd = init_cwnd
        self.ssthresh = INITIAL_SSTHRESH
        self.ca_state = self.OPEN
        self.dup_thresh = DUP_THRESH
        self.dup_acks = 0
        self.rwnd = mss * 10  # refreshed by the first real ACK
        self.peer_wscale = 0
        self.congestion = congestion or NewReno()
        self.policy = policy or NativePolicy()
        self.early_retransmit = early_retransmit
        # Destination-cached metrics (Linux inherits SRTT/RTTVAR from
        # earlier connections to the same client unless
        # tcp_no_metrics_save is set); this is what gives short flows
        # the conservative RTOs of Fig. 1 from their very first loss.
        self.rto_estimator = RTOEstimator()
        if init_srtt is not None:
            rttvar4 = (
                4 * init_rttvar if init_rttvar is not None else 2 * init_srtt
            )
            self.rto_estimator.seed(init_srtt, rttvar4)
        self.scoreboard = Scoreboard()
        self.stats = SenderStats()

        self._app_bytes = 0  # bytes written but not yet segmented
        self._fin_pending = False
        self._fin_sent = False
        self._high_seq: int | None = None  # recovery point
        self._rh_acks = 0  # rate-halving ACK counter
        self._retx_timer: Timer | None = None
        self._retx_kind = RTO
        self._persist_timer: Timer | None = None
        self._persist_backoff = 0
        self._consecutive_timeouts = 0
        # Pacing (Sec. 4.3's suggested continuous-loss mitigation):
        # spread the window across one RTT instead of bursting.
        self.pacing = pacing
        self._pacing_timer: Timer | None = None
        # F-RTO (RFC 5682): after an RTO, probe with *new* data before
        # committing to go-back-N; two advancing ACKs prove the timeout
        # spurious.  Phase 0 = inactive, 1 = head retransmitted,
        # 2 = new data sent, awaiting the deciding ACK.
        self.frto = frto
        self._frto_phase = 0
        # DSACK undo (the kernel's Eifel response): restore cwnd when
        # every retransmission of an episode proves spurious.
        self._undo_marker: int | None = None
        self._undo_retrans = 0
        self._undo_cwnd = 0
        self._undo_ssthresh = 0
        self.failed = False
        self.on_all_acked: Callable[[], None] | None = None
        # Flight recorder (repro.obs): None means tracing is off and
        # every hook below is a single attribute test.
        self._recorder = None

    # ------------------------------------------------------------------
    # Flight-recorder hooks
    # ------------------------------------------------------------------
    @property
    def recorder(self):
        """The attached :class:`~repro.obs.recorder.FlightRecorder`."""
        return self._recorder

    @recorder.setter
    def recorder(self, recorder) -> None:
        self._recorder = recorder
        # Mirror estimator updates into the trace (tcp/rto.py hook).
        self.rto_estimator.on_update = (
            self._trace_rtt_update if recorder is not None else None
        )

    def trace_event(
        self, kind: str, detail: str = "", seq: int = 0, value: float = 0.0
    ) -> None:
        """Record one event with a kernel-variable snapshot attached.

        Callers guard with ``if sender.recorder is not None`` so the
        tracing-off path never pays for the snapshot.
        """
        est = self.rto_estimator
        self._recorder.record(
            self.engine.now,
            kind,
            detail,
            seq=seq,
            cwnd=self.cwnd,
            ssthresh=self.ssthresh,
            srtt=est.srtt,
            rto=est.rto,
            in_flight=self.scoreboard.in_flight,
            value=value,
        )

    def _trace_rtt_update(self, kind: str, value: float) -> None:
        self.trace_event("rtt", kind, value=value)

    def attach_recorder(self, recorder) -> None:
        """Attach and record the initial kernel-variable snapshot."""
        self.recorder = recorder
        if recorder is not None:
            self.trace_event("state", self.ca_state)
            self.trace_event("vars", "init")

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def write(self, nbytes: int) -> None:
        """Application hands ``nbytes`` of data to TCP."""
        if nbytes < 0:
            raise ValueError("cannot write a negative byte count")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("write after close")
        self._app_bytes += nbytes
        self.try_send()

    def close(self) -> None:
        """Application is done: send FIN once the buffer drains."""
        if not self._fin_pending and not self._fin_sent:
            self._fin_pending = True
            self.try_send()

    @property
    def unsent_bytes(self) -> int:
        return self._app_bytes

    @property
    def outstanding_bytes(self) -> int:
        return seq_sub(self.snd_nxt, self.snd_una)

    @property
    def all_acked(self) -> bool:
        return self.scoreboard.empty and self._app_bytes == 0

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, pkt: PacketRecord, is_syn_ack: bool = False) -> None:
        """Process the acknowledgment fields of an incoming packet."""
        if self.failed:
            return
        ack = pkt.ack
        # Window update (scaled except on SYN).
        wscale = 0 if pkt.flags & FLAG_SYN else self.peer_wscale
        self.rwnd = pkt.window << wscale
        self._update_persist_state()

        snd_una = self.snd_una
        # seq_before(ack, snd_una)
        if (ack - snd_una) & SEQ_MASK >= SEQ_HALF:
            return  # stale ACK
        # seq_before(snd_nxt, ack)
        if (self.snd_nxt - ack) & SEQ_MASK >= SEQ_HALF:
            return  # acks data never sent; ignore

        # RFC 2883: a block at or below the packet's own cumulative
        # ACK is a DSACK, so the comparison uses pkt.ack, not the
        # not-yet-advanced snd_una.
        sack_result = self.scoreboard.apply_sack(
            pkt.options.sack_blocks, ack, now=self.engine.now
        )
        if sack_result.dsack_seen:
            self.stats.dsacks_received += 1
            self._on_dsack(sack_result)
            self._maybe_undo(sack_result)

        # seq_before(snd_una, ack), given that ack is not stale.
        new_data_acked = ack != snd_una
        acked_segments: list[Segment] = []
        if new_data_acked:
            acked_segments = self.scoreboard.ack_through(ack)
            self.snd_una = ack
            self.dup_acks = 0
            self._consecutive_timeouts = 0
            self.rto_estimator.on_ack()
        if new_data_acked or sack_result.newly_sacked:
            self._sample_rtt(pkt, acked_segments, sack_result)
        elif self._is_duplicate_ack(pkt):
            self.dup_acks += 1

        if self._frto_phase:
            self._frto_on_ack(new_data_acked)
        self._advance_state_machine(
            new_data_acked, len(acked_segments), sack_result.newly_sacked
        )
        self.policy.on_ack(self, new_data_acked)
        self.try_send()
        self._rearm_after_ack(new_data_acked)
        if self._recorder is not None:
            # Per-ACK ground-truth snapshot: the exact counterpart of
            # the per-ACK series TAPO infers from the passive trace.
            self.trace_event("vars", "ack", seq=ack)

        if self.all_acked and self.on_all_acked is not None:
            self.on_all_acked()

    def _is_duplicate_ack(self, pkt: PacketRecord) -> bool:
        return (
            pkt.is_pure_ack
            and pkt.ack == self.snd_una
            and not self.scoreboard.empty
        )

    def _sample_rtt(self, pkt, acked: list[Segment], sack_result) -> None:
        """RTT sampling for an ACK carrying new information.

        With TCP timestamps (the default), the sample is
        ``now - TSecr`` — accurate even across retransmissions and
        holes.  Without timestamps, fall back to sequence-based samples
        under Karn's rule, skipping segments SACKed earlier (their
        cumulative ACK can be arbitrarily stale).
        """
        now = self.engine.now
        ts_ecr = pkt.options.ts_ecr
        if ts_ecr:
            rtt = now - ts_to_time(ts_ecr)
            if rtt > 0:
                self.rto_estimator.observe(rtt, now=now)
                self.stats.rtt_samples += 1
            return
        # FLAG_RETRANS_DATA_ACKED: when the cumulative ACK covers any
        # retransmitted segment, the never-retransmitted segments in
        # the same batch were held back by that hole and their samples
        # are stale — skip them all, as the kernel does.
        if not any(seg.retrans_count > 0 for seg in acked):
            for seg in acked:
                if seg.retrans_count == 0 and not seg.sacked:
                    self.rto_estimator.observe(
                        now - seg.first_tx_time, now=now
                    )
                    self.stats.rtt_samples += 1
        for seg in sack_result.newly_sacked_segments:
            if seg.retrans_count == 0:
                self.rto_estimator.observe(now - seg.first_tx_time, now=now)
                self.stats.rtt_samples += 1

    def _on_dsack(self, sack_result) -> None:
        """A DSACK implies a spurious retransmission: the network
        reordered or delayed rather than dropped, so raise dupthres
        (the kernel's ``tcp_update_reordering``).

        DSACKs answering deliberate probe retransmissions (TLP/S-RTO)
        carry no reordering information and are ignored, as TLP-aware
        stacks do."""
        for left, _right in sack_result.dsack_ranges:
            seg = self.scoreboard.find(left)
            if seg is not None and seg.probe_retrans:
                return
        if self.dup_thresh < 10:
            self.dup_thresh += 1

    # -- DSACK undo (tcp_try_undo_recovery / tcp_try_undo_loss) ---------
    def _set_undo_marker(self) -> None:
        """Start a fresh undo episode when entering recovery from a
        clean state; a timeout *during* recovery continues the episode.

        The marker survives the episode's normal exit: the DSACKs that
        prove spuriousness usually arrive after the cumulative ACK, and
        the window restoration is still owed then (as in the kernel).
        """
        if self.ca_state in (self.OPEN, self.DISORDER):
            self._undo_marker = self.snd_una
            self._undo_retrans = 0
            self._undo_cwnd = self.cwnd
            self._undo_ssthresh = self.ssthresh
        elif self._undo_marker is None:
            self._undo_marker = self.snd_una
            self._undo_retrans = 0
            self._undo_cwnd = self.cwnd
            self._undo_ssthresh = self.ssthresh

    def _clear_undo(self) -> None:
        self._undo_marker = None
        self._undo_retrans = 0

    def _maybe_undo(self, sack_result) -> None:
        """Every retransmission of this episode was answered by a
        DSACK: the loss detection was spurious, so restore the window
        the reduction took away (the kernel's DSACK/Eifel undo)."""
        if self._undo_marker is None:
            return
        self._undo_retrans -= len(sack_result.dsack_ranges)
        if self._undo_retrans > 0:
            return
        self.stats.undo_events += 1
        self.cwnd = max(self.cwnd, self._undo_cwnd)
        self.ssthresh = max(self.ssthresh, self._undo_ssthresh)
        self._clear_undo()
        self.scoreboard.clear_lost()
        if self.ca_state in (self.RECOVERY, self.LOSS):
            self._high_seq = None
            self._set_state(self.OPEN)

    # -- F-RTO (RFC 5682, basic variant) ---------------------------------
    def _frto_on_ack(self, new_data_acked: bool) -> None:
        if self._frto_phase == 1:
            if new_data_acked:
                # First ACK advances: transmit up to two *new* segments
                # and let the next ACK decide.
                self._frto_phase = 2
                self.cwnd = max(self.cwnd, 2)
            else:
                # Duplicate ACK: conventional loss recovery after all.
                self._frto_conventional()
        elif self._frto_phase == 2:
            if new_data_acked:
                # Second advancing ACK: the timeout was spurious.
                self._frto_phase = 0
                self.stats.frto_spurious_detected += 1
                self.cwnd = max(self.cwnd, self._undo_cwnd)
                self.ssthresh = max(self.ssthresh, self._undo_ssthresh)
                self._clear_undo()
                self.scoreboard.clear_lost()
                self._high_seq = None
                self._set_state(self.OPEN)
            else:
                self._frto_conventional()

    def _frto_conventional(self) -> None:
        """Fall back to standard Loss-state go-back-N recovery."""
        self._frto_phase = 0
        self.scoreboard.mark_all_lost()
        self.cwnd = max(self.cwnd, 1)
        if self.ca_state != self.LOSS:
            self._high_seq = self.snd_nxt
            self._set_state(self.LOSS)

    # ------------------------------------------------------------------
    # State machine (Fig. 4 of the paper)
    # ------------------------------------------------------------------
    def _effective_dup_thresh(self) -> int:
        """Early Retransmit (RFC 5827) lowers the threshold for tiny
        windows when enabled; stock 2.6.32 keeps it at dupthres."""
        if (
            self.early_retransmit
            and self._app_bytes == 0
            and 0 < self.scoreboard.packets_out < 4
        ):
            return max(1, self.scoreboard.packets_out - 1)
        return self.dup_thresh

    def _advance_state_machine(
        self, new_data_acked: bool, acked_count: int, newly_sacked: int
    ) -> None:
        now = self.engine.now
        dup_acks = self.dup_acks
        sacked_out = self.scoreboard.sacked_out
        dup_signal = sacked_out if sacked_out > dup_acks else dup_acks

        if self.ca_state in (self.OPEN, self.DISORDER):
            if dup_signal >= self._effective_dup_thresh():
                self._enter_recovery()
            elif dup_signal > 0:
                self._set_state(self.DISORDER)
            else:
                self._set_state(self.OPEN)
                if new_data_acked:
                    self.cwnd = self.congestion.on_ack(
                        self.cwnd, self.ssthresh, acked_count, now
                    )
        elif self.ca_state == self.RECOVERY:
            self._rate_halve()
            self.scoreboard.mark_lost_by_sack(self.dup_thresh)
            if new_data_acked and self._high_seq is not None:
                if seq_geq(self.snd_una, self._high_seq):
                    self._exit_recovery()
                elif not newly_sacked:
                    # NewReno partial ACK: the next hole is lost too.
                    self.scoreboard.mark_head_lost()
        elif self.ca_state == self.LOSS:
            if new_data_acked:
                self.cwnd = self.congestion.on_ack(
                    self.cwnd, self.ssthresh, acked_count, now
                )
                if self._high_seq is not None and seq_geq(
                    self.snd_una, self._high_seq
                ):
                    self._set_state(self.OPEN)
                    self._high_seq = None

    def _set_state(self, state: str) -> None:
        if state != self.ca_state:
            self.stats.state_log.append((self.engine.now, state))
            self.ca_state = state
            if self._recorder is not None:
                self.trace_event("state", state)

    def _enter_recovery(self) -> None:
        self.stats.enter_recovery += 1
        self._set_undo_marker()
        self.ssthresh = self.congestion.ssthresh(self.cwnd)
        self.congestion.on_loss_event(self.cwnd, self.engine.now)
        self._high_seq = self.snd_nxt
        self._rh_acks = 0
        self._set_state(self.RECOVERY)
        if not self.scoreboard.mark_lost_by_sack(self._effective_dup_thresh()):
            self.scoreboard.mark_head_lost()
        seg = self.scoreboard.next_retransmittable()
        if seg is not None:
            self.retransmit_segment(seg, fast=True)
            self.stats.fast_retransmits += 1

    def enter_recovery_from_probe(self) -> None:
        """S-RTO's trigger: switch to Recovery without a fast
        retransmit (the probe itself was just sent)."""
        if self.ca_state != self.RECOVERY:
            self.stats.enter_recovery += 1
            self.ssthresh = min(self.ssthresh, max(self.cwnd, MIN_CWND))
            self._high_seq = self.snd_nxt
            self._rh_acks = 0
            self._set_state(self.RECOVERY)

    def spoof_dup_acks(self) -> None:
        """T-RACKs' trigger: behave as if ``dupthres`` duplicate ACKs
        for ``snd_una`` just arrived (the vswitch replayed the last
        ACK), entering fast-retransmit Recovery without waiting for
        the real (lost) dup-ACK train.  A no-op unless the connection
        is in Open/Disorder with unacknowledged data — a sender
        already in Recovery/Loss ignores further dup-ACKs anyway."""
        if self.ca_state not in (self.OPEN, self.DISORDER):
            return
        if self.scoreboard.empty:
            return
        self.dup_acks = max(self.dup_acks, self._effective_dup_thresh())
        self._enter_recovery()

    def _rate_halve(self) -> None:
        """2.6.32 Recovery: shed one segment every second ACK until the
        window reaches ssthresh."""
        self._rh_acks += 1
        if self._rh_acks >= 2:
            self._rh_acks = 0
            if self.cwnd > self.ssthresh:
                self.cwnd -= 1

    def _exit_recovery(self) -> None:
        self.cwnd = max(min(self.cwnd, self.ssthresh), MIN_CWND)
        self._high_seq = None
        self._set_state(self.OPEN)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _rearm_after_ack(self, new_data_acked: bool) -> None:
        if self.scoreboard.empty:
            self._cancel_retx_timer()
            return
        if new_data_acked or self._retx_timer is None:
            self._arm_retx_timer()

    def _arm_retx_timer(self) -> None:
        self._cancel_retx_timer()
        if self.scoreboard.empty:
            return
        delay, kind = self.policy.timer_duration(self)
        self._retx_kind = kind
        self._retx_timer = self.engine.schedule(delay, self._on_retx_timer)
        if self._recorder is not None:
            self.trace_event("timer", f"arm:{kind}", value=delay)

    def _cancel_retx_timer(self) -> None:
        if self._retx_timer is not None:
            if self._recorder is not None and self._retx_timer.pending:
                self.trace_event("timer", "cancel")
            self._retx_timer.cancel()
            self._retx_timer = None

    def _on_retx_timer(self) -> None:
        self._retx_timer = None
        if self.scoreboard.empty or self.failed:
            return
        if self._retx_kind == PROBE:
            if self._recorder is not None:
                self.trace_event("timer", "fire:probe")
            self.policy.on_probe_fire(self)
            self.stats.probe_retransmissions += 1
            self._arm_retx_timer()
            return
        self._on_rto()

    def _on_rto(self) -> None:
        """Native retransmission timeout: enter the Loss state."""
        if self._recorder is not None:
            self.trace_event("timer", "fire:rto")
        self.stats.rto_timeouts += 1
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts > MAX_RETRIES:
            self.failed = True
            self.scoreboard.clear()
            return
        self.rto_estimator.on_timeout()
        self.stats.enter_loss += 1
        if self.ca_state != self.LOSS:
            self._set_undo_marker()
            self.ssthresh = self.congestion.ssthresh(self.cwnd)
        self.congestion.on_rto(self.cwnd, self.engine.now)
        if (
            self.frto
            and self.ca_state not in (self.LOSS, self.RECOVERY)
            and self.scoreboard.packets_out > 1
            and self._app_bytes > 0
        ):
            # F-RTO: retransmit only the head and wait for evidence
            # before declaring the whole window lost.
            self._frto_phase = 1
            head = self.scoreboard.mark_head_lost()
            self.cwnd = 1
            self.dup_acks = 0
            self._high_seq = self.snd_nxt
            self._set_state(self.LOSS)
            if head is not None:
                self.retransmit_segment(head, rto=True)
            self._arm_retx_timer()
            return
        self._frto_phase = 0
        self.scoreboard.mark_all_lost()
        self.cwnd = 1
        self.dup_acks = 0
        self._high_seq = self.snd_nxt
        self._set_state(self.LOSS)
        seg = self.scoreboard.next_rto_retransmittable()
        if seg is not None:
            self.retransmit_segment(seg, rto=True)
        self._arm_retx_timer()

    # -- zero-window persist probing -------------------------------------
    def _update_persist_state(self) -> None:
        window_blocked = (
            self.rwnd == 0
            and self.scoreboard.empty
            and (self._app_bytes > 0 or self._fin_pending)
        )
        if window_blocked:
            if self._persist_timer is None or not self._persist_timer.pending:
                if self._recorder is not None and self._persist_backoff == 0:
                    self.trace_event("zwnd", "enter")
                self._arm_persist_timer()
        else:
            self._persist_backoff = 0
            if self._persist_timer is not None:
                if self._recorder is not None:
                    self.trace_event("zwnd", "exit")
                self._persist_timer.cancel()
                self._persist_timer = None

    def _arm_persist_timer(self) -> None:
        delay = min(
            max(self.rto_estimator.rto, PERSIST_MIN)
            * (1 << self._persist_backoff),
            PERSIST_MAX,
        )
        self._persist_timer = self.engine.schedule(delay, self._on_persist)

    def _on_persist(self) -> None:
        self._persist_timer = None
        if self.rwnd > 0 or self.failed:
            return
        if self._app_bytes <= 0 and not self._fin_pending:
            return
        # Probe with one already-acked byte: elicits an immediate ACK
        # (carrying the current window) without consuming new sequence
        # space.
        self.stats.zero_window_probes += 1
        probe_seq = seq_add(self.snd_una, -1 % (1 << 32))
        if self._recorder is not None:
            self.trace_event("zwnd", "probe", seq=probe_seq)
        self.transmit(probe_seq, 1, False, True)
        if self._persist_backoff < 8:
            self._persist_backoff += 1
        self._arm_persist_timer()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _send_window_bytes(self) -> int:
        """How many more bytes the send window currently allows."""
        window = self.cwnd * self.mss
        rwnd = self.rwnd
        if rwnd < window:
            window = rwnd
        free = window - self.outstanding_bytes
        return free if free > 0 else 0

    def try_send(self) -> None:
        """Transmit retransmissions then new data as windows allow."""
        if self.failed:
            return
        if self.ca_state in (self.RECOVERY, self.LOSS):
            self._send_retransmissions()
        self._send_new_data()
        if self._retx_timer is None and not self.scoreboard.empty:
            self._arm_retx_timer()
        self._update_persist_state()

    def _send_retransmissions(self) -> None:
        while self.scoreboard.in_flight < self.cwnd:
            if self.ca_state == self.LOSS:
                seg = self.scoreboard.next_rto_retransmittable()
            else:
                seg = self.scoreboard.next_retransmittable()
            if seg is None or seg.retrans_outstanding:
                return
            self.retransmit_segment(
                seg,
                fast=self.ca_state == self.RECOVERY,
                rto=self.ca_state == self.LOSS,
            )

    def _send_new_data(self) -> None:
        if not self.pacing:
            while self._send_one_new():
                pass
            return
        # Pacing: one segment now, the next after srtt/cwnd.
        if self._pacing_timer is not None and self._pacing_timer.pending:
            return
        self._pace_one()

    def _pace_one(self) -> None:
        self._pacing_timer = None
        if self.failed:
            return
        if self._send_one_new() and (
            self._app_bytes > 0
            or (self._fin_pending and not self._fin_sent)
        ):
            self._pacing_timer = self.engine.schedule(
                self._pacing_interval(), self._pace_one
            )

    def _pacing_interval(self) -> float:
        srtt = self.rto_estimator.srtt or 0.05
        return srtt / max(self.cwnd, 1)

    def _send_one_new(self) -> bool:
        """Transmit at most one new segment; True when one was sent."""
        app_bytes = self._app_bytes
        if app_bytes > 0:
            mss = self.mss
            length = app_bytes if app_bytes < mss else mss
            if (
                self.scoreboard.in_flight >= self.cwnd
                or self._send_window_bytes() < length
            ):
                return False
            fin = self._fin_pending and self._app_bytes == length
            self._transmit_new(length, fin)
            return True
        if (
            self._fin_pending
            and not self._fin_sent
            and self.scoreboard.in_flight < self.cwnd
        ):
            self._transmit_new(0, True)
            return True
        return False

    def _transmit_new(self, length: int, fin: bool) -> None:
        seq = self.snd_nxt
        now = self.engine.now
        end_seq = seq_add(seq, length + (1 if fin else 0))
        self.scoreboard.add(
            Segment(
                seq=seq,
                end_seq=end_seq,
                first_tx_time=now,
                last_tx_time=now,
                is_fin=fin,
            )
        )
        self.snd_nxt = end_seq
        self._app_bytes -= length
        if fin:
            self._fin_sent = True
            self._fin_pending = False
        self.stats.data_segments_sent += 1
        self.stats.bytes_sent += length
        self.transmit(seq, length, fin, False)
        # Linux rearms the retransmission timer on every new-data
        # transmission (tcp_event_new_data_sent -> tcp_rearm_rto);
        # probe timers (TLP/S-RTO) are likewise rescheduled, so a PTO
        # is measured from the *end* of a burst, not its start.
        self._arm_retx_timer()

    def retransmit_segment(
        self,
        seg: Segment,
        fast: bool = False,
        rto: bool = False,
        probe: bool = False,
    ) -> None:
        """(Re)transmit one scoreboard segment."""
        self.scoreboard.mark_retransmitted(seg, self.engine.now)
        if self._undo_marker is not None:
            self._undo_retrans += 1
        if fast:
            seg.fast_retrans = True
        if rto:
            seg.rto_retrans = True
        if probe:
            seg.probe_retrans = True
        self.stats.retransmissions += 1
        self.stats.data_segments_sent += 1
        length = seg.length - (1 if seg.is_fin else 0)
        self.stats.bytes_sent += length
        if self._recorder is not None:
            detail = (
                "fast"
                if fast
                else "rto" if rto else "probe" if probe else "recovery"
            )
            self.trace_event("retx", detail, seq=seg.seq)
        self.transmit(seg.seq, length, seg.is_fin, True)
