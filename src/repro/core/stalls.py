"""Stall data model: causes, contexts, and detected stall records.

A *TCP stall* (Sec. 2.2 of the paper) is a gap between two consecutive
packets seen at the server — in either direction — longer than
``min(tau * SRTT, RTO)`` with ``tau = 2``.  Because a stall is defined
by consecutive packets, **no packet exists inside a stall**: every
classification decision uses the flow state frozen at the stall's
start plus the identity of the packet that ends it (``cur_pkt``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: The paper's tau: a healthy sender moves at least one packet per 2 RTTs.
STALL_TAU = 2.0


class StallCause(enum.Enum):
    """Top-level stall causes (Fig. 5 / Table 3)."""

    DATA_UNAVAILABLE = "data_unavailable"  # server: back-end fetch
    RESOURCE_CONSTRAINT = "resource_constraint"  # server: app gave no data
    CLIENT_IDLE = "client_idle"  # client: no request pending
    ZERO_RWND = "zero_rwnd"  # client: window closed
    PACKET_DELAY = "packet_delay"  # network: delay without retransmission
    RETRANSMISSION = "retransmission"  # network: timeout retransmission
    UNDETERMINED = "undetermined"


class RetxCause(enum.Enum):
    """Breakdown of timeout-retransmission stalls (Table 5), listed in
    the order the paper examines the rules."""

    DOUBLE = "double_retrans"
    TAIL = "tail_retrans"
    SMALL_CWND = "small_cwnd"
    SMALL_RWND = "small_rwnd"
    CONTINUOUS_LOSS = "continuous_loss"
    ACK_DELAY_LOSS = "ack_delay_loss"
    UNDETERMINED = "undetermined"


class DoubleKind(enum.Enum):
    """Was the *first* retransmission of the doubly-lost segment a fast
    retransmit (f-double) or itself timeout-driven (t-double)?
    (Fig. 8 / Table 6)."""

    F_DOUBLE = "f-double"
    T_DOUBLE = "t-double"


class CaState(enum.Enum):
    """Reconstructed congestion-avoidance states (Fig. 4)."""

    OPEN = "Open"
    DISORDER = "Disorder"
    RECOVERY = "Recovery"
    LOSS = "Loss"


@dataclass
class StallContext:
    """Table 2 parameter snapshot, frozen at the stall's start."""

    ca_state: CaState = CaState.OPEN
    packets_out: int = 0
    sacked_out: int = 0
    lost_out: int = 0  # true value, refined with DSACK knowledge
    retrans_out: int = 0
    holes: int = 0
    in_flight: int = 0
    #: Packets sent but not yet ACKed or SACKed (the definition the
    #: paper's Fig. 7b / 10b captions use).
    unsacked_out: int = 0
    snd_una: int = 0
    snd_nxt: int = 0
    cwnd: int = 0  # mimicked congestion window (segments)
    rwnd: int = 0  # last advertised receive window (bytes)
    init_rwnd: int = 0  # from the client SYN (bytes)
    mss: int = 1448
    #: A request has been fully received but its response not started.
    request_pending: bool = False
    #: Any response data had been sent since the last request.
    response_started: bool = False
    #: Bytes of response data the server has sent so far (for file_pos).
    bytes_sent: int = 0


@dataclass
class Stall:
    """One detected stall with its classification."""

    start_time: float
    end_time: float
    threshold: float
    cur_pkt_index: int  # index into the flow's packet list
    cur_pkt_dir_in: bool
    cur_pkt_is_data: bool
    cur_pkt_is_retrans: bool
    cur_pkt_seq: int
    cur_pkt_payload: int
    context: StallContext = field(default_factory=StallContext)
    cause: StallCause = StallCause.UNDETERMINED
    retx_cause: RetxCause | None = None
    double_kind: DoubleKind | None = None
    #: ca_state when a tail retransmission stall began (Table 7).
    tail_state: CaState | None = None
    #: Relative position of the stall in the flow [0, 1] (Fig. 7a/10a).
    position: float = 0.0

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def describe(self) -> str:
        parts = [
            f"stall {self.duration * 1000:.0f}ms at t={self.start_time:.3f}",
            f"cause={self.cause.value}",
        ]
        if self.retx_cause is not None:
            parts.append(f"retx={self.retx_cause.value}")
        if self.double_kind is not None:
            parts.append(self.double_kind.value)
        parts.append(f"state={self.context.ca_state.value}")
        parts.append(f"in_flight={self.context.in_flight}")
        return " ".join(parts)
