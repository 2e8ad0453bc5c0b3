"""Retransmission-timeout estimation, Linux ``tcp_rtt_estimator`` style.

The paper's stall definition — a gap exceeding ``min(2 * SRTT, RTO)`` —
uses "SRTT and RTO calculated according to RFC 6298 as implemented in
the Linux kernel", so this class reproduces the *kernel's* estimator
rather than the plain RFC text.  The differences matter enormously for
the observed RTO distribution (Fig. 1):

* ``RTO = SRTT + rttvar4`` where ``rttvar4`` (the kernel's ``rttvar``,
  approximately four mean deviations) is a **windowed maximum**: it
  rises immediately with any deviation but decays by only 25% per
  round trip (``tcp_rtt_estimator``'s ``mdev_max`` logic);
* the per-window deviation floor is ``TCP_RTO_MIN`` (200 ms), so the
  RTO never falls below ``SRTT + 200 ms`` — this, not a flat 200 ms
  clamp, is why kernel RTOs sit an order of magnitude above the RTT on
  low-latency paths;
* exponential backoff doubles the RTO on every expiry (bounded by
  ``TCP_RTO_MAX`` = 120 s);
* Karn's rule — retransmitted segments never produce samples — is
  enforced by the callers (timestamps lift it where present).

The same class is shared between the TCP sender
(:mod:`repro.tcp.sender`) and the passive analyzer (:mod:`repro.core`):
both must compute identical SRTT/RTO values from the same samples.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .constants import INITIAL_RTO, MAX_RTO, MIN_RTO

#: Estimator-update observer: ``(kind, value)`` where ``kind`` is
#: ``"seed"``, ``"sample"`` or ``"timeout"`` and ``value`` the RTT
#: sample (or seeded SRTT) in seconds; 0.0 for timeouts.
RTOObserver = Callable[[str, float], None]


@dataclass
class RTOEstimator:
    """SRTT / RTTVAR / RTO state for one connection."""

    min_rto: float = MIN_RTO
    max_rto: float = MAX_RTO
    initial_rto: float = INITIAL_RTO

    #: Flight-recorder hook, called after every estimator update.
    #: ``None`` (the default) keeps the estimator observer-free.
    on_update: RTOObserver | None = field(
        default=None, repr=False, compare=False
    )

    srtt: float | None = None
    #: Mean deviation (true units, the kernel's ``mdev / 4``).
    mdev: float = 0.0
    #: Windowed maximum of ``4 * mdev`` within the current RTT window.
    mdev_max: float = field(default=MIN_RTO)
    #: The kernel's ``rttvar``: the value actually added to SRTT.
    rttvar4: float = 0.0
    backoff: int = 0
    samples: int = 0
    _window_end: float | None = None

    ALPHA = 1 / 8
    BETA = 1 / 4

    def seed(self, srtt: float, rttvar4: float) -> None:
        """Initialize from cached destination metrics (Linux inherits
        ``srtt``/``rttvar`` from previous connections to the same peer
        unless ``tcp_no_metrics_save`` is set)."""
        self.srtt = max(srtt, 0.001)
        self.rttvar4 = max(rttvar4, self.min_rto)
        self.mdev = self.rttvar4 / 4
        self.mdev_max = self.min_rto
        if self.on_update is not None:
            self.on_update("seed", self.srtt)

    def observe(self, rtt: float, now: float | None = None) -> None:
        """Fold one RTT sample (seconds) into the estimator.

        ``now`` drives the once-per-RTT rttvar decay window; without it
        the window advances every 8 samples (a fair proxy for one
        window of ACKs).
        """
        if rtt <= 0:
            return
        self.samples += 1
        srtt = self.srtt
        if srtt is None:
            self.srtt = rtt
            self.mdev = rtt / 2
            self.rttvar4 = max(2 * rtt, self.min_rto)
            self.mdev_max = self.rttvar4
            self._advance_window(now)
            if self.on_update is not None:
                self.on_update("sample", rtt)
            return
        err = rtt - srtt
        self.srtt = srtt + self.ALPHA * err
        aerr = abs(err)
        mdev = self.mdev
        if err < 0 and aerr > mdev:
            # The kernel damps sudden *downward* RTT jumps so that one
            # fast sample does not collapse the deviation estimate.
            mdev += (aerr - mdev) * self.BETA / 8
        else:
            mdev += (aerr - mdev) * self.BETA
        self.mdev = mdev
        if 4 * mdev > self.mdev_max:
            self.mdev_max = 4 * mdev
            if self.mdev_max > self.rttvar4:
                self.rttvar4 = self.mdev_max
        # Inside the RTT window (nearly every sample) there is nothing
        # to close.
        window_end = self._window_end
        if now is None or window_end is None or not now < window_end:
            self._maybe_close_window(now)
        if self.on_update is not None:
            self.on_update("sample", rtt)

    def _advance_window(self, now: float | None) -> None:
        if now is not None and self.srtt is not None:
            self._window_end = now + self.srtt
        else:
            self._window_end = None

    def _maybe_close_window(self, now: float | None) -> None:
        """Once per RTT: decay rttvar toward the window max and reset
        the window floor to TCP_RTO_MIN."""
        if now is not None:
            if self._window_end is not None and now < self._window_end:
                return
        elif self.samples % 8:
            return
        if self.mdev_max < self.rttvar4:
            self.rttvar4 -= (self.rttvar4 - self.mdev_max) * self.BETA
        self.mdev_max = self.min_rto
        self._advance_window(now)

    @property
    def rttvar(self) -> float:
        """Mean-deviation view (compatibility helper): rttvar4 / 4."""
        return self.rttvar4 / 4

    @property
    def base_rto(self) -> float:
        """RTO without backoff applied: ``SRTT + rttvar4``."""
        if self.srtt is None:
            return self.initial_rto
        rto = self.srtt + max(self.rttvar4, self.min_rto)
        return min(max(rto, self.min_rto), self.max_rto)

    @property
    def rto(self) -> float:
        """Current RTO including exponential backoff."""
        return min(self.base_rto * (1 << self.backoff), self.max_rto)

    def on_timeout(self) -> None:
        """Record an expiry: double the RTO (bounded)."""
        if self.base_rto * (1 << self.backoff) < self.max_rto:
            self.backoff += 1
        if self.on_update is not None:
            self.on_update("timeout", 0.0)

    def on_ack(self) -> None:
        """An ACK of new data clears the backoff."""
        self.backoff = 0

    def stall_threshold(self, tau: float = 2.0) -> float:
        """The paper's stall threshold ``min(tau * SRTT, RTO)``.

        Before any sample exists the RTO alone is used.
        """
        if self.srtt is None:
            return self.rto
        return min(tau * self.srtt, self.rto)

    def stall_floor(self, tau: float = 2.0) -> float:
        """A lower bound of :meth:`stall_threshold` that costs one
        multiply: ``min(tau * SRTT, min_rto)``, 0.0 before any sample.

        The RTO is at least ``min_rto`` under any backoff, so a gap at
        or below the floor is never a stall; it moves only with SRTT,
        so the packet loops refresh it where they fold a sample in and
        consult the exact threshold only for longer gaps.
        """
        if self.srtt is None:
            return 0.0
        return min(tau * self.srtt, self.min_rto)
