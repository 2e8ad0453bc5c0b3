"""Unidirectional links with rate, delay, queueing, loss and jitter.

A :class:`Link` models the path one direction of a TCP connection
takes: a drop-tail bottleneck queue draining at ``rate_bps``, a fixed
propagation delay, a stochastic loss process and optional jitter
(which may reorder packets when ``allow_reorder`` is set, mimicking
multi-path routing).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from ..packet.packet import PacketRecord
from .engine import EventLoop
from .loss import JitterModel, LossModel, NoJitter, NoLoss

PacketSink = Callable[[PacketRecord], None]


@dataclass
class LinkStats:
    """Counters exposed for tests and experiment sanity checks."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_queue: int = 0
    bytes_delivered: int = 0

    @property
    def drop_rate(self) -> float:
        if not self.sent:
            return 0.0
        return (self.dropped_loss + self.dropped_queue) / self.sent


class Link:
    """One direction of a network path.

    Parameters
    ----------
    engine:
        The simulation event loop.
    delay:
        One-way propagation delay in seconds.
    rate_bps:
        Bottleneck bandwidth in bits per second (None = infinite).
    queue_limit:
        Maximum packets queued at the bottleneck (drop-tail). Only
        meaningful with a finite rate.
    loss / jitter:
        Stochastic models, see :mod:`repro.netsim.loss`.
    allow_reorder:
        When False (default) delivery order is forced FIFO even under
        jitter; when True large jitter can reorder packets.
    """

    # 40 bytes of IP+TCP header are charged per packet on the wire.
    HEADER_OVERHEAD = 40

    def __init__(
        self,
        engine: EventLoop,
        sink: PacketSink,
        delay: float = 0.05,
        rate_bps: float | None = None,
        queue_limit: int = 1000,
        loss: LossModel | None = None,
        jitter: JitterModel | None = None,
        rng: random.Random | None = None,
        allow_reorder: bool = False,
        name: str = "link",
    ):
        if delay < 0:
            raise ValueError("negative propagation delay")
        self.engine = engine
        self.sink = sink
        self.delay = delay
        self.rate_bps = rate_bps
        self.queue_limit = queue_limit
        self.loss = loss or NoLoss()
        self.jitter = jitter or NoJitter()
        self.rng = rng or random.Random(0)
        self.allow_reorder = allow_reorder
        self.name = name
        self.stats = LinkStats()
        self._busy_until = 0.0
        self._last_delivery = 0.0
        self._queued = 0

    def send(self, pkt: PacketRecord) -> None:
        """Inject a packet into the link."""
        engine = self.engine
        now = engine.now
        stats = self.stats
        stats.sent += 1
        if self.loss.should_drop(self.rng, now, pkt):
            stats.dropped_loss += 1
            return
        rate_bps = self.rate_bps
        if rate_bps is None:
            depart = now
        else:
            busy_until = self._busy_until
            if self._queued >= self.queue_limit and busy_until > now:
                stats.dropped_queue += 1
                return
            wire_bytes = pkt.payload_len + self.HEADER_OVERHEAD
            tx_time = wire_bytes * 8 / rate_bps
            start = busy_until if busy_until > now else now
            depart = start + tx_time
            self._busy_until = depart
            self._queued += 1
            # The packet occupies the bottleneck queue only until it
            # finishes serializing; time on the wire afterwards must
            # not count against the queue limit.  Neither event is
            # ever cancelled, so neither needs a Timer handle.
            engine._push(depart, self._on_depart)
        arrival = depart + self.delay + self.jitter.extra_delay(self.rng, now)
        if not self.allow_reorder:
            last_delivery = self._last_delivery
            if last_delivery > arrival:
                arrival = last_delivery
            self._last_delivery = arrival
        engine._push(arrival, partial(self._deliver, pkt))

    def _on_depart(self) -> None:
        queued = self._queued - 1
        self._queued = queued if queued > 0 else 0

    def _deliver(self, pkt: PacketRecord) -> None:
        self.stats.delivered += 1
        self.stats.bytes_delivered += pkt.payload_len
        self.sink(pkt)

    def reset_models(self) -> None:
        """Return the loss and jitter models to their initial state."""
        self.loss.reset()
        self.jitter.reset()


class DuplexPath:
    """A pair of links forming a bidirectional path.

    ``forward`` carries server -> client traffic (data), ``reverse``
    carries client -> server traffic (ACKs).  The two directions have
    independent loss and jitter, which is essential: ACK-direction loss
    is a distinct stall cause in the paper.
    """

    def __init__(self, forward: Link, reverse: Link):
        self.forward = forward
        self.reverse = reverse

    @property
    def rtt_floor(self) -> float:
        """Minimum round-trip time (propagation only)."""
        return self.forward.delay + self.reverse.delay


@dataclass
class PathConfig:
    """Declarative path description used by scenarios.

    ``data_*`` applies to the server->client direction and ``ack_*`` to
    the reverse direction; ``ack_loss`` defaults to the data loss model
    when None.
    """

    delay: float = 0.05
    rate_bps: float | None = 50e6
    queue_limit: int = 256
    data_loss: LossModel = field(default_factory=NoLoss)
    ack_loss: LossModel | None = None
    data_jitter: JitterModel = field(default_factory=NoJitter)
    ack_jitter: JitterModel = field(default_factory=NoJitter)
    allow_reorder: bool = False

    def build(
        self,
        engine: EventLoop,
        to_client: PacketSink,
        to_server: PacketSink,
        rng: random.Random,
    ) -> DuplexPath:
        forward = Link(
            engine,
            to_client,
            delay=self.delay,
            rate_bps=self.rate_bps,
            queue_limit=self.queue_limit,
            loss=self.data_loss,
            jitter=self.data_jitter,
            rng=rng,
            allow_reorder=self.allow_reorder,
            name="data",
        )
        reverse = Link(
            engine,
            to_server,
            delay=self.delay,
            rate_bps=self.rate_bps,
            queue_limit=self.queue_limit,
            loss=self.ack_loss if self.ack_loss is not None else NoLoss(),
            jitter=self.ack_jitter,
            rng=rng,
            allow_reorder=self.allow_reorder,
            name="ack",
        )
        return DuplexPath(forward, reverse)
