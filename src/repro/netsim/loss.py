"""Packet loss and delay-variation models.

The paper's stall taxonomy needs several distinct network behaviours:

* random isolated drops (drive fast-retransmit, double retransmission),
* bursty drops that take out a whole window (continuous-loss stalls,
  Sec. 4.3 / Fig. 12) — modelled with a Gilbert-Elliott chain,
* one-way delay jitter and reordering (packet-delay stalls, spurious
  retransmissions),
* ACK-direction loss (ACK delay/loss stalls).

All models draw from an injected :class:`random.Random` so experiments
are reproducible from a single seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


class LossModel:
    """Decides, per packet, whether the network drops it.

    ``now`` is the simulation clock; time-based models (bursts with a
    duration in seconds) need it.  ``pkt`` is the packet under
    consideration — stochastic models ignore it, but scripted models
    (tests, the Fig. 2 scenario) can target specific segments.
    """

    def should_drop(self, rng: random.Random, now: float = 0.0, pkt=None) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any internal state (e.g. burst phase)."""


@dataclass
class NoLoss(LossModel):
    """A perfect link."""

    def should_drop(self, rng: random.Random, now: float = 0.0, pkt=None) -> bool:
        return False


@dataclass
class BernoulliLoss(LossModel):
    """Independent drops with fixed probability ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate {self.rate} outside [0, 1]")

    def should_drop(self, rng: random.Random, now: float = 0.0, pkt=None) -> bool:
        return rng.random() < self.rate


class GilbertElliottLoss(LossModel):
    """Two-state burst-loss chain.

    In the *good* state packets drop with probability ``good_loss``
    (usually ~0); in the *bad* state with ``bad_loss`` (near 1, which
    is what wipes out a whole in-flight window at once).  ``p_gb`` and
    ``p_bg`` are the per-packet transition probabilities good->bad and
    bad->good.
    """

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        good_loss: float = 0.0,
        bad_loss: float = 1.0,
    ):
        for name, value in (
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self._bad = False

    def should_drop(self, rng: random.Random, now: float = 0.0, pkt=None) -> bool:
        if self._bad:
            if rng.random() < self.p_bg:
                self._bad = False
        else:
            if rng.random() < self.p_gb:
                self._bad = True
        rate = self.bad_loss if self._bad else self.good_loss
        return rng.random() < rate

    def reset(self) -> None:
        self._bad = False

    def steady_state_loss(self) -> float:
        """Long-run average drop probability of the chain."""
        if self.p_gb == 0 and self.p_bg == 0:
            return self.good_loss
        pi_bad = self.p_gb / (self.p_gb + self.p_bg)
        return pi_bad * self.bad_loss + (1 - pi_bad) * self.good_loss


class TimedBurstLoss(LossModel):
    """Burst loss with *time-based* state sojourns.

    The link alternates between a good state (loss ``good_loss``) and a
    bad state (loss ``bad_loss``) whose durations are exponential with
    means ``mean_good`` / ``mean_bad`` seconds.  Unlike the per-packet
    Gilbert-Elliott chain, an outage here ends after a bounded wall-
    clock time, so a sender probing once per RTO escapes the burst —
    matching how real congestion episodes behave.  Bursts of
    ~100-300 ms are what take out a whole in-flight window at once
    (the paper's *continuous loss* stalls, Fig. 12).
    """

    def __init__(
        self,
        mean_good: float = 20.0,
        mean_bad: float = 0.15,
        good_loss: float = 0.0,
        bad_loss: float = 0.9,
    ):
        if mean_good <= 0 or mean_bad <= 0:
            raise ValueError("state durations must be positive")
        for name, value in (("good_loss", good_loss), ("bad_loss", bad_loss)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        self.mean_good = mean_good
        self.mean_bad = mean_bad
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self._bad = False
        self._next_transition: float | None = None

    def _advance(self, rng: random.Random, now: float) -> None:
        if self._next_transition is None:
            self._next_transition = now + rng.expovariate(1 / self.mean_good)
        while now >= self._next_transition:
            self._bad = not self._bad
            if self._bad:
                # Bounded burst length: long enough to swallow a fast
                # retransmission one RTT later, never long enough to
                # outlast an RTO backoff cascade.
                sojourn = rng.uniform(0.3 * self.mean_bad, 1.7 * self.mean_bad)
            else:
                sojourn = rng.expovariate(1 / self.mean_good)
            self._next_transition += sojourn

    def should_drop(self, rng: random.Random, now: float = 0.0, pkt=None) -> bool:
        self._advance(rng, now)
        rate = self.bad_loss if self._bad else self.good_loss
        return rng.random() < rate

    def reset(self) -> None:
        self._bad = False
        self._next_transition = None

    def steady_state_loss(self) -> float:
        """Long-run average drop probability."""
        pi_bad = self.mean_bad / (self.mean_good + self.mean_bad)
        return pi_bad * self.bad_loss + (1 - pi_bad) * self.good_loss


class ScriptedDrop(LossModel):
    """Deterministically drop chosen data segments (tests, figures).

    ``first_tx_indices`` selects segments by the order of their *first*
    transmission over this link (0-based, counting only packets with
    payload).  Each selected segment is dropped ``1 + extra_drops``
    times — ``extra_drops=1`` also kills its first retransmission,
    which manufactures the paper's double-retransmission stalls.
    """

    def __init__(self, first_tx_indices, extra_drops: int = 0):
        self.first_tx_indices = set(first_tx_indices)
        self.extra_drops = extra_drops
        self._order: dict[int, int] = {}
        self._drops_left: dict[int, int] = {}

    def should_drop(self, rng: random.Random, now: float = 0.0, pkt=None) -> bool:
        if pkt is None or pkt.payload_len == 0:
            return False
        if pkt.seq not in self._order:
            index = len(self._order)
            self._order[pkt.seq] = index
            if index in self.first_tx_indices:
                self._drops_left[pkt.seq] = 1 + self.extra_drops
        if self._drops_left.get(pkt.seq, 0) > 0:
            self._drops_left[pkt.seq] -= 1
            return True
        return False

    def reset(self) -> None:
        self._order.clear()
        self._drops_left.clear()


class IncastBurstLoss(LossModel):
    """Synchronized incast drops a few packets into a burst.

    Data-center incast (many servers answering one aggregator at once)
    overflows the shallow switch buffer a few packets *into* the
    synchronized burst: the front of each flow's window is queued
    while the buffer still has room, then the fan-in collides and the
    next packets are lost together.  The model schedules loss epochs
    with exponential inter-arrival ``mean_interval`` seconds; once a
    flow hits an armed epoch, its first ``skip_min``..``skip_max``
    payload packets pass (buffer still filling), the following
    ``burst_min``..``burst_max`` are dropped, and the link is clean
    again until the next epoch.

    The resulting signature is what T-RACKs targets: a short flow
    loses packets near the *tail* of its window, at most a couple of
    segments arrive behind the hole — duplicate ACKs below
    ``dupthres`` — and a native sender has nothing left to do but wait
    out a 200 ms-floored RTO on a sub-millisecond path.
    """

    def __init__(
        self,
        mean_interval: float = 0.05,
        burst_min: int = 2,
        burst_max: int = 4,
        skip_min: int = 2,
        skip_max: int = 6,
    ):
        if mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        if not 1 <= burst_min <= burst_max:
            raise ValueError("need 1 <= burst_min <= burst_max")
        if not 0 <= skip_min <= skip_max:
            raise ValueError("need 0 <= skip_min <= skip_max")
        self.mean_interval = mean_interval
        self.burst_min = burst_min
        self.burst_max = burst_max
        self.skip_min = skip_min
        self.skip_max = skip_max
        self._next_epoch: float | None = None
        self._skip_left = 0
        self._drops_left = 0

    def should_drop(self, rng: random.Random, now: float = 0.0, pkt=None) -> bool:
        if self._next_epoch is None:
            self._next_epoch = now + rng.expovariate(1 / self.mean_interval)
        burst = False
        # Catch up over idle gaps: epochs with no traffic dropped
        # nothing, so only the most recent one arms a burst.
        while now >= self._next_epoch:
            burst = True
            self._next_epoch += rng.expovariate(1 / self.mean_interval)
        if burst:
            self._skip_left = rng.randint(self.skip_min, self.skip_max)
            self._drops_left = rng.randint(self.burst_min, self.burst_max)
        if pkt is not None and pkt.payload_len == 0:
            return False
        if self._skip_left > 0:
            self._skip_left -= 1
            return False
        if self._drops_left > 0:
            self._drops_left -= 1
            return True
        return False

    def reset(self) -> None:
        self._next_epoch = None
        self._skip_left = 0
        self._drops_left = 0


class CompositeLoss(LossModel):
    """Union of several loss models (drop when any model drops)."""

    def __init__(self, *models: LossModel):
        self.models = list(models)

    def should_drop(self, rng: random.Random, now: float = 0.0, pkt=None) -> bool:
        dropped = False
        # Evaluate every model so each consumes its randomness
        # deterministically regardless of the others' outcomes.
        for model in self.models:
            if model.should_drop(rng, now, pkt):
                dropped = True
        return dropped

    def reset(self) -> None:
        for model in self.models:
            model.reset()


class JitterModel:
    """Adds a random extra one-way delay to each packet.

    ``now`` is the simulation clock, used by time-correlated models.
    """

    def extra_delay(self, rng: random.Random, now: float = 0.0) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any state carried between packets (stateless: no-op)."""


@dataclass
class NoJitter(JitterModel):
    def extra_delay(self, rng: random.Random, now: float = 0.0) -> float:
        return 0.0


@dataclass
class UniformJitter(JitterModel):
    """Uniform jitter in ``[0, max_jitter]`` seconds."""

    max_jitter: float

    def extra_delay(self, rng: random.Random, now: float = 0.0) -> float:
        return rng.uniform(0.0, self.max_jitter)


class RandomWalkJitter(JitterModel):
    """Slowly-varying extra delay: cross-traffic queueing.

    The extra one-way delay follows a reflected Gaussian random walk in
    ``[floor, max_delay]`` whose step scales with the square root of
    elapsed time.  This reproduces the bufferbloat-era access links the
    paper measured: the *minimum* RTT stays low, but the RTT wanders by
    hundreds of milliseconds over seconds, inflating RTTVAR and hence
    the very conservative RTOs of Fig. 1 (RTO an order of magnitude
    above the RTT for 40% of flows), and occasionally producing pure
    *packet delay* stalls with no loss at all (the paper's Fig. 2).
    """

    def __init__(
        self,
        max_delay: float = 0.5,
        volatility: float = 0.12,
        floor: float = 0.0,
        start_fraction: float = 0.25,
    ):
        if max_delay <= 0 or volatility < 0:
            raise ValueError("max_delay must be positive, volatility >= 0")
        self.max_delay = max_delay
        self.volatility = volatility
        self.floor = floor
        self.start_fraction = start_fraction
        self._current: float | None = None
        self._last_time = 0.0

    def extra_delay(self, rng: random.Random, now: float = 0.0) -> float:
        if self._current is None:
            self._current = self.floor + rng.uniform(
                0.0, self.max_delay * self.start_fraction
            )
            self._last_time = now
            return self._current
        # max(0.0, min(now - last, 5.0)), as conditional expressions.
        dt = now - self._last_time
        dt = 5.0 if 5.0 < dt else dt
        dt = dt if dt > 0.0 else 0.0
        self._last_time = now
        if dt > 0:
            step = rng.gauss(0.0, self.volatility * math.sqrt(dt))
            value = self._current + step
            # Reflect at the boundaries to avoid sticking at the edges.
            if value > self.max_delay:
                value = 2 * self.max_delay - value
            if value < self.floor:
                value = 2 * self.floor - value
            # min(max_delay, max(floor, value))
            value = value if value > self.floor else self.floor
            self._current = (
                value if value < self.max_delay else self.max_delay
            )
        return self._current

    def reset(self) -> None:
        self._current = None


class CompositeJitter(JitterModel):
    """Sum of several jitter models (e.g. random walk + spikes)."""

    def __init__(self, *models: JitterModel):
        self.models = list(models)

    def extra_delay(self, rng: random.Random, now: float = 0.0) -> float:
        # Left to right from an int zero, as ``sum`` adds: the float
        # result is part of every packet timestamp.
        total = 0
        for model in self.models:
            total += model.extra_delay(rng, now)
        return total

    def reset(self) -> None:
        for model in self.models:
            model.reset()


@dataclass
class SpikeJitter(JitterModel):
    """Mostly-quiet jitter with occasional large delay spikes.

    With probability ``spike_prob`` a packet is held for an extra
    delay drawn uniformly from ``[spike_low, spike_high]``; otherwise
    uniform jitter in ``[0, base_jitter]`` applies.  Spikes between the
    stall threshold and the RTO produce the paper's *packet delay*
    stalls; spikes beyond the RTO trigger spurious retransmissions
    (*ACK delay/loss* stalls) without any actual loss.
    """

    base_jitter: float = 0.002
    spike_prob: float = 0.001
    spike_low: float = 0.2
    spike_high: float = 0.6

    def extra_delay(self, rng: random.Random, now: float = 0.0) -> float:
        # ``rng.uniform(a, b)`` is ``a + (b - a) * rng.random()``, and
        # ``b * rng.random()`` for ``a = 0.0``: spelled out, the draws
        # and the floats are the same without the method call.
        if rng.random() < self.spike_prob:
            low = self.spike_low
            return low + (self.spike_high - low) * rng.random()
        return self.base_jitter * rng.random()


class RadioWakeJitter(JitterModel):
    """Cellular radio idle->active promotion latency.

    A cellular modem drops from DCH/active to an idle state after
    ``idle_threshold`` seconds without traffic; the next packet then
    pays a state-promotion delay of hundreds of milliseconds to
    seconds (RRC signalling) before the bearer is up again.  The first
    packet of a flow, and the first packet after any sufficiently long
    quiet gap, is delayed by ``uniform(promo_low, promo_high)``;
    packets on a warm radio pass untouched.

    For the recovery policies this is pure RTT *variance*: the first
    RTT sample of a flow can be 10x the path RTT, which both seeds the
    RTO absurdly high and — when the promotion hits mid-flow — looks
    exactly like a loss to any policy with a non-adaptive probe timer.
    """

    def __init__(
        self,
        idle_threshold: float = 2.0,
        promo_low: float = 0.2,
        promo_high: float = 1.2,
    ):
        if idle_threshold <= 0:
            raise ValueError("idle_threshold must be positive")
        if not 0.0 <= promo_low <= promo_high:
            raise ValueError("need 0 <= promo_low <= promo_high")
        self.idle_threshold = idle_threshold
        self.promo_low = promo_low
        self.promo_high = promo_high
        self._last_activity: float | None = None

    def extra_delay(self, rng: random.Random, now: float = 0.0) -> float:
        idle = (
            self._last_activity is None
            or now - self._last_activity >= self.idle_threshold
        )
        self._last_activity = now
        if idle:
            return rng.uniform(self.promo_low, self.promo_high)
        return 0.0

    def reset(self) -> None:
        self._last_activity = None
