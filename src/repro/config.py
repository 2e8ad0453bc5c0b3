"""Frozen configuration objects for the public API.

Historically every entry point grew its own keyword soup — ``tau``,
``init_cwnd``, ``record_series`` on the analyzer side; ``workers``,
``use_cache``, chunking knobs on the experiment side.  The supported
surface now takes two value objects instead:

* :class:`AnalysisConfig` — how TAPO mimics the server's stack
  (stall threshold, shadow window, optional kernel-variable series);
* :class:`RunConfig` — how work is executed (worker processes, cache
  usage, chunk sizing, streaming backpressure).

Both are frozen dataclasses: hashable, comparable, safe to share
across worker processes, and usable as cache-key components.  They are
the only spelling: the per-entry-point keywords they replaced were
removed in 2.0.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

from .errors import ErrorBudget


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request: ``None``/``0`` = all cores."""
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    return max(1, int(workers))


def validate_policies(names) -> tuple[str, ...]:
    """Resolve recovery-policy names through the policy registry.

    Every surface that selects policies by name — ``--policy`` /
    ``--policies`` flags, :class:`repro.matrix.MatrixConfig` — funnels
    through here, so an unknown name always fails the same way: a
    ``ValueError`` naming the registered policies (raised by
    :meth:`repro.tcp.policies.PolicyRegistry.get`).  Returns the names
    as a tuple, order preserved, duplicates rejected.
    """
    from .tcp.policies import REGISTRY

    resolved: list[str] = []
    for name in names:
        REGISTRY.get(name)
        if name in resolved:
            raise ValueError(f"recovery policy {name!r} selected twice")
        resolved.append(name)
    return tuple(resolved)


@dataclass(frozen=True)
class AnalysisConfig:
    """How TAPO analyzes a flow (the paper's Sec. 3 knobs).

    Parameters
    ----------
    tau:
        Stall-threshold multiplier on SRTT; a gap longer than
        ``min(tau * SRTT, RTO)`` is a stall (paper uses 2).
    init_cwnd:
        Initial congestion window assumed for the shadow window, in
        segments (Linux 2.6.32 default is 3).
    record_series:
        Also record the per-ACK inferred kernel-variable time-series
        (``FlowAnalysis.kernel_series``) for comparison against the
        simulator's flight-recorder ground truth.
    verify_checksums:
        Verify each packet's TCP checksum while decoding and count
        failures (``repro_fault_checksum_errors_total``).  Only packets
        that decode into rows are verified; records the decoder skips
        (non-TCP, truncated headers) are not counted.
    errors:
        An :class:`~repro.errors.ErrorBudget` governing how ingestion
        and analysis react to dirty input.  ``strict`` (the default)
        raises a typed :class:`~repro.errors.ReproError` at the first
        fault; ``lenient`` recovers from corrupt pcap records and
        quarantines crashing flows as
        :class:`~repro.errors.SkippedFlow` records; ``budget(...)``
        tolerates a bounded amount of damage.
    """

    tau: float = 2.0
    init_cwnd: int = 3
    record_series: bool = False
    verify_checksums: bool = False
    errors: ErrorBudget = field(default_factory=ErrorBudget.strict)

    def __post_init__(self) -> None:
        # The bounds of the CLI's ``--tau``: a zero, negative or NaN tau
        # would silently change which gaps are stalls.
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be a number > 0, got {self.tau!r}")
        if not self.init_cwnd >= 1:
            raise ValueError(
                f"init_cwnd must be at least 1, got {self.init_cwnd!r}"
            )

    def replace(self, **changes) -> "AnalysisConfig":
        """Return a copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class RunConfig:
    """How work is executed: parallelism, caching, and backpressure.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` = serial in-process (the default);
        ``0``/``None`` = one per core.  Results are identical for any
        worker count.
    use_cache:
        Consult/populate the dataset caches (in-process memo and the
        content-addressed on-disk store).
    chunk_flows:
        Flows per work unit shipped to a worker.  ``None`` picks a
        size automatically.
    idle_timeout:
        Streaming demux: a flow with no packets for this many seconds
        (trace time) is considered finished and evicted.  ``None``
        disables the bound: idle flows are held to end of stream.
    close_linger:
        Streaming demux: seconds of trace time a flow lingers after a
        clean close (FIN in both directions, or RST) before eviction,
        so straggling retransmissions still attach to it.  ``None``
        disables the bound: closed flows are held to end of stream.
    max_retries:
        How many times a chunk whose worker *died* (not merely raised)
        is retried in a fresh worker before being declared poisoned.
    retry_backoff:
        Base delay in seconds before the second and later retries of a
        dead chunk; doubles per attempt.
    """

    workers: int | None = 1
    use_cache: bool = True
    chunk_flows: int | None = None
    idle_timeout: float | None = 60.0
    close_linger: float | None = 5.0
    max_retries: int = 2
    retry_backoff: float = 0.1

    def __post_init__(self) -> None:
        # The bounds of the CLI's ``--idle-timeout``.
        for name in ("idle_timeout", "close_linger"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be None or a number > 0, got {value!r}"
                )

    def replace(self, **changes) -> "RunConfig":
        """Return a copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
