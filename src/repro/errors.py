"""Structured error taxonomy and error-budget policies.

Production traces are dirty: truncated captures, garbage TCP options,
pathological flows that trip analyzer edge cases.  A pipeline meant to
run unattended over billions of packets must degrade gracefully on
those inputs instead of failing closed, and it must do so *visibly* —
every fault is typed, counted, and attributable.

Two pieces live here:

* the :class:`ReproError` hierarchy — every fault the pipeline can
  recover from (or deliberately raise) derives from it, so callers can
  catch one base class and fuzzers can assert nothing else escapes;
* :class:`ErrorBudget` — the policy object that decides how much
  damage a run tolerates, threaded through
  :class:`repro.config.AnalysisConfig`:

  =========================  ==========================================
  ``ErrorBudget.strict()``   fail closed: raise at the first fault
                             (the historical behavior, and the default)
  ``ErrorBudget.lenient()``  never fail: skip, quarantine, and count
  ``ErrorBudget.budget(..)`` tolerate up to N faults or a fraction of
                             processed units, then raise
                             :class:`ErrorBudgetExceeded`
  =========================  ==========================================

Faults that are skipped rather than raised remain observable: parse
recoveries surface through :class:`~repro.packet.pcap.PcapReader`
counters, quarantined flows through :class:`SkippedFlow` records on
:class:`~repro.core.report.ServiceReport`, and everything through the
:mod:`repro.obs.metrics` registry.

This module is a leaf: it imports nothing from :mod:`repro`, so every
layer (packet codecs included) can depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ReproError(Exception):
    """Base class of every structured pipeline fault."""


class ParseError(ReproError, ValueError):
    """Malformed input bytes: pcap framing, headers, or TCP options.

    Subclasses :class:`ValueError` so historical ``except ValueError``
    call sites keep working.
    """


class FlowAnalysisError(ReproError):
    """One flow's analysis crashed.

    Carries enough context to quarantine or report the flow: the flow
    key, the packet index the analyzer had reached, and the original
    exception as ``__cause__``.
    """

    def __init__(self, message: str, key: object = None,
                 packet_index: int | None = None):
        super().__init__(message)
        self.key = key
        self.packet_index = packet_index


class CacheError(ReproError):
    """A cache entry could not be read, verified, or written.

    Always recoverable: the dataset cache treats it as a miss and
    rebuilds.  Raised internally by the cache layer and counted; it
    never propagates out of :class:`~repro.experiments.cache.DatasetCache`.
    """


class WorkerError(ReproError):
    """A worker process failed while executing a task."""


class PoisonTaskError(WorkerError):
    """A task failed repeatedly across workers and was quarantined.

    Raised only in strict mode; tolerant budgets quarantine the task's
    flows as :class:`SkippedFlow` records instead.
    """


class ErrorBudgetExceeded(ReproError):
    """A ``budget(...)`` policy ran out of tolerated faults."""

    def __init__(self, message: str, errors: int = 0, units: int = 0):
        super().__init__(message)
        self.errors = errors
        self.units = units


@dataclass(frozen=True)
class ErrorBudget:
    """How many faults a run tolerates before failing.

    Frozen and hashable so it can ride inside
    :class:`~repro.config.AnalysisConfig` (itself frozen, pickled to
    worker processes, and used as a cache-key component).  The budget
    is pure policy — callers keep their own fault counts and ask
    :meth:`allows` whether the run may continue.

    Parameters
    ----------
    mode:
        ``"strict"`` (raise at the first fault), ``"lenient"`` (never
        raise), or ``"budget"`` (tolerate up to the caps below).
    max_errors:
        Budget mode: absolute fault cap.
    max_fraction:
        Budget mode: tolerated faults as a fraction of processed units
        (records for parsing, flows for analysis).  When both caps are
        set, the run fails only when *both* are exceeded, so a small
        absolute floor keeps tiny inputs from failing on one fault.
    """

    mode: str = "strict"
    max_errors: int | None = None
    max_fraction: float | None = None

    _MODES = ("strict", "lenient", "budget")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValueError(f"unknown error-budget mode {self.mode!r}")
        if self.mode == "budget" and (
            self.max_errors is None and self.max_fraction is None
        ):
            raise ValueError("budget mode needs max_errors or max_fraction")

    # -- constructors --------------------------------------------------
    @classmethod
    def strict(cls) -> "ErrorBudget":
        """Fail closed: the first fault raises (default)."""
        return cls(mode="strict")

    @classmethod
    def lenient(cls) -> "ErrorBudget":
        """Never fail: skip, quarantine, and count every fault."""
        return cls(mode="lenient")

    @classmethod
    def budget(
        cls,
        max_errors: int | None = None,
        max_fraction: float | None = None,
    ) -> "ErrorBudget":
        """Tolerate up to a count and/or fraction of faults."""
        return cls(
            mode="budget", max_errors=max_errors, max_fraction=max_fraction
        )

    @classmethod
    def parse(cls, spec: "str | ErrorBudget | None") -> "ErrorBudget":
        """Build a budget from a CLI-style spec.

        Accepts ``"strict"``, ``"lenient"``, ``"budget:N"`` (absolute),
        ``"budget:X%"`` or ``"budget:0.01"`` (fraction), an existing
        :class:`ErrorBudget` (returned as-is), or ``None`` (strict).
        """
        if spec is None:
            return cls.strict()
        if isinstance(spec, ErrorBudget):
            return spec
        text = spec.strip().lower()
        if text == "strict":
            return cls.strict()
        if text == "lenient":
            return cls.lenient()
        if text.startswith("budget:"):
            arg = text[len("budget:"):].strip()
            try:
                if arg.endswith("%"):
                    return cls.budget(max_fraction=float(arg[:-1]) / 100.0)
                if "." in arg or "e" in arg:
                    return cls.budget(max_fraction=float(arg))
                return cls.budget(max_errors=int(arg))
            except ValueError:
                pass
        raise ValueError(
            f"bad error-budget spec {spec!r}; expected 'strict', "
            "'lenient', 'budget:N', 'budget:X%', or 'budget:0.01'"
        )

    # -- policy --------------------------------------------------------
    @property
    def tolerant(self) -> bool:
        """Whether faults are recovered at all (lenient or budget)."""
        return self.mode != "strict"

    def allows(self, errors: int, units: int) -> bool:
        """Whether ``errors`` faults out of ``units`` processed units
        is within policy."""
        if self.mode == "strict":
            return errors == 0
        if self.mode == "lenient":
            return True
        within_count = (
            self.max_errors is not None and errors <= self.max_errors
        )
        within_fraction = (
            self.max_fraction is not None
            and errors <= self.max_fraction * max(units, 1)
        )
        return within_count or within_fraction

    def check(self, errors: int, units: int, what: str = "faults") -> None:
        """Raise :class:`ErrorBudgetExceeded` when out of budget."""
        if not self.allows(errors, units):
            raise ErrorBudgetExceeded(
                f"error budget exceeded: {errors} {what} "
                f"in {units} units ({self.describe()})",
                errors=errors,
                units=units,
            )

    def describe(self) -> str:
        if self.mode == "budget":
            parts = []
            if self.max_errors is not None:
                parts.append(f"max {self.max_errors}")
            if self.max_fraction is not None:
                parts.append(f"max {self.max_fraction:.4g} of units")
            return "budget: " + ", ".join(parts)
        return self.mode


@dataclass
class SkippedFlow:
    """One quarantined flow: the fault record a tolerant run keeps.

    Plain picklable data — produced inside analyzer workers, shipped
    back to the parent, surfaced on
    :class:`~repro.core.report.ServiceReport` and in the metrics
    registry.  ``key`` is the flow's canonical 4-tuple
    (:class:`repro.packet.flow.FlowKey`); ``packet_index`` is how far
    into the flow the analyzer got before the fault.
    """

    key: object
    error_type: str
    error: str
    packets: int = 0
    packet_index: int | None = None
    #: Trace time of the flow's last packet — lets time-windowed
    #: aggregation (:mod:`repro.live.windows`) place the quarantined
    #: flow in the window its analysis would have landed in.
    last_time: float | None = None

    @classmethod
    def from_exception(
        cls, flow, exc: BaseException, packet_index: int | None = None
    ) -> "SkippedFlow":
        return cls(
            key=flow.key,
            error_type=type(exc).__name__,
            error=str(exc) or type(exc).__name__,
            packets=len(flow.packets),
            packet_index=packet_index,
            last_time=flow.last_time,
        )

    def describe(self) -> str:
        where = (
            f" at packet {self.packet_index}"
            if self.packet_index is not None
            else ""
        )
        return (
            f"skipped flow {self.key}{where} "
            f"({self.packets} packets): {self.error_type}: {self.error}"
        )


@dataclass
class FaultStats:
    """Fault accounting for one ingestion/analysis pass.

    Complements :class:`~repro.packet.flow.StreamStats` and
    :class:`~repro.experiments.parallel.AnalysisPoolStats`: those count
    work, this counts damage.
    """

    corrupt_records: int = 0   # pcap records skipped or resynced past
    resyncs: int = 0           # times the reader re-found framing
    option_errors: int = 0     # malformed TCP option areas tolerated
    checksum_errors: int = 0   # TCP checksums that failed verification
    flows_skipped: int = 0     # flows quarantined as SkippedFlow
    tasks_retried: int = 0     # worker tasks retried after a failure
    tasks_poisoned: int = 0    # tasks quarantined after repeated death
    skipped: list[SkippedFlow] = field(default_factory=list)

    def record_skip(self, skipped_flow: SkippedFlow) -> None:
        self.flows_skipped += 1
        self.skipped.append(skipped_flow)

    def merge(self, other: "FaultStats") -> "FaultStats":
        self.corrupt_records += other.corrupt_records
        self.resyncs += other.resyncs
        self.option_errors += other.option_errors
        self.checksum_errors += other.checksum_errors
        self.flows_skipped += other.flows_skipped
        self.tasks_retried += other.tasks_retried
        self.tasks_poisoned += other.tasks_poisoned
        self.skipped.extend(other.skipped)
        return self

    def to_registry(self, registry, prefix: str = "repro_fault_") -> None:
        """Fold into a :class:`repro.obs.metrics.MetricsRegistry`."""
        registry.counter(
            prefix + "corrupt_records_total",
            "Corrupt pcap records skipped or resynced past",
        ).inc(self.corrupt_records)
        registry.counter(
            prefix + "resyncs_total",
            "Times the pcap reader re-found record framing",
        ).inc(self.resyncs)
        registry.counter(
            prefix + "option_errors_total",
            "Malformed TCP option areas tolerated in lenient mode",
        ).inc(self.option_errors)
        registry.counter(
            prefix + "checksum_errors_total",
            "TCP checksums that failed verification",
        ).inc(self.checksum_errors)
        registry.counter(
            prefix + "flows_skipped_total",
            "Flows quarantined after an analyzer fault",
        ).inc(self.flows_skipped)
        registry.counter(
            prefix + "tasks_retried_total",
            "Worker tasks retried after a transient failure",
        ).inc(self.tasks_retried)
        registry.counter(
            prefix + "tasks_poisoned_total",
            "Worker tasks quarantined after repeated worker deaths",
        ).inc(self.tasks_poisoned)
