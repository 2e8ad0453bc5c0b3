"""Aggregation of per-flow analyses into the paper's tables and figures.

A :class:`ServiceReport` wraps all analyzed flows of one service and
exposes one method per table/figure of the paper's evaluation:

=============================  ==========================================
method                         paper content
=============================  ==========================================
``table1_row``                 Table 1 flow-level statistics
``rtt_values`` / ``rto_values``  Fig. 1a per-flow RTT and RTO CDFs
``rto_over_rtt_values``        Fig. 1b RTO/RTT
``stall_ratio_values``         Fig. 3 stalled/transmission time
``cause_breakdown``            Table 3 stall causes (volume and time)
``init_rwnd_values``           Fig. 6 initial receive windows
``zero_rwnd_prob_by_init``     Table 4 zero-window probability
``retx_breakdown``             Table 5 retransmission-stall breakdown
``double_positions`` etc.      Fig. 7 double-retransmission context
``double_kind_shares``         Table 6 f-double vs t-double
``tail_positions`` etc.        Fig. 10 tail-retransmission context
``tail_state_shares``          Table 7 Open vs Recovery tails
``in_flight_values``           Fig. 11 per-ACK in-flight CDF
``continuous_loss_in_flights`` Fig. 12 in-flight at continuous loss
=============================  ==========================================
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields

from ..errors import SkippedFlow
from .flow_analyzer import FlowAnalysis
from .stalls import (
    CaState,
    DoubleKind,
    RetxCause,
    Stall,
    StallCause,
    StallContext,
)

#: Read off the dataclasses once, so a new field is serialized without
#: anyone remembering to list it here.
_STALL_FIELDS = tuple(f.name for f in fields(Stall))
_CONTEXT_FIELDS = tuple(f.name for f in fields(StallContext))


def _plain(obj, names: tuple[str, ...]) -> dict:
    """The named attributes of ``obj``, enums as their values."""
    out = {}
    for name in names:
        value = getattr(obj, name)
        out[name] = value.value if isinstance(value, enum.Enum) else value
    return out


def _stall_dict(stall: Stall) -> dict:
    """What ``dataclasses.asdict`` would give, without its deep copy
    of every value."""
    out = _plain(stall, _STALL_FIELDS)
    out["context"] = _plain(stall.context, _CONTEXT_FIELDS)
    return out


def cdf_points(values: list[float]) -> list[tuple[float, float]]:
    """Empirical CDF as (value, fraction <= value) pairs."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty list")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    frac = pos - low
    # lerp anchored at ordered[low]: the naive weighted sum
    # a*(1-frac) + b*frac underflows to 0.0 for denormal inputs.
    value = ordered[low] + (ordered[high] - ordered[low]) * frac
    return min(max(value, ordered[low]), ordered[high])


@dataclass
class BreakdownEntry:
    """Volume and time share of one stall category (Table 3/5 cells)."""

    count: int = 0
    time: float = 0.0
    volume_share: float = 0.0
    time_share: float = 0.0


@dataclass
class ServiceReport:
    """All analyzed flows of one service.

    ``skipped`` holds the :class:`~repro.errors.SkippedFlow` records of
    flows quarantined under a tolerant error budget — dirty input never
    silently shrinks a report; every missing flow is accounted for
    here.  Aggregate methods operate on ``flows`` only.
    """

    service: str
    flows: list[FlowAnalysis] = field(default_factory=list)
    skipped: list[SkippedFlow] = field(default_factory=list)
    #: Merge provenance: contributing source label -> flows it brought
    #: (e.g. ``{"shard-0": 41, "shard-1": 38}`` for a cluster merge).
    #: Bookkeeping only — deliberately excluded from :meth:`to_dict` so
    #: a merged report stays byte-identical to a single-pass report
    #: over the same flows regardless of how it was assembled.
    provenance: dict = field(default_factory=dict)

    def add(self, analysis: FlowAnalysis) -> None:
        self.flows.append(analysis)

    def coverage(self) -> float:
        """Fraction of demuxed flows that produced an analysis."""
        total = len(self.flows) + len(self.skipped)
        return len(self.flows) / total if total else 1.0

    # -- combination ------------------------------------------------------
    def merge(self, other: "ServiceReport") -> "ServiceReport":
        """Fold ``other``'s flows into this report (in place).

        Every aggregate this class computes is a fold over
        ``self.flows``, so merging is associative: partial reports
        built from disjoint chunks of a stream combine into exactly
        the report a single pass would have produced.
        """
        self.flows.extend(other.flows)
        self.skipped.extend(other.skipped)
        if other.provenance:
            for label, count in other.provenance.items():
                self.provenance[label] = (
                    self.provenance.get(label, 0) + count
                )
        return self

    def tag_provenance(self, label: str) -> "ServiceReport":
        """Stamp this (partial) report as coming from ``label``.

        Replaces any existing provenance: a partial report is *from*
        its source; merged totals accumulate per-source counts via
        :meth:`merge`.
        """
        self.provenance = {label: len(self.flows) + len(self.skipped)}
        return self

    def canonical_sort(self) -> "ServiceReport":
        """Order flows and skip records deterministically (in place).

        Flows sort by ``(first packet time, flow key)`` and skip
        records by ``(flow key, error type)``.  Streamed, sharded, and
        batch pipelines hand flows over in pipeline-dependent orders
        (completion order, shard-merge order, first-time order with
        insertion-order ties); after canonical sorting, any two
        pipelines that analyzed the same flows serialize to the same
        :meth:`to_json` bytes — the cluster's merge-parity gate.
        """
        self.flows.sort(key=lambda a: (a.flow.first_time, a.flow.key))
        self.skipped.sort(key=lambda s: (s.key, s.error_type))
        return self

    @classmethod
    def merged(
        cls, reports: "Iterable[ServiceReport]", service: str | None = None
    ) -> "ServiceReport":
        """Combine partial reports (e.g. one per streamed chunk)."""
        total: ServiceReport | None = None
        for report in reports:
            if total is None:
                total = cls(service=service or report.service)
            total.merge(report)
        return total if total is not None else cls(service=service or "")

    # -- Table 1 ----------------------------------------------------------
    def table1_row(self) -> dict[str, float]:
        flows = [f for f in self.flows if f.data_packets > 0]
        n = len(flows)
        if n == 0:
            return {
                "flows": 0, "avg_speed": 0.0, "avg_flow_size": 0.0,
                "pkt_loss": 0.0, "avg_rtt": 0.0, "avg_rto": 0.0,
            }
        speeds = [f.avg_speed for f in flows if f.duration > 0]
        rtts = [f.avg_rtt for f in flows if f.avg_rtt is not None]
        rtos = [f.avg_rto for f in flows if f.avg_rto is not None]
        total_retx = sum(f.retransmissions for f in flows)
        total_data = sum(f.data_packets for f in flows)
        return {
            "flows": n,
            "avg_speed": sum(speeds) / max(1, len(speeds)),
            "avg_flow_size": sum(f.bytes_out for f in flows) / n,
            "pkt_loss": total_retx / max(1, total_data),
            "avg_rtt": sum(rtts) / max(1, len(rtts)),
            "avg_rto": sum(rtos) / max(1, len(rtos)),
        }

    # -- Fig. 1 -------------------------------------------------------------
    def rtt_values(self) -> list[float]:
        return [f.avg_rtt for f in self.flows if f.avg_rtt is not None]

    def rto_values(self) -> list[float]:
        return [f.avg_rto for f in self.flows if f.avg_rto is not None]

    def rto_over_rtt_values(self) -> list[float]:
        out = []
        for flow in self.flows:
            if flow.avg_rtt and flow.avg_rto:
                out.append(flow.avg_rto / flow.avg_rtt)
        return out

    # -- Fig. 3 ---------------------------------------------------------------
    def stall_ratio_values(self) -> list[float]:
        return [f.stall_ratio for f in self.flows if f.duration > 0]

    def flows_with_stalls(self) -> int:
        return sum(1 for f in self.flows if f.stalls)

    def total_stalls(self) -> int:
        return sum(len(f.stalls) for f in self.flows)

    # -- Table 3 ----------------------------------------------------------------
    def cause_breakdown(self) -> dict[StallCause, BreakdownEntry]:
        counts: Counter = Counter()
        times: Counter = Counter()
        for flow in self.flows:
            for stall in flow.stalls:
                counts[stall.cause] += 1
                times[stall.cause] += stall.duration
        total_count = sum(counts.values())
        total_time = sum(times.values())
        result: dict[StallCause, BreakdownEntry] = {}
        for cause in StallCause:
            entry = BreakdownEntry(
                count=counts.get(cause, 0), time=times.get(cause, 0.0)
            )
            if total_count:
                entry.volume_share = entry.count / total_count
            if total_time:
                entry.time_share = entry.time / total_time
            result[cause] = entry
        return result

    def category_breakdown(self) -> dict[str, BreakdownEntry]:
        """Server / client / network shares (Table 3 row groups)."""
        by_cause = self.cause_breakdown()
        result: dict[str, BreakdownEntry] = {}
        for cause, entry in by_cause.items():
            bucket = result.setdefault(cause.category, BreakdownEntry())
            bucket.count += entry.count
            bucket.time += entry.time
            bucket.volume_share += entry.volume_share
            bucket.time_share += entry.time_share
        return result

    # -- Fig. 6 / Table 4 -----------------------------------------------------
    def init_rwnd_values(self) -> list[int]:
        """Initial receive window per flow, in MSS units."""
        return [
            f.init_rwnd_mss for f in self.flows if f.init_rwnd > 0
        ]

    def zero_rwnd_prob_by_init(
        self, bins: list[int]
    ) -> dict[int, tuple[float, int]]:
        """P(flow sees a zero window) per init-rwnd bin (Table 4).

        ``bins`` are upper edges in MSS; returns {edge: (prob, n)}.
        """
        result: dict[int, tuple[float, int]] = {}
        edges = sorted(bins)
        for index, edge in enumerate(edges):
            low = edges[index - 1] if index else 0
            members = [
                f
                for f in self.flows
                if f.init_rwnd > 0 and low < f.init_rwnd_mss <= edge
            ]
            if not members:
                result[edge] = (0.0, 0)
                continue
            hit = sum(1 for f in members if f.zero_window_seen)
            result[edge] = (hit / len(members), len(members))
        return result

    # -- Table 5 -------------------------------------------------------------
    def retx_breakdown(self) -> dict[RetxCause, BreakdownEntry]:
        counts: Counter = Counter()
        times: Counter = Counter()
        for stall in self._retx_stalls():
            counts[stall.retx_cause] += 1
            times[stall.retx_cause] += stall.duration
        total_count = sum(counts.values())
        total_time = sum(times.values())
        result: dict[RetxCause, BreakdownEntry] = {}
        for cause in RetxCause:
            entry = BreakdownEntry(
                count=counts.get(cause, 0), time=times.get(cause, 0.0)
            )
            if total_count:
                entry.volume_share = entry.count / total_count
            if total_time:
                entry.time_share = entry.time / total_time
            result[cause] = entry
        return result

    def _retx_stalls(self):
        for flow in self.flows:
            for stall in flow.stalls:
                if stall.cause == StallCause.RETRANSMISSION:
                    yield stall

    def _retx_stalls_of(self, cause: RetxCause):
        for stall in self._retx_stalls():
            if stall.retx_cause == cause:
                yield stall

    # -- Fig. 7 / Table 6 -------------------------------------------------------
    def double_positions(self) -> list[float]:
        return [s.position for s in self._retx_stalls_of(RetxCause.DOUBLE)]

    def double_in_flights(self) -> list[int]:
        return [
            s.context.unsacked_out
            for s in self._retx_stalls_of(RetxCause.DOUBLE)
        ]

    def double_kind_shares(self) -> dict[DoubleKind, float]:
        times: Counter = Counter()
        for stall in self._retx_stalls_of(RetxCause.DOUBLE):
            if stall.double_kind is not None:
                times[stall.double_kind] += stall.duration
        total = sum(times.values())
        return {
            kind: (times.get(kind, 0.0) / total if total else 0.0)
            for kind in DoubleKind
        }

    # -- Fig. 10 / Table 7 --------------------------------------------------------
    def tail_positions(self) -> list[float]:
        return [s.position for s in self._retx_stalls_of(RetxCause.TAIL)]

    def tail_in_flights(self) -> list[int]:
        return [
            s.context.unsacked_out
            for s in self._retx_stalls_of(RetxCause.TAIL)
        ]

    def tail_state_shares(self) -> dict[CaState, float]:
        times: Counter = Counter()
        for stall in self._retx_stalls_of(RetxCause.TAIL):
            if stall.tail_state is not None:
                times[stall.tail_state] += stall.duration
        total = sum(times.values())
        return {
            state: (times.get(state, 0.0) / total if total else 0.0)
            for state in (CaState.OPEN, CaState.RECOVERY)
        }

    # -- Fig. 11 / Fig. 12 ----------------------------------------------------------
    def in_flight_values(self) -> list[int]:
        out: list[int] = []
        for flow in self.flows:
            out.extend(flow.in_flight_on_ack)
        return out

    def continuous_loss_in_flights(self) -> list[int]:
        return [
            s.context.unsacked_out
            for s in self._retx_stalls_of(RetxCause.CONTINUOUS_LOSS)
        ]

    # -- canonical serialization ------------------------------------------
    @staticmethod
    def _flow_dict(analysis: FlowAnalysis) -> dict:
        flow = analysis.flow
        return {
            "key": [
                flow.key.ip_a, flow.key.port_a,
                flow.key.ip_b, flow.key.port_b,
            ],
            "server": list(flow.server),
            "client": list(flow.client),
            # len() answers from the column store on lazy traces, so
            # serializing a fast-path flow never materializes objects.
            "packets": len(flow.packets),
            "mss": analysis.mss,
            "init_rwnd": analysis.init_rwnd,
            "wscale": analysis.wscale,
            "stalls": [_stall_dict(stall) for stall in analysis.stalls],
            "rtt_samples": list(analysis.rtt_samples),
            "rto_samples": list(analysis.rto_samples),
            "in_flight_on_ack": list(analysis.in_flight_on_ack),
            "zero_window_seen": analysis.zero_window_seen,
            "request_count": analysis.request_count,
            "data_packets": analysis.data_packets,
            "retransmissions": analysis.retransmissions,
            "bytes_out": analysis.bytes_out,
            "duration": analysis.duration,
            "timeouts": analysis.timeouts,
            "fast_retransmits": analysis.fast_retransmits,
            "probe_retransmissions": analysis.probe_retransmissions,
            "spurious_retransmissions": analysis.spurious_retransmissions,
            "final_srtt": analysis.final_srtt,
            "final_rto": analysis.final_rto,
            "state_log": [
                [when, state.value] for when, state in analysis.state_log
            ],
            "kernel_series": [list(row) for row in analysis.kernel_series],
        }

    def to_dict(self) -> dict:
        """Plain-data view of the whole report.

        Every field the analyzer produces appears here (not just the
        aggregates), so two pipelines that claim to be equivalent can
        be compared byte-for-byte via :meth:`to_json`.
        """
        return {
            "service": self.service,
            "flows": [self._flow_dict(a) for a in self.flows],
            "skipped": [
                {
                    "key": [
                        s.key.ip_a, s.key.port_a, s.key.ip_b, s.key.port_b,
                    ],
                    "error_type": s.error_type,
                    "error": s.error,
                    "packets": s.packets,
                    "packet_index": s.packet_index,
                    "last_time": s.last_time,
                }
                for s in self.skipped
            ],
            "coverage": self.coverage(),
            "flows_with_stalls": self.flows_with_stalls(),
            "total_stalls": self.total_stalls(),
            "table1_row": self.table1_row(),
            "cause_breakdown": {
                cause.value: asdict(entry)
                for cause, entry in self.cause_breakdown().items()
            },
            "retx_breakdown": {
                cause.value: asdict(entry)
                for cause, entry in self.retx_breakdown().items()
            },
        }

    def to_json(self) -> str:
        """Canonical JSON — sorted keys, no whitespace variance.

        Equal reports serialize to equal bytes, which is what the
        columnar↔object parity gate diffs.
        """
        return json.dumps(self.to_dict(), sort_keys=True)

    # -- longitudinal summary ---------------------------------------------
    def summary_metrics(self) -> dict:
        """Flat scalar summary for the longitudinal results store.

        Unlike :meth:`to_dict` (the full per-flow record), this is the
        handful of numbers worth trending across runs: flow counts,
        coverage, Table 1 aggregates, stall totals, plus a ``"causes"``
        sub-dict of per-cause stall *time shares* (Table 3's
        time column) keyed by cause value.
        """
        table1 = self.table1_row()
        ratios = self.stall_ratio_values()
        summary: dict = {
            "flows": len(self.flows),
            "flows_skipped": len(self.skipped),
            "coverage": self.coverage(),
            "flows_with_stalls": self.flows_with_stalls(),
            "total_stalls": self.total_stalls(),
            "avg_speed": table1["avg_speed"],
            "pkt_loss": table1["pkt_loss"],
            "avg_rtt": table1["avg_rtt"],
            "avg_rto": table1["avg_rto"],
            "mean_stall_ratio": (
                sum(ratios) / len(ratios) if ratios else 0.0
            ),
        }
        summary["causes"] = {
            cause.value: entry.time_share
            for cause, entry in self.cause_breakdown().items()
        }
        return summary
