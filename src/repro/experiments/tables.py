"""Paper-style table and figure-series formatting.

One function per table/figure of the evaluation; each takes the
per-service reports (or a mitigation comparison) and returns the rows
as text shaped like the paper's tables, so a benchmark run prints
side-by-side comparable output.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..core.report import ServiceReport, percentile
from ..core.stalls import CaState, DoubleKind, RetxCause, StallCause
from .mitigation import MitigationComparison

SERVICE_LABELS = {
    "cloud_storage": "cloud stor.",
    "software_download": "soft. down.",
    "web_search": "web search",
}

#: Row order of Table 3.
TABLE3_ROWS = (
    ("server", StallCause.DATA_UNAVAILABLE, "data una."),
    ("server", StallCause.RESOURCE_CONSTRAINT, "rsrc cons."),
    ("client", StallCause.CLIENT_IDLE, "client idle"),
    ("client", StallCause.ZERO_RWND, "zero wnd"),
    ("net.", StallCause.PACKET_DELAY, "pkt delay"),
    ("net.", StallCause.RETRANSMISSION, "retrans."),
)

#: Upper edges (MSS) of Table 4's initial-receive-window bins.
TABLE4_BINS = [2, 11, 45, 182, 648, 1297, 4096]

#: Row order of Table 5.
TABLE5_ROWS = (
    (RetxCause.DOUBLE, "Double retr."),
    (RetxCause.TAIL, "Tail retr."),
    (RetxCause.SMALL_CWND, "Small cwnd"),
    (RetxCause.SMALL_RWND, "Small rwnd"),
    (RetxCause.CONTINUOUS_LOSS, "Cont. loss"),
    (RetxCause.ACK_DELAY_LOSS, "ACK delay/loss"),
    (RetxCause.UNDETERMINED, "Undeter."),
)


def _header(reports: Mapping[str, ServiceReport]) -> list[str]:
    return [SERVICE_LABELS.get(name, name) for name in reports]


def format_table1(reports: Mapping[str, ServiceReport]) -> str:
    """Table 1: flow-level statistics of the dataset."""
    lines = [
        "Table 1: Flow-level statistics of the dataset.",
        f"{'service':<14}{'#flows':>8}{'avg.speed':>12}{'avg.size':>10}"
        f"{'pkt loss':>10}{'avg.RTT':>9}{'avg.RTO':>9}",
    ]
    for name, report in reports.items():
        row = report.table1_row()
        lines.append(
            f"{SERVICE_LABELS.get(name, name):<14}"
            f"{row['flows']:>8}"
            f"{row['avg_speed'] / 1000:>10.0f}KB"
            f"{row['avg_flow_size'] / 1000:>9.0f}K"
            f"{row['pkt_loss'] * 100:>9.1f}%"
            f"{row['avg_rtt'] * 1000:>7.0f}ms"
            f"{row['avg_rto'] * 1000:>7.0f}ms"
        )
    return "\n".join(lines)


def _series_summary(name: str, values: list[float], fmt: str = "{:.3f}") -> str:
    if not values:
        return f"  {name:<28} (no samples)"
    points = [percentile(values, q) for q in (10, 25, 50, 75, 90)]
    rendered = "  ".join(fmt.format(v) for v in points)
    return f"  {name:<28} p10/p25/p50/p75/p90 = {rendered}  (n={len(values)})"


def format_fig1(reports: Mapping[str, ServiceReport]) -> str:
    """Fig. 1: per-flow RTT, RTO and RTO/RTT distributions."""
    lines = ["Figure 1a: per-flow RTT and RTO (seconds)."]
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        lines.append(_series_summary(f"{label} RTT", report.rtt_values()))
        lines.append(_series_summary(f"{label} RTO", report.rto_values()))
    lines.append("Figure 1b: RTO / RTT ratio.")
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        lines.append(
            _series_summary(
                f"{label} RTO/RTT", report.rto_over_rtt_values(), "{:.1f}"
            )
        )
    return "\n".join(lines)


def format_fig3(reports: Mapping[str, ServiceReport]) -> str:
    """Fig. 3: ratio of stalled time to transmission time."""
    lines = ["Figure 3: stalled time / transmission time."]
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        ratios = report.stall_ratio_values()
        with_stall = sum(1 for r in ratios if r > 0)
        over_half = sum(1 for r in ratios if r > 0.5)
        lines.append(
            f"  {label:<14} flows={len(ratios)}  "
            f"stalled>0: {with_stall / max(1, len(ratios)) * 100:.0f}%  "
            f"stalled>50% of lifetime: "
            f"{over_half / max(1, len(ratios)) * 100:.0f}%"
        )
        lines.append(_series_summary(f"{label} ratio", ratios, "{:.2f}"))
    return "\n".join(lines)


def format_table3(reports: Mapping[str, ServiceReport]) -> str:
    """Table 3: % of stalls by cause, volume (#) and time (T)."""
    lines = [
        "Table 3: Percentage of stalls (%) by cause.",
        f"{'cat.':<8}{'stall type':<14}"
        + "".join(f"{label:>18}" for label in _header(reports)),
        f"{'':<8}{'':<14}" + "".join(f"{'#      T':>18}" for _ in reports),
    ]
    breakdowns = {
        name: report.cause_breakdown() for name, report in reports.items()
    }
    for category, cause, label in TABLE3_ROWS:
        cells = []
        for name in reports:
            entry = breakdowns[name][cause]
            cells.append(
                f"{entry.volume_share * 100:>8.1f} {entry.time_share * 100:>8.1f}"
            )
        lines.append(f"{category:<8}{label:<14}" + " ".join(cells))
    cells = []
    for name in reports:
        entry = breakdowns[name][StallCause.UNDETERMINED]
        cells.append(
            f"{entry.volume_share * 100:>8.1f} {entry.time_share * 100:>8.1f}"
        )
    lines.append(f"{'':<8}{'undeter.':<14}" + " ".join(cells))
    return "\n".join(lines)


def format_fig6_table4(reports: Mapping[str, ServiceReport]) -> str:
    """Fig. 6 + Table 4: initial receive windows and zero-rwnd risk."""
    lines = ["Figure 6: distribution of initial receive windows (MSS)."]
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        values = [float(v) for v in report.init_rwnd_values()]
        lines.append(_series_summary(f"{label} init rwnd", values, "{:.0f}"))
    lines.append(
        "Table 4: % of flows suffering zero rwnd by initial rwnd (MSS)."
    )
    lines.append(
        f"{'init rwnd <=':<14}" + "".join(f"{b:>8}" for b in TABLE4_BINS)
    )
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        probs = report.zero_rwnd_prob_by_init(TABLE4_BINS)
        cells = []
        for b in TABLE4_BINS:
            prob, n = probs[b]
            cells.append(f"{prob * 100:>7.1f}%" if n else f"{'-':>8}")
        lines.append(f"{label:<14}" + "".join(cells))
    return "\n".join(lines)


def format_table5(reports: Mapping[str, ServiceReport]) -> str:
    """Table 5: retransmission-stall breakdown."""
    lines = [
        "Table 5: Percentage of retransmission stalls (%) by cause.",
        f"{'stall type':<16}"
        + "".join(f"{label:>18}" for label in _header(reports)),
        f"{'':<16}" + "".join(f"{'#      T':>18}" for _ in reports),
    ]
    breakdowns = {
        name: report.retx_breakdown() for name, report in reports.items()
    }
    for cause, label in TABLE5_ROWS:
        cells = []
        for name in reports:
            entry = breakdowns[name][cause]
            cells.append(
                f"{entry.volume_share * 100:>8.1f} {entry.time_share * 100:>8.1f}"
            )
        lines.append(f"{label:<16}" + " ".join(cells))
    return "\n".join(lines)


def format_fig7_table6(reports: Mapping[str, ServiceReport]) -> str:
    """Fig. 7 + Table 6: double-retransmission stall context."""
    lines = ["Figure 7a: relative position of double-retransmission stalls."]
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        lines.append(
            _series_summary(f"{label} position", report.double_positions(), "{:.2f}")
        )
    lines.append("Figure 7b: in-flight size at double-retransmission stalls.")
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        values = [float(v) for v in report.double_in_flights()]
        lines.append(_series_summary(f"{label} in_flight", values, "{:.0f}"))
    lines.append("Table 6: f-double vs t-double share of stalled time.")
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        shares = report.double_kind_shares()
        lines.append(
            f"  {label:<14} f-double {shares[DoubleKind.F_DOUBLE] * 100:5.1f}%"
            f"   t-double {shares[DoubleKind.T_DOUBLE] * 100:5.1f}%"
        )
    return "\n".join(lines)


def format_fig10_table7(reports: Mapping[str, ServiceReport]) -> str:
    """Fig. 10 + Table 7: tail-retransmission stall context."""
    lines = ["Figure 10a: relative position of tail-retransmission stalls."]
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        lines.append(
            _series_summary(f"{label} position", report.tail_positions(), "{:.2f}")
        )
    lines.append("Figure 10b: in-flight size at tail-retransmission stalls.")
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        values = [float(v) for v in report.tail_in_flights()]
        lines.append(_series_summary(f"{label} in_flight", values, "{:.0f}"))
    lines.append("Table 7: congestion state at tail-retransmission stalls.")
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        shares = report.tail_state_shares()
        lines.append(
            f"  {label:<14} Open {shares[CaState.OPEN] * 100:5.1f}%"
            f"   Recovery {shares[CaState.RECOVERY] * 100:5.1f}%"
        )
    return "\n".join(lines)


def format_fig11(reports: Mapping[str, ServiceReport]) -> str:
    """Fig. 11: in-flight size computed on each ACK."""
    lines = ["Figure 11: per-ACK in-flight size."]
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        values = [float(v) for v in report.in_flight_values()]
        below4 = sum(1 for v in values if v < 4)
        lines.append(_series_summary(f"{label} in_flight", values, "{:.0f}"))
        if values:
            lines.append(
                f"    {label}: in_flight < 4 for "
                f"{below4 / len(values) * 100:.0f}% of ACKs"
            )
    return "\n".join(lines)


def format_fig12(reports: Mapping[str, ServiceReport]) -> str:
    """Fig. 12: in-flight size at continuous-loss stalls."""
    lines = ["Figure 12: in-flight size when continuous-loss stalls happen."]
    for name, report in reports.items():
        label = SERVICE_LABELS.get(name, name)
        values = [float(v) for v in report.continuous_loss_in_flights()]
        lines.append(_series_summary(f"{label} in_flight", values, "{:.0f}"))
    return "\n".join(lines)


def format_table8(comparisons: Iterable[MitigationComparison]) -> str:
    """Table 8: latency reduction of TLP and S-RTO vs native Linux."""
    lines = [
        "Table 8: latency reduction vs native Linux "
        "(negative = faster, as in the paper).",
        f"{'service':<24}{'quantile':<10}{'TLP':>10}{'S-RTO':>10}",
    ]
    for comparison in comparisons:
        for q in comparison.QUANTILES:
            lines.append(
                f"{comparison.service:<24}{q:<10}"
                f"{comparison.reduction('tlp', q) * 100:>+9.1f}%"
                f"{comparison.reduction('srto', q) * 100:>+9.1f}%"
            )
        lines.append(
            f"{comparison.service:<24}{'mean':<10}"
            f"{comparison.mean_reduction('tlp') * 100:>+9.1f}%"
            f"{comparison.mean_reduction('srto') * 100:>+9.1f}%"
        )
        lines.append(
            f"{comparison.service:<24}{'#flows':<10}"
            f"{len(comparison.outcomes['tlp'].latencies):>10}"
            f"{len(comparison.outcomes['srto'].latencies):>10}"
        )
    return "\n".join(lines)


def format_table9(comparisons: Iterable[MitigationComparison]) -> str:
    """Table 9: retransmission packet ratio per policy."""
    lines = [
        "Table 9: retransmission packet ratio.",
        f"{'service':<24}{'Linux':>10}{'TLP':>10}{'S-RTO':>10}",
    ]
    for comparison in comparisons:
        ratios = comparison.retransmission_ratios()
        lines.append(
            f"{comparison.service:<24}"
            f"{ratios['native'] * 100:>9.1f}%"
            f"{ratios['tlp'] * 100:>9.1f}%"
            f"{ratios['srto'] * 100:>9.1f}%"
        )
    return "\n".join(lines)
