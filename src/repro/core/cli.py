"""Command-line interface: ``tapo <trace.pcap>``.

Prints per-flow stall summaries and the aggregate cause breakdown —
the offline mode of the paper's tool.  ``--json`` emits a machine-
readable report for pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .. import cli_options
from ..config import RunConfig
from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from ..packet.flow import StreamStats
from .report import ServiceReport
from .tapo import Tapo


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapo",
        description="Classify TCP stall causes in a server-side pcap trace.",
    )
    cli_options.add_version(parser)
    parser.add_argument("pcap", help="path to a pcap file (raw-IP or Ethernet)")
    cli_options.add_server_endpoint(parser)
    cli_options.add_tau(parser)
    parser.add_argument(
        "--per-flow",
        action="store_true",
        help="print every stall of every flow",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--csv",
        help="write a tstat-style per-flow record table to this file",
    )
    parser.add_argument(
        "--flow-table",
        action="store_true",
        help="print a compact per-flow table",
    )
    parser.add_argument(
        "--timeline-dir",
        help=(
            "write tcptrace-style .dat series (data/retx/acks/window/"
            "rtt/stalls) for every flow into this directory"
        ),
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "evict flows as they close or fall idle (--idle-timeout), so "
            "memory stays flat on huge traces; a connection silent for "
            "longer than the timeout is reported as two flows"
        ),
    )
    cli_options.add_workers(
        parser,
        default=1,
        help=(
            "analysis worker processes (0 = one per core, 1 = serial; "
            "default 1)"
        ),
    )
    parser.add_argument(
        "--idle-timeout",
        type=cli_options.positive_float,
        help=(
            "with --stream, evict flows idle for this many trace-seconds "
            "(default 60)"
        ),
    )
    cli_options.add_errors(parser, default="strict")
    cli_options.add_stats(
        parser,
        help="print streaming/runtime counters to stderr",
    )
    cli_options.add_metrics_out(
        parser,
        help=(
            "write streaming metrics to PREFIX.json and PREFIX.prom "
            "(Prometheus text exposition)"
        ),
    )
    cli_options.add_results_store(
        parser,
        help=(
            "append this analysis (summary metrics + stall-cause "
            "shares + fault counters) to the longitudinal results "
            "store at PATH"
        ),
    )
    return parser


def _flow_to_dict(analysis) -> dict:
    key = analysis.flow.key
    return {
        "endpoints": [
            [key.ip_a, key.port_a],
            [key.ip_b, key.port_b],
        ],
        "bytes_out": analysis.bytes_out,
        "data_packets": analysis.data_packets,
        "retransmissions": analysis.retransmissions,
        "timeouts": analysis.timeouts,
        "duration": analysis.duration,
        "avg_rtt": analysis.avg_rtt,
        "avg_rto": analysis.avg_rto,
        "init_rwnd": analysis.init_rwnd,
        "zero_window_seen": analysis.zero_window_seen,
        "stall_ratio": analysis.stall_ratio,
        "stalls": [
            {
                "start": stall.start_time,
                "duration": stall.duration,
                "cause": stall.cause.value,
                "retx_cause": (
                    stall.retx_cause.value if stall.retx_cause else None
                ),
                "double_kind": (
                    stall.double_kind.value if stall.double_kind else None
                ),
                "ca_state": stall.context.ca_state.value,
                "in_flight": stall.context.in_flight,
                "position": stall.position,
            }
            for stall in analysis.stalls
        ],
    }


def _emit_json(report: ServiceReport, analyses, faults) -> None:
    breakdown = report.cause_breakdown()
    retx = report.retx_breakdown()
    payload = {
        "flows": len(analyses),
        "flows_with_stalls": report.flows_with_stalls(),
        "stalls": report.total_stalls(),
        "faults": {
            "corrupt_records": faults.corrupt_records,
            "resyncs": faults.resyncs,
            "option_errors": faults.option_errors,
            "flows_skipped": faults.flows_skipped,
            "tasks_retried": faults.tasks_retried,
            "tasks_poisoned": faults.tasks_poisoned,
        },
        "causes": {
            cause.value: {
                "count": entry.count,
                "time": entry.time,
                "volume_share": entry.volume_share,
                "time_share": entry.time_share,
            }
            for cause, entry in breakdown.items()
            if entry.count
        },
        "retransmission_causes": {
            cause.value: {
                "count": entry.count,
                "time": entry.time,
                "volume_share": entry.volume_share,
                "time_share": entry.time_share,
            }
            for cause, entry in retx.items()
            if entry.count
        },
        "per_flow": [_flow_to_dict(a) for a in analyses],
    }
    json.dump(payload, sys.stdout, indent=2)
    print()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.idle_timeout is not None and not args.stream:
        # Only --stream reads it; refuse rather than drop it.
        parser.error("--idle-timeout: only supported with --stream")
    tapo = Tapo(config=cli_options.analysis_config(args))
    analysis_started = time.monotonic()
    run = RunConfig(workers=args.workers)
    if not args.stream:
        # What is printed afterwards never changes what is found:
        # only --stream turns the eviction clocks on.
        run = run.replace(idle_timeout=None, close_linger=None)
    elif args.idle_timeout is not None:
        run = run.replace(idle_timeout=args.idle_timeout)
    registry = MetricsRegistry()
    stats = StreamStats()
    try:
        analyses = list(
            tapo.analyze_stream(
                args.pcap,
                cli_options.server_predicate(args),
                run=run,
                stats=stats,
                registry=registry,
            )
        )
    except ReproError as exc:
        return cli_options.report_error(f"tapo: {args.pcap}", exc, args)
    except OSError as exc:
        print(f"tapo: cannot read {args.pcap}: {exc}", file=sys.stderr)
        return 1
    # Presentation order is first packet time, not the order flows
    # completed in.
    analyses.sort(key=lambda a: a.flow.first_time)
    faults = tapo.faults

    if args.stats:
        print(
            f"stream: {stats.packets} packets, "
            f"{stats.flows_total} flows "
            f"({stats.flows_evicted_idle} idle-evicted, "
            f"{stats.flows_reopened} reopened), "
            f"peak buffered {stats.peak_buffered_packets} packets, "
            f"peak active {stats.peak_active_flows} flows",
            file=sys.stderr,
        )
        print(
            f"replay: {tapo.fast_flows} flows on the clean fast "
            f"replay, {tapo.fallback_flows} replayed by the "
            f"analyzer, {tapo.materialized_flows} materialized as "
            "packet objects",
            file=sys.stderr,
        )
        print(
            f"faults: {faults.corrupt_records} corrupt records "
            f"({faults.resyncs} resyncs), "
            f"{faults.option_errors} option errors, "
            f"{faults.flows_skipped} flows quarantined, "
            f"{faults.tasks_retried} tasks retried, "
            f"{faults.tasks_poisoned} poisoned",
            file=sys.stderr,
        )
    if args.metrics_out:
        cli_options.write_metrics(registry, args.metrics_out)

    report = ServiceReport(service=args.pcap)
    for analysis in analyses:
        report.add(analysis)
    for skipped in faults.skipped:
        report.skipped.append(skipped)

    if args.results_store:
        from pathlib import Path

        from ..results.store import (
            ResultsStore,
            record_fields_from_report,
        )

        fields = record_fields_from_report(report)
        with ResultsStore(args.results_store) as store:
            store.append(
                "analysis",
                Path(args.pcap).stem,
                wall_time=time.monotonic() - analysis_started,
                config=tapo.config,
                faults={
                    "corrupt_records": faults.corrupt_records,
                    "resyncs": faults.resyncs,
                    "option_errors": faults.option_errors,
                    "flows_skipped": faults.flows_skipped,
                },
                meta={"pcap": args.pcap, "stream": args.stream},
                **fields,
            )
        print(
            f"appended analysis record to {args.results_store}",
            file=sys.stderr,
        )

    if args.csv:
        from .records import write_csv

        rows = write_csv(args.csv, analyses)
        print(f"wrote {rows} flow records to {args.csv}", file=sys.stderr)

    if args.flow_table:
        from .records import format_flow_table

        print(format_flow_table(analyses))
        print()

    if args.timeline_dir:
        from .timeline import build_timeline, write_timeline

        written = 0
        for index, analysis in enumerate(analyses):
            timeline = build_timeline(analysis)
            write_timeline(
                timeline, args.timeline_dir, prefix=f"flow{index:04d}"
            )
            written += 1
        print(
            f"wrote timelines for {written} flows to {args.timeline_dir}",
            file=sys.stderr,
        )

    if args.json:
        _emit_json(report, analyses, faults)
        return 0

    print(f"flows analyzed:    {len(analyses)}")
    print(f"flows with stalls: {report.flows_with_stalls()}")
    print(f"stalls detected:   {report.total_stalls()}")
    if faults.flows_skipped or faults.corrupt_records:
        print(
            f"faults tolerated:  {faults.corrupt_records} corrupt "
            f"records, {faults.flows_skipped} flows quarantined "
            f"{cli_options.budget_note(args)}"
        )

    if args.per_flow:
        for analysis in analyses:
            if not analysis.stalls:
                continue
            key = analysis.flow.key
            print(
                f"\nflow {key.ip_a:#010x}:{key.port_a} <-> "
                f"{key.ip_b:#010x}:{key.port_b} "
                f"({analysis.bytes_out} bytes, "
                f"{analysis.stalled_time:.3f}s stalled)"
            )
            for stall in analysis.stalls:
                print("  " + stall.describe())

    cli_options.print_breakdown("stall causes", report.cause_breakdown())
    retx = report.retx_breakdown()
    if any(entry.count for entry in retx.values()):
        cli_options.print_breakdown("timeout-retransmission stalls", retx)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
