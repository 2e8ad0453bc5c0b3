"""Command-line interface: ``repro-paper watch <source>``.

Runs the continuous stall-monitoring daemon over a growing pcap file,
a rotating-capture directory, or stdin (``-``), with rolling windows,
alert rules, an optional HTTP endpoint, and checkpoint/resume.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .. import cli_options
from ..config import RunConfig
from ..errors import ErrorBudget, ReproError
from .alerts import AlertRule, JsonlSink
from .daemon import LiveDaemon, open_source


def _alert_rule(spec: str) -> AlertRule:
    try:
        return AlertRule.parse(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper watch",
        description=(
            "Continuously monitor TCP stalls in a live capture: a "
            "growing pcap file, a rotating-capture directory, or "
            "stdin ('-')."
        ),
    )
    cli_options.add_version(parser)
    parser.add_argument(
        "source",
        help="pcap file to tail, directory of rotating pcaps, or '-'",
    )
    parser.add_argument(
        "--pattern",
        default="*.pcap",
        help="glob for rotating-directory sources (default '*.pcap')",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="rolling window length in trace seconds (default 60)",
    )
    parser.add_argument(
        "--retention",
        type=int,
        default=120,
        metavar="N",
        help=(
            "windows kept individually; older ones fold into one "
            "cumulative summary (default 120)"
        ),
    )
    parser.add_argument(
        "--top-k",
        type=cli_options.non_negative_int,
        default=10,
        metavar="K",
        help="most-stalled flows tracked per window (default 10)",
    )
    parser.add_argument(
        "--service",
        default="live",
        help="service label on reports (default 'live')",
    )
    cli_options.add_server_endpoint(parser)
    cli_options.add_tau(parser)
    cli_options.add_errors(
        parser,
        default=ErrorBudget.lenient(),
        help=(
            "error budget for damaged input: 'strict', 'lenient', "
            "'budget:N', 'budget:X%%' (default lenient — a monitor "
            "should survive dirty captures)"
        ),
    )
    cli_options.add_workers(
        parser,
        default=1,
        help="analysis worker processes (0 = one per core; default 1)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=cli_options.positive_float,
        default=60.0,
        help=(
            "evict flows idle for this many trace-seconds (default 60)"
        ),
    )
    parser.add_argument(
        "--alert",
        dest="alerts",
        type=_alert_rule,
        action="append",
        default=[],
        metavar="RULE",
        help=(
            "alert rule '[name:] METRIC OP VALUE [over N] [clear V] "
            "[cooldown S]', e.g. 'surge: stall_ratio > 0.25 over 5 "
            "clear 0.15 cooldown 300'; repeatable"
        ),
    )
    parser.add_argument(
        "--alert-log",
        metavar="PATH",
        help="append alert events to this JSONL file",
    )
    parser.add_argument(
        "--alert-log-max-bytes",
        type=cli_options.non_negative_int,
        default=16 * 1024 * 1024,
        metavar="BYTES",
        help=(
            "rotate the alert log past this size, keeping "
            "--alert-log-backups generations (0 = unbounded; "
            "default 16 MiB)"
        ),
    )
    parser.add_argument(
        "--alert-log-backups",
        type=cli_options.positive_int,
        default=3,
        metavar="N",
        help="rotated alert-log generations to keep (default 3)",
    )
    cli_options.add_results_store(
        parser,
        help=(
            "append longitudinal result records (one per completed "
            "window, plus totals at exit) to this JSONL store; also "
            "enables /dashboard, /runs.json, /trends.json content"
        ),
    )
    parser.add_argument(
        "--http",
        type=cli_options.endpoint,
        metavar="[HOST:]PORT",
        help=(
            "serve /healthz, /metrics, /report.json, /dashboard, "
            "/runs.json, /trends.json here (port 0 = ephemeral; the "
            "bound address is logged)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="persist source offsets + window state to this file",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=cli_options.non_negative_float,
        default=30.0,
        metavar="SECONDS",
        help="seconds between periodic checkpoints (default 30)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint if it exists",
    )
    parser.add_argument(
        "--poll-interval",
        type=cli_options.positive_float,
        default=0.5,
        metavar="SECONDS",
        help="sleep between polls when the source is idle (default 0.5)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help=(
            "drain everything currently available, flush the report, "
            "and exit (no waiting for growth)"
        ),
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        help="write the final flushed report (JSON) here on exit",
    )
    cli_options.add_metrics_out(
        parser,
        help=(
            "write final metrics to PREFIX.json and PREFIX.prom (the "
            "same serialization /metrics serves)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the final flushed report to stdout as JSON",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="daemon log verbosity on stderr (default info)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    sink = (
        JsonlSink(
            args.alert_log,
            max_bytes=args.alert_log_max_bytes,
            backups=args.alert_log_backups,
        )
        if args.alert_log
        else None
    )
    results_store = None
    host, port = args.http if args.http else (None, None)
    try:
        if args.results_store:
            from ..results.store import ResultsStore

            results_store = ResultsStore(args.results_store)
        source = open_source(
            args.source, pattern=args.pattern, errors=args.errors
        )
        daemon = LiveDaemon(
            source,
            window_seconds=args.window,
            retention=args.retention,
            top_k=args.top_k,
            service=args.service,
            analysis=cli_options.analysis_config(args),
            run=RunConfig(
                workers=args.workers, idle_timeout=args.idle_timeout
            ),
            server_side=cli_options.server_predicate(args),
            rules=args.alerts,
            alert_sink=sink,
            http_host=host,
            http_port=port,
            checkpoint_path=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval,
            poll_interval=args.poll_interval,
            once=args.once,
            resume=args.resume,
            results_store=results_store,
        )
    except (OSError, ValueError) as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 2

    daemon.install_signal_handlers()
    try:
        report = daemon.run()
    except ReproError as exc:
        return cli_options.report_error("watch", exc, args)
    finally:
        if sink is not None:
            sink.close()
        if results_store is not None:
            results_store.close()

    if args.report_out:
        from pathlib import Path

        out = Path(args.report_out)
        if out.parent != Path("."):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, sort_keys=True, indent=2))
        print(f"wrote final report to {out}", file=sys.stderr)
    if args.metrics_out:
        cli_options.write_metrics(
            daemon.metrics_registry(), args.metrics_out
        )
    if args.json:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        print()
    else:
        totals = report["windows"]["totals"]
        runtime = report["runtime"]
        print(
            f"watch: {runtime['records_in']} records, "
            f"{totals['flows']} flows "
            f"({totals['skipped']} quarantined), "
            f"{totals['stalls']} stalls over "
            f"{len(report['windows']['windows'])} live windows "
            f"(+{report['windows']['expired_windows']} expired)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
