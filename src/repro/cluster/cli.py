"""``repro-paper cluster <trace.pcap>...`` — sharded analysis fleet.

Runs the coordinator over one or more captures, N worker processes
each owning one flow-hash shard, and prints (or serves) the merged
fleet report — byte-identical to what a single-process run of the
same captures produces.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .. import cli_options
from ..errors import ReproError
from .coordinator import ClusterProvider, Coordinator
from .net import NetConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper cluster",
        description=(
            "Analyze capture(s) with an N-shard worker cluster; the "
            "merged report is byte-identical to a single-process run."
        ),
    )
    cli_options.add_version(parser)
    parser.add_argument(
        "pcaps",
        nargs="+",
        metavar="PCAP",
        help="capture file(s), analyzed in order",
    )
    cli_options.add_server_endpoint(parser)
    cli_options.add_cluster_options(parser)
    cli_options.add_tau(parser)
    parser.add_argument(
        "--service",
        default="cluster",
        help="service label on the merged report (default 'cluster')",
    )
    cli_options.add_errors(parser, default="strict")
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help=(
            "spool per-shard results here (state.json + shard-N.pkl); "
            "with --resume, finished shards are loaded instead of re-run"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint-dir if its state matches",
    )
    parser.add_argument(
        "--listen",
        type=cli_options.endpoint,
        metavar="[HOST:]PORT",
        help=(
            "cross-host mode: accept authenticated dial-in workers "
            "(repro-paper cluster-worker --connect) here instead of "
            "forking local ones; requires --cluster-secret"
        ),
    )
    cli_options.add_cluster_secret(parser)
    cli_options.add_heartbeat(parser)
    parser.add_argument(
        "--worker-grace",
        type=cli_options.non_negative_float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "in --listen mode, run pending shards in-process after "
            "this long with no connected workers (default 30)"
        ),
    )
    parser.add_argument(
        "--jitter-seed",
        type=int,
        metavar="N",
        help=(
            "seed the retry-backoff jitter (default: OS entropy; "
            "set for reproducible retry schedules)"
        ),
    )
    cli_options.add_results_store(
        parser,
        help=(
            "append a cluster-run provenance record (workers, "
            "reassignments, heartbeat misses) to the results store "
            "at PATH"
        ),
    )
    parser.add_argument(
        "--http",
        type=cli_options.endpoint,
        metavar="[HOST:]PORT",
        help=(
            "after the run, serve the merged /report.json, /metrics, "
            "/healthz, and /shards.json here until interrupted"
        ),
    )
    cli_options.add_stats(
        parser, help="print per-shard and fleet counters to stderr"
    )
    cli_options.add_metrics_out(parser)
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the merged report to stdout as canonical JSON",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    server_ip, server_port = cli_options.server_pin(args)

    net = None
    if args.listen:
        if not args.cluster_secret:
            parser.error(
                "--listen requires --cluster-secret (or "
                f"${cli_options.CLUSTER_SECRET_ENV})"
            )
        host, port = args.listen
        net = NetConfig(
            host=host,
            port=port,
            secret=args.cluster_secret,
            worker_grace=args.worker_grace,
        )

    coordinator = Coordinator(
        args.pcaps,
        n_shards=args.shards,
        service=args.service,
        analysis=cli_options.analysis_config(args),
        server_ip=server_ip,
        server_port=server_port,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        heartbeat_interval=args.heartbeat_interval or None,
        heartbeat_deadline=args.heartbeat_deadline or None,
        jitter_seed=args.jitter_seed,
        net=net,
    )
    try:
        if net is not None:
            bound_host, bound_port = coordinator.bind()
            print(
                f"cluster: listening on {bound_host}:{bound_port} "
                "for dial-in workers",
                file=sys.stderr,
            )
        result = coordinator.run()
    except ReproError as exc:
        return cli_options.report_error("cluster", exc, args)
    except OSError as exc:
        print(f"cluster: cannot read input: {exc}", file=sys.stderr)
        return 1

    report = result.report
    if args.stats:
        for shard in result.shards:
            print(
                f"shard {shard['shard']}: {shard['flows']} flows "
                f"({shard['skipped']} quarantined), "
                f"{shard['packets_kept']}/{shard['packets_decoded']} "
                "packets kept",
                file=sys.stderr,
            )
        print(
            f"cluster: {result.n_shards} shards over "
            f"{result.transport}, {len(report.flows)} flows, "
            f"{result.workers_died} worker deaths, "
            f"{result.reassignments} reassignments, "
            f"{result.heartbeat_misses} heartbeat misses, "
            f"{result.shards_resumed} shards resumed, "
            f"{result.wall_time:.2f}s",
            file=sys.stderr,
        )
    if args.metrics_out:
        cli_options.write_metrics(result.registry, args.metrics_out)
    if args.results_store:
        from ..results.store import ResultsStore

        ResultsStore(args.results_store).append(
            "cluster",
            args.service,
            metrics={
                "n_shards": result.n_shards,
                "flows": len(report.flows),
                "flows_skipped": len(report.skipped),
                "workers": len(result.workers),
                "workers_died": result.workers_died,
                "reassignments": result.reassignments,
                "heartbeat_misses": result.heartbeat_misses,
                "auth_failures": result.auth_failures,
                "shards_resumed": result.shards_resumed,
            },
            wall_time=result.wall_time,
            meta={
                "transport": result.transport,
                "pcaps": list(args.pcaps),
            },
        )

    if args.json:
        sys.stdout.write(report.to_json())
        sys.stdout.write("\n")
    else:
        print(f"flows analyzed:    {len(report.flows)}")
        print(f"flows quarantined: {len(report.skipped)}")
        print(f"stalls detected:   {report.total_stalls()}")
        cli_options.print_breakdown(
            "stall causes", report.cause_breakdown()
        )

    if args.http:
        from ..live.http import LiveHTTPServer

        server = LiveHTTPServer(ClusterProvider(result), *args.http).start()
        print(f"cluster: serving {server.url}", file=sys.stderr)
        try:
            import threading

            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
