"""``repro-paper cluster-worker --connect HOST:PORT`` — dial-in worker.

The cross-host half of ``repro-paper cluster --listen``: run this on
any machine that can read the capture paths the coordinator shards
(shared filesystem, or identical local copies), point it at the
listener, and it authenticates, pulls shard assignments until the run
drains, and exits.

Exit codes: ``0`` — clean shutdown (coordinator finished), ``1`` —
connection budget exhausted (listener unreachable or kept dying),
``2`` — authentication failed (wrong or missing secret; retrying
cannot help, fix the secret).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .. import cli_options
from ..errors import ReproError
from .protocol import AuthError
from .net import run_worker


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper cluster-worker",
        description=(
            "Dial a cluster coordinator (repro-paper cluster --listen) "
            "and execute shard assignments until the run completes."
        ),
    )
    cli_options.add_version(parser)
    parser.add_argument(
        "--connect",
        type=cli_options.endpoint,
        metavar="[HOST:]PORT",
        required=True,
        help="the coordinator's listen address",
    )
    cli_options.add_cluster_secret(parser)
    parser.add_argument(
        "--handshake-deadline",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="abort the handshake after this long (default 5)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=5,
        metavar="N",
        help=(
            "give up after N consecutive failed connections "
            "(default 5)"
        ),
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help=(
            "base reconnect delay, doubled per consecutive failure "
            "with jitter (default 0.5)"
        ),
    )
    parser.add_argument(
        "--backoff-seed",
        type=int,
        metavar="N",
        help="seed the reconnect jitter (default: OS entropy)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=cli_options.positive_float,
        metavar="SECONDS",
        help=(
            "reconnect if no frame arrives for this long (catches a "
            "blackholed link; default: wait forever)"
        ),
    )
    cli_options.add_stats(
        parser, help="print shards completed to stderr on exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    if not args.cluster_secret:
        parser.error(
            "cluster-worker requires --cluster-secret (or "
            f"${cli_options.CLUSTER_SECRET_ENV})"
        )
    host, port = args.connect
    try:
        completed = run_worker(
            (host, port),
            args.cluster_secret,
            handshake_deadline=args.handshake_deadline,
            max_retries=args.max_retries,
            retry_backoff=args.retry_backoff,
            seed=args.backoff_seed,
            idle_timeout=args.idle_timeout,
        )
    except AuthError as exc:
        print(f"cluster-worker: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(
            f"cluster-worker: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.stats:
        print(
            f"cluster-worker: completed {completed} shard(s)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
