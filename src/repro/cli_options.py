"""Shared argparse flag builders for every ``repro`` CLI.

The offline analyzer (``tapo``), the reproduction runner
(``repro-paper``), the live daemon (``repro-paper watch``), the results
inspector (``repro-paper results``), and the cluster runner
(``repro-paper cluster``) all grew the same operational flags —
``--workers``, ``--errors``, ``--stats``, ``--metrics-out``,
``--results-store``, ``--no-cache`` — with per-command defaults and
help text.  Each flag lives here exactly once; a CLI composes the
builders it needs and passes its own default/help where commands
legitimately differ (the analyzer defaults ``--errors`` to strict, the
monitor to lenient).  That keeps flag names, metavars, and parse
semantics identical across every entry point, so an operator's muscle
memory — and any wrapper script — transfers between commands.

Builders return the :class:`argparse.Action` they add, so callers can
tweak rarely-needed attributes without re-declaring the flag.

The second half of the module is what the commands do with the parsed
flags when they do the same thing: build the
:class:`~repro.config.AnalysisConfig` and the server predicate, write
the ``--metrics-out`` pair, print the stall-cause table and the error
line a :class:`~repro.errors.ReproError` exits with.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ErrorBudget, ReproError


def error_budget(spec: str) -> ErrorBudget:
    """Argparse ``type=`` adapter for :meth:`ErrorBudget.parse`.

    Turns a parse failure into the usage error argparse renders,
    instead of a traceback.  Accepts ``ErrorBudget`` instances
    unchanged, so programmatic defaults work too.
    """
    try:
        return ErrorBudget.parse(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def endpoint(spec: str) -> tuple[str, int]:
    """Argparse ``type=`` adapter for ``[HOST:]PORT`` endpoint specs.

    Shared by every flag that names a TCP endpoint (``--http``,
    ``--listen``, ``--connect``), so the syntax an operator learns
    once works everywhere.  A bare port binds/reaches ``127.0.0.1``.
    """
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", spec
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad endpoint {spec!r}; expected [HOST:]PORT"
        ) from None


def _bounded(convert, accept, what: str):
    """Argparse ``type=`` adapter: ``convert`` the text and refuse, as a
    usage error, a value that would silently change the answer."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text}")
        return value

    parse.__name__ = convert.__name__  # "invalid int value: 'x'"
    return parse


positive_int = _bounded(int, lambda n: n > 0, "a positive integer")
non_negative_int = _bounded(int, lambda n: n >= 0, "a non-negative integer")
positive_float = _bounded(float, lambda x: 0 < x < math.inf, "a number > 0")


_ERRORS_HELP = (
    "error budget for damaged input: 'strict' (fail on the first "
    "fault), 'lenient' (skip, count, keep going), 'budget:N' or "
    "'budget:X%%' (lenient until N faults or X%% of units)"
)


def add_errors(
    parser: argparse.ArgumentParser,
    default="strict",
    help: str | None = None,
    raw: bool = False,
):
    """``--errors POLICY``.  ``raw=True`` keeps the spec a string for
    callers that parse it downstream (the results inspector)."""
    return parser.add_argument(
        "--errors",
        type=str if raw else error_budget,
        default=default,
        metavar="POLICY",
        help=help or f"{_ERRORS_HELP}; default {_describe(default)}",
    )


def add_workers(
    parser: argparse.ArgumentParser,
    default: int = 1,
    help: str | None = None,
):
    """``--workers N`` (0 = one per core, 1 = serial)."""
    return parser.add_argument(
        "--workers",
        type=non_negative_int,
        default=default,
        help=help
        or (
            "worker processes (0 = one per core, 1 = serial; "
            f"default {default})"
        ),
    )


def add_no_cache(parser: argparse.ArgumentParser, help: str | None = None):
    """``--no-cache`` — bypass dataset caches."""
    return parser.add_argument(
        "--no-cache",
        action="store_true",
        help=help
        or (
            "bypass the dataset caches (in-process and on-disk) and "
            "re-simulate from scratch"
        ),
    )


def add_stats(parser: argparse.ArgumentParser, help: str | None = None):
    """``--stats`` — runtime counters on stderr."""
    return parser.add_argument(
        "--stats",
        action="store_true",
        help=help or "print runtime counters to stderr",
    )


def add_metrics_out(
    parser: argparse.ArgumentParser, help: str | None = None
):
    """``--metrics-out PREFIX`` — the PREFIX.json/PREFIX.prom export."""
    return parser.add_argument(
        "--metrics-out",
        metavar="PREFIX",
        help=help
        or (
            "write metrics to PREFIX.json and PREFIX.prom "
            "(Prometheus text exposition)"
        ),
    )


def add_results_store(
    parser: argparse.ArgumentParser, help: str | None = None
):
    """``--results-store PATH`` — the longitudinal JSONL store."""
    return parser.add_argument(
        "--results-store",
        metavar="PATH",
        help=help
        or (
            "append result records to the longitudinal results store "
            "at PATH"
        ),
    )


def policy_list(spec: str) -> tuple[str, ...]:
    """Argparse ``type=`` adapter for comma-separated policy names.

    Validates through the policy registry
    (:func:`repro.config.validate_policies`), so an unknown name fails
    with a usage error that lists every registered policy.
    """
    from .config import validate_policies

    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError("empty policy list")
    try:
        return validate_policies(names)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def policy_name(name: str) -> str:
    """Argparse ``type=`` adapter for a single policy name."""
    return policy_list(name)[0]


def add_policy(
    parser: argparse.ArgumentParser,
    default: str = "native",
    help: str | None = None,
):
    """``--policy NAME`` — one registry-validated recovery policy."""
    return parser.add_argument(
        "--policy",
        type=policy_name,
        default=default,
        metavar="NAME",
        help=help
        or (
            f"recovery policy to simulate under (default {default}); "
            "unknown names list the registry"
        ),
    )


def add_policies(
    parser: argparse.ArgumentParser,
    default: "tuple[str, ...] | None" = None,
    help: str | None = None,
):
    """``--policies NAME[,NAME...]`` — registry-validated selection."""
    return parser.add_argument(
        "--policies",
        type=policy_list,
        default=default,
        metavar="NAME[,NAME...]",
        help=help
        or (
            "comma-separated recovery policies to run (default: every "
            "registered policy); unknown names list the registry"
        ),
    )


def add_version(parser: argparse.ArgumentParser):
    """``--version`` — ``<prog> <package version>``."""
    from .cli import version_string

    return parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {version_string()}",
    )


def add_tau(parser: argparse.ArgumentParser):
    """``--tau`` — the stall threshold multiplier."""
    return parser.add_argument(
        "--tau",
        type=positive_float,
        default=2.0,
        help="stall threshold multiplier on SRTT (default 2)",
    )


def ipv4(text: str) -> int:
    """Argparse ``type=`` adapter for a dotted-quad IPv4 address
    (:func:`~repro.packet.headers.ip_from_str`), so a malformed one is
    a usage error before any input is opened."""
    from .packet.headers import ip_from_str

    try:
        return ip_from_str(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def add_server_endpoint(parser: argparse.ArgumentParser) -> None:
    """``--server-ip`` / ``--server-port`` endpoint pin pair."""
    parser.add_argument(
        "--server-ip",
        type=ipv4,
        metavar="A.B.C.D",
        help="IP address of the server endpoint (otherwise inferred)",
    )
    parser.add_argument(
        "--server-port",
        type=int,
        help="TCP port of the server endpoint (otherwise inferred)",
    )


def add_cluster_options(parser: argparse.ArgumentParser) -> None:
    """``--shards`` — the sharded-cluster worker count."""
    parser.add_argument(
        "--shards",
        type=positive_int,
        default=4,
        metavar="N",
        help=(
            "flow-hash shards, one worker process each (1 = run "
            "in-process; merged output is byte-identical for every "
            "value; default 4)"
        ),
    )


#: Environment fallback for ``--cluster-secret`` — keeps the secret out
#: of process listings and shell history.
CLUSTER_SECRET_ENV = "REPRO_CLUSTER_SECRET"


def add_cluster_secret(
    parser: argparse.ArgumentParser, help: str | None = None
):
    """``--cluster-secret SECRET`` with ``$REPRO_CLUSTER_SECRET``
    fallback (both the listener and dial-in worker CLIs use it, so the
    two ends of the handshake parse the secret identically)."""
    return parser.add_argument(
        "--cluster-secret",
        metavar="SECRET",
        default=os.environ.get(CLUSTER_SECRET_ENV),
        help=help
        or (
            "shared HMAC secret for the cluster handshake (default: "
            f"${CLUSTER_SECRET_ENV}); required for cross-host mode"
        ),
    )


def add_heartbeat(
    parser: argparse.ArgumentParser,
    interval: float = 5.0,
    deadline: float = 30.0,
) -> None:
    """``--heartbeat-interval`` / ``--heartbeat-deadline`` pair."""
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=interval,
        metavar="SECONDS",
        help=(
            "how often workers beacon a HEARTBEAT frame "
            f"(0 disables; default {interval:g})"
        ),
    )
    parser.add_argument(
        "--heartbeat-deadline",
        type=float,
        default=deadline,
        metavar="SECONDS",
        help=(
            "declare a worker lost after this long without any frame "
            "— catches silent and half-open peers "
            f"(0 disables; default {deadline:g})"
        ),
    )


def analysis_config(args: argparse.Namespace):
    """The :class:`~repro.config.AnalysisConfig` that ``--tau`` and
    ``--errors`` describe."""
    from .config import AnalysisConfig

    return AnalysisConfig(tau=args.tau, errors=args.errors)


def server_pin(args: argparse.Namespace) -> tuple[int | None, int | None]:
    """``(ip, port)`` pinned by ``--server-ip`` / ``--server-port``;
    at most one is set, and the IP wins when both flags are given."""
    if args.server_ip is not None:
        return args.server_ip, None
    return None, args.server_port or None


def server_predicate(args: argparse.Namespace):
    """The server-side predicate for :func:`server_pin`, ``None`` when
    the server is to be inferred."""
    from .packet.flow import server_by_ip, server_by_port

    ip, port = server_pin(args)
    if ip is not None:
        return server_by_ip(ip)
    return server_by_port(port) if port is not None else None


def budget_note(args: argparse.Namespace) -> str:
    """``(budget: ...)`` — which ``--errors`` policy judged the input."""
    return f"(budget: {args.errors.describe()})"


def report_error(
    prefix: str, exc: ReproError, args: argparse.Namespace
) -> int:
    """Print the one-line epitaph of a run a typed error ended and
    return its exit status."""
    print(
        f"{prefix}: {type(exc).__name__}: {exc} {budget_note(args)}",
        file=sys.stderr,
    )
    return 2


def write_metrics(registry, prefix: str) -> None:
    """Serve ``--metrics-out PREFIX``: PREFIX.json + PREFIX.prom."""
    from .obs.metrics import write_registry

    json_path, prom_path = write_registry(registry, prefix)
    print(f"wrote metrics to {json_path} and {prom_path}", file=sys.stderr)


def print_breakdown(title: str, breakdown: dict) -> None:
    """One ``cause  volume%  time%  (count)`` table, empty rows left
    out (``breakdown`` as :meth:`ServiceReport.cause_breakdown
    <repro.core.report.ServiceReport.cause_breakdown>` returns it)."""
    print(f"\n{title} (volume% / time%):")
    for cause, entry in breakdown.items():
        if entry.count == 0:
            continue
        print(
            f"  {cause.value:<20} {entry.volume_share * 100:6.1f}%  "
            f"{entry.time_share * 100:6.1f}%   ({entry.count} stalls)"
        )


def _describe(default) -> str:
    if isinstance(default, ErrorBudget):
        return default.mode
    return str(default)
