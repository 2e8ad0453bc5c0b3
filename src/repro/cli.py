"""Unified command-line entry point: ``repro-paper <subcommand>``.

One binary fronts every layer of the pipeline:

=============  =====================================================
``run``        simulate the three services and regenerate the
               paper's tables/figures (:mod:`repro.experiments.cli`)
``analyze``    classify stalls in a pcap trace, batch or streaming
               (:mod:`repro.core.cli`; also installed as ``tapo``)
``trace``      flight-recorder deep dive on one simulated flow
               (:mod:`repro.obs.export`)
``watch``      continuous stall monitoring of a live/rotating capture
               (:mod:`repro.live.cli`)
``results``    inspect/trend-check the longitudinal results store
               (:mod:`repro.results.cli`)
``matrix``     policy tournament: every recovery policy × workload ×
               path scenario, ranked (:mod:`repro.matrix.cli`)
``cluster``    sharded analysis fleet: N worker processes, merged
               byte-identical report (:mod:`repro.cluster.cli`)
``cluster-worker``  dial in to a ``cluster --listen`` coordinator and
               execute shard assignments
               (:mod:`repro.cluster.worker_cli`)
=============  =====================================================

The shared flags mean the same thing everywhere they apply:
``--workers`` (process count, 0 = one per core), ``--no-cache``
(bypass dataset caches; ``run`` only), ``--stats`` (runtime counters
to stderr), ``--metrics-out PREFIX`` (PREFIX.json + PREFIX.prom).

Old invocations keep working:

===============================  ================================
old                              new
===============================  ================================
``repro-paper --flows 150``      ``repro-paper run --flows 150``
``repro-paper trace --flow 3``   ``repro-paper trace --flow 3``
``tapo trace.pcap``              ``repro-paper analyze trace.pcap``
===============================  ================================

A bare ``repro-paper --flows ...`` (no subcommand) is forwarded to
``run`` for backward compatibility.
"""

from __future__ import annotations

import sys
import textwrap
from importlib import import_module

#: Subcommand -> (``module:function`` of its ``main(argv)``, usage
#: blurb), in usage order.  The usage text and the lazy-import dispatch
#: are both read off this table.
_COMMANDS = {
    "run": (
        ".experiments.cli:main",
        "simulate services and regenerate the paper's evaluation",
    ),
    "analyze": (
        ".core.cli:main",
        "classify TCP stalls in a pcap trace (batch or --stream)",
    ),
    "trace": (
        ".obs.export:trace_main",
        "re-simulate one flow with the flight recorder on",
    ),
    "watch": (
        ".live.cli:main",
        "continuously monitor stalls in a live/rotating capture",
    ),
    "matrix": (
        ".matrix.cli:main",
        "run the policy tournament: every recovery policy against\n"
        "every workload x path scenario, ranked per scenario",
    ),
    "results": (
        ".results.cli:main",
        "inspect the longitudinal results store (list/show/\n"
        "trends/compact/merge/dashboard)",
    ),
    "cluster": (
        ".cluster.cli:main",
        "shard a capture across N worker processes and merge\n"
        "their reports (byte-identical to a single-process run)",
    ),
    "cluster-worker": (
        ".cluster.worker_cli:main",
        "dial in to a 'cluster --listen' coordinator and execute\n"
        "shard assignments (cross-host fleet member)",
    ),
}

_BLURB_COLUMN = 13


def _usage() -> str:
    rows = []
    for name, (_, blurb) in _COMMANDS.items():
        body = textwrap.indent(blurb, " " * _BLURB_COLUMN)
        if len(name) + 3 < _BLURB_COLUMN:
            rows.append(f"  {name}".ljust(_BLURB_COLUMN) + body.lstrip())
        else:  # a name too long for the column gets its own line
            rows.append(f"  {name}\n{body}")
    return (
        "usage: repro-paper <subcommand> [options]\n\nsubcommands:\n"
        + "\n".join(rows)
        + "\n\nRun 'repro-paper <subcommand> -h' for subcommand options.\n"
        "Flags without a subcommand are forwarded to 'run' (legacy form).\n"
    )


def version_string() -> str:
    """The installed package version (falls back to the source tree's
    ``repro.__version__`` when running uninstalled)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _run(command: str, argv: list[str]) -> int:
    module, _, function = _COMMANDS[command][0].partition(":")
    return getattr(import_module(module, __package__), function)(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("help", "--help", "-h"):
        print(_usage(), end="")
        return 0
    if argv and argv[0] in ("--version", "version"):
        print(f"repro-paper {version_string()}")
        return 0
    command, rest = (argv[0], argv[1:]) if argv else ("run", [])
    if command in _COMMANDS:
        return _run(command, rest)
    if command.startswith("-"):
        # Legacy form: 'repro-paper --flows 150' predates subcommands.
        return _run("run", argv)
    print(f"repro-paper: unknown subcommand {command!r}\n", file=sys.stderr)
    print(_usage(), end="", file=sys.stderr)
    return 2


def tapo_main(argv: list[str] | None = None) -> int:
    """Entry point for the ``tapo`` alias (== ``repro-paper analyze``)."""
    return _run("analyze", argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
