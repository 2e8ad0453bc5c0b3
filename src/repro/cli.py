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

_SUBCOMMANDS = (
    "run", "analyze", "trace", "watch", "matrix", "results", "cluster",
    "cluster-worker",
)

_USAGE = """\
usage: repro-paper <subcommand> [options]

subcommands:
  run        simulate services and regenerate the paper's evaluation
  analyze    classify TCP stalls in a pcap trace (batch or --stream)
  trace      re-simulate one flow with the flight recorder on
  watch      continuously monitor stalls in a live/rotating capture
  matrix     run the policy tournament: every recovery policy against
             every workload x path scenario, ranked per scenario
  results    inspect the longitudinal results store (list/show/
             trends/compact/merge/dashboard)
  cluster    shard a capture across N worker processes and merge
             their reports (byte-identical to a single-process run)
  cluster-worker
             dial in to a 'cluster --listen' coordinator and execute
             shard assignments (cross-host fleet member)

Run 'repro-paper <subcommand> -h' for subcommand options.
Flags without a subcommand are forwarded to 'run' (legacy form).
"""


def version_string() -> str:
    """The installed package version (falls back to the source tree's
    ``repro.__version__`` when running uninstalled)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("help", "--help", "-h"):
        print(_USAGE, end="")
        return 0
    if argv and argv[0] in ("--version", "version"):
        print(f"repro-paper {version_string()}")
        return 0
    command, rest = (argv[0], argv[1:]) if argv else ("run", [])
    if command == "analyze":
        from .core.cli import main as analyze_main

        return analyze_main(rest)
    if command == "trace":
        from .obs.export import trace_main

        return trace_main(rest)
    if command == "watch":
        from .live.cli import main as watch_main

        return watch_main(rest)
    if command == "matrix":
        from .matrix.cli import main as matrix_main

        return matrix_main(rest)
    if command == "results":
        from .results.cli import main as results_main

        return results_main(rest)
    if command == "cluster":
        from .cluster.cli import main as cluster_main

        return cluster_main(rest)
    if command == "cluster-worker":
        from .cluster.worker_cli import main as worker_cli_main

        return worker_cli_main(rest)
    if command == "run":
        from .experiments.cli import main as run_main

        return run_main(rest)
    if command.startswith("-"):
        # Legacy form: 'repro-paper --flows 150' predates subcommands.
        from .experiments.cli import main as run_main

        return run_main(argv)
    print(f"repro-paper: unknown subcommand {command!r}\n", file=sys.stderr)
    print(_USAGE, end="", file=sys.stderr)
    return 2


def tapo_main(argv: list[str] | None = None) -> int:
    """Entry point for the ``tapo`` alias (== ``repro-paper analyze``)."""
    from .core.cli import main as analyze_main

    return analyze_main(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
