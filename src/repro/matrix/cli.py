"""``repro-paper matrix`` — run the policy tournament.

Examples::

    # Full sweep: every registered policy x every workload x path.
    repro-paper matrix --flows 300

    # Reduced smoke grid, JSON artifact, no cache.
    repro-paper matrix --flows 40 --paths wan,datacenter \\
        --workloads web_search --no-cache --json-out matrix.json

    # Append the ranking record for trend watching.
    repro-paper matrix --results-store results.jsonl

The per-cell cache makes interrupted sweeps resumable: re-running the
same command recomputes only cells that never finished.
"""

from __future__ import annotations

import argparse
import sys

from .. import cli_options
from ..netsim.profiles import PATH_MODELS
from .runner import (
    MatrixCell,
    MatrixConfig,
    append_to_store,
    dump_json,
    run_matrix,
)
from .scenarios import WORKLOADS


def _name_list(registry: dict, what: str):
    def parse(spec: str) -> tuple[str, ...]:
        names = tuple(n.strip() for n in spec.split(",") if n.strip())
        if not names:
            raise argparse.ArgumentTypeError(f"empty {what} list")
        for name in names:
            if name not in registry:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {name!r}; choose from {sorted(registry)}"
                )
        return names

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper matrix",
        description=(
            "Sweep every selected recovery policy over every workload x "
            "path scenario and print the ranked table (Tables 8/9, "
            "extended)."
        ),
    )
    parser.add_argument(
        "--flows",
        type=int,
        default=MatrixConfig.flows,
        help="flows per cell (default %(default)s, the Table 8/9 count)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=MatrixConfig.seed,
        help="workload seed (default %(default)s, the Table 8/9 seed)",
    )
    parser.add_argument(
        "--t2",
        type=int,
        default=MatrixConfig.t2,
        help="S-RTO T2 congestion-cut threshold (default %(default)s)",
    )
    cli_options.add_policies(parser)
    parser.add_argument(
        "--workloads",
        type=_name_list(WORKLOADS, "workload"),
        default=None,
        metavar="NAME[,NAME...]",
        help=(
            "workloads to sweep (default: all of "
            f"{sorted(WORKLOADS)})"
        ),
    )
    parser.add_argument(
        "--paths",
        type=_name_list(PATH_MODELS, "path scenario"),
        default=None,
        metavar="NAME[,NAME...]",
        help=(
            "path scenarios to sweep (default: all of "
            f"{sorted(PATH_MODELS)})"
        ),
    )
    cli_options.add_workers(
        parser,
        default=1,
        help=(
            "worker processes per cell (0 = one per core; cells are "
            "byte-identical for every value; default 1)"
        ),
    )
    cli_options.add_no_cache(
        parser,
        help=(
            "re-run every cell instead of resuming from the per-cell "
            "on-disk cache"
        ),
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="write the full ranked-table JSON artifact to PATH",
    )
    cli_options.add_results_store(
        parser,
        help=(
            "append the matrix ranking record to the longitudinal "
            "results store at PATH (trend engine watches for "
            "policy-order flips)"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-cell progress lines on stderr",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = MatrixConfig(
        flows=args.flows,
        seed=args.seed,
        t2=args.t2,
        policies=args.policies,
        workloads=args.workloads,
        paths=args.paths,
        workers=args.workers,
        use_cache=not args.no_cache,
    )

    def progress(cell: MatrixCell) -> None:
        if args.quiet:
            return
        source = "cache" if cell.cached else f"{cell.wall_time:.1f}s"
        print(
            f"cell {cell.workload}/{cell.path}/{cell.policy}: "
            f"mean {cell.metrics['mean_latency'] * 1000:.1f} ms, "
            f"stalls {cell.metrics['stall_rate'] * 100:.1f}% ({source})",
            file=sys.stderr,
        )

    result = run_matrix(config, progress=progress)
    print(result.format_table(), end="")
    if args.json_out:
        dump_json(result, args.json_out)
    if args.results_store:
        from ..results.store import ResultsStore

        with ResultsStore(args.results_store) as store:
            append_to_store(store, result)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
