"""One-command paper reproduction: ``repro-paper``.

Runs the whole pipeline — simulate the three services, analyze with
TAPO, print every table/figure summary, run the mitigation A/B, and
optionally export figure data files — so the paper's evaluation
regenerates with::

    repro-paper run --export-dir out/

The flag defaults are the paper run's parameters, read from
:func:`~repro.experiments.dataset.build_dataset` and
:func:`~repro.experiments.mitigation.table89_sweep`.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from .. import cli_options
from ..config import RunConfig
from .dataset import build_dataset
from .illustrative import run_illustrative_flow
from .mitigation import POLICIES, WORKLOADS, table89_sweep
from .tables import (
    format_fig1,
    format_fig3,
    format_fig6_table4,
    format_fig7_table6,
    format_fig10_table7,
    format_fig11,
    format_fig12,
    format_table1,
    format_table3,
    format_table5,
    format_table8,
    format_table9,
)

#: The paper run's parameters, as the exhibit functions' defaults.
_DATASET = inspect.signature(build_dataset).parameters
_SWEEP = inspect.signature(table89_sweep).parameters


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper",
        description=(
            "Regenerate the evaluation of 'Demystifying and Mitigating "
            "TCP Stalls at the Server Side' (CoNEXT'15)."
        ),
    )
    parser.add_argument(
        "--flows",
        type=int,
        default=_DATASET["flows_per_service"].default,
        help=(
            "flows per service for the measurement study "
            "(default %(default)s)"
        ),
    )
    parser.add_argument(
        "--mitigation-flows",
        type=int,
        default=_SWEEP["flows"].default,
        help="flows per policy for Tables 8/9 (default %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=_DATASET["seed"].default,
        help="dataset seed",
    )
    parser.add_argument(
        "--skip-mitigation",
        action="store_true",
        help="skip the (slower) Table 8/9 policy sweep",
    )
    cli_options.add_policies(
        parser,
        help=(
            "policies for the mitigation sweep (registry-validated; "
            "must include native, tlp, and srto, which Tables 8/9 "
            "compare; default: exactly those three)"
        ),
    )
    parser.add_argument(
        "--export-dir",
        help="also write gnuplot-ready figure data files here",
    )
    cli_options.add_workers(
        parser,
        default=0,
        help=(
            "simulation worker processes (0 = one per core, 1 = serial; "
            "results are identical either way; default 0)"
        ),
    )
    cli_options.add_no_cache(parser)
    cli_options.add_stats(
        parser,
        help="print runtime metrics (events/sec, workers, cache) to stderr",
    )
    cli_options.add_metrics_out(
        parser,
        help=(
            "write run metrics to PREFIX.json and PREFIX.prom "
            "(Prometheus text exposition)"
        ),
    )
    cli_options.add_results_store(
        parser,
        help=(
            "append per-service summary records and the mitigation "
            "policy rankings to the longitudinal results store at PATH"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.skip_mitigation and args.policies is not None:
        missing = [
            name for name, _label in POLICIES if name not in args.policies
        ]
        if missing:
            parser.error(
                f"--policies must include {', '.join(missing)} "
                "(Tables 8/9 compare them)"
            )
    started = time.time()

    print(
        f"simulating {args.flows} flows x 3 services "
        f"(seed {args.seed})...",
        file=sys.stderr,
    )
    dataset = build_dataset(
        flows_per_service=args.flows,
        seed=args.seed,
        run=RunConfig(workers=args.workers, use_cache=not args.no_cache),
    )
    print(
        f"  {dataset.total_packets} packets analyzed in "
        f"{time.time() - started:.1f}s",
        file=sys.stderr,
    )
    if args.stats:
        print(dataset.metrics.format(), file=sys.stderr)
    if args.metrics_out:
        cli_options.write_metrics(
            dataset.metrics.to_registry(), args.metrics_out
        )
    reports = dataset.reports

    sections = [
        format_table1(reports),
        format_fig1(reports),
        format_fig3(reports),
        format_table3(reports),
        format_fig6_table4(reports),
        format_table5(reports),
        format_fig7_table6(reports),
        format_fig10_table7(reports),
        format_fig11(reports),
        format_fig12(reports),
    ]
    for section in sections:
        print(section)
        print()

    illustrative = run_illustrative_flow()
    print(
        f"Figure 2: {illustrative.total_bytes} bytes in "
        f"{illustrative.transfer_time:.2f}s, "
        f"stalled {illustrative.stalled_time:.2f}s"
    )
    for stall in illustrative.analysis.stalls:
        print("  " + stall.describe())
    print()

    comparisons = []
    if not args.skip_mitigation:
        n_policies = len(args.policies or POLICIES)
        print(
            f"running mitigation sweep ({args.mitigation_flows} flows x "
            f"{n_policies} policies x {len(WORKLOADS)} services)...",
            file=sys.stderr,
        )
        comparisons = table89_sweep(
            flows=args.mitigation_flows,
            policies=args.policies,
            workers=args.workers,
        )
        print(format_table8(comparisons))
        print()
        print(format_table9(comparisons))
        print()

    if args.results_store:
        from ..results.store import (
            ResultsStore,
            record_fields_from_report,
        )

        run_seconds = time.time() - started
        run_config = {
            "flows": args.flows,
            "mitigation_flows": args.mitigation_flows,
            "seed": args.seed,
        }
        with ResultsStore(args.results_store) as store:
            for service, report in reports.items():
                store.append(
                    "experiment",
                    service,
                    wall_time=run_seconds,
                    config=run_config,
                    **record_fields_from_report(report),
                )
            if comparisons:
                # Per-service policy order, best (lowest mean
                # latency) first — the Table 8/9 conclusion the trend
                # engine watches for flips.
                rankings = {
                    comparison.service: sorted(
                        comparison.outcomes,
                        key=lambda policy: comparison.outcomes[
                            policy
                        ].mean_latency,
                    )
                    for comparison in comparisons
                }
                metrics = {
                    f"{comparison.service}_{policy}_mean_latency": (
                        outcome.mean_latency
                    )
                    for comparison in comparisons
                    for policy, outcome in comparison.outcomes.items()
                }
                store.append(
                    "experiment",
                    "mitigation",
                    metrics=metrics,
                    rankings=rankings,
                    wall_time=run_seconds,
                    config=run_config,
                )
        print(
            f"appended {len(reports) + (1 if comparisons else 0)} "
            f"records to {args.results_store}",
            file=sys.stderr,
        )

    if args.export_dir:
        from .export import export_all

        written = export_all(reports, illustrative, args.export_dir)
        print(
            f"exported {len(written)} figure data files to "
            f"{args.export_dir}",
            file=sys.stderr,
        )

    print(f"total wall time: {time.time() - started:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
