"""Parallel-runner scaling: speedup at 1/2/4/8 workers + cache warmup.

Emits a JSON speedup report (stdout, and optionally a file) so the
bench trajectory tooling can track parallel efficiency over time::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \
        --flows 60 --workers 1 2 4 8 --json-out out/scaling.json

``--cluster`` adds a second section measuring the sharded analysis
cluster (``repro.cluster``) at 1/2/4 shards over a generated capture;
every point asserts the merged report is byte-identical to the
single-process run.  ``--min-cluster-speedup X`` turns the best
cluster speedup into a hard gate (exit 1 below X) — CI passes 3.0 on
multi-core runners.

Every report carries a ``kill_once`` row: the same batch at two
workers with one injected child death.  The pool must be replaced, so
the death may fail at most one in-flight window (``4 x workers``
chunks) and nothing may fall back to the parent process; the script
exits 1 otherwise.

Under pytest this runs at a small flow count as a smoke test: every
worker count must produce byte-identical results, and the report must
be well-formed.  Wall-clock assertions are deliberately absent — CI
machines (and this one) may have a single core.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.experiments.dataset import build_dataset, clear_cache
from repro.experiments.parallel import run_flows_parallel
from repro.testing.faults import kill_worker_once
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

DEFAULT_WORKERS = (1, 2, 4, 8)
DEFAULT_FLOWS = 60
DEFAULT_SEED = 20141222
DEFAULT_SHARDS = (1, 2, 4)
DEFAULT_CLUSTER_FLOWS = 48
KILL_ONCE_WORKERS = 2


def _trace_signature(run) -> list:
    return [
        [
            (p.timestamp, p.seq, p.ack, p.flags, p.payload_len, p.window)
            for p in result.packets
        ]
        for result in run.results
    ]


def measure_scaling(
    flows: int = DEFAULT_FLOWS,
    seed: int = DEFAULT_SEED,
    service: str = "web_search",
    workers_list: tuple[int, ...] = DEFAULT_WORKERS,
) -> dict:
    """Run the same seeded batch at each worker count; report speedups.

    Scenarios are regenerated per run (loss/jitter models are stateful),
    which is exactly what every caller of the runner does.
    """
    profile = get_profile(service)
    points = []
    baseline_wall = None
    baseline_signature = None
    for workers in workers_list:
        scenarios = generate_flows(profile, flows, seed=seed)
        run = run_flows_parallel(scenarios, workers=workers)
        metrics = run.metrics
        signature = _trace_signature(run)
        if baseline_signature is None:
            baseline_wall = metrics.wall_time
            baseline_signature = signature
        identical = signature == baseline_signature
        points.append(
            {
                "workers": workers,
                "wall_time": metrics.wall_time,
                "speedup": (
                    baseline_wall / metrics.wall_time
                    if metrics.wall_time > 0
                    else 0.0
                ),
                "events_per_sec": metrics.events_per_sec,
                "packets_per_sec": metrics.packets_per_sec,
                "utilization": metrics.utilization,
                "chunks": metrics.chunks,
                "chunks_retried": metrics.chunks_retried,
                "identical_to_serial": identical,
            }
        )
    return {
        "bench": "parallel_scaling",
        "service": service,
        "flows": flows,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "baseline_wall_time": baseline_wall,
        "points": points,
    }


def measure_kill_once(
    flows: int = DEFAULT_FLOWS,
    seed: int = DEFAULT_SEED,
    service: str = "web_search",
) -> dict:
    """One injected worker death at two workers, one flow per chunk.

    ``ok`` is the gate: the death cost at most one in-flight window of
    retries, no chunk ran in the parent, and the traces match serial.
    """
    profile = get_profile(service)
    serial = run_flows_parallel(
        generate_flows(profile, flows, seed=seed), workers=1
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-kill-") as tmp:
        with kill_worker_once(tmp) as sentinel:
            run = run_flows_parallel(
                generate_flows(profile, flows, seed=seed),
                workers=KILL_ONCE_WORKERS,
                chunk_flows=1,
            )
            died = sentinel.exists()
    metrics = run.metrics
    in_parent = sum(
        worker.chunks
        for worker in metrics.worker_stats
        if worker.worker_id == os.getpid()
    )
    identical = _trace_signature(run) == _trace_signature(serial)
    return {
        "workers": KILL_ONCE_WORKERS,
        "worker_died": died,
        "wall_time": metrics.wall_time,
        "chunks": metrics.chunks,
        "chunks_retried": metrics.chunks_retried,
        "chunks_in_parent": in_parent,
        "identical_to_serial": identical,
        "ok": (
            died
            and identical
            and in_parent == 0
            and metrics.chunks_retried <= 4 * KILL_ONCE_WORKERS
        ),
    }


def measure_cluster_scaling(
    flows: int = DEFAULT_CLUSTER_FLOWS,
    seed: int = DEFAULT_SEED,
    shards_list: tuple[int, ...] = DEFAULT_SHARDS,
) -> dict:
    """Time the sharded cluster at each shard count over one capture.

    Byte-identity against the single-process report is asserted at
    every point — a scaling number for a wrong answer is worthless.
    """
    from repro.cluster import Coordinator
    from repro.core.tapo import Tapo
    from repro.packet.pcap import write_pcap
    from repro.testing.traces import generate_trace

    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as tmp:
        pcap = os.path.join(tmp, "trace.pcap")
        write_pcap(pcap, generate_trace(seed=seed, flows=flows))

        started = time.perf_counter()
        from repro.core.report import ServiceReport

        reference = ServiceReport(service="bench")
        for analysis in Tapo().analyze_pcap(pcap):
            reference.add(analysis)
        baseline_wall = time.perf_counter() - started
        reference_json = reference.canonical_sort().to_json()

        packets = sum(
            len(analysis.flow.packets) for analysis in reference.flows
        )
        points = []
        for shards in shards_list:
            started = time.perf_counter()
            result = Coordinator(pcap, n_shards=shards, service="bench").run()
            wall = time.perf_counter() - started
            identical = result.report.to_json() == reference_json
            if not identical:
                raise AssertionError(
                    f"{shards}-shard report diverged from single-process"
                )
            points.append(
                {
                    "shards": shards,
                    "wall_time": wall,
                    "speedup": baseline_wall / wall if wall > 0 else 0.0,
                    "packets_per_sec": packets / wall if wall > 0 else 0.0,
                    "workers_died": result.workers_died,
                    "identical_to_single_process": identical,
                }
            )
    return {
        "flows": flows,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "single_process_wall_time": baseline_wall,
        "points": points,
        "best_speedup": max(point["speedup"] for point in points),
    }


def measure_cache(flows: int = 20, seed: int = DEFAULT_SEED) -> dict:
    """Cold build vs warm on-disk load, in a throwaway cache dir."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        saved = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            clear_cache()
            started = time.perf_counter()
            build_dataset(flows_per_service=flows, seed=seed)
            cold = time.perf_counter() - started
            clear_cache()  # drop the memo; disk entry remains
            started = time.perf_counter()
            build_dataset(flows_per_service=flows, seed=seed)
            warm = time.perf_counter() - started
        finally:
            clear_cache()
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
    return {
        "flows_per_service": flows,
        "cold_wall_time": cold,
        "warm_wall_time": warm,
        "speedup": cold / warm if warm > 0 else 0.0,
    }


def build_report(
    flows: int,
    seed: int,
    service: str,
    workers_list: tuple[int, ...],
    cache_flows: int,
    cluster: bool = False,
    cluster_flows: int = DEFAULT_CLUSTER_FLOWS,
    shards_list: tuple[int, ...] = DEFAULT_SHARDS,
) -> dict:
    report = measure_scaling(
        flows=flows, seed=seed, service=service, workers_list=workers_list
    )
    report["kill_once"] = measure_kill_once(
        flows=flows, seed=seed, service=service
    )
    report["cache"] = measure_cache(flows=cache_flows, seed=seed)
    if cluster:
        report["cluster"] = measure_cluster_scaling(
            flows=cluster_flows,
            seed=seed,
            shards_list=shards_list,
        )
    return report


def test_parallel_scaling_smoke():
    """Tiny-scale smoke run: report shape + cross-worker identity."""
    # More flows than one kill-once window (4 x 2 chunks), so that row's
    # retry bound is not vacuous.
    flows = int(os.environ.get("REPRO_BENCH_SCALING_FLOWS", "24"))
    report = build_report(
        flows=flows,
        seed=DEFAULT_SEED,
        service="web_search",
        workers_list=(1, 2, 4),
        cache_flows=4,
    )
    assert report["points"][0]["workers"] == 1
    assert all(point["identical_to_serial"] for point in report["points"])
    assert all(point["wall_time"] > 0 for point in report["points"])
    assert report["kill_once"]["ok"], report["kill_once"]
    assert report["cache"]["warm_wall_time"] > 0
    # Warm loads must beat re-simulating; huge margins on real machines,
    # so 1x is a safe floor even for this tiny smoke size.
    assert report["cache"]["speedup"] > 1.0
    print()
    print(json.dumps(report, indent=2))


def test_cluster_scaling_smoke():
    """Cluster section at tiny scale: byte-parity at every shard count.

    No wall-clock assertion — measure_cluster_scaling raises on any
    divergence, so a passing run IS the correctness signal; speedup is
    only gated via --min-cluster-speedup on multi-core CI runners.
    """
    report = measure_cluster_scaling(
        flows=int(os.environ.get("REPRO_BENCH_CLUSTER_FLOWS", "12")),
        seed=DEFAULT_SEED,
        shards_list=(1, 2),
    )
    assert [point["shards"] for point in report["points"]] == [1, 2]
    assert all(
        point["identical_to_single_process"] for point in report["points"]
    )
    assert all(point["workers_died"] == 0 for point in report["points"])
    print()
    print(json.dumps(report, indent=2))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Parallel flow-runner scaling benchmark"
    )
    parser.add_argument("--flows", type=int, default=DEFAULT_FLOWS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--service", default="web_search")
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=list(DEFAULT_WORKERS),
        help="worker counts to measure (default: 1 2 4 8)",
    )
    parser.add_argument("--cache-flows", type=int, default=20)
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="also measure repro.cluster sharded scaling",
    )
    parser.add_argument(
        "--cluster-flows", type=int, default=DEFAULT_CLUSTER_FLOWS
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=list(DEFAULT_SHARDS),
        help="shard counts for the cluster section (default: 1 2 4)",
    )
    parser.add_argument(
        "--min-cluster-speedup",
        type=float,
        default=None,
        help=(
            "fail (exit 1) if the best cluster speedup is below this; "
            "implies --cluster.  CI passes 3.0 on multi-core runners"
        ),
    )
    parser.add_argument(
        "--json-out", help="also write the JSON report to this path"
    )
    import _emit

    _emit.add_store_argument(parser)
    args = parser.parse_args(argv)
    cluster = args.cluster or args.min_cluster_speedup is not None
    started = time.perf_counter()
    report = build_report(
        flows=args.flows,
        seed=args.seed,
        service=args.service,
        workers_list=tuple(args.workers),
        cache_flows=args.cache_flows,
        cluster=cluster,
        cluster_flows=args.cluster_flows,
        shards_list=tuple(args.shards),
    )
    _emit.emit_result(
        "parallel_scaling",
        report,
        store_path=args.results_store,
        wall_time=time.perf_counter() - started,
    )
    text = json.dumps(report, indent=2)
    print(text)
    if args.json_out:
        out_dir = os.path.dirname(args.json_out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.json_out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    if not report["kill_once"]["ok"]:
        print(
            f"FAIL: kill-once row {report['kill_once']}", file=sys.stderr
        )
        return 1
    if args.min_cluster_speedup is not None:
        best = report["cluster"]["best_speedup"]
        if best < args.min_cluster_speedup:
            print(
                f"FAIL: best cluster speedup {best:.2f}x < required "
                f"{args.min_cluster_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"cluster speedup gate passed: {best:.2f}x >= "
            f"{args.min_cluster_speedup:.2f}x",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
