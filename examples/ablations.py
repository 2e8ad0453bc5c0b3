#!/usr/bin/env python3
"""Design-space ablations around the paper's mechanisms.

Four sweeps, each isolating one design choice:

1. S-RTO's T1 threshold (the paper tunes it per application);
2. sender pacing — the paper's suggested continuous-loss mitigation
   (Sec. 4.3, citing TCP pacing);
3. the destination RTT-metrics cache that keeps short-flow RTOs
   conservative;
4. TAPO's stall-threshold multiplier tau (the paper picks 2).

Each sweep runs at its function's defaults in
``repro.experiments.ablation`` — the service, flow count and seed the
paper scorecard checks; a ``flows`` argument overrides the flow count
of all four.

Usage::

    python examples/ablations.py [flows]
"""

import inspect
import sys
import time

from repro.experiments.ablation import (
    destination_cache_ablation,
    pacing_ablation,
    sweep_srto_parameters,
    tau_sensitivity,
)


def main() -> None:
    params = {"flows": int(sys.argv[1])} if len(sys.argv) > 1 else {}
    started = time.time()

    flows = params.get(
        "flows",
        inspect.signature(sweep_srto_parameters).parameters["flows"].default,
    )
    print(f"1) S-RTO T1 sweep ({flows} cloud-storage short flows/point)")
    points = sweep_srto_parameters(**params)
    print(f"   {'T1':>4} {'p90':>8} {'p95':>8} {'mean':>8} {'retx':>6}")
    for p in points:
        label = "nat" if p.t1 == 0 else str(p.t1)
        print(
            f"   {label:>4} {p.p90_latency:8.3f} {p.p95_latency:8.3f}"
            f" {p.mean_latency:8.3f} {p.retransmission_ratio * 100:5.1f}%"
        )

    print("\n2) pacing ablation (cloud storage)")
    pacing = pacing_ablation(**params)
    print(
        f"   continuous-loss stalls: {pacing.continuous_loss_unpaced} -> "
        f"{pacing.continuous_loss_paced} with pacing"
    )
    print(
        f"   retransmission stall time: {pacing.retx_time_unpaced:.1f}s -> "
        f"{pacing.retx_time_paced:.1f}s"
    )
    print(
        f"   mean session latency: {pacing.mean_latency_unpaced:.2f}s -> "
        f"{pacing.mean_latency_paced:.2f}s"
    )

    print("\n3) destination-cache ablation (cloud storage)")
    cache = destination_cache_ablation(**params)
    print(
        f"   spurious retransmissions: cached {cache.spurious_cached} vs "
        f"fresh {cache.spurious_fresh}"
    )
    print(
        f"   timeouts: cached {cache.timeouts_cached} vs "
        f"fresh {cache.timeouts_fresh}"
    )

    print("\n4) TAPO tau sensitivity (software download)")
    for point in tau_sensitivity(**params):
        print(
            f"   tau={point.tau:3.1f}: {point.stalls:4d} stalls, "
            f"{point.stalled_time:6.1f}s stalled, "
            f"{point.flows_with_stalls} flows affected"
        )

    print(f"\ndone in {time.time() - started:.1f}s")


if __name__ == "__main__":
    main()
