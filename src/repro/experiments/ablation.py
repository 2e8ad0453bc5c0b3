"""Ablation studies over the design choices DESIGN.md calls out.

Each function sweeps one mechanism while holding the seeded workload
fixed, returning comparable metrics:

* :func:`sweep_srto_parameters` — the paper leaves T1 "tunable per
  application"; sweep it (and T2) and report tail latency + cost.
* :func:`pacing_ablation` — Sec. 4.3 suggests pacing as the
  continuous-loss mitigation; measure its effect on stall makeup.
* :func:`destination_cache_ablation` — Linux's per-destination RTT
  metrics cache is what keeps short-flow RTOs conservative; measure
  RTO levels and spurious retransmissions without it.
* :func:`frto_ablation` — F-RTO spurious-timeout detection; measure
  its retransmission cost.
* :func:`tau_sensitivity` — TAPO's stall threshold multiplier (the
  paper picks tau = 2); count how detection changes with it.

Each function's defaults (service, flow count, seed) are the paper
run's, the ones the scorecard checks.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass

from ..config import AnalysisConfig
from ..core.report import percentile
from ..core.stalls import RetxCause, StallCause
from ..core.tapo import Tapo
from ..workload.generator import generate_flows
from ..workload.services import ServiceProfile, get_profile
from .mitigation import WORKLOADS, run_policy
from .runner import DatasetRun, run_flows


@dataclass
class SrtoSweepPoint:
    t1: int
    t2: int
    p90_latency: float
    p95_latency: float
    mean_latency: float
    retransmission_ratio: float
    flows: int


def sweep_srto_parameters(
    profile: ServiceProfile | None = None,
    flows: int = 120,
    seed: int = 5,
    t1_values: tuple[int, ...] = (3, 5, 10, 20),
    t2_values: tuple[int, ...] = (5,),
    workers: int | None = 1,
) -> list[SrtoSweepPoint]:
    """Latency/cost of S-RTO across its T1/T2 design space, with the
    native baseline reported as ``t1 = 0`` (probe never armed).
    ``profile`` defaults to the cloud-storage short flows of Table 8."""
    profile = profile or WORKLOADS["storage_short"].profile()
    runs = [(0, 0, "native")] + [
        (t1, t2, "srto") for t1 in t1_values for t2 in t2_values
    ]
    points = []
    for t1, t2, policy in runs:
        outcome = run_policy(
            profile, policy, flows, seed, t1=t1, t2=t2,
            short_flow_max=None, workers=workers,
        )
        points.append(
            SrtoSweepPoint(
                t1=t1,
                t2=t2,
                p90_latency=outcome.latency_quantile(90),
                p95_latency=outcome.latency_quantile(95),
                mean_latency=outcome.mean_latency,
                retransmission_ratio=outcome.retransmission_ratio,
                flows=outcome.flows,
            )
        )
    return points


def _ab_test(
    profile: ServiceProfile | None,
    flows: int,
    seed: int,
    workers: int | None,
    variants: dict[str, dict],
    measure: Callable[[DatasetRun], dict],
) -> dict:
    """Rerun the seeded workload once per variant, in order, with the
    variant's changes applied to every flow's server config.

    ``variants`` maps a field suffix to the changes; the result maps
    ``f"{metric}_{suffix}"`` to each metric ``measure`` reads off that
    variant's run.  ``profile`` defaults to cloud storage.
    """
    profile = profile or get_profile("cloud_storage")
    fields = {}
    for suffix, changes in variants.items():
        scenarios = [
            dataclasses.replace(
                scenario,
                server_config=dataclasses.replace(
                    scenario.server_config, **changes
                ),
            )
            for scenario in generate_flows(profile, flows, seed=seed)
        ]
        run = run_flows(scenarios, workers=workers)
        for metric, value in measure(run).items():
            fields[f"{metric}_{suffix}"] = value
    return fields


def _mean_latency(run: DatasetRun) -> float:
    latencies = [r.latency for r in run.results if r.latency is not None]
    return sum(latencies) / max(1, len(latencies))


@dataclass
class PacingAblation:
    """Stall makeup with and without sender pacing."""

    stalls_unpaced: int = 0
    stalls_paced: int = 0
    continuous_loss_unpaced: int = 0
    continuous_loss_paced: int = 0
    retx_time_unpaced: float = 0.0
    retx_time_paced: float = 0.0
    mean_latency_unpaced: float = 0.0
    mean_latency_paced: float = 0.0


def _stall_makeup(run: DatasetRun) -> dict:
    report = Tapo().report(run.traces, service="ablation")
    stalls = [stall for flow in report.flows for stall in flow.stalls]
    return {
        "stalls": report.total_stalls(),
        "continuous_loss": sum(
            1 for s in stalls if s.retx_cause == RetxCause.CONTINUOUS_LOSS
        ),
        "retx_time": sum(
            s.duration for s in stalls if s.cause == StallCause.RETRANSMISSION
        ),
        "mean_latency": _mean_latency(run),
    }


def pacing_ablation(
    profile: ServiceProfile | None = None,
    flows: int = 120,
    seed: int = 9,
    workers: int | None = 1,
) -> PacingAblation:
    """Run the same workload with and without pacing."""
    return PacingAblation(**_ab_test(
        profile, flows, seed, workers,
        {"unpaced": {"pacing": False}, "paced": {"pacing": True}},
        _stall_makeup,
    ))


@dataclass
class CacheAblation:
    """Effect of the destination RTT-metrics cache."""

    rto_p50_cached: float = 0.0
    rto_p50_fresh: float = 0.0
    spurious_cached: int = 0
    spurious_fresh: int = 0
    timeouts_cached: int = 0
    timeouts_fresh: int = 0


def _rto_levels(run: DatasetRun) -> dict:
    report = Tapo().report(run.traces, service="ablation")
    rtos = [v for f in report.flows for v in f.rto_samples]
    return {
        "rto_p50": percentile(rtos, 50) if rtos else 0.0,
        "spurious": sum(f.spurious_retransmissions for f in report.flows),
        "timeouts": sum(f.timeouts for f in report.flows),
    }


def destination_cache_ablation(
    profile: ServiceProfile | None = None,
    flows: int = 120,
    seed: int = 13,
    workers: int | None = 1,
) -> CacheAblation:
    """Same workload with and without cached SRTT/RTTVAR seeding."""
    return CacheAblation(**_ab_test(
        profile, flows, seed, workers,
        {"cached": {}, "fresh": {"init_srtt": None, "init_rttvar": None}},
        _rto_levels,
    ))


@dataclass
class FrtoAblation:
    """Effect of F-RTO spurious-timeout detection."""

    retx_ratio_off: float = 0.0
    retx_ratio_on: float = 0.0
    spurious_detected: int = 0
    timeouts_off: int = 0
    timeouts_on: int = 0
    mean_latency_off: float = 0.0
    mean_latency_on: float = 0.0


def _retx_cost(run: DatasetRun) -> dict:
    stats = [r.server_stats for r in run.results]
    return {
        "retx_ratio": sum(s.retransmissions for s in stats)
        / max(1, sum(s.data_segments_sent for s in stats)),
        "timeouts": sum(s.rto_timeouts for s in stats),
        "mean_latency": _mean_latency(run),
        "spurious_detected": sum(s.frto_spurious_detected for s in stats),
    }


def frto_ablation(
    profile: ServiceProfile | None = None,
    flows: int = 120,
    seed: int = 21,
    workers: int | None = 1,
) -> FrtoAblation:
    """Same workload with and without F-RTO on the server."""
    fields = _ab_test(
        profile, flows, seed, workers,
        {"off": {"frto": False}, "on": {"frto": True}},
        _retx_cost,
    )
    del fields["spurious_detected_off"]  # nothing detects without F-RTO
    fields["spurious_detected"] = fields.pop("spurious_detected_on")
    return FrtoAblation(**fields)


@dataclass
class TauPoint:
    tau: float
    stalls: int
    stalled_time: float
    flows_with_stalls: int


def tau_sensitivity(
    profile: ServiceProfile | None = None,
    flows: int = 100,
    seed: int = 17,
    taus: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0),
    workers: int | None = 1,
) -> list[TauPoint]:
    """Detection sensitivity to TAPO's threshold multiplier.

    The traces are simulated once; only the analyzer's tau changes.
    ``profile`` defaults to software download.
    """
    profile = profile or get_profile("software_download")
    run = run_flows(generate_flows(profile, flows, seed=seed), workers=workers)
    points = []
    for tau in taus:
        report = Tapo(config=AnalysisConfig(tau=tau)).report(
            run.traces, service=f"tau={tau}"
        )
        points.append(
            TauPoint(
                tau=tau,
                stalls=report.total_stalls(),
                stalled_time=sum(
                    f.stalled_time for f in report.flows
                ),
                flows_with_stalls=report.flows_with_stalls(),
            )
        )
    return points
