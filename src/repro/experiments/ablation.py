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
* :func:`tau_sensitivity` — TAPO's stall threshold multiplier (the
  paper picks tau = 2); count how detection changes with it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..config import AnalysisConfig
from ..core.report import percentile
from ..core.stalls import RetxCause, StallCause
from ..core.tapo import Tapo
from ..workload.generator import generate_flows
from ..workload.services import ServiceProfile
from .mitigation import run_policy
from .runner import run_flows


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
    profile: ServiceProfile,
    flows: int = 150,
    seed: int = 5,
    t1_values: tuple[int, ...] = (3, 5, 10, 20),
    t2_values: tuple[int, ...] = (5,),
    workers: int | None = 1,
) -> list[SrtoSweepPoint]:
    """Latency/cost of S-RTO across its T1/T2 design space, with the
    native baseline reported as ``t1 = 0`` (probe never armed)."""
    points = []
    baseline = run_policy(
        profile, "native", flows, seed, short_flow_max=None, workers=workers
    )
    points.append(
        SrtoSweepPoint(
            t1=0,
            t2=0,
            p90_latency=baseline.latency_quantile(90),
            p95_latency=baseline.latency_quantile(95),
            mean_latency=baseline.mean_latency,
            retransmission_ratio=baseline.retransmission_ratio,
            flows=baseline.flows,
        )
    )
    for t1 in t1_values:
        for t2 in t2_values:
            outcome = run_policy(
                profile, "srto", flows, seed, t1=t1, t2=t2,
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


def pacing_ablation(
    profile: ServiceProfile,
    flows: int = 150,
    seed: int = 9,
    workers: int | None = 1,
) -> PacingAblation:
    """Run the same workload with and without pacing."""
    result = PacingAblation()
    for paced in (False, True):
        scenarios = []
        for scenario in generate_flows(profile, flows, seed=seed):
            server = dataclasses.replace(scenario.server_config, pacing=paced)
            scenarios.append(
                dataclasses.replace(scenario, server_config=server)
            )
        run = run_flows(scenarios, workers=workers)
        report = Tapo().report(run.traces, service="ablation")
        total = report.total_stalls()
        continuous = sum(
            1
            for flow in report.flows
            for stall in flow.stalls
            if stall.retx_cause == RetxCause.CONTINUOUS_LOSS
        )
        retx_time = sum(
            stall.duration
            for flow in report.flows
            for stall in flow.stalls
            if stall.cause == StallCause.RETRANSMISSION
        )
        latencies = [
            r.latency for r in run.results if r.latency is not None
        ]
        mean_latency = sum(latencies) / max(1, len(latencies))
        if paced:
            result.stalls_paced = total
            result.continuous_loss_paced = continuous
            result.retx_time_paced = retx_time
            result.mean_latency_paced = mean_latency
        else:
            result.stalls_unpaced = total
            result.continuous_loss_unpaced = continuous
            result.retx_time_unpaced = retx_time
            result.mean_latency_unpaced = mean_latency
    return result


@dataclass
class CacheAblation:
    """Effect of the destination RTT-metrics cache."""

    rto_p50_cached: float = 0.0
    rto_p50_fresh: float = 0.0
    spurious_cached: int = 0
    spurious_fresh: int = 0
    timeouts_cached: int = 0
    timeouts_fresh: int = 0


def destination_cache_ablation(
    profile: ServiceProfile,
    flows: int = 150,
    seed: int = 13,
    workers: int | None = 1,
) -> CacheAblation:
    """Same workload with and without cached SRTT/RTTVAR seeding."""
    result = CacheAblation()
    for cached in (True, False):
        scenarios = []
        for scenario in generate_flows(profile, flows, seed=seed):
            server = scenario.server_config
            if not cached:
                server = dataclasses.replace(
                    server, init_srtt=None, init_rttvar=None
                )
            scenarios.append(
                dataclasses.replace(scenario, server_config=server)
            )
        run = run_flows(scenarios, workers=workers)
        report = Tapo().report(run.traces, service="ablation")
        rtos = [v for f in report.flows for v in f.rto_samples]
        spurious = sum(f.spurious_retransmissions for f in report.flows)
        timeouts = sum(f.timeouts for f in report.flows)
        p50 = percentile(rtos, 50) if rtos else 0.0
        if cached:
            result.rto_p50_cached = p50
            result.spurious_cached = spurious
            result.timeouts_cached = timeouts
        else:
            result.rto_p50_fresh = p50
            result.spurious_fresh = spurious
            result.timeouts_fresh = timeouts
    return result


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


def frto_ablation(
    profile: ServiceProfile,
    flows: int = 150,
    seed: int = 21,
    workers: int | None = 1,
) -> FrtoAblation:
    """Same workload with and without F-RTO on the server."""
    result = FrtoAblation()
    for enabled in (False, True):
        scenarios = []
        for scenario in generate_flows(profile, flows, seed=seed):
            server = dataclasses.replace(scenario.server_config, frto=enabled)
            scenarios.append(
                dataclasses.replace(scenario, server_config=server)
            )
        run = run_flows(scenarios, workers=workers)
        retx = sum(r.server_stats.retransmissions for r in run.results)
        sent = sum(r.server_stats.data_segments_sent for r in run.results)
        timeouts = sum(r.server_stats.rto_timeouts for r in run.results)
        latencies = [r.latency for r in run.results if r.latency is not None]
        mean_latency = sum(latencies) / max(1, len(latencies))
        if enabled:
            result.retx_ratio_on = retx / max(1, sent)
            result.timeouts_on = timeouts
            result.mean_latency_on = mean_latency
            result.spurious_detected = sum(
                r.server_stats.frto_spurious_detected for r in run.results
            )
        else:
            result.retx_ratio_off = retx / max(1, sent)
            result.timeouts_off = timeouts
            result.mean_latency_off = mean_latency
    return result


@dataclass
class TauPoint:
    tau: float
    stalls: int
    stalled_time: float
    flows_with_stalls: int


def tau_sensitivity(
    profile: ServiceProfile,
    flows: int = 100,
    seed: int = 17,
    taus: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0),
    workers: int | None = 1,
) -> list[TauPoint]:
    """Detection sensitivity to TAPO's threshold multiplier.

    The traces are simulated once; only the analyzer's tau changes.
    """
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
