"""Section 5 experiments: native Linux vs TLP vs S-RTO.

Reproduces the paper's deployment methodology in simulation: the same
workload (same seeds, hence the same loss/delay processes per flow) is
served once under each recovery policy, and per-request latencies are
compared.  Latency is the time from the client issuing a request to
the full response being delivered (the paper measures "client
initiates a request until all response packets have been acknowledged"
— the same quantity up to half an RTT).

``short_flow_max_bytes`` mirrors the paper's 200 KB short-flow
threshold, scaled to this reproduction's flow sizes.

This module is the one definition of the Table 8/9 run: the services in
:data:`WORKLOADS` with the S-RTO ``T1`` the paper deployed for each, and
:func:`table89_sweep`, whose defaults are the paper's flow count and
seed.  ``repro-paper run``, the scorecard, the policy matrix and the
examples all read them from here.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, field

from ..config import RunConfig
from ..core.report import percentile
from ..workload.distributions import Constant, LogNormal
from ..workload.generator import generate_flows
from ..workload.services import ServiceProfile, get_profile
from .runner import run_flows

#: The policies of Table 8/9, in the paper's order.
POLICIES: tuple[tuple[str, str], ...] = (
    ("native", "Linux"),
    ("tlp", "TLP"),
    ("srto", "S-RTO"),
)

#: Display labels for every policy the tournament can run — a superset
#: of the paper's Table 8/9 trio (see :mod:`repro.matrix`).
POLICY_LABELS: dict[str, str] = {
    "native": "Linux",
    "tlp": "TLP",
    "srto": "S-RTO",
    "tracks": "T-RACKs",
    "mobile": "Mobile-LR",
}

#: Paper's short-flow threshold is 200 KB on 1.7 MB average flows;
#: flow sizes here are scaled by ~7x, hence 60 KB.
SHORT_FLOW_MAX_BYTES = 60_000

#: Large-flow threshold for the throughput comparison.
LARGE_FLOW_MIN_BYTES = 60_000


@dataclass
class PolicyOutcome:
    """Measurements for one service under one recovery policy."""

    policy: str
    latencies: list[float] = field(default_factory=list)
    throughputs: list[float] = field(default_factory=list)  # bytes/sec
    retransmissions: int = 0
    data_segments: int = 0
    flows: int = 0
    #: Flows that hit at least one retransmission timeout (an RTO
    #: stall — the event every contender policy tries to pre-empt).
    rto_flows: int = 0
    #: Sessions that did not complete within the simulation horizon.
    failed_flows: int = 0
    #: Probe-timer retransmissions across all flows (TLP/S-RTO/
    #: mobile probes; zero for native and T-RACKs).
    probe_retransmissions: int = 0

    @property
    def retransmission_ratio(self) -> float:
        if not self.data_segments:
            return 0.0
        return self.retransmissions / self.data_segments

    @property
    def stall_rate(self) -> float:
        """Fraction of flows that suffered an RTO stall."""
        if not self.flows:
            return 0.0
        return self.rto_flows / self.flows

    def latency_quantile(self, q: float) -> float:
        return percentile(self.latencies, q)

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / max(1, len(self.latencies))

    @property
    def mean_throughput(self) -> float:
        return sum(self.throughputs) / max(1, len(self.throughputs))


def make_short_flow_profile(base: ServiceProfile) -> ServiceProfile:
    """Derive the paper's "short flow" workload from a service profile.

    The paper's cloud-storage short flows are *control flows*: small
    single-object exchanges on the same network paths as the bulk
    traffic.  The variant keeps the path and client population but
    serves one small response per connection with no back-end fetch and
    no application write pauses, so that the latency tail isolates the
    transport behaviour the recovery policies target.
    """
    return dataclasses.replace(
        base,
        name=f"{base.name}_short",
        response_size=LogNormal(15_000, 0.8),
        requests_per_session=Constant(1),
        backend_fetch_prob=0.0,
        supply_pause_prob=0.0,
    )


def make_large_flow_profile(base: ServiceProfile) -> ServiceProfile:
    """Derive a bulk-transfer workload (Sec. 5.2's "large flows")."""
    return dataclasses.replace(
        base,
        name=f"{base.name}_large",
        response_size=LogNormal(200_000, 0.6),
        requests_per_session=Constant(1),
        backend_fetch_prob=0.0,
        supply_pause_prob=0.0,
    )


def run_policy(
    profile: ServiceProfile,
    policy: str,
    flows: int,
    seed: int,
    t1: int = 10,
    t2: int = 5,
    short_flow_max: int | None = SHORT_FLOW_MAX_BYTES,
    workers: int | None = 1,
    policy_kwargs: dict | None = None,
) -> PolicyOutcome:
    """Run one service under one recovery policy.

    Per-request latencies are restricted to requests whose response is
    a "short flow" when ``short_flow_max`` is set; throughputs are
    collected from large responses.  ``policy_kwargs`` overrides the
    policy constructor arguments; when ``None`` (the default, and the
    Table 8/9 path) S-RTO receives ``t1``/``t2`` and every other
    policy its defaults.
    """
    if policy_kwargs is None:
        policy_kwargs = {"t1": t1, "t2": t2} if policy == "srto" else {}
    scenarios = generate_flows(
        profile, flows, seed=seed, policy=policy, policy_kwargs=policy_kwargs
    )
    outcome = PolicyOutcome(policy=policy)
    run = run_flows(scenarios, workers=workers)
    for result in run.results:
        outcome.flows += 1
        outcome.retransmissions += result.server_stats.retransmissions
        outcome.data_segments += result.server_stats.data_segments_sent
        outcome.probe_retransmissions += (
            result.server_stats.probe_retransmissions
        )
        if result.server_stats.rto_timeouts > 0:
            outcome.rto_flows += 1
        if not result.session_result.complete:
            outcome.failed_flows += 1
        requests = result.scenario.session.requests
        for request, timing in zip(requests, result.session_result.timings):
            if timing.latency is None:
                continue
            if (
                short_flow_max is None
                or request.response_bytes <= short_flow_max
            ):
                outcome.latencies.append(timing.latency)
            if (
                request.response_bytes >= LARGE_FLOW_MIN_BYTES
                and timing.latency > 0
            ):
                outcome.throughputs.append(
                    request.response_bytes / timing.latency
                )
    return outcome


@dataclass
class MitigationComparison:
    """Table 8 / Table 9 material for one service."""

    service: str
    outcomes: dict[str, PolicyOutcome]

    QUANTILES = (50, 90, 95)

    def reduction(self, policy: str, q: float) -> float:
        """Latency reduction vs native at quantile ``q`` (negative =
        faster, as the paper reports)."""
        base = self.outcomes["native"].latency_quantile(q)
        value = self.outcomes[policy].latency_quantile(q)
        if base == 0:
            return 0.0
        return (value - base) / base

    def mean_reduction(self, policy: str) -> float:
        base = self.outcomes["native"].mean_latency
        if base == 0:
            return 0.0
        return (self.outcomes[policy].mean_latency - base) / base

    def throughput_improvement(self, policy: str) -> float:
        base = self.outcomes["native"].mean_throughput
        if base == 0:
            return 0.0
        return (self.outcomes[policy].mean_throughput - base) / base

    def retransmission_ratios(self) -> dict[str, float]:
        """Table 9: retransmitted fraction of data packets."""
        return {
            policy: outcome.retransmission_ratio
            for policy, outcome in self.outcomes.items()
        }


def compare_policies(
    profile: ServiceProfile,
    flows: int,
    seed: int = 0,
    t1: int = 10,
    t2: int = 5,
    short_flow_max: int | None = SHORT_FLOW_MAX_BYTES,
    workers: int | None = 1,
    run: "RunConfig | None" = None,
    policies: "tuple[str, ...] | None" = None,
) -> MitigationComparison:
    """Run the selected policies over the same seeded workload.

    ``policies`` defaults to the paper's Table 8/9 trio; any other
    selection is resolved through the policy registry
    (:func:`repro.config.validate_policies`), so unknown names fail
    with the registered list.  ``run`` (a
    :class:`repro.config.RunConfig`) overrides ``workers`` when given.
    """
    if run is not None:
        workers = run.workers
    if policies is None:
        policies = tuple(name for name, _label in POLICIES)
    else:
        from ..config import validate_policies

        policies = validate_policies(policies)
    outcomes = {}
    for policy in policies:
        outcomes[policy] = run_policy(
            profile,
            policy,
            flows,
            seed,
            t1=t1,
            t2=t2,
            short_flow_max=short_flow_max,
            workers=workers,
        )
    return MitigationComparison(service=profile.name, outcomes=outcomes)


@dataclass(frozen=True)
class Workload:
    """One Table 8/9 service.

    ``t1`` is the S-RTO packets-in-flight threshold the paper deployed
    for it (tuned per service: 5 for web search, 10 for cloud-storage
    control flows).
    """

    name: str
    t1: int
    factory: Callable[[], ServiceProfile]

    def profile(self) -> ServiceProfile:
        return self.factory()


def _web_search() -> ServiceProfile:
    return get_profile("web_search")


def _storage_short() -> ServiceProfile:
    return make_short_flow_profile(get_profile("cloud_storage"))


#: The Table 8/9 services, in table order.
WORKLOADS: dict[str, Workload] = {
    "web_search": Workload("web_search", t1=5, factory=_web_search),
    "storage_short": Workload("storage_short", t1=10, factory=_storage_short),
}


def table89_sweep(
    flows: int = 300,
    seed: int = 5,
    policies: "tuple[str, ...] | None" = None,
    workers: int | None = 1,
) -> list[MitigationComparison]:
    """Tables 8/9: every service of :data:`WORKLOADS` under ``policies``
    (default: the paper's trio), each at its own ``T1``, over the same
    seeded workload.  The defaults are the paper run's parameters."""
    return [
        compare_policies(
            workload.profile(),
            flows=flows,
            seed=seed,
            t1=workload.t1,
            short_flow_max=None,
            workers=workers,
            policies=policies,
        )
        for workload in WORKLOADS.values()
    ]
