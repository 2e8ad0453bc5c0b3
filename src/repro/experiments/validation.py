"""Classifier validation: TAPO inferences vs simulator ground truth.

The paper can only report that 4-8 % of stalls end up *undetermined*;
a simulator knows the truth, so we can do better: for a corpus of
flows, compare what TAPO inferred from the trace against the sender's
actual counters —

* timeout retransmissions (TAPO's timing/state inference vs the
  sender's ``rto_timeouts``),
* fast retransmits,
* retransmission totals (exact: both count wire events),
* spurious retransmissions (DSACK-detected vs probes+undo evidence).

Aggregate relative errors quantify how much a passive server-side tool
can actually recover — the question the paper's Sec. 3 methodology
hinges on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.tapo import Tapo
from ..workload.generator import generate_flows
from ..workload.services import ServiceProfile, get_profile
from .runner import run_flow


@dataclass
class ValidationResult:
    """Aggregate agreement between TAPO and ground truth."""

    flows: int = 0
    true_timeouts: int = 0
    inferred_timeouts: int = 0
    true_fast_retx: int = 0
    inferred_fast_retx: int = 0
    true_retx: int = 0
    inferred_retx: int = 0
    #: Flows where every class matched exactly.
    exact_flows: int = 0
    per_flow_errors: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def timeout_error(self) -> float:
        """Relative error of the timeout-event count."""
        if not self.true_timeouts:
            return 0.0 if not self.inferred_timeouts else 1.0
        return (
            abs(self.inferred_timeouts - self.true_timeouts)
            / self.true_timeouts
        )

    @property
    def fast_retx_error(self) -> float:
        if not self.true_fast_retx:
            return 0.0 if not self.inferred_fast_retx else 1.0
        return (
            abs(self.inferred_fast_retx - self.true_fast_retx)
            / self.true_fast_retx
        )

    @property
    def retx_exact(self) -> bool:
        """Retransmission counts must match exactly: both sides count
        wire events."""
        return self.true_retx == self.inferred_retx

    @property
    def exact_share(self) -> float:
        return self.exact_flows / max(1, self.flows)


def validate_inference(
    profile: ServiceProfile | None = None, flows: int = 100, seed: int = 3
) -> ValidationResult:
    """Run flows and compare TAPO's inferences with sender truth
    (``profile`` defaults to cloud storage, the paper run's service)."""
    profile = profile or get_profile("cloud_storage")
    tapo = Tapo()
    result = ValidationResult()
    for scenario in generate_flows(profile, flows, seed=seed):
        run = run_flow(scenario)
        analyses = tapo.analyze_packets(run.packets)
        if len(analyses) != 1:
            continue
        analysis = analyses[0]
        stats = run.server_stats
        result.flows += 1
        result.true_timeouts += stats.rto_timeouts
        result.inferred_timeouts += analysis.timeouts
        result.true_fast_retx += stats.fast_retransmits
        result.inferred_fast_retx += analysis.fast_retransmits
        result.true_retx += stats.retransmissions
        result.inferred_retx += analysis.retransmissions
        if (
            stats.rto_timeouts == analysis.timeouts
            and stats.fast_retransmits == analysis.fast_retransmits
            and stats.retransmissions == analysis.retransmissions
        ):
            result.exact_flows += 1
        else:
            result.per_flow_errors.append(
                (
                    stats.rto_timeouts - analysis.timeouts,
                    stats.fast_retransmits - analysis.fast_retransmits,
                    stats.retransmissions - analysis.retransmissions,
                )
            )
    return result
