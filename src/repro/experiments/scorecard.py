"""The paper scorecard: every claim this reproduction checks, in one table.

Each row of :data:`CLAIMS` names a paper exhibit, the claim, the
paper's value, a ``measure`` that reduces the evidence to the figures
the claim compares, and a ``holds`` predicate over them with its
tolerance inline.  A series a claim needs is part of its predicate:
fewer than :data:`MIN_SAMPLES` samples, or an empty bin, fails the row
instead of passing it unseen.  The rows read one lazy :class:`Evidence`,
which builds each of :data:`INPUTS` at most once.

``tests/test_scorecard.py`` gates every row, and
``python -m repro.experiments.scorecard`` prints them as a markdown
table (exit status 1 if a claim fails).  Absolute values are not
expected to match a simulator's; the shapes are.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..core.report import ServiceReport, percentile
from ..core.stalls import RetxCause, StallCause
from .ablation import (
    destination_cache_ablation,
    frto_ablation,
    pacing_ablation,
    sweep_srto_parameters,
    tau_sensitivity,
)
from .dataset import build_dataset
from .fairness import run_fairness
from .illustrative import run_illustrative_flow
from .mitigation import table89_sweep
from .tables import SERVICE_LABELS, TABLE4_BINS
from .validation import validate_inference

#: Fewest samples a series must hold before a claim about it counts.
MIN_SAMPLES = 3


#: Every input a claim reads.  Each is its function's defaults: the
#: paper run's parameters live with the exhibit, not here.
INPUTS: dict[str, Callable[[], Any]] = {
    "dataset": build_dataset,
    "policy_sweep": lambda: {c.service: c for c in table89_sweep()},
    "fig2": run_illustrative_flow,
    "validation": validate_inference,
    "fairness": run_fairness,
    "tau_sweep": tau_sensitivity,
    "srto_sweep": sweep_srto_parameters,
    "dstcache": destination_cache_ablation,
    "frto": frto_ablation,
    "pacing": pacing_ablation,
}


class Evidence:
    """The claims' inputs, each built on first use and then kept."""

    def __init__(self) -> None:
        self._built: dict[str, Any] = {}

    def __getitem__(self, name: str) -> Any:
        if name not in self._built:
            self._built[name] = INPUTS[name]()
        return self._built[name]


@dataclass(frozen=True)
class Claim:
    """One row of the scorecard."""

    id: str
    exhibit: str
    claim: str
    paper: str
    measure: Callable[[Evidence], Any]
    holds: Callable[[Any], bool]


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    value: Any
    holds: bool


# -- measures ----------------------------------------------------------------


def _each(ev: Evidence, fn: Callable[[ServiceReport], Any]) -> dict:
    """``fn(report)`` for each service, keyed by its table label."""
    return {
        SERVICE_LABELS[name]: fn(report)
        for name, report in ev["dataset"].reports.items()
    }


def _report(ev: Evidence, service: str) -> ServiceReport:
    return ev["dataset"].reports[service]


def _every(values: dict, pred: Callable[[Any], bool]) -> bool:
    """``pred`` holds for each value — and there is at least one."""
    return bool(values) and all(pred(v) for v in values.values())


def _enough(sample: dict, key: str = "n") -> bool:
    return sample[key] >= MIN_SAMPLES


def _p50(values: list) -> float | None:
    return percentile(values, 50) if values else None


def _share(values: list, pred: Callable[[Any], bool]) -> float:
    return sum(1 for v in values if pred(v)) / len(values) if values else 0.0


def _fields(name: str, *fields: str) -> Callable[[Evidence], dict]:
    """The named attributes of one input, as a measure."""
    return lambda ev: {f: getattr(ev[name], f) for f in fields}


def _flows(ev: Evidence) -> dict:
    dataset = ev["dataset"]
    return {
        SERVICE_LABELS[name]: {
            "flows": dataset.reports[name].table1_row()["flows"],
            "complete": run.completed / max(1, len(run.results)),
        }
        for name, run in dataset.runs.items()
    }


def _rto_vs_rtt(r: ServiceReport) -> dict:
    rtos, ratios, row = r.rto_values(), r.rto_over_rtt_values(), r.table1_row()
    return {
        "RTO p50": _p50(rtos), "RTT p50": _p50(r.rtt_values()),
        "RTO/RTT p50": _p50(ratios), "n": min(len(rtos), len(ratios)),
        "avg RTO/avg RTT": row["avg_rto"] / row["avg_rtt"]
        if row["avg_rtt"] else 0.0,
    }


def _zero_rwnd_by_init(ev: Evidence) -> dict:
    """Software download's zero-window rate by initial window: worst
    Table 4 bin <= 11 MSS vs worst > 182 MSS, and <= 11 vs > 11 MSS."""
    report = _report(ev, "software_download")
    bins = report.zero_rwnd_prob_by_init(TABLE4_BINS)
    small = [bins[b] for b in TABLE4_BINS if b <= 11]
    large = [bins[b] for b in TABLE4_BINS if b > 182]
    split = report.zero_rwnd_prob_by_init([11, 4096])
    return {
        "worst <= 11": max((p for p, n in small if n), default=None),
        "worst > 182": max((p for p, n in large if n), default=None),
        "<= 11": split[11][0], "> 11": split[4096][0],
        "n <= 11": split[11][1], "n > 11": split[4096][1],
    }


def _retx(service: str, cause: RetxCause, share: str) -> Callable:
    """``cause``'s share of ``service``'s retransmission stalls, next to
    the largest other cause's (``share`` is volume or time)."""

    def measure(ev: Evidence) -> dict:
        retx = _report(ev, service).retx_breakdown()
        return {
            cause.name.lower(): getattr(retx[cause], share),
            "next": max(
                getattr(e, share) for c, e in retx.items() if c != cause
            ),
            "volume sum": sum(e.volume_share for e in retx.values()),
            "n": sum(e.count for e in retx.values()),
        }

    return measure


def _cause(cause: StallCause, share: str) -> Callable[[Evidence], dict]:
    """One stall cause's ``volume_share`` or ``time_share``, per service."""
    return lambda ev: _each(
        ev, lambda r: getattr(r.cause_breakdown()[cause], share)
    )


def _web_top_cause(ev: Evidence) -> str | None:
    causes = _report(ev, "web_search").cause_breakdown().items()
    return max(
        ((e.volume_share, c.value) for c, e in causes if e.count),
        default=(0.0, None),
    )[1]


def _in_flights(values: list[int]) -> dict:
    return {"min": min(values, default=None), "n": len(values)}


def _positions(values: list[float]) -> dict:
    return {"first half": _share(values, lambda p: p < 0.5), "n": len(values)}


def _table8(ev: Evidence) -> dict:
    cloud = ev["policy_sweep"]["cloud_storage_short"]
    return {
        **{f"{p} p95": cloud.reduction(p, 95) for p in ("srto", "tlp")},
        **{f"{p} mean": cloud.mean_reduction(p) for p in ("srto", "tlp")},
    }


def _srto_sweep(ev: Evidence) -> dict:
    native, *srto = ev["srto_sweep"]
    return {
        "baseline T1": native.t1, "native p95": native.p95_latency,
        "best S-RTO p95": min((p.p95_latency for p in srto), default=None),
    }


def _by_value(shares: dict) -> dict:
    return {key.value: share for key, share in shares.items()}


def _sums_to_one(shares: dict) -> bool:
    return abs(sum(shares.values()) - 1.0) < 1e-9


# -- the claims ---------------------------------------------------------------

CLAIMS: tuple[Claim, ...] = (
    Claim(
        "table1.flows", "Table 1",
        "every service yields flows; >= 95 % of sessions complete",
        "6.4 M flows", _flows,
        lambda v: _every(
            v, lambda s: s["flows"] > 0 and s["complete"] >= 0.95
        ),
    ),
    Claim(
        "table1.size_order", "Table 1",
        "average flow size (KB): cloud > download > search",
        "1700 > 129 > 14",
        lambda ev: _each(ev, lambda r: r.table1_row()["avg_flow_size"] / 1e3),
        lambda v: v["cloud stor."] > v["soft. down."] > v["web search"],
    ),
    Claim(
        "fig1.rto_above_rtt", "Fig. 1",
        "RTO well above RTT in every service: median RTO > median RTT; "
        "median RTO/RTT and avg RTO / avg RTT (Table 1) > 1.5",
        "RTO >= 10x RTT for > 40 % of download/search flows; "
        "avg 8.4 / 10.9 / 8.5",
        lambda ev: _each(ev, _rto_vs_rtt),
        lambda v: _every(
            v,
            lambda s: _enough(s) and s["RTO p50"] > s["RTT p50"]
            and s["RTO/RTT p50"] > 1.5 and s["avg RTO/avg RTT"] > 1.5,
        ),
    ),
    Claim(
        "fig2.flow", "Fig. 2",
        "400 KB transfer with zero-window and retransmission stalls",
        "400 KB in ~9 s, > 5 s stalled",
        lambda ev: {
            "bytes": ev["fig2"].total_bytes,
            "stalled s": ev["fig2"].stalled_time,
            "causes": sorted(
                {s.cause.value for s in ev["fig2"].analysis.stalls}
            ),
        },
        lambda v: v["bytes"] == 400_000 and {
            StallCause.ZERO_RWND.value, StallCause.RETRANSMISSION.value
        } <= set(v["causes"]),
    ),
    Claim(
        "fig3.stalled_flows", "Fig. 3",
        "a share of flows stalls in every service",
        "0.38 / 0.43 / -",
        lambda ev: _each(
            ev, lambda r: _share(r.stall_ratio_values(), lambda x: x > 0)
        ),
        lambda v: _every(v, lambda share: share > 0),
    ),
    Claim(
        "table3.retx_time", "Table 3",
        "retransmission > 5 % of stall time everywhere, > 20 % for cloud",
        "0.363 / 0.312 / 0.634",
        _cause(StallCause.RETRANSMISSION, "time_share"),
        lambda v: v["cloud stor."] > 0.2 and _every(v, lambda s: s > 0.05),
    ),
    Claim(
        "table3.zero_rwnd_download", "Table 3",
        "zero-window stalls concentrate in software download (volume)",
        "0.074 / 0.267 / 0.016",
        _cause(StallCause.ZERO_RWND, "volume_share"),
        lambda v: v["soft. down."] > max(v["cloud stor."], v["web search"]),
    ),
    Claim(
        "table3.web_data_unavailable", "Table 3",
        "data unavailable is web search's top stall cause (volume)",
        "0.659", _web_top_cause,
        lambda top: top == StallCause.DATA_UNAVAILABLE.value,
    ),
    Claim(
        "table3.undetermined", "Table 3",
        "undetermined < 10 % of stalls in every service",
        "0.04-0.08",
        lambda ev: _each(ev, lambda r: {
            "share": r.cause_breakdown()[StallCause.UNDETERMINED]
            .volume_share,
            "n": r.total_stalls(),
        }),
        lambda v: _every(v, lambda s: _enough(s) and s["share"] < 0.1),
    ),
    Claim(
        "fig6.small_init_rwnd", "Fig. 6",
        "software download has clients with init rwnd <= 11 MSS",
        "2-MSS clients exist",
        lambda ev: min(
            _report(ev, "software_download").init_rwnd_values(), default=None
        ),
        lambda smallest: smallest is not None and smallest <= 11,
    ),
    Claim(
        "table4.gradient", "Table 4",
        "flows starting <= 11 MSS hit zero window more than larger ones; "
        "no bin > 182 MSS beats the worst <= 11 MSS",
        "0.565 / 0.542 vs 0.284 / 0.03",
        _zero_rwnd_by_init,
        lambda v: _enough(v, "n <= 11") and _enough(v, "n > 11")
        and v["<= 11"] > v["> 11"]
        and v["worst > 182"] is not None
        and v["worst <= 11"] >= v["worst > 182"],
    ),
    Claim(
        "table5.double_leads_cloud", "Table 5",
        "double retransmissions lead cloud retx-stall time (> 10 %)",
        "0.454, next 0.273",
        _retx("cloud_storage", RetxCause.DOUBLE, "time_share"),
        lambda v: _enough(v) and v["double"] > 0.1
        and v["double"] >= v["next"] and abs(v["volume sum"] - 1) < 1e-6,
    ),
    Claim(
        "table5.tail_leads_web", "Table 5",
        "tails are >= 30 % of web-search retransmission stalls (volume)",
        "0.444, next 0.256",
        _retx("web_search", RetxCause.TAIL, "volume_share"),
        lambda v: _enough(v) and v["tail"] >= 0.3,
    ),
    Claim(
        "table6.kind_shares", "Table 6",
        "cloud double stalls split into f-double + t-double = 1",
        "0.623 + 0.377",
        lambda ev: _by_value(
            _report(ev, "cloud_storage").double_kind_shares()
        ),
        _sums_to_one,
    ),
    Claim(
        "fig7.double_positions", "Fig. 7",
        "cloud double stalls also fall in the first half of flows",
        "roughly uniform positions",
        lambda ev: _positions(_report(ev, "cloud_storage").double_positions()),
        lambda v: _enough(v) and v["first half"] > 0,
    ),
    Claim(
        "table7.tail_states", "Table 7",
        "tail stalls split into Open + Recovery = 1 in every service",
        "Open 0.60 / 0.41 / 0.10",
        lambda ev: _each(ev, lambda r: _by_value(r.tail_state_shares())),
        lambda v: _every(v, _sums_to_one),
    ),
    Claim(
        "fig10.tail_in_flight", "Fig. 10",
        "tail stalls happen with <= 4 packets in flight in every service",
        "<= 3 packets mostly",
        lambda ev: _each(ev, lambda r: _in_flights(r.tail_in_flights())),
        lambda v: _every(v, lambda s: _enough(s) and s["min"] <= 4),
    ),
    Claim(
        "fig11.small_in_flight", "Fig. 11",
        "> 5 % of ACKs see in_flight < 4 everywhere, web more than cloud",
        "~0.2 / 0.2 / 0.23",
        lambda ev: _each(
            ev, lambda r: _share(r.in_flight_values(), lambda x: x < 4)
        ),
        lambda v: _every(v, lambda share: share > 0.05)
        and v["web search"] > v["cloud stor."],
    ),
    Claim(
        "fig12.cont_loss_window", "Fig. 12",
        "continuous-loss stalls have >= 4 packets in flight",
        "4 to > 20, median 5",
        lambda ev: _in_flights([
            v for r in ev["dataset"].reports.values()
            for v in r.continuous_loss_in_flights()
        ]),
        lambda v: _enough(v) and v["min"] >= 4,
    ),
    Claim(
        "table8.srto_beats_tlp", "Table 8",
        "S-RTO cuts the cloud short-flow p95 and mean at least as TLP does",
        "p95 -0.214 vs -0.144, mean -0.343 vs -0.153",
        _table8,
        lambda v: v["srto p95"] <= v["tlp p95"]
        and v["srto mean"] <= v["tlp mean"],
    ),
    Claim(
        "table9.probing_cost", "Table 9",
        "TLP and S-RTO retransmit at least as much as native, both services",
        "web 0.022 / 0.023 / 0.030, cloud short 0.027 / 0.029 / 0.039",
        lambda ev: {s: c.retransmission_ratios()
                    for s, c in ev["policy_sweep"].items()},
        lambda v: _every(v, lambda r: r["native"] <= min(r["tlp"], r["srto"])),
    ),
    Claim(
        "validation.inference", "Validation",
        "exact retx count; > 85 % of flows exact; timeouts and fast retx "
        "within 20 %",
        "-",
        _fields("validation", "retx_exact", "exact_share", "timeout_error",
                "fast_retx_error"),
        lambda v: v["retx_exact"] and v["exact_share"] > 0.85
        and v["timeout_error"] < 0.2 and v["fast_retx_error"] < 0.2,
    ),
    Claim(
        "fairness.srto", "Fairness",
        "S-RTO takes 35-65 % of a shared bottleneck; Jain index > 0.95",
        "no harm to fairness (Sec. 5.2)",
        _fields("fairness", "policy_share", "jain_index"),
        lambda v: 0.35 <= v["policy_share"] <= 0.65 and v["jain_index"] > 0.95,
    ),
    Claim(
        "ablation.tau.monotone", "Ablation: tau",
        "stall count never rises as tau grows (1.5, 2, 3, 4)",
        "tau = 2",
        lambda ev: [p.stalls for p in ev["tau_sweep"]],
        lambda counts: bool(counts) and counts == sorted(counts, reverse=True),
    ),
    Claim(
        "ablation.srto_t1.best_tail", "Ablation: S-RTO T1",
        "some T1 keeps the short-flow p95 within 5 % of native or better",
        "T1 = 10 for cloud storage",
        _srto_sweep,
        lambda v: v["baseline T1"] == 0 and v["best S-RTO p95"] is not None
        and v["best S-RTO p95"] <= v["native p95"] * 1.05,
    ),
    Claim(
        "ablation.dstcache", "Ablation: destination cache",
        "without the cache, more spurious retransmissions and timeouts",
        "-",
        _fields("dstcache", "spurious_fresh", "spurious_cached",
                "timeouts_fresh", "timeouts_cached"),
        lambda v: v["spurious_fresh"] > v["spurious_cached"]
        and v["timeouts_fresh"] > v["timeouts_cached"],
    ),
    Claim(
        "ablation.frto.retx_ratio", "Ablation: F-RTO",
        "F-RTO raises the retransmission ratio by at most 10 %",
        "-",
        _fields("frto", "retx_ratio_on", "retx_ratio_off"),
        lambda v: v["retx_ratio_on"] <= v["retx_ratio_off"] * 1.1,
    ),
    Claim(
        "ablation.pacing.cont_loss", "Ablation: pacing",
        "pacing adds at most one continuous-loss stall",
        "pacing mitigates continuous loss (Sec. 4.3)",
        _fields("pacing", "continuous_loss_paced", "continuous_loss_unpaced"),
        lambda v: v["continuous_loss_paced"]
        <= v["continuous_loss_unpaced"] + 1,
    ),
)


# -- evaluation and rendering -------------------------------------------------


def evaluate(claim: Claim, evidence: Evidence) -> Verdict:
    value = claim.measure(evidence)
    return Verdict(claim, value, bool(claim.holds(value)))


def evaluate_all(evidence: Evidence | None = None) -> list[Verdict]:
    evidence = evidence if evidence is not None else Evidence()
    return [evaluate(claim, evidence) for claim in CLAIMS]


def render(value: Any) -> str:
    """A measured value as one table cell."""
    if isinstance(value, float):
        return f"{value:.3g}"
    if value is None:
        return "none"
    if isinstance(value, dict):
        nested = any(isinstance(v, dict) for v in value.values())
        sep = "; " if nested else ", "
        return sep.join(f"{k} {render(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ", ".join(render(v) for v in value)
    return str(value)


def format_scorecard(verdicts: list[Verdict]) -> str:
    lines = [
        "| id | exhibit | claim | paper | reproduced | holds |",
        "|---|---|---|---|---|---|",
    ]
    for v in verdicts:
        c = v.claim
        lines.append(
            f"| `{c.id}` | {c.exhibit} | {c.claim} | {c.paper} | "
            f"{render(v.value)} | {'yes' if v.holds else '**no**'} |"
        )
    return "\n".join(lines)


def main() -> int:
    verdicts = evaluate_all()
    print(format_scorecard(verdicts))
    return 0 if all(v.holds for v in verdicts) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
