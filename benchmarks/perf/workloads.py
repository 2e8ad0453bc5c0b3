"""Seeded workloads of the perf benchmark: inputs, passes, digests, guards.

Five workloads, chosen so that each stresses a different set of layers
(see README.md for the table).  Everything here is derived from the
``--seed`` argument; the program under test only ever receives the
generated inputs (a capture on disk, or a list of flow scenarios).

The program is driven through public functions only: ``repro.api``,
``repro.config``, ``ServiceReport``, ``generate_flows``/``run_flows``,
``PcapWriter`` and the service profiles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro import api
from repro.config import AnalysisConfig, RunConfig
from repro.core.report import ServiceReport, percentile
from repro.errors import ReproError
from repro.experiments.runner import run_flows
from repro.packet.pcap import PcapWriter
from repro.workload.distributions import Constant, Distribution, Uniform
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

#: ``sim_policies`` serves the same scenarios under each of these.
#: S-RTO takes the paper's deployed thresholds (Sec. 5: T1=5, T2=5).
POLICIES: tuple[tuple[str, dict], ...] = (
    ("native", {}),
    ("tlp", {}),
    ("srto", {"t1": 5, "t2": 5}),
    ("tracks", {}),
    ("mobile", {}),
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``kind`` picks the timed pass: ``batch`` and
    ``stream`` read a capture from disk, ``sim`` simulates and then
    analyzes in memory.

    The size is a *packet* budget, not a flow count: flow sizes are
    heavy-tailed (log-normal, sigma 1.25), so a fixed number of flows
    swings the packet count — and with it every rate — by +-20% from
    seed to seed, while flows drawn until the budget is met stay within
    one flow of it.
    """

    name: str
    kind: str
    service: str
    packets: int
    #: Mean of the exponential gap between consecutive flow starts in
    #: the merged capture, in trace seconds.
    mean_gap: float
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "stalled_bulk", "batch", "cloud_storage", 30_000, 4.0,
            "paper's stall-heavy case: most packets leave the fast path, "
            "so object replay and materialization do the work",
        ),
        Workload(
            "clean_bulk", "batch", "clean_bulk", 20_000, 0.05,
            "cloud-storage responses on a loss-free path: every packet "
            "stays on the fast path, so decode, demux and fast replay do "
            "the work",
        ),
        Workload(
            "short_flows", "batch", "web_search", 16_000, 0.02,
            "~20-packet flows: per-flow fixed cost and report "
            "serialization dominate per-packet cost",
        ),
        Workload(
            "stalled_stream", "stream", "cloud_storage", 30_000, 4.0,
            "the stalled_bulk capture through the streaming path with "
            "eviction on: same layers, flows retire as they close",
        ),
        Workload(
            "sim_policies", "sim", "web_search", 2_400, 0.0,
            "simulator half (event loop, sender, five recovery policies) "
            "followed by in-memory analysis of the simulated traces",
        ),
    )
}


def scaled(workload: Workload, scale: float) -> Workload:
    """The same workload with its packet budget scaled (tests use < 1)."""
    return dataclasses.replace(
        workload, packets=max(200, int(workload.packets * scale))
    )


#: Largest response of the bulk workloads.  The stock log-normal has no
#: upper end: one seed in ten draws a 10 MB response, which alone is a
#: third of the capture and costs the simulator three times as much per
#: packet as the rest.  1 MB clips one response in a hundred.
MAX_RESPONSE_BYTES = 1_000_000


@dataclass
class Capped(Distribution):
    """``base`` clipped at ``maximum``."""

    base: Distribution
    maximum: float

    def sample(self, rng: random.Random) -> float:
        return min(self.base.sample(rng), self.maximum)


def profile_for(service: str):
    """Service profile by name.  ``web_search`` is stock;
    ``cloud_storage`` is stock but for the response cap; ``clean_bulk``
    is cloud storage with everything that causes a stall switched off.

    Beyond loss, bursts, spikes, back-end fetches and supply pauses,
    four stock settings each send a third or more of the packets to the
    object path without a single loss: the 4-16 Mbit/s link with its
    48-packet queue (slow-start overshoot overflows it), delay jitter
    (a swing above 2 x SRTT trips the stall screen), small client
    windows (frozen buffers) and several requests per connection (the
    think time between them trips the screen too).
    """
    if service == "web_search":
        return get_profile(service)
    base = get_profile("cloud_storage")
    base = dataclasses.replace(
        base, response_size=Capped(base.response_size, MAX_RESPONSE_BYTES)
    )
    if service == "cloud_storage":
        return base
    return dataclasses.replace(
        base,
        name="clean_bulk",
        clients=dataclasses.replace(
            base.clients, init_rwnd_mss=Constant(1297)
        ),
        path=dataclasses.replace(
            base.path,
            rate_bps=Constant(100e6),
            queue_limit=4096,
            data_loss_rate=0.0,
            ack_loss_rate=0.0,
            burst_mean_good=1e12,
            jitter_spike_prob=0.0,
            jitter_base=0.0,
            walk_max=1e-9,
        ),
        requests_per_session=Constant(1),
        think_time=Uniform(0.005, 0.02),
        backend_fetch_prob=0.0,
        supply_pause_prob=0.0,
    )


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# -- inputs ---------------------------------------------------------------

#: Upper bound on flows drawn while filling a packet budget.
MAX_FLOWS = 40_000


def scenarios_for(workload: Workload, seed: int, flows: int,
                  policy: str = "native", kwargs: dict | None = None):
    """Fresh scenarios: they are stateful (loss and jitter models mutate
    during a run), so every simulation regenerates them."""
    return generate_flows(
        profile_for(workload.service), flows, seed=seed,
        policy=policy, policy_kwargs=kwargs,
    )


def simulate_to_budget(workload: Workload, seed: int):
    """Simulate flows one by one until the packet budget is met.

    Returns (results, generate seconds, run_flows seconds).  Each flow
    runs in its own event loop, so this equals one ``run_flows`` call
    over the same scenarios.
    """
    scenarios = scenarios_for(workload, seed, MAX_FLOWS)
    results = []
    packets = 0
    generate_s = run_s = 0.0
    while packets < workload.packets:
        mark = time.perf_counter()
        scenario = next(scenarios)
        generate_s += time.perf_counter() - mark
        mark = time.perf_counter()
        results.extend(run_flows([scenario], workers=1).results)
        run_s += time.perf_counter() - mark
        packets += len(results[-1].packets)
    return results, generate_s, run_s


def scenario_digest(scenarios) -> str:
    """sha256 over the plain numbers that define the scenarios (the
    path and loss model objects have no stable repr)."""
    rows = [
        [
            s.flow_id, s.seed, s.path_config.delay, s.path_config.rate_bps,
            [
                [r.request_bytes, r.response_bytes, r.think_time,
                 r.data_delay, [[c.nbytes, c.delay] for c in r.chunks]]
                for r in s.session.requests
            ],
        ]
        for s in scenarios
    ]
    return sha256_hex(json.dumps(rows))


def sim_stats(results) -> dict:
    """Simulated statistics of one batch of flows — what a speed-only
    change to the simulator must leave untouched.

    ``incomplete`` counts sessions still open at the simulator's 600 s
    cap.  The stock profiles produce about one per hundred flows, so
    they are an outcome to pin, not a failed operation.
    """
    latencies = [r.latency for r in results if r.latency is not None]
    return {
        "flows": len(results),
        "incomplete": sum(1 for r in results if not r.complete),
        "events": sum(r.events for r in results),
        "packets": sum(len(r.packets) for r in results),
        "retransmissions": sum(r.server_stats.retransmissions for r in results),
        "data_segments": sum(
            r.server_stats.data_segments_sent for r in results
        ),
        "rto_timeouts": sum(r.server_stats.rto_timeouts for r in results),
        "probe_retransmissions": sum(
            r.server_stats.probe_retransmissions for r in results
        ),
        "p50_latency_sim_s": percentile(latencies, 50) if latencies else 0.0,
        "p99_latency_sim_s": percentile(latencies, 99) if latencies else 0.0,
    }


def write_capture(results, path: Path, mean_gap: float, seed: int) -> int:
    """Merge per-flow traces into one time-sorted pcap, the shape a
    server-side tap produces; returns the packet count.

    Flows start after seeded exponential gaps so they open and close at
    different times.  The records belong to this run, so their
    timestamps are shifted in place.
    """
    rng = random.Random(seed ^ 0xC0FFEE)
    start = 0.0
    packets = []
    for result in results:
        start += rng.expovariate(1.0 / mean_gap)
        for record in result.packets:
            record.timestamp += start
        packets.extend(result.packets)
    packets.sort(key=lambda record: record.timestamp)
    with PcapWriter(path) as writer:
        writer.write_all(packets)
    return len(packets)


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# -- outputs --------------------------------------------------------------


def verdict_lines(analyses) -> list[str]:
    """One line per flow: key, packet count and every stall's verdict."""
    lines = []
    for analysis in analyses:
        key = analysis.flow.key
        stalls = ";".join(
            f"{stall.start_time!r},{stall.duration!r},{stall.cause.value},"
            f"{stall.retx_cause.value if stall.retx_cause else '-'}"
            for stall in analysis.stalls
        )
        lines.append(
            f"{key.ip_a}:{key.port_a}-{key.ip_b}:{key.port_b} "
            f"{len(analysis.flow.packets)} {stalls}"
        )
    lines.sort()
    return lines


def verdict_digest(analyses) -> str:
    return sha256_hex("\n".join(verdict_lines(analyses)))


def flow_digests(report_json: str) -> dict[str, str]:
    """Per-flow digest of a report's canonical JSON, keyed by flow."""
    return {
        json.dumps(flow["key"]): sha256_hex(
            json.dumps(flow, sort_keys=True)
        )[:16]
        for flow in json.loads(report_json)["flows"]
    }


def oracle_config() -> AnalysisConfig | None:
    """The object-path configuration, or ``None`` once it is retired."""
    try:
        return AnalysisConfig(columnar=False)
    except TypeError:
        return None


def reference_outputs(workload: Workload, capture: Path) -> dict:
    """What the object pipeline makes of the capture.

    Verdicts (the stalls and their causes — TAPO's answer) must match
    on every pass.  Whole-report byte parity is *counted*, per flow,
    not required: at the commit that added this benchmark the fast
    replay drops the ``state_log`` of some flows the object path logs a
    Disorder/Open excursion for, on roughly one seed in two.
    """
    config = oracle_config()
    if config is None:
        return {"oracle_checked": False}
    analyses = api.analyze(str(capture), config=config)
    report_json = ServiceReport(workload.name, flows=analyses).to_json()
    return {
        "oracle_checked": True,
        "report_digest": sha256_hex(report_json),
        "flow_digests": flow_digests(report_json),
        "verdict_digest": verdict_digest(analyses),
        "stalls": sum(len(a.stalls) for a in analyses),
        "median_flow_packets": statistics.median(
            len(a.flow.packets) for a in analyses
        ),
    }


# -- set-up ---------------------------------------------------------------


def set_up(workload: Workload, seed: int, workdir: Path) -> dict:
    """Build one workload's inputs and reference outputs, timed.

    Capture workloads: simulate flows up to the packet budget, write
    the merged capture, analyze it once on the object path.
    ``sim_policies``: simulate up to the budget under the first policy
    — that fixes the flow count — here in the parent process, so the
    child's passes are checked against a result computed elsewhere.
    """
    started = time.perf_counter()
    results, generate_s, run_s = simulate_to_budget(workload, seed)
    spans = {"generate_s": generate_s, "run_flows_s": run_s}
    inputs = {
        "workload": workload.name,
        "seed": seed,
        "flows": len(results),
        "sim": sim_stats(results),
    }
    if workload.kind == "sim":
        inputs["input_digest"] = scenario_digest(
            scenarios_for(workload, seed, len(results))
        )
        inputs["reference"] = {"first_policy_stats": inputs["sim"]}
    else:
        capture = workdir / "capture.pcap"
        inputs["capture"] = str(capture)
        mark = time.perf_counter()
        inputs["packets"] = write_capture(
            results, capture, workload.mean_gap, seed
        )
        spans["write_s"] = time.perf_counter() - mark
        inputs["input_digest"] = file_digest(capture)
        inputs["capture_bytes"] = capture.stat().st_size
        mark = time.perf_counter()
        inputs["reference"] = reference_outputs(workload, capture)
        spans["reference_s"] = time.perf_counter() - mark
    inputs["setup_spans"] = spans
    inputs["setup_s"] = time.perf_counter() - started
    return inputs


#: workload -> (quantity, comparison, limit) triples.
GUARDS = {
    "stalled_bulk": [("fallback_packet_share", ">=", 0.8)],
    "stalled_stream": [("fallback_packet_share", ">=", 0.8)],
    "clean_bulk": [("fallback_packet_share", "<=", 0.2), ("stalls", "<=", 0)],
    "short_flows": [("median_flow_packets", "<=", 25)],
}
_COMPARE = {">=": operator.ge, "<=": operator.le}


def check_guards(name: str, observed: dict) -> list[dict]:
    """Character guards: a simulator change must not silently turn a
    workload into a different one.  ``observed`` maps quantity to the
    value seen at set-up; a missing quantity is ``unchecked``."""
    verdicts = []
    for quantity, comparison, limit in GUARDS.get(name, ()):
        value = observed.get(quantity)
        if value is None:
            state = "unchecked"
        else:
            state = "ok" if _COMPARE[comparison](value, limit) else "failed"
        verdicts.append({
            "guard": f"{quantity} {comparison} {limit}",
            "value": value, "state": state,
        })
    return verdicts


# -- timed passes ---------------------------------------------------------


def batch_pass(inputs: dict) -> dict:
    """Capture on disk to finished report JSON."""
    mark = time.perf_counter()
    analyses = api.analyze(inputs["capture"], config=AnalysisConfig())
    text = ServiceReport(inputs["workload"], flows=analyses).to_json()
    analyze_s = time.perf_counter() - mark
    return {
        "analyze_s": analyze_s,
        "flows": len(analyses),
        "packets": inputs["packets"],
        "report_json": text,
        "report_digest": sha256_hex(text),
        "verdict_digest": verdict_digest(analyses),
    }


def stream_pass(inputs: dict) -> dict:
    """Streaming path with eviction on, consumed one flow at a time
    into verdict lines; the analyses themselves are discarded so that
    memory stays bounded by open flows."""
    mark = time.perf_counter()
    lines = []
    for analysis in api.analyze_stream(
        inputs["capture"], run=RunConfig(workers=1)
    ):
        lines.extend(verdict_lines((analysis,)))
    lines.sort()
    analyze_s = time.perf_counter() - mark
    return {
        "analyze_s": analyze_s,
        "flows": len(lines),
        "packets": inputs["packets"],
        "verdict_digest": sha256_hex("\n".join(lines)),
    }


def sim_pass(workload: Workload, inputs: dict) -> dict:
    """Simulate the scenarios under every policy, then analyze each
    policy's traces in memory (the ``api.simulate`` pipeline).

    Simulator and analyzer seconds are kept apart, so that ``sim_pps``
    and ``analyze_pps`` each time only their half.
    """
    sim_s = analyze_s = 0.0
    stats = {}
    reports = []
    for policy, kwargs in POLICIES:
        mark = time.perf_counter()
        run = run_flows(
            scenarios_for(
                workload, inputs["seed"], inputs["flows"], policy, kwargs
            ),
            workers=1,
        )
        sim_s += time.perf_counter() - mark
        mark = time.perf_counter()
        report = ServiceReport(policy)
        for trace in run.traces:
            for analysis in api.analyze(trace, config=AnalysisConfig()):
                report.add(analysis)
        reports.append(report.to_json())
        analyze_s += time.perf_counter() - mark
        stats[policy] = sim_stats(run.results)
    return {
        "sim_s": sim_s,
        "analyze_s": analyze_s,
        "flows": sum(s["flows"] for s in stats.values()),
        "packets": sum(s["packets"] for s in stats.values()),
        "stats": stats,
        "sim_digest": sha256_hex(json.dumps(stats, sort_keys=True)),
        "report_digest": sha256_hex("\n".join(reports)),
    }


def run_pass(workload: Workload, inputs: dict) -> dict:
    """One untraced pass with wall and CPU time; a ``ReproError`` fails
    every flow of the pass instead of ending the run."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        if workload.kind == "sim":
            out = sim_pass(workload, inputs)
        elif workload.kind == "stream":
            out = stream_pass(inputs)
        else:
            out = batch_pass(inputs)
    except ReproError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    out["wall_s"] = time.perf_counter() - wall0
    out["cpu_share"] = (time.process_time() - cpu0) / out["wall_s"]
    return out
