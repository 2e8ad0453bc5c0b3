"""Outside-in probes: replay the pipeline stage by stage and time each.

The traced pass calls the same public functions, in the same order, as
``Tapo.analyze_pcap`` / ``Tapo.analyze_stream`` / ``Tapo.analyze_packets``
do internally, with a ``perf_counter`` pair around each call.  Spans
are summed per layer in memory and handed back at the end of the pass;
nothing is written while timing.  The pass must produce the same digest
as the untraced one, which proves it is the same computation.

Functions are resolved by public dotted name at run time.  When one has
moved or gone the traced pass is skipped with a note naming it — the
untraced passes, which never import this module's targets, are not
affected, so a commit that retires a layer is still measured end to end
by this unedited file.

In-program spans (ROADMAP's stage timers) are a later change; these
numbers will then cross-check them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

from workloads import (
    POLICIES,
    Workload,
    profile_for,
    sha256_hex,
    sim_stats,
    verdict_lines,
)

#: layer -> "module:attribute.path" of the public function it times.
LAYER_FUNCTIONS = {
    "packet.pcap.iter_columns": "repro.packet.pcap:PcapReader.iter_columns",
    "core.columnar_pipeline.batch_records":
        "repro.core.columnar_pipeline:batch_records",
    "core.columnar_pipeline.demux":
        "repro.core.columnar_pipeline:demux_columns_stream",
    "core.columnar_pipeline.fast_replay":
        "repro.core.columnar_pipeline:fast_replay_flow",
    "core.columnar_pipeline.materialize":
        "repro.core.columnar_pipeline:LazyFlowTrace",
    "core.flow_analyzer.run": "repro.core.flow_analyzer:FlowAnalyzer.run",
    "core.classifier.classify": "repro.core.classifier:classify_flow",
    "core.report.build": "repro.core.report:ServiceReport",
    "core.report.to_json": "repro.core.report:ServiceReport.to_json",
    "experiments.parallel.map_stream":
        "repro.experiments.parallel:AnalysisPool.map_stream",
    "packet.flow.stream_stats": "repro.packet.flow:StreamStats",
    "workload.generator.generate": "repro.workload.generator:generate_flows",
    "experiments.runner.run_flows": "repro.experiments.runner:run_flows",
    "netsim.engine": "repro.netsim.engine:EventLoop.run",
    "config.analysis": "repro.config:AnalysisConfig",
    "config.run": "repro.config:RunConfig",
}

#: Layers each kind of traced pass calls into.
_ANALYSIS = (
    "core.columnar_pipeline.demux",
    "core.columnar_pipeline.fast_replay",
    "core.columnar_pipeline.materialize",
    "core.flow_analyzer.run",
    "core.classifier.classify",
    "core.report.build",
    "core.report.to_json",
    "config.analysis",
)
NEEDS = {
    "batch": _ANALYSIS + ("packet.pcap.iter_columns",),
    "stream": (
        "packet.pcap.iter_columns",
        "core.columnar_pipeline.demux",
        "experiments.parallel.map_stream",
        "packet.flow.stream_stats",
        "config.analysis",
        "config.run",
    ),
    "sim": _ANALYSIS + (
        "core.columnar_pipeline.batch_records",
        "workload.generator.generate",
        "experiments.runner.run_flows",
    ),
}


class Unresolved(Exception):
    """A layer's public function is no longer where this file expects it."""


def resolve(spec: str):
    """The object ``module:attr.path`` names, or ``None``.

    For a method the *owner class* is returned (the caller invokes the
    method on an instance); resolution still checks the method exists.
    """
    module_name, _, path = spec.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = target
    for part in path.split("."):
        owner = target
        target = getattr(target, part, None)
        if target is None:
            return None
    return owner if "." in path else target


def resolve_layers(names=LAYER_FUNCTIONS) -> tuple[dict, dict]:
    """(layer -> object, layer -> note) for the layers asked for."""
    found, notes = {}, {}
    for name in names:
        target = resolve(LAYER_FUNCTIONS[name])
        if target is None:
            notes[name] = f"unresolved: {LAYER_FUNCTIONS[name]}"
        else:
            found[name] = target
    return found, notes


class Spans:
    """Seconds per layer, with self-time accounting.

    ``charged`` is the sum of everything recorded so far.  A span that
    encloses other spans records its elapsed time minus what was
    charged while it ran, so layer seconds add up to covered wall time
    and no interval is counted twice.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.charged = 0.0

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] += seconds
        self.charged += seconds

    def timed_iter(self, iterable, layer: str):
        """Iterate ``iterable``, charging ``layer`` for the time spent
        inside its ``next()`` less what inner spans charged meanwhile."""
        iterator = iter(iterable)
        clock = time.perf_counter
        while True:
            before = self.charged
            mark = clock()
            try:
                item = next(iterator)
            except StopIteration:
                self.add(layer, clock() - mark - (self.charged - before))
                return
            self.add(layer, clock() - mark - (self.charged - before))
            yield item


class _FlowStage:
    """The per-flow stage of the batch pipeline, as ``Tapo.analyze_flow``
    runs it: fast replay, else materialize + object replay + classify."""

    def __init__(self, fns: dict, spans: Spans):
        self.spans = spans
        self.config = fns["config.analysis"]()
        self.fast_replay = fns["core.columnar_pipeline.fast_replay"]
        self.analyzer = fns["core.flow_analyzer.run"]
        self.classify = fns["core.classifier.classify"]
        self.fast_flows = self.fallback_flows = 0
        self.fallback_packets = 0
        self.miss_s = 0.0
        self.stalls = self.flows_with_stalls = 0

    def __call__(self, flow):
        clock = time.perf_counter
        spans = self.spans
        mark = clock()
        analysis = self.fast_replay(flow, self.config)
        elapsed = clock() - mark
        spans.add("core.columnar_pipeline.fast_replay", elapsed)
        if analysis is None:
            self.miss_s += elapsed
            self.fallback_flows += 1
            mark = clock()
            iter(flow.packets)  # first touch builds the packet objects
            spans.add("core.columnar_pipeline.materialize", clock() - mark)
            self.fallback_packets += len(flow.packets)
            mark = clock()
            analyzer = self.analyzer(flow, config=self.config)
            analysis = analyzer.run()
            spans.add("core.flow_analyzer.run", clock() - mark)
            mark = clock()
            self.classify(analysis, analyzer.tracker)
            spans.add("core.classifier.classify", clock() - mark)
        else:
            self.fast_flows += 1
        if analysis.stalls:
            self.stalls += len(analysis.stalls)
            self.flows_with_stalls += 1
        return analysis

    def counts(self, packets: int) -> dict:
        flows = self.fast_flows + self.fallback_flows
        return {
            "fast_flows": self.fast_flows,
            "fallback_flows": self.fallback_flows,
            "fallback_packets": self.fallback_packets,
            "fallback_packet_share": (
                self.fallback_packets / packets if packets else 0.0
            ),
            "fast_replay_hit_ratio": self.fast_flows / flows if flows else 0.0,
            "fast_replay_miss_s": self.miss_s,
            "stalls": self.stalls,
            "flows_with_stalls": self.flows_with_stalls,
        }


def _finish(spans: Spans, wall0: float, out: dict) -> dict:
    out["wall_s"] = time.perf_counter() - wall0
    out["seconds"] = dict(spans.seconds)
    out["covered_share"] = spans.charged / out["wall_s"]
    return out


def _traced_batch(inputs: dict, fns: dict) -> dict:
    spans = Spans()
    stage = _FlowStage(fns, spans)
    config = stage.config
    demux = fns["core.columnar_pipeline.demux"]
    report_cls = fns["core.report.build"]
    clock = time.perf_counter
    wall0 = clock()
    with fns["packet.pcap.iter_columns"](
        inputs["capture"],
        errors=config.errors,
        verify_checksums=config.verify_checksums,
    ) as reader:
        batches = spans.timed_iter(
            reader.iter_columns(), "packet.pcap.iter_columns"
        )
        flows = spans.timed_iter(
            demux(batches, None, idle_timeout=None, close_linger=None),
            "core.columnar_pipeline.demux",
        )
        analyses = [stage(flow) for flow in flows]
    mark = clock()
    report = report_cls(inputs["workload"], flows=analyses)
    spans.add("core.report.build", clock() - mark)
    mark = clock()
    text = report.to_json()
    spans.add("core.report.to_json", clock() - mark)
    out = _finish(spans, wall0, {})
    out["counts"] = stage.counts(inputs["packets"])
    out["counts"]["json_bytes"] = len(text)
    out["counts"]["median_flow_packets"] = (
        statistics.median(len(a.flow.packets) for a in analyses)
        if analyses else 0
    )
    out["packets"] = inputs["packets"]
    out["report_digest"] = sha256_hex(text)
    return out


def _traced_stream(inputs: dict, fns: dict) -> dict:
    """Decode and demux are timed on their own; everything per flow
    happens inside ``map_stream`` and is charged to it as one layer —
    compare with the per-flow layers of ``stalled_bulk``, which reads
    the same capture."""
    spans = Spans()
    config = fns["config.analysis"]()
    run = fns["config.run"](workers=1)
    stats = fns["packet.flow.stream_stats"]()
    demux = fns["core.columnar_pipeline.demux"]
    pool = fns["experiments.parallel.map_stream"](config=config, workers=1)
    clock = time.perf_counter
    wall0 = clock()
    lines = []
    with fns["packet.pcap.iter_columns"](
        inputs["capture"],
        errors=config.errors,
        verify_checksums=config.verify_checksums,
    ) as reader:
        batches = spans.timed_iter(
            reader.iter_columns(), "packet.pcap.iter_columns"
        )
        flows = spans.timed_iter(
            demux(
                batches, None,
                idle_timeout=run.idle_timeout,
                close_linger=run.close_linger,
                stats=stats,
            ),
            "core.columnar_pipeline.demux",
        )
        for analysis in spans.timed_iter(
            pool.map_stream(flows), "experiments.parallel.map_stream"
        ):
            mark = clock()
            lines.extend(verdict_lines((analysis,)))
            spans.add("bench.verdict_lines", clock() - mark)
    mark = clock()
    lines.sort()
    spans.add("bench.verdict_lines", clock() - mark)
    out = _finish(spans, wall0, {})
    out["counts"] = {
        "flows_evicted": stats.flows_closed + stats.flows_evicted_idle,
        "peak_buffered_packets": stats.peak_buffered_packets,
    }
    out["packets"] = inputs["packets"]
    out["verdict_digest"] = sha256_hex("\n".join(lines))
    return out


def _traced_sim(workload: Workload, inputs: dict, fns: dict) -> dict:
    spans = Spans()
    stage = _FlowStage(fns, spans)
    generate = fns["workload.generator.generate"]
    run_flows = fns["experiments.runner.run_flows"]
    batch_records = fns["core.columnar_pipeline.batch_records"]
    demux = fns["core.columnar_pipeline.demux"]
    report_cls = fns["core.report.build"]
    clock = time.perf_counter
    wall0 = clock()
    stats, reports, policies = {}, [], {}
    json_bytes = 0
    for policy, kwargs in POLICIES:
        mark = clock()
        scenarios = list(generate(
            profile_for(workload.service), inputs["flows"],
            seed=inputs["seed"], policy=policy, policy_kwargs=kwargs,
        ))
        spans.add("workload.generator.generate", clock() - mark)
        mark = clock()
        run = run_flows(scenarios, workers=1)
        run_s = clock() - mark
        spans.add("experiments.runner.run_flows", run_s)
        stats[policy] = sim_stats(run.results)
        policies[policy] = {"run_flows_s": run_s, **stats[policy]}
        mark = clock()
        report = report_cls(policy)
        spans.add("core.report.build", clock() - mark)
        for trace in run.traces:
            batches = spans.timed_iter(
                batch_records(trace), "core.columnar_pipeline.batch_records"
            )
            flows = spans.timed_iter(
                demux(batches, None, idle_timeout=None, close_linger=None),
                "core.columnar_pipeline.demux",
            )
            for flow in flows:
                analysis = stage(flow)
                mark = clock()
                report.add(analysis)
                spans.add("core.report.build", clock() - mark)
        mark = clock()
        text = report.to_json()
        spans.add("core.report.to_json", clock() - mark)
        json_bytes += len(text)
        reports.append(text)
    out = _finish(spans, wall0, {})
    out["packets"] = sum(s["packets"] for s in stats.values())
    out["counts"] = stage.counts(out["packets"])
    out["counts"]["json_bytes"] = json_bytes
    out["policies"] = policies
    out["sim_digest"] = sha256_hex(json.dumps(stats, sort_keys=True))
    out["report_digest"] = sha256_hex("\n".join(reports))
    return out


def traced_pass(kind: str, workload: Workload, inputs: dict) -> dict:
    """One staged pass of the given kind over ``inputs`` (a capture can
    be staged as ``batch`` whatever its workload's own kind); raises
    :class:`Unresolved` when a function it needs is not where
    ``LAYER_FUNCTIONS`` says."""
    fns, notes = resolve_layers(NEEDS[kind])
    if notes:
        raise Unresolved("; ".join(f"{k} {v}" for k, v in notes.items()))
    if kind == "sim":
        return _traced_sim(workload, inputs, fns)
    if kind == "stream":
        return _traced_stream(inputs, fns)
    return _traced_batch(inputs, fns)


def bare_event_loop_us(events: int) -> float | None:
    """Microseconds per event of an ``EventLoop`` whose callbacks do
    nothing but schedule the next one — the engine's own cost, to set
    against ``netsim.engine.us_per_event`` (engine plus sender, receiver
    and link callbacks)."""
    loop_cls = resolve(LAYER_FUNCTIONS["netsim.engine"])
    if loop_cls is None or events <= 0:
        return None
    loop = loop_cls()
    left = events

    def tick() -> None:
        nonlocal left
        left -= 1
        if left:
            loop.schedule(1e-6, tick)

    mark = time.perf_counter()
    loop.schedule(0.0, tick)
    loop.run()
    return (time.perf_counter() - mark) / events * 1e6


# -- per-layer metrics ----------------------------------------------------

_TIMED = (
    "packet.pcap.iter_columns",
    "core.columnar_pipeline.batch_records",
    "core.columnar_pipeline.demux",
    "core.columnar_pipeline.fast_replay",
    "core.columnar_pipeline.materialize",
    "core.flow_analyzer.run",
    "core.classifier.classify",
    "core.report.build",
    "core.report.to_json",
    "experiments.parallel.map_stream",
)
_SIM_COUNTS = (
    "retransmissions", "data_segments", "rto_timeouts",
    "probe_retransmissions",
)

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def sim_layer_values(runs: list[dict]) -> dict[str, float]:
    """Simulator-layer metrics from repeated simulations of the same
    scenarios.  Each run has ``generate_s`` and ``policies``: per
    policy, :func:`workloads.sim_stats` plus ``run_flows_s``.  Seconds
    are medians over the runs; counts repeat exactly, so the last run's
    are taken."""
    last = runs[-1]["policies"].values()
    events = sum(p["events"] for p in last)
    run_s = _median(
        sum(p["run_flows_s"] for p in r["policies"].values()) for r in runs
    )
    values = {
        "workload.generator.generate_s": _median(r["generate_s"] for r in runs),
        "experiments.runner.run_flows_s": run_s,
        "netsim.engine.events_per_flow": events / sum(p["flows"] for p in last),
        "netsim.engine.us_per_event": run_s / events * 1e6,
        "app.session.p99_latency_sim_s": max(
            p["p99_latency_sim_s"] for p in last
        ),
    }
    for name in _SIM_COUNTS:
        values[f"tcp.sender.{name}"] = sum(p[name] for p in last)
    for policy, stats in runs[-1]["policies"].items():
        policy_s = _median(r["policies"][policy]["run_flows_s"] for r in runs)
        values[f"tcp.policies.{policy}.flows_per_s"] = stats["flows"] / policy_s
        values[f"tcp.policies.{policy}.us_per_event"] = (
            policy_s / stats["events"] * 1e6
        )
    return values


def trace_layer_values(traced: list[dict], untraced_wall_s: float) -> dict:
    """Analysis-layer metrics: median seconds per layer over the traced
    passes, counts from the last one (they repeat exactly)."""
    last = traced[-1]
    counts = last["counts"]
    packets = last["packets"]
    seconds = {
        layer: _median(p["seconds"].get(layer, 0.0) for p in traced)
        for layer in _TIMED
    }
    values = {f"{layer}_s": value for layer, value in seconds.items()}

    def rate(count, layer):
        return count / seconds[layer] if seconds[layer] else 0.0

    values["packet.pcap.iter_columns_pps"] = rate(
        packets, "packet.pcap.iter_columns"
    )
    values["core.columnar_pipeline.demux_pps"] = rate(
        packets, "core.columnar_pipeline.demux"
    )
    values["core.flow_analyzer.run_pps"] = rate(
        counts.get("fallback_packets", 0), "core.flow_analyzer.run"
    )
    values["core.columnar_pipeline.fast_replay_miss_s"] = _median(
        p["counts"].get("fast_replay_miss_s", 0.0) for p in traced
    )
    for name, key in (
        ("core.columnar_pipeline.fast_replay_hit_ratio",
         "fast_replay_hit_ratio"),
        ("core.columnar_pipeline.fallback_packet_share",
         "fallback_packet_share"),
        ("core.classifier.stalls", "stalls"),
        ("core.report.json_bytes", "json_bytes"),
        ("packet.flow.flows_evicted", "flows_evicted"),
        ("packet.flow.peak_buffered_packets", "peak_buffered_packets"),
    ):
        values[name] = counts.get(key, 0)
    wall = _median(p["wall_s"] for p in traced)
    values["trace.wall_s"] = wall
    values["trace.covered_share"] = _median(
        p["covered_share"] for p in traced
    )
    values["trace.overhead_ratio"] = (
        wall / untraced_wall_s if untraced_wall_s else 0.0
    )
    return values
