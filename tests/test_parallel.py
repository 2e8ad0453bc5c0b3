"""Parallel runner determinism, worker-failure fallback, disk cache."""

import os
import time
from concurrent.futures import Future
from functools import partial

import pytest

from repro.config import AnalysisConfig, RunConfig
from repro.core.tapo import Tapo
from repro.errors import ErrorBudget, ParseError
from repro.experiments import dataset as dataset_mod
from repro.experiments import parallel as parallel_module
from repro.experiments.cache import DatasetCache
from repro.experiments.dataset import build_dataset, clear_cache
from repro.experiments.parallel import (
    AnalysisPool,
    AnalysisPoolStats,
    chunk_scenarios,
    map_ordered,
    resolve_workers,
    run_flows_parallel,
)
from repro.experiments.runner import run_flows
from repro.packet.flow import demux
from repro.testing.faults import kill_worker_once
from repro.testing.traces import generate_trace
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

SERVICE = "web_search"
FLOWS = 12
SEED = 31337


def _scenarios(flows=FLOWS, seed=SEED):
    return generate_flows(get_profile(SERVICE), flows, seed=seed)


def _packet_signature(run):
    return [
        [
            (p.timestamp, p.seq, p.ack, p.flags, p.payload_len, p.window)
            for p in result.packets
        ]
        for result in run.results
    ]


def _stall_signature(run):
    tapo = Tapo()
    signature = []
    for result in run.results:
        flow_stalls = []
        for analysis in tapo.analyze_packets(result.packets):
            flow_stalls.extend(s.describe() for s in analysis.stalls)
        signature.append(flow_stalls)
    return signature


class TestParallelDeterminism:
    def test_workers4_byte_identical_to_serial(self):
        serial = run_flows(_scenarios(), workers=1)
        parallel = run_flows_parallel(_scenarios(), workers=4)
        assert len(parallel.results) == FLOWS
        # Same flows, same order, same packets, same transport stats,
        # same stall classifications.
        assert _packet_signature(serial) == _packet_signature(parallel)
        assert [r.server_stats for r in serial.results] == [
            r.server_stats for r in parallel.results
        ]
        assert [r.scenario.flow_id for r in parallel.results] == list(
            range(FLOWS)
        )
        assert _stall_signature(serial) == _stall_signature(parallel)

    def test_run_flows_dispatches_to_pool(self):
        via_run_flows = run_flows(_scenarios(), workers=2)
        assert via_run_flows.metrics is not None
        assert via_run_flows.metrics.workers == 2
        assert via_run_flows.metrics.flows == FLOWS
        serial = run_flows(_scenarios(), workers=1)
        assert _packet_signature(serial) == _packet_signature(via_run_flows)

    def test_run_config_chunk_flows_sizes_the_work_units(self):
        serial = run_flows(_scenarios(), workers=1)
        for chunk_flows, chunks in ((1, 12), (5, 3)):
            run = run_flows(
                _scenarios(),
                run=RunConfig(workers=2, chunk_flows=chunk_flows),
            )
            assert run.metrics.chunks == chunks
            assert sum(w.chunks for w in run.metrics.worker_stats) == chunks
            assert _packet_signature(serial) == _packet_signature(run)

    def test_metrics_populated(self):
        run = run_flows_parallel(_scenarios(flows=6), workers=2)
        metrics = run.metrics
        assert metrics.flows == 6
        assert metrics.events > 0
        assert metrics.packets > 0
        assert metrics.wall_time > 0
        assert metrics.events_per_sec > 0
        assert sum(w.flows for w in metrics.worker_stats) == 6

    def test_chunking_preserves_order_and_coverage(self):
        scenarios = list(_scenarios(flows=10))
        chunks = chunk_scenarios(scenarios, workers=3, chunk_flows=3)
        flattened = [s for chunk in chunks for s in chunk]
        assert flattened == scenarios
        assert all(len(c) <= 3 for c in chunks)

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(5) == 5
        assert resolve_workers(-3) == 1
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1


class _FlakyExecutor:
    """In-process executor stub whose first ``deaths`` submissions fail
    like a dead worker; later ones run the task inline."""

    def __init__(self, deaths=1):
        self.deaths = deaths
        self.submissions = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        self.submissions += 1
        try:
            if self.submissions <= self.deaths:
                raise RuntimeError("worker died")
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _analysis_signature(analyses):
    return [
        (a.flow.key, a.data_packets, [s.describe() for s in a.stalls])
        for a in analyses
    ]


def _simulate(executor_factory, flows=FLOWS):
    """(runner counters, output, serial output) through the simulator."""
    serial = run_flows(_scenarios(flows), workers=1)
    run = run_flows_parallel(
        _scenarios(flows), workers=4, executor_factory=executor_factory
    )
    return run.metrics, _packet_signature(run), _packet_signature(serial)


def _analyze(executor_factory, flows=FLOWS):
    """(runner counters, output, serial output) through AnalysisPool."""
    traces = list(demux(generate_trace(seed=SEED, flows=flows)))
    serial = AnalysisPool(workers=1).map_stream(traces)
    pool = AnalysisPool(
        workers=2, chunk_flows=2, executor_factory=executor_factory
    )
    parallel = pool.map_stream(traces)
    return (
        pool.stats,
        _analysis_signature(parallel),
        _analysis_signature(serial),
    )


@pytest.mark.parametrize(
    "caller", [_simulate, _analyze], ids=["simulate", "analyze"]
)
class TestWorkerFailure:
    def test_dead_chunk_retried_serially(self, caller):
        flaky = _FlakyExecutor()
        counters, output, serial = caller(lambda workers: flaky)
        assert flaky.submissions > 1
        assert counters.chunks_retried == 1
        assert output == serial

    def test_totally_broken_pool_falls_back(self, caller, monkeypatch):
        def exploding_factory(workers):
            raise RuntimeError("no processes for you")

        def no_sleep(seconds):
            raise AssertionError("backed off with no pool to wait for")

        monkeypatch.setattr(time, "sleep", no_sleep)
        counters, output, serial = caller(exploding_factory, flows=5)
        assert counters.chunks_retried == counters.chunks > 1
        assert output == serial


_analyze_chunk = parallel_module._analyze_chunk


def _analyze_unless_poison(flows, config, poison, parent):
    """A chunk holding the ``poison`` flow kills every child it runs in
    and raises in the parent; any other chunk is analyzed."""
    if any(flow.key == poison for flow in flows):
        if os.getpid() != parent:
            os._exit(13)
        raise RuntimeError("poison in the parent too")
    return _analyze_chunk(flows, config)


class TestOneDeathCostsOneWindow:
    """A worker death replaces the pool: what it fails is bounded by the
    in-flight window, not by what is left of the stream."""

    def test_simulator_death_leaves_the_parent_idle(self, tmp_path):
        serial = run_flows(_scenarios(64), workers=1)
        with kill_worker_once(tmp_path) as sentinel:
            run = run_flows_parallel(
                _scenarios(64), workers=2, chunk_flows=2
            )
            assert sentinel.exists()  # a worker really died
        parent = os.getpid()
        assert run.metrics.chunks == 32
        assert 1 <= run.metrics.chunks_retried <= 8
        assert parent not in {w.worker_id for w in run.metrics.worker_stats}
        assert sum(w.chunks for w in run.metrics.worker_stats) == 32
        assert _packet_signature(serial) == _packet_signature(run)

    def test_poison_chunk_is_quarantined_alone(self, monkeypatch):
        traces = list(demux(generate_trace(seed=SEED, flows=40)))
        poison = traces[6].key  # in the fourth of twenty chunks
        monkeypatch.setattr(
            parallel_module,
            "_analyze_chunk",
            partial(
                _analyze_unless_poison, poison=poison, parent=os.getpid()
            ),
        )
        pool_sizes = []

        def recording_factory(workers):
            pool_sizes.append(workers)
            return parallel_module._make_executor(workers)

        pool = AnalysisPool(
            config=AnalysisConfig(errors=ErrorBudget.lenient()),
            workers=2,
            chunk_flows=2,
            max_in_flight=4,
            retry_backoff=0.0,
            executor_factory=recording_factory,
        )
        analyzed = [a.flow.key for a in pool.map_stream(traces)]
        quarantined = [traces[6].key, traces[7].key]
        assert [s.key for s in pool.faults.skipped] == quarantined
        assert analyzed == [
            t.key for t in traces if t.key not in quarantined
        ]
        assert pool.stats.chunks_poisoned == 1
        assert pool.faults.tasks_poisoned == 1
        # The poison chunk and at most the rest of its window walked
        # the ladder; the chunks after it ran on the one replacement.
        assert 1 <= pool.stats.chunks_retried <= 4
        assert pool.faults.tasks_retried == pool.stats.chunks_retried
        assert pool_sizes.count(2) == 2
        assert pool.stats.chunks == 20
        assert pool.stats.peak_in_flight_chunks <= 4
        assert pool.stats.in_flight_chunks == 0


_REJECTED = ParseError("the task rejected its input")


def _reject(chunk):
    raise _REJECTED


class TestDeterministicErrorsPropagate:
    @pytest.mark.parametrize(
        "deaths, max_retries, submissions",
        [(0, 2, 1), (1, 2, 2), (1, 0, 1)],
        ids=["worker", "rescue-pool", "parent"],
    )
    def test_repro_error_is_never_retried(
        self, deaths, max_retries, submissions
    ):
        executor = _FlakyExecutor(deaths)
        stats = AnalysisPoolStats()
        with pytest.raises(ParseError) as raised:
            list(
                map_ordered(
                    _reject,
                    ["chunk"],
                    workers=2,
                    max_in_flight=2,
                    stats=stats,
                    max_retries=max_retries,
                    retry_backoff=0.0,
                    executor_factory=lambda workers: executor,
                )
            )
        assert raised.value is _REJECTED
        assert executor.submissions == submissions
        # Only the injected death counts; the ReproError itself never
        # sends a chunk down the ladder.
        assert stats.chunks_retried == deaths


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


class TestDiskCache:
    def test_warm_load_matches_cold_build(self, isolated_cache):
        cold = build_dataset(flows_per_service=4, seed=77)
        assert cold.metrics.cache_misses == 1
        clear_cache()  # drop the memo; disk entry survives
        warm = build_dataset(flows_per_service=4, seed=77)
        assert warm is not cold  # fresh unpickle, not the memo
        assert warm.metrics.cache_hits >= 1
        assert warm.total_packets == cold.total_packets
        assert warm.total_flows == cold.total_flows
        for service in cold.reports:
            assert (
                warm.reports[service].total_stalls()
                == cold.reports[service].total_stalls()
            )

    def test_corrupted_entry_detected_and_rebuilt(self, isolated_cache):
        cold = build_dataset(flows_per_service=4, seed=78)
        entries = list(isolated_cache.glob("ds_*.pkl"))
        assert len(entries) == 1
        # Flip payload bytes: checksum must catch it.
        blob = bytearray(entries[0].read_bytes())
        blob[60] ^= 0xFF
        entries[0].write_bytes(bytes(blob))
        clear_cache()
        rebuilt = build_dataset(flows_per_service=4, seed=78)
        assert rebuilt.metrics.cache_misses == 1  # re-simulated
        assert rebuilt.total_packets == cold.total_packets

    def test_truncated_entry_detected_and_rebuilt(self, isolated_cache):
        cold = build_dataset(flows_per_service=4, seed=79)
        entry = next(isolated_cache.glob("ds_*.pkl"))
        entry.write_bytes(entry.read_bytes()[:50])
        clear_cache()
        rebuilt = build_dataset(flows_per_service=4, seed=79)
        assert rebuilt.metrics.cache_misses == 1
        assert rebuilt.total_packets == cold.total_packets

    def test_no_cache_bypasses_disk(self, isolated_cache):
        build_dataset(
            flows_per_service=2, seed=80, run=RunConfig(use_cache=False)
        )
        assert not list(isolated_cache.glob("ds_*.pkl"))

    def test_entry_cap_evicts_oldest(self, tmp_path):
        cache = DatasetCache(root=tmp_path, max_entries=2)
        for index in range(5):
            cache.store(f"{index:040d}", {"payload": index})
        assert len(cache.entries()) <= 2

    def test_load_missing_is_miss(self, tmp_path):
        cache = DatasetCache(root=tmp_path)
        assert cache.load("0" * 40) is None
        assert cache.misses == 1


class TestMemoLru:
    def test_in_process_cache_bounded(self, isolated_cache, monkeypatch):
        monkeypatch.setattr(dataset_mod, "MEMO_MAX_ENTRIES", 2)
        services = ("web_search",)
        for seed in (1, 2, 3, 4):
            build_dataset(
                flows_per_service=1, seed=seed, services=services
            )
        assert len(dataset_mod._CACHE) <= 2
        # Most recent build is still memoized (same object back).
        again = build_dataset(
            flows_per_service=1, seed=4, services=services
        )
        key = (1, 4, services)
        assert dataset_mod._CACHE[key] is again
