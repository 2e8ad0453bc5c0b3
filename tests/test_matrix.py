"""The scenario × policy matrix: runner, cache resume, CLI, trends."""

import json

import pytest

from repro.experiments.mitigation import table89_sweep
from repro.matrix.cli import main as matrix_main
from repro.matrix.runner import (
    MatrixCell,
    MatrixConfig,
    MatrixResult,
    append_to_store,
    cell_fingerprint,
    default_policies,
    matrix_cache,
    run_matrix,
)
from repro.matrix.scenarios import (
    PATH_SCENARIOS,
    WORKLOADS,
    get_workload,
    scenario_profile,
)
from repro.results.store import ResultsStore
from repro.results.trends import detect_ranking_flips

SMALL = MatrixConfig(
    flows=6,
    policies=("native", "srto"),
    workloads=("web_search",),
    paths=("wan", "datacenter"),
    use_cache=False,
)


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    return tmp_path


class TestAxes:
    def test_scenario_axes_meet_acceptance_floor(self):
        assert len(default_policies()) >= 4
        assert len(PATH_SCENARIOS) >= 3
        assert len(WORKLOADS) >= 2

    def test_wan_profile_untouched(self):
        workload = get_workload("web_search")
        assert scenario_profile(workload, "wan") == workload.profile()

    def test_repathed_profile_tagged(self):
        workload = get_workload("web_search")
        profile = scenario_profile(workload, "datacenter")
        assert profile.name == "web_search@datacenter"
        assert type(profile.path).__name__ == "DatacenterPath"

    def test_unknown_axis_names_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            get_workload("nope")
        with pytest.raises(ValueError, match="choose from"):
            MatrixConfig(paths=("wan", "marsnet")).resolved_paths()
        with pytest.raises(ValueError, match="choose from"):
            MatrixConfig(policies=("native", "bogus")).resolved_policies()


class TestRunner:
    def test_cell_order_and_count(self):
        result = run_matrix(SMALL)
        assert [
            (c.workload, c.path, c.policy) for c in result.cells
        ] == [
            ("web_search", "wan", "native"),
            ("web_search", "wan", "srto"),
            ("web_search", "datacenter", "native"),
            ("web_search", "datacenter", "srto"),
        ]

    @pytest.mark.parametrize(
        "name, t1", [("web_search", 5), ("storage_short", 10)]
    )
    def test_wan_cells_byte_identical_to_table89_sweep(self, name, t1):
        """The matrix's WAN cells are the Table 8/9 sweep's outcomes."""
        assert get_workload(name).t1 == t1
        config = MatrixConfig(
            flows=SMALL.flows,
            policies=("native", "srto"),
            workloads=(name,),
            paths=("wan",),
            use_cache=False,
        )
        comparisons = table89_sweep(
            flows=config.flows, policies=config.policies
        )
        sweep = dict(zip(WORKLOADS, comparisons))[name]
        for cell in run_matrix(config).cells:
            direct = sweep.outcomes[cell.policy]
            assert cell.metrics["mean_latency"] == direct.mean_latency
            assert cell.metrics["p95_latency"] == direct.latency_quantile(95)
            assert cell.metrics["stall_rate"] == direct.stall_rate
            assert cell.metrics["retransmission_ratio"] == (
                direct.retransmission_ratio
            )

    def test_deterministic_across_runs_and_workers(self):
        first = run_matrix(SMALL)
        import dataclasses

        second = run_matrix(dataclasses.replace(SMALL, workers=2))
        assert [c.metrics for c in first.cells] == [
            c.metrics for c in second.cells
        ]
        assert first.rankings() == second.rankings()

    def test_rankings_order_best_first(self):
        result = run_matrix(SMALL)
        for scenario, order in result.rankings().items():
            means = [
                next(
                    c.metrics["mean_latency"]
                    for c in result.scenario_cells(scenario)
                    if c.policy == policy
                )
                for policy in order
            ]
            assert means == sorted(means)
        assert set(result.winners()) == set(result.scenarios())

    def test_json_and_table_shapes(self):
        result = run_matrix(SMALL)
        blob = result.to_json()
        assert len(blob["cells"]) == 4
        assert blob["rankings"]["web_search/wan"]
        table = result.format_table()
        assert "=== web_search/wan ===" in table
        assert "S-RTO" in table and "Linux" in table


class TestCacheResume:
    def test_second_run_all_cells_cached(self, isolated_cache):
        import dataclasses

        config = dataclasses.replace(SMALL, use_cache=True)
        cold = run_matrix(config)
        assert all(not c.cached for c in cold.cells)
        warm = run_matrix(config)
        assert all(c.cached for c in warm.cells)
        assert [c.metrics for c in warm.cells] == [
            c.metrics for c in cold.cells
        ]

    def test_interrupted_sweep_resumes_per_cell(self, isolated_cache):
        """Pre-seed only one cell; exactly the others run live."""
        import dataclasses

        config = dataclasses.replace(SMALL, use_cache=True)
        cache = matrix_cache()
        workload = get_workload("web_search")
        fingerprint = cell_fingerprint(config, workload, "wan", "native")
        cache.store(
            fingerprint,
            MatrixCell(
                workload="web_search",
                path="wan",
                policy="native",
                metrics={"mean_latency": 1.0, "p95_latency": 2.0,
                         "stall_rate": 0.0, "flows": 6.0,
                         "failed_flows": 0.0, "p50_latency": 1.0,
                         "p90_latency": 1.5,
                         "retransmission_ratio": 0.0,
                         "probe_retransmissions": 0.0},
                wall_time=0.0,
            ),
        )
        result = run_matrix(config)
        assert [c.cached for c in result.cells] == [
            True, False, False, False,
        ]
        # The sentinel metrics prove the cache entry was used verbatim.
        assert result.cells[0].metrics["mean_latency"] == 1.0

    def test_fingerprint_covers_parameters(self):
        import dataclasses

        workload = get_workload("web_search")
        base = cell_fingerprint(SMALL, workload, "wan", "native")
        assert base != cell_fingerprint(SMALL, workload, "wan", "srto")
        assert base != cell_fingerprint(
            SMALL, workload, "datacenter", "native"
        )
        assert base != cell_fingerprint(
            dataclasses.replace(SMALL, flows=7), workload, "wan", "native"
        )
        assert base != cell_fingerprint(
            dataclasses.replace(SMALL, seed=6), workload, "wan", "native"
        )

    def test_no_cache_bypasses_disk(self, isolated_cache):
        run_matrix(SMALL)  # use_cache=False
        assert not (isolated_cache / "matrix").exists() or not list(
            (isolated_cache / "matrix").glob("ds_*.pkl")
        )


class TestCli:
    ARGS = [
        "--flows", "6",
        "--policies", "native,srto",
        "--workloads", "web_search",
        "--paths", "wan",
        "--no-cache",
        "--quiet",
    ]

    def test_smoke_prints_ranked_table(self, capsys):
        assert matrix_main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "=== web_search/wan ===" in out
        assert "rank" in out

    def test_json_artifact_written(self, tmp_path, capsys):
        artifact = tmp_path / "matrix.json"
        assert matrix_main(self.ARGS + ["--json-out", str(artifact)]) == 0
        blob = json.loads(artifact.read_text())
        assert blob["rankings"]["web_search/wan"]
        assert {c["policy"] for c in blob["cells"]} == {"native", "srto"}

    def test_results_store_record_appended(self, tmp_path, capsys):
        store_path = tmp_path / "results.jsonl"
        assert matrix_main(
            self.ARGS + ["--results-store", str(store_path)]
        ) == 0
        with ResultsStore(store_path) as store:
            records = [
                r for r in store.load() if r["name"] == "matrix"
            ]
        assert len(records) == 1
        assert records[0]["rankings"]["web_search/wan"]
        assert records[0]["meta"]["cells"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--policies", "native,warp9"],
            ["--workloads", "nope"],
            ["--paths", "wan,marsnet"],
            ["--policies", "native,native"],
            ["--policies", ""],
        ],
    )
    def test_bad_axis_names_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            matrix_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "choose from" in err or "twice" in err or "empty" in err


class TestTrendsIntegration:
    def _record(self, rankings):
        result = MatrixResult(config=SMALL)
        # Hand-built cells so the two records differ only in order.
        for scenario, order in rankings.items():
            workload, path = scenario.split("/")
            for rank, policy in enumerate(order):
                result.cells.append(
                    MatrixCell(
                        workload=workload,
                        path=path,
                        policy=policy,
                        metrics={
                            "mean_latency": 0.1 * (rank + 1),
                            "p95_latency": 0.2 * (rank + 1),
                            "stall_rate": 0.0,
                        },
                        wall_time=0.0,
                    )
                )
        return result

    def test_policy_order_flip_detected(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        with ResultsStore(store_path) as store:
            append_to_store(
                store,
                self._record({"web_search/datacenter": ["native", "srto"]}),
            )
            append_to_store(
                store,
                self._record({"web_search/datacenter": ["srto", "native"]}),
            )
            flips = detect_ranking_flips(store.load())
        assert len(flips) == 1
        flip = flips[0]
        assert flip["name"] == "matrix"
        assert flip["scenario"] == "web_search/datacenter"
        assert flip["swapped"] == [["native", "srto"]]
