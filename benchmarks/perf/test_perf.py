"""Checks of the perf benchmark itself, at a tiny scale (< 30 s).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Outside tier-1 (``testpaths`` is ``tests``).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import probes
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")
SCALE = "0.03"


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )


def test_spec_names_units_and_mirrors():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_output_matches_spec(workload):
    done = run_benchmark(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize(
    "workload", ["short_flows", "stalled_stream", "sim_policies"]
)
def test_traced_output_matches_spec_and_digest(workload):
    done = run_benchmark(workload, 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert detail["traced_digest_ok"] is True and result["correct"] is True
    assert not detail["notes"]
    assert result["metrics"]["trace.covered_share"]["value"] > 0.5


def test_every_probe_resolves_on_this_tree():
    found, notes = probes.resolve_layers()
    assert not notes
    assert set(found) == set(probes.LAYER_FUNCTIONS)
    assert probes.resolve("repro.core.report:ServiceReport.no_such") is None
    assert probes.resolve("repro.no_such_module:thing") is None


def test_seed_determines_input(tmp_path):
    workload = workloads.scaled(workloads.WORKLOADS["short_flows"], 0.03)
    first = workloads.set_up(workload, 7, tmp_path)
    again = workloads.set_up(workload, 7, tmp_path)
    other = workloads.set_up(workload, 8, tmp_path)
    assert first["input_digest"] == again["input_digest"]
    assert first["reference"] == again["reference"]
    assert first["input_digest"] != other["input_digest"]
    sim = workloads.scaled(workloads.WORKLOADS["sim_policies"], 0.1)
    assert (
        workloads.set_up(sim, 7, tmp_path)["input_digest"]
        != workloads.set_up(sim, 8, tmp_path)["input_digest"]
    )


def test_guards_fail_closed():
    states = [g["state"] for g in workloads.check_guards(
        "clean_bulk", {"fallback_packet_share": 0.5}
    )]
    assert states == ["failed", "unchecked"]


def test_exits_non_zero_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("_work", "__pycache__", "runs"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_benchmark("short_flows", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def _run(value, q1=0.99, q3=1.01, failed=0):
    cell = {
        "attempted": 100, "failed": failed,
        "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                    for m in SPEC["end_to_end"]},
        "detail": {"analyze_s": {"median": 1.0, "q1": q1, "q3": q3},
                   "sim_s": None},
    }
    return {"seed": 1, "workloads": {
        w["name"]: {"end_to_end": cell} for w in SPEC["workloads"]
    }}


def test_compare_verdicts():
    def verdicts(a, b):
        rows, failed = compare.compare(a, b, SPEC)
        return {r["metric"]: r["verdict"] for r in rows}, failed

    same, failed = verdicts(_run(100.0), _run(100.0))
    assert set(same.values()) == {"within"} and not failed
    # Half the value: worse where higher is better, within where lower is.
    half, failed = verdicts(_run(100.0), _run(50.0))
    assert half["analyze_pps"] == "worse" and half["setup_s"] == "within"
    assert failed
    noisy, failed = verdicts(_run(100.0), _run(50.0, q1=0.5, q3=1.5))
    assert noisy["analyze_pps"] == "unresolved"
    _rows, failed = compare.compare(_run(1.0), _run(1.0, failed=1), SPEC)
    assert failed
