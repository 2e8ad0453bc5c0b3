"""The perf benchmark's one command.

Contract form (what ``BENCHMARK.json`` names; one workload per run)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's inputs from the seed (several times over, to time
set-up), runs closed-loop passes for S seconds in a child process —
one client, single-threaded, each pass starting when the previous one
ends, the first discarded as warm-up — checks the outputs, prints a
``detail`` JSON line and, last, the result line.  With ``--trace 1``
every other pass is a staged replay (``probes.py``) and the result
carries the per-layer metrics instead of the end-to-end ones.

Without ``--workload`` it runs every workload in both modes and prints
every metric by name with its unit; ``--out FILE`` keeps the lot as
JSON for ``compare.py``.

Captures are read from a warm page cache: disk and wire behaviour are
not measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed passes, however short ``--seconds`` is.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bootstrap() -> bool:
    """Make ``repro`` (the program) and this directory importable."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perf benchmark: no program to measure at {src}/repro",
              file=sys.stderr)
        return False
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def summary(values: list[float]) -> dict:
    """Median, quartiles, extremes and count.  No percentile: with a few
    dozen passes fewer than ten samples lie beyond any."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "count": len(values)}


# -- child: the timed passes ----------------------------------------------


def child_main(spec_path: str) -> int:
    import probes
    import workloads

    spec = json.loads(Path(spec_path).read_text())
    workload = workloads.scaled(
        workloads.WORKLOADS[spec["workload"]], spec["scale"]
    )
    inputs = spec["inputs"]
    reference = inputs["reference"]
    out: dict = {"passes": [], "traced": [], "notes": {}}

    warm = workloads.run_pass(workload, inputs)
    if "report_json" in warm and reference.get("oracle_checked"):
        mine = workloads.flow_digests(warm.pop("report_json"))
        theirs = reference["flow_digests"]
        out["oracle_mismatch_flows"] = sum(
            1 for key in mine.keys() | theirs.keys()
            if mine.get(key) != theirs.get(key)
        )
    trace = spec["trace"]
    deadline = time.perf_counter() + spec["seconds"]
    while len(out["passes"]) < MIN_PASSES or time.perf_counter() < deadline:
        result = workloads.run_pass(workload, inputs)
        result.pop("report_json", None)
        out["passes"].append(result)
        if trace:
            try:
                out["traced"].append(
                    probes.traced_pass(workload.kind, workload, inputs)
                )
            except probes.Unresolved as exc:
                out["notes"]["trace"] = str(exc)
                trace = False
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(out))
    return 0


# -- parent: set-up, checks, metrics --------------------------------------


def pinned_state(inputs: dict, outputs: dict) -> str:
    """Compare outputs with ``expected_digests.json``: a known input
    with a different output is a failure, an unknown input is
    ``unpinned``."""
    pins = json.loads((HERE / "expected_digests.json").read_text())
    expected = pins.get(inputs["input_digest"])
    if expected is None:
        return "unpinned"
    for key, value in expected.items():
        if key in outputs and outputs[key] != value:
            return f"mismatch:{key}"
    return "ok"


def check_passes(kind: str, inputs: dict, passes: list[dict]) -> dict:
    """Ops attempted / failed and the digests the run settled on.

    An op is one flow in one pass.  All flows of a pass fail together
    when the pass raised, when its digests differ from the first
    pass's, or when they differ from the reference computed at set-up
    (object-path verdicts; for ``sim`` the parent's own simulation).
    """
    reference = inputs["reference"]
    keys = {"batch": ("report_digest", "verdict_digest"),
            "stream": ("verdict_digest",),
            "sim": ("sim_digest", "report_digest")}[kind]
    per_pass = inputs["flows"] * (5 if kind == "sim" else 1)
    first = next((p for p in passes if "error" not in p), None)
    digests = {key: first[key] for key in keys} if first else {}
    attempted = failed = 0
    errors = []
    for result in passes:
        attempted += per_pass
        if "error" in result:
            failed += per_pass
            errors.append(result["error"])
            continue
        ok = all(result[key] == digests[key] for key in keys)
        if kind == "sim":
            ok = ok and (
                result["stats"]["native"] == reference["first_policy_stats"]
            )
        elif reference.get("oracle_checked"):
            ok = ok and result["verdict_digest"] == reference["verdict_digest"]
        if not ok:
            failed += per_pass
    state = pinned_state(inputs, digests)
    if state.startswith("mismatch"):
        failed = attempted
    return {"attempted": attempted, "failed": failed, "digests": digests,
            "pinned": state, "errors": errors[:3]}


def run_child(spec: dict, workdir: Path) -> dict:
    spec_path = workdir / "child_spec.json"
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         str(spec_path)],
        stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def run_one(args) -> int:
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def per_layer_values(workload, setups, child, good, notes) -> dict:
    """Per-layer metrics of a traced run.  Analysis layers come from
    the child's traced passes; simulator layers from them too on
    ``sim_policies``, and from the set-ups' simulation (native policy
    only) on capture workloads."""
    import probes

    values = {}
    traced = child["traced"]
    if traced:
        values.update(probes.trace_layer_values(
            traced,
            statistics.median(
                p["analyze_s"] + p.get("sim_s", 0.0) for p in good
            ),
        ))
    if workload.kind == "sim" and traced:
        sim_runs = [
            {"generate_s": t["seconds"]["workload.generator.generate"],
             "policies": t["policies"]}
            for t in traced
        ]
    else:
        sim_runs = [
            {"generate_s": s["setup_spans"]["generate_s"],
             "policies": {"native": {
                 "run_flows_s": s["setup_spans"]["run_flows_s"], **s["sim"],
             }}}
            for s in setups
        ]
    values.update(probes.sim_layer_values(sim_runs))
    bare = probes.bare_event_loop_us(
        min(setups[-1]["sim"]["events"], 20_000)
    )
    if bare is None:
        notes["netsim.engine.bare_us_per_event"] = "unresolved"
    else:
        values["netsim.engine.bare_us_per_event"] = bare
    values["core.columnar_pipeline.oracle_mismatch_flows"] = (
        child.get("oracle_mismatch_flows", 0)
    )
    return values


def measure(args, workdir: Path) -> int:
    import probes
    import workloads

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.scaled(
        workloads.WORKLOADS[args.workload], args.scale
    )
    notes: dict[str, str] = {}
    setups = [
        workloads.set_up(workload, args.seed, workdir)
        for _ in range(SETUP_REPEATS)
    ]
    inputs = setups[-1]
    reference = inputs["reference"]
    deterministic = len({s["input_digest"] for s in setups}) == 1

    # Character guards, from one batch-staged pass here in the parent
    # (the child's untraced passes must not share a process with
    # probes).  Every guarded workload reads a capture.
    observed = {
        key: reference[key]
        for key in ("stalls", "median_flow_packets") if key in reference
    }
    if workload.name in workloads.GUARDS:
        try:
            observed.update(
                probes.traced_pass("batch", workload, inputs)["counts"]
            )
        except probes.Unresolved as exc:
            notes["guards"] = str(exc)
    guards = workloads.check_guards(workload.name, observed)
    if any(g["state"] == "failed" for g in guards):
        print(f"perf benchmark: {workload.name} seed {args.seed} is no "
              f"longer the workload it claims to be: {guards}",
              file=sys.stderr)
        return 3

    child = run_child(
        {"workload": workload.name, "scale": args.scale, "inputs": inputs,
         "seconds": args.seconds, "trace": bool(args.trace)},
        workdir,
    )
    notes.update(child["notes"])
    passes = child["passes"]
    checks = check_passes(workload.kind, inputs, passes)
    good = [p for p in passes if "error" not in p]
    if not good:
        print(f"perf benchmark: every pass failed: {checks['errors']}",
              file=sys.stderr)
        return 4

    analyze = summary([p["analyze_s"] for p in good])
    packets = good[0]["packets"]
    if workload.kind == "sim":
        sim = summary([p["sim_s"] for p in good])
        sim_pps = packets / sim["median"]
    else:
        sim = None
        sim_pps = inputs["sim"]["packets"] / statistics.median(
            s["setup_spans"]["generate_s"] + s["setup_spans"]["run_flows_s"]
            for s in setups
        )
    end_to_end = {
        "analyze_pps": packets / analyze["median"],
        "peak_rss_mb": child["peak_rss_mb"],
        "sim_pps": sim_pps,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }

    traced_ok = True
    if args.trace and child["traced"]:
        key = "verdict_digest" if workload.kind == "stream" else "report_digest"
        traced_ok = all(
            t[key] == checks["digests"].get(key) for t in child["traced"]
        )
    correct = checks["failed"] == 0 and deterministic and traced_ok
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(args.trace),
        "input_digest": inputs["input_digest"],
        "flows": inputs["flows"],
        "packets": packets,
        "analyze_s": analyze,
        "sim_s": sim,
        "cpu_share": summary([p["cpu_share"] for p in good]),
        "setup": {key: statistics.median(s["setup_spans"][key] for s in setups)
                  for key in inputs["setup_spans"]},
        "setup_deterministic": deterministic,
        "sim_stats": inputs["sim"],
        "guards": guards,
        "oracle_checked": bool(reference.get("oracle_checked")),
        "oracle_mismatch_flows": child.get("oracle_mismatch_flows"),
        "traced_digest_ok": traced_ok if args.trace else None,
        "ops_attempted": checks["attempted"],
        "ops_failed": checks["failed"],
        "digests": checks["digests"],
        "pinned": checks["pinned"],
        "errors": checks["errors"],
        "notes": notes,
    }
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    if args.trace:
        # A layer that was not measured (not on this workload's path, or
        # unresolved: see notes) reads 0; the result must hold numbers.
        values = dict.fromkeys(units, 0.0)
        values.update(per_layer_values(workload, setups, child, good, notes))
        if values.keys() - units.keys():
            notes["unlisted_metrics"] = sorted(values.keys() - units.keys())
    else:
        values = end_to_end
    result = {
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out:
        Path(args.out).write_text(
            json.dumps({"detail": detail, "result": result}, indent=1)
        )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


# -- every workload, both modes -------------------------------------------


def run_all(args) -> int:
    """Run each workload untraced, then traced, one process at a time."""
    spec = load_spec()
    report = {"seed": args.seed, "seconds": args.seconds,
              "scale": args.scale, "workloads": {}}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        row = report["workloads"][name] = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--scale", str(args.scale)],
                stdout=subprocess.PIPE, text=True,
            )
            if done.returncode:
                print(f"{name} trace={trace}: exit {done.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            lines = done.stdout.splitlines()
            mode = "per_layer" if trace else "end_to_end"
            row[mode] = json.loads(lines[-1])
            row[mode]["detail"] = json.loads(lines[-2])["detail"]
            if not row[mode]["correct"]:
                status = 1
            for metric, cell in row[mode]["metrics"].items():
                print(f"{name:15s} {metric:48s} "
                      f"{cell['value']:>16.6g} {cell['unit']}")
            print(f"{name:15s} {'ops_failed/attempted (trace=%d)' % trace:48s} "
                  f"{row[mode]['failed']:>9d}/{row[mode]['attempted']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (contract form); "
                        "default: all of them, both trace modes")
    parser.add_argument("--seed", type=int, default=20141222)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed passes (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the results to this file")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale every packet budget (tests use < 1)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not bootstrap():
        return 2
    if args.child:
        return child_main(args.child)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
