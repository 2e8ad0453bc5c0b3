"""Compare two full runs of the perf benchmark.

    python3 benchmarks/perf/compare.py A.json B.json

A and B are files written by ``run.py --out``.  For every workload and
end-to-end metric this prints B against its base A as a ratio, the
metric's bound from ``BENCHMARK.json``, and a verdict:

``within``      B is no worse than A by more than the bound;
``worse``       B is worse than A by more than the bound;
``unresolved``  the pass-to-pass spread (inter-quartile range over the
                median) of either run is wider than the bound, so the
                two medians cannot be told apart at that resolution.

Exit status is non-zero on any ``worse``, or when B failed a larger
share of its operations than A.  One pair of runs can show a loss; a
*gain* takes ten alternating pairs (see README.md).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: End-to-end metric -> the per-pass timing in ``detail`` it derives
#: from (its quartiles give the spread); the others are read once per
#: run and have no spread of their own.
TIMING_OF = {"analyze_pps": "analyze_s", "sim_pps": "sim_s"}


def relative_iqr(detail: dict, metric: str) -> float:
    timing = detail.get(TIMING_OF.get(metric, ""))
    if not timing:
        return 0.0
    return (timing["q3"] - timing["q1"]) / timing["median"]


def compare(base: dict, new: dict, spec: dict) -> tuple[list[dict], bool]:
    rows = []
    failed = False
    for entry in spec["workloads"]:
        name = entry["name"]
        a = base["workloads"].get(name, {}).get("end_to_end")
        b = new["workloads"].get(name, {}).get("end_to_end")
        if not a or not b:
            rows.append({"workload": name, "metric": "-", "verdict": "missing"})
            failed = True
            continue
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        if share_b > share_a:
            failed = True
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va = a["metrics"][key]["value"]
            vb = b["metrics"][key]["value"]
            ratio = vb / va
            loss = 1 - ratio if metric["better"] == "higher" else ratio - 1
            spread = max(
                relative_iqr(a["detail"], key), relative_iqr(b["detail"], key)
            )
            if spread > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict = "worse"
                failed = True
            else:
                verdict = "within"
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "base": va, "new": vb, "ratio": ratio, "bound": bound,
                "spread": spread, "verdict": verdict,
                "failed_share": (share_a, share_b),
            })
    return rows, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    rows, failed = compare(base, new, spec)
    print(f"base A = {argv[0]} (seed {base['seed']}), "
          f"new B = {argv[1]} (seed {new['seed']})")
    print(f"{'workload':15s} {'metric':12s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        if row["metric"] == "-":
            print(f"{row['workload']:15s} missing from one of the runs")
            continue
        print(f"{row['workload']:15s} {row['metric']:12s} "
              f"{row['base']:12.5g} {row['new']:12.5g} {row['ratio']:7.3f} "
              f"{row['bound']:6.2f} {row['spread']:7.3f}  {row['verdict']}"
              f" [{row['unit']}]")
    shares = {
        row["workload"]: row["failed_share"]
        for row in rows if "failed_share" in row
    }
    for name, (share_a, share_b) in shares.items():
        if share_a or share_b:
            print(f"{name}: failed share A {share_a:.4f} B {share_b:.4f}")
    print("FAIL" if failed else "OK: no metric worse than its bound, "
          "no larger failed share")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
