"""Compare two sets of benchmark results, one row per workload and metric.

Usage (from the repository root):

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by run.py, or directories of them
(``perfbench/results/`` by default holds every run).  For each workload,
trace setting and metric the row gives the median and quartiles of each
side, the change of the median, and for end-to-end metrics the bound from
BENCHMARK.json; ``WORSE`` marks a median that moved the wrong way by more
than the bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(path: str) -> list[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            rec = json.load(fh)
        if "metrics" in rec and not rec.get("smoke") and not rec.get("inject"):
            out.append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def group(records: list[dict]) -> dict[tuple, dict[str, list[float]]]:
    out: dict[tuple, dict[str, list[float]]] = {}
    for rec in records:
        metrics = out.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = group(load(sys.argv[1])), group(load(sys.argv[2]))
    spec = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'workload':16s} {'t':>1s} {'metric':44s} {'n':>3s} {'base median [q1, q3]':>34s} "
          f"{'n':>3s} {'new median [q1, q3]':>34s} {'change':>8s}  bound")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            m = spec.get(name, {})
            flag = ""
            if "bound" in m:
                worse = change < -m["bound"] if m["better"] == "higher" else change > m["bound"]
                flag = f"{m['bound']:.2f}" + ("  WORSE" if worse else "")
            base_s = f"{bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
            new_s = f"{nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}]"
            print(f"{workload:16s} {trace:1d} {name:44s} {len(b):3d} {base_s:>34s} "
                  f"{len(n):3d} {new_s:>34s} {change:+8.1%}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
