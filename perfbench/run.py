"""refartin benchmark: one command, one workload, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli-jobs,conductor-sweep,oracle-lattice}
        --seed N --seconds S --trace {0,1}

Every measurement runs in fresh interpreters (``worker.py``): refartin keeps
unbounded ``lru_cache`` caches, so reusing an interpreter would measure a
different, warmer program.  Load is a closed loop with one client and at most
one worker or CLI child running at a time.

``--trace 0`` prints the end-to-end metrics: ``ops_per_s``, ``op_p50_ms``,
``op_p90_ms``, ``setup_s`` (median over several set-ups, each from spawning a
worker to its first timed op) and ``peak_rss_mib``.  ``--trace 1`` runs the
workload with every layer wrapped (see ``tracer.py``), then replays the same
ops untraced to measure the tracing overhead, and prints the per-layer
metrics.  Both check every op's output against the golden corpus and closed
forms; the last stdout line is the JSON result, and the full record (with
provenance and failure reasons) is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from stamp import stamp  # noqa: E402

WORKLOADS = ("cli-jobs", "conductor-sweep", "oracle-lattice")
SETUPS = 5  # set-ups per run; setup_s is their median
NO_WAIT_NOTE = (
    "refartin is single-threaded and has no queues, so no layer has time "
    "spent waiting for it; only busy (self) time is reported"
)


class WorkerError(RuntimeError):
    pass


# Every worker must end by this time.monotonic() value, so that a run that
# hangs still exits within the 180 s a run may take.
DEADLINE = time.monotonic() + 170


def run_worker(args: list[str]) -> tuple[int, dict]:
    """Start one worker and wait for it; returns (spawn time, its result).
    The worker gets its own process group, so a timeout also stops any CLI
    child it has running."""
    timeout = max(1.0, DEADLINE - time.monotonic())
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker {args} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    return spawn_ns, json.loads(out.decode().strip().splitlines()[-1])


def harrell_davis(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  With a hundred-odd samples spread over a wide range
    it moves far less between runs than a single order statistic does."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 16  # Simpson's rule on each interval [(i-1)/n, i/n]
    total = weight_sum = 0.0
    for i, value in enumerate(sorted_values):
        lo, h = i / n, 1 / (n * steps)
        w = pdf(lo) + pdf(lo + steps * h)
        w += sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        w *= h / 3
        total += w * value
        weight_sum += w
    return total / weight_sum


def latency_metrics(latencies_s: list[float]) -> dict:
    ms = sorted(x * 1e3 for x in latencies_s)
    p90 = harrell_davis(ms, 0.9)
    return {
        "p50_ms": harrell_davis(ms, 0.5),
        "p90_ms": p90,
        "beyond_p90": sum(1 for x in ms if x > p90),
    }


def measure(common: list[str], seconds: float) -> dict:
    """Untraced run: the timed loop plus SETUPS - 1 set-up-only workers."""
    common = common + ["--seconds", str(seconds)]
    setups = []
    for _ in range(SETUPS - 1):
        spawn_ns, res = run_worker(common + ["--setup-only"])
        setups.append((res["setup_ref_s"], (res["ready_ns"] - spawn_ns) / 1e9))
    spawn_ns, res = run_worker(common)
    setups.append((res["setup_ref_s"], (res["ready_ns"] - spawn_ns) / 1e9))
    ref, wall = latency_metrics(res["ref_s"]), latency_metrics(res["wall_s"])
    metrics = {
        "ops_per_s": (res["ops"] / sum(res["ref_s"]), "ops/s"),
        "op_p50_ms": (ref["p50_ms"], "ms"),
        "op_p90_ms": (ref["p90_ms"], "ms"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }
    extra = {
        "samples": res["ops"],
        "beyond_p90": ref["beyond_p90"],
        "setup_samples_s": [s for s, _ in setups],
        "op_ref_ms": [x * 1e3 for x in res["ref_s"]],
        "probe_mean_ms": res["probe_mean_s"] * 1e3,
        "wall": {
            "ops_per_s": res["ops"] / res["elapsed_s"],
            "op_p50_ms": wall["p50_ms"],
            "op_p90_ms": wall["p90_ms"],
            "setup_s": statistics.median(w for _, w in setups),
        },
    }
    return {"metrics": metrics, "attempted": res["ops"], "failed": res["failed"],
            "reasons": res["reasons"], "extra": extra}


def measure_traced(common: list[str], seconds: float, spans_path: str) -> dict:
    """Traced run, then the same ops untraced in a fresh worker; the ratio of
    their op times is the tracing overhead."""
    _, traced = run_worker(common + ["--seconds", str(seconds), "--spans", spans_path])
    # no time limit: the replay runs exactly the ops the traced worker ran
    _, plain = run_worker(common + ["--seconds", "inf", "--max-ops", str(traced["ops"])])
    if plain["ops"] != traced["ops"]:
        raise WorkerError("the untraced replay ran a different number of ops")
    trace = traced["trace"]
    metrics = tracer.layer_metrics(trace["snapshot"])
    metrics["bench.trace_overhead_frac"] = (
        sum(traced["ref_s"]) / sum(plain["ref_s"]) - 1,
        "fraction",
    )
    reasons = dict(traced["reasons"])
    for key, n in plain["reasons"].items():
        reasons[key] = reasons.get(key, 0) + n
    snap = trace["snapshot"]
    extra = {
        "closure": trace["closure"],
        "traced_ref_s": sum(traced["ref_s"]),
        "untraced_ref_s": sum(plain["ref_s"]),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans_kept": snap["spans_kept"],
        "spans_dropped": snap["spans_dropped"],
        "unwrapped": snap["missing"],
        "note": NO_WAIT_NOTE,
    }
    return {"metrics": metrics, "attempted": traced["ops"] + plain["ops"],
            "failed": traced["failed"] + plain["failed"], "reasons": reasons, "extra": extra}


def print_trace_table(metrics: dict[str, tuple[float, str]]) -> None:
    """Calls, self time and share of op wall time per layer and callable."""
    metrics = {name: value for name, (value, _) in metrics.items()}
    wall = sum(v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 1)
    wall += metrics["bench.unattributed_s"]
    print(f"{'layer / callable':40s} {'calls':>10s} {'self_s':>10s} {'share':>7s}")
    for layer, groups in tracer.LAYERS.items():
        self_s = metrics[f"{layer}.self_s"]
        print(f"{layer:40s} {'':>10s} {self_s:10.4f} {self_s / wall if wall else 0:7.1%}")
        for group in groups:
            s = metrics[f"{layer}.{group}.self_s"]
            calls = metrics[f"{layer}.{group}.calls"]
            print(f"  {group:38s} {calls:10d} {s:10.4f} {s / wall if wall else 0:7.1%}")
    un = metrics["bench.unattributed_s"]
    print(f"{'bench.unattributed_s':40s} {'':>10s} {un:10.4f} {un / wall if wall else 0:7.1%}")
    print(f"op wall time {wall:.4f} s; tracing overhead "
          f"{metrics['bench.trace_overhead_frac']:+.1%} of the untraced replay's op time")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced input sizes")
    ap.add_argument("--inject", choices=["golden", "result"], default=None,
                    help="corrupt one golden entry or one result, to show the gate fails the op")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "refartin", "__init__.py")):
        print("error: run from the repository root; src/refartin is missing", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--smoke"] if args.smoke else []
    common += ["--inject", args.inject] if args.inject else []
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    try:
        if args.trace:
            res = measure_traced(common, args.seconds, os.path.join(out_dir, tag + ".spans.jsonl"))
        else:
            res = measure(common, args.seconds)
    except WorkerError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    record = stamp(ROOT) | {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inject": args.inject,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"],
        "failure_reasons": res["reasons"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    } | res["extra"]
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    if args.trace:
        print_trace_table(res["metrics"])
        print(f"closure: {record['closure']}")
        print(NO_WAIT_NOTE)
    else:
        for name, (value, unit) in res["metrics"].items():
            print(f"{name:14s} {value:14.4f} {unit}")
        print(f"samples {record['samples']} ({record['beyond_p90']} beyond p90)")
    print(f"record {os.path.relpath(os.path.join(out_dir, tag + '.json'), ROOT)}")
    print(f"failed_frac {record['failed_frac']:.4f} ({res['failed']} of {res['attempted']} ops)"
          + (f" reasons {res['reasons']}" if res["reasons"] else ""))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
