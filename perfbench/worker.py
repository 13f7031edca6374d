"""One benchmark worker: a fresh interpreter that sets up one workload and
runs its closed loop (one client, next op only after the previous one ends).

Run from the repository root; ``run.py`` starts it.  The last stdout line is
a JSON object with the timestamp at which set-up ended (``ready_ns``,
``time.monotonic_ns``), the per-op latencies and failures, peak RSS and, in a
traced run, the tracer's aggregates.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import refclock  # noqa: E402

# One vCPU for the worker and every CLI child it starts, so the probes that
# normalize an op run on the CPU the op ran on.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
_before_probes = time.process_time()
refclock.probe()  # the first run warms up the probe's own code
PROBE_AT_START = refclock.probe()
PROBES_CPU = time.process_time() - _before_probes

import refartin  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def inject_wrong_result() -> None:
    """Make the first call of each checked public function return a wrong
    value, so the closed-form gate has something to catch."""
    for name in ("conductor", "oracle_tame_clin", "oracle_monogenic_clin"):
        orig = getattr(refartin, name)
        fired = []

        def wrong(*args, _orig=orig, _fired=fired, **kwargs):
            value = _orig(*args, **kwargs)
            if not _fired:
                _fired.append(True)
                return value + Fraction(1, 1000)
            return value

        setattr(refartin, name, wrong)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-ops", type=int, default=0, help="stop after this many ops (0: no limit)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="trace, and write spans as JSONL here")
    ap.add_argument("--smoke", action="store_true", help="reduced input sizes")
    ap.add_argument("--inject", choices=["golden", "result"], default=None)
    args = ap.parse_args()

    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](
            args.seed, smoke=args.smoke, root=ROOT, workdir=workdir
        )
        stream = wl.ops()
        first = next(stream)
        stream = itertools.chain([first], stream)
        if args.inject == "golden":
            entry = dict(wl.golden[first.key])
            field = "stdout_sha256" if "stdout_sha256" in entry else "sha256"
            entry[field] = "0" * 64
            wl.golden[first.key] = entry
        elif args.inject == "result":
            inject_wrong_result()
        tr = None
        if args.spans:
            tr = tracer.Tracer()
            if isinstance(wl, workloads.CliJobs):
                wl.boot = [sys.executable, os.path.join(HERE, "cli_boot.py")]
            else:
                tr.install()
        ready_ns = time.monotonic_ns()
        setup_cpu = time.process_time() - PROBES_CPU
        probe = refclock.probe()
        setup = {
            "ready_ns": ready_ns,
            "setup_ref_s": refclock.to_reference(
                setup_cpu, PROBE_AT_START, probe, refclock.PROBE_REF_S
            ),
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = loop(wl, stream, tr, args.seconds, args.max_ops) | setup
        if tr is not None:
            result["trace"] = trace_summary(wl, tr, args.spans)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# A CLI child probe costs about a third of a light CLI op, so it runs after
# every CHILD_PROBE_EVERY-th op; the in-process probe runs after every op.
CHILD_PROBE_EVERY = 4


def loop(wl, stream, tr, seconds: float, max_ops: int) -> dict:
    """Run ops until ``seconds`` of wall time have passed (or ``max_ops``).

    Each op's CPU time (its own process's, or the CLI child's) is converted
    to reference seconds with the nearest probes run before and after it."""
    wall: list[float] = []
    cpu: list[float] = []
    reasons: dict[str, int] = {}
    cli = isinstance(wl, workloads.CliJobs)
    cpu_clock = refclock.children_cpu if cli else time.process_time
    probe, ref_s, every = (
        (refclock.child_probe, refclock.CHILD_PROBE_REF_S, CHILD_PROBE_EVERY)
        if cli
        else (refclock.probe, refclock.PROBE_REF_S, 1)
    )
    probes = [(0, probe())]  # (ops done before the probe, probe CPU seconds)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    end = t0
    for op_id, op in enumerate(stream):
        start, cpu_start = time.perf_counter(), cpu_clock()
        if tr is not None and not cli:
            span_start = tr.begin_op(op_id)
        try:
            reason = wl.run(op, op_id) if cli else wl.run(op)
        except Exception:  # an uncaught exception is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            reason = "exception"
        if tr is not None and not cli:
            tr.end_op(span_start)
        cpu.append(cpu_clock() - cpu_start)
        end = time.perf_counter()
        wall.append(end - start)
        if reason is not None:
            reasons[reason] = reasons.get(reason, 0) + 1
            print(f"failed op {op.key!r}: {reason}", file=sys.stderr)
        done = end >= deadline or (max_ops and len(wall) >= max_ops)
        if done or len(wall) % every == 0:
            probes.append((len(wall), probe()))
        if done:
            break
    ref = []
    k = 0
    for i, c in enumerate(cpu):
        while probes[k + 1][0] <= i:
            k += 1
        ref.append(refclock.to_reference(c, probes[k][1], probes[k + 1][1], ref_s))
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {
        "ops": len(wall),
        "failed": sum(reasons.values()),
        "reasons": reasons,
        "elapsed_s": end - t0,
        "wall_s": wall,
        "ref_s": ref,
        "probe_mean_s": sum(p for _, p in probes) / len(probes),
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
    }


def trace_summary(wl, tr: tracer.Tracer, spans_path: str) -> dict:
    if isinstance(wl, workloads.CliJobs):
        snap = tracer.empty_snapshot()
        spans = []
        for child in wl.child_traces:
            tracer.merge(snap, child)
            spans.extend(tuple(s) for s in child["spans"][: tracer.SPAN_CAP - len(spans)])
        snap["stdout_bytes"] = wl.stdout_bytes
    else:
        snap = tracer.empty_snapshot()
        tracer.merge(snap, tr.snapshot())
        spans = tr.spans
    tracer.write_spans(spans_path, spans)
    return {"snapshot": snap, "closure": tracer.closure(snap)}


if __name__ == "__main__":
    sys.exit(main())
