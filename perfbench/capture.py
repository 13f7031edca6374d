"""Capture the golden corpus: the exact output of every op any seed can draw.

Usage (from the repository root): python3 perfbench/capture.py [WORKLOAD ...]

For ``cli-jobs`` each entry holds the SHA-256 of the job file and of the
CLI's stdout bytes, and its exit code; for the in-process workloads, the
SHA-256 of the op's printed result.  ``seconds`` is the op's time during
capture; the workloads use it only to order ops.  Run this at a commit whose
outputs are known to be right: later runs count every difference as a failed
op.  Capture refuses an op that fails a closed-form check or exits non-zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from stamp import stamp  # noqa: E402


def capture_in_process(cls) -> dict:
    entries = {}
    for op in cls.universe():
        start = time.perf_counter()
        bad, text = cls.result(op)
        seconds = time.perf_counter() - start
        if bad:
            raise SystemExit(f"{cls.name}: {op.key} fails its closed-form check")
        entries[op.key] = {"sha256": workloads.sha256(text), "seconds": round(seconds, 4)}
    return entries


def capture_cli() -> dict:
    workdir = os.path.join(workloads.HERE, "out", "capture")
    os.makedirs(workdir, exist_ok=True)
    jobs = workloads.make_jobs()
    for job in jobs:
        with open(os.path.join(workdir, f"{job.job_id}.json"), "w", encoding="utf-8") as fh:
            fh.write(job.text)
    env = workloads.child_env(ROOT)
    ops = [op for job in jobs for kind in workloads.job_ops(job).values() for op in kind]

    def one(op):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "refartin", *op.params[1]],
            cwd=workdir,
            env=env,
            capture_output=True,
            timeout=600,
        )
        seconds = time.perf_counter() - start
        if proc.returncode != 0 or b"Traceback" in proc.stderr:
            raise SystemExit(f"cli-jobs: {op.key} exits {proc.returncode}: {proc.stderr[-500:]!r}")
        return op.key, {
            "exit": proc.returncode,
            "stdout_sha256": workloads.sha256(proc.stdout),
            "stdout_bytes": len(proc.stdout),
            "job_sha256": workloads.sha256(op.params[0].text),
            "seconds": round(seconds, 4),
        }

    # two children at a time, one per core of a 2-vCPU host
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(one, ops))


def main() -> int:
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    for name in names:
        cls = workloads.WORKLOADS[name]
        start = time.perf_counter()
        entries = capture_cli() if cls is workloads.CliJobs else capture_in_process(cls)
        doc = {"meta": stamp(ROOT) | {"ops": len(entries)}, "entries": entries}
        path = os.path.join(workloads.GOLDEN_DIR, f"{cls.golden_name}.json")
        os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(entries)} ops in {time.perf_counter() - start:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
