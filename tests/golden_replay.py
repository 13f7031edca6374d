"""Replay the benchmark's golden corpora in process and compare every digest.

Usage (from the repository root): python3 tests/golden_replay.py

Recomputes every op of ``perfbench/golden/conductor_sweep.json`` and
``perfbench/golden/oracle_lattice.json`` through ``perfbench/workloads.py``
and checks each printed result against its captured SHA-256 and each
closed-form check.  Every op of ``perfbench/golden/cli_jobs.json`` runs
``refartin.cli.main(argv)`` in this process, on job files written to a
temporary directory, and is checked by its stdout SHA-256 and exit code.
Nothing in the repository is written.  Prints one summary line per corpus
with its wall and CPU seconds; exits 1 on any mismatch, 0 when all ops
reproduce.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from refartin.cli import main as cli_main  # noqa: E402


def summary(cls, ops, failures: list[str], start: float, cpu: float) -> None:
    """Print one corpus summary line: op and mismatch counts, then the wall
    and the CPU seconds since ``start`` and ``cpu``."""
    print(f"{cls.name}: {len(ops)} ops, {len(failures)} mismatches, "
          f"{time.perf_counter() - start:.1f} s wall, {time.process_time() - cpu:.1f} s CPU")


def replay(cls) -> list[str]:
    """Recompute every op of the workload's golden corpus, print a summary
    line and return one failure line per mismatch."""
    start, cpu = time.perf_counter(), time.process_time()
    golden = workloads.load_golden(cls.golden_name)
    ops = cls.universe()
    failures = []
    if len(ops) != len(golden):
        failures.append(f"{cls.name}: {len(ops)} ops in the universe, {len(golden)} golden entries")
    for op in ops:
        bad, text = cls.result(op)
        entry = golden.get(op.key)
        if bad:
            failures.append(f"{cls.name}: {op.key}: closed-form check failed")
        elif entry is None:
            failures.append(f"{cls.name}: {op.key}: no golden entry")
        elif entry["sha256"] != workloads.sha256(text):
            failures.append(f"{cls.name}: {op.key}: output differs from the golden digest")
    summary(cls, ops, failures, start, cpu)
    return failures


def cli_failure(op, entry: dict | None) -> str | None:
    """Run one CLI op in the current directory; the reason it differs from
    its golden entry, or None."""
    if entry is None:
        return "no golden entry"
    if entry["job_sha256"] != workloads.sha256(op.params[0].text):
        return "job file differs from the golden one"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(op.params[1]))
        except SystemExit as ex:  # argparse usage errors
            code = ex.code
        except Exception as ex:  # noqa: BLE001 -- a traceback in the CLI
            return f"raised {type(ex).__name__}: {ex}"
    if code != entry["exit"]:
        return f"exit {code}, golden {entry['exit']}"
    if entry["stdout_sha256"] != workloads.sha256(out.getvalue()):
        return "stdout differs from the golden digest"
    return None


def replay_cli() -> list[str]:
    """Run every op of the CLI golden corpus in process, with the job files
    in a temporary working directory (the CLI echoes relative paths)."""
    start, cpu = time.perf_counter(), time.process_time()
    cls = workloads.CliJobs
    golden = workloads.load_golden(cls.golden_name)
    ops = cls.universe()
    failures = []
    if len(ops) != len(golden):
        failures.append(f"{cls.name}: {len(ops)} ops in the universe, {len(golden)} golden entries")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for job in workloads.make_jobs():
            with open(os.path.join(tmp, f"{job.job_id}.json"), "w", encoding="utf-8") as fh:
                fh.write(job.text)
        os.chdir(tmp)
        try:
            for op in ops:
                reason = cli_failure(op, golden.get(op.key))
                if reason:
                    failures.append(f"{cls.name}: {op.key}: {reason}")
        finally:
            os.chdir(cwd)
    summary(cls, ops, failures, start, cpu)
    return failures


def main() -> int:
    failures = []
    for cls in (workloads.ConductorSweep, workloads.OracleLattice):
        failures += replay(cls)
    failures += replay_cli()
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
