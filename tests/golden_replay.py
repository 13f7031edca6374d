"""Replay the benchmark's in-process golden corpora and compare every digest.

Usage (from the repository root): python3 tests/golden_replay.py

Recomputes every op of ``perfbench/golden/conductor_sweep.json`` and
``perfbench/golden/oracle_lattice.json`` through ``perfbench/workloads.py``
and checks each printed result against its captured SHA-256 and each
closed-form check.  Nothing is written.  Exits 1 on any mismatch, 0 when all
ops reproduce.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402


def replay(cls) -> list[str]:
    """Recompute every op of the workload's golden corpus, print a summary
    line and return one failure line per mismatch."""
    start = time.perf_counter()
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
    print(f"{cls.name}: {len(ops)} ops, {len(failures)} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return failures


def main() -> int:
    failures = []
    for cls in (workloads.ConductorSweep, workloads.OracleLattice):
        failures += replay(cls)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
