"""Smoke test of the benchmark itself, at reduced input sizes.

Usage (from the repository root): python3 perfbench/smoke.py

Checks, for every workload:
  * an untraced and a traced run emit exactly the metrics BENCHMARK.json
    names, each with its unit, and no op fails;
  * a deliberately altered golden entry fails an op (reason ``golden``);
  * for the in-process workloads, a wrong result from the program fails an
    op through the closed-form checks (reason ``closed-form``);
and that run.py, started in a directory holding only BENCHMARK.json and the
benchmark, exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("cli-jobs", "conductor-sweep", "oracle-lattice")


def run(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "7", "--seconds", "2", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=170,
    )
    return proc.returncode, proc.stdout.decode().splitlines()


def result(lines: list[str]) -> tuple[dict, dict]:
    """The result line and the record file run.py wrote."""
    record_line = next(line for line in lines if line.startswith("record "))
    with open(os.path.join(ROOT, record_line.split(" ", 1)[1]), encoding="utf-8") as fh:
        record = json.load(fh)
    return json.loads(lines[-1]), record


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures: list[str] = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run("--workload", workload, "--trace", str(trace), "--smoke")
            check(code == 0, f"{workload} trace {trace}: exit 0", failures)
            if code:
                continue
            res, record = result(lines)
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            check(units == expected[trace], f"{workload} trace {trace}: every metric with its unit", failures)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{workload} trace {trace}: failed_frac 0 over {res['attempted']} ops", failures)
            check(record["failed_frac"] == 0, f"{workload} trace {trace}: record says failed_frac 0", failures)
            if trace:
                closure = record["closure"]
                check(abs(closure["residual_s"]) < 1e-6 and closure["unattributed_s"] >= 0,
                      f"{workload}: layer self times plus unattributed equal op wall time", failures)
        injections = [("golden", "golden")]
        if workload != "cli-jobs":
            injections.append(("result", "closed-form"))
        for inject, reason in injections:
            code, lines = run("--workload", workload, "--trace", "0", "--smoke", "--inject", inject)
            res, record = result(lines) if code == 0 else ({}, {})
            check(code == 0 and not res["correct"] and res["failed"] >= 1
                  and record["failure_reasons"].get(reason, 0) >= 1,
                  f"{workload}: injected {inject} fault fails an op as {reason!r}", failures)

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
        code, lines = run("--workload", "oracle-lattice", "--trace", "0", cwd=bare)
        check(code != 0 and not any(line.startswith("{") for line in lines),
              "without the package: non-zero exit and no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
