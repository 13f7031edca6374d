"""CPU time in reference seconds, steady on a shared host.

On the 2-vCPU Xeon VM this benchmark was built on, the same instructions
took 1.8-1.9 times longer, in CPU time and not only in wall time, during
phases of a few seconds when neighbouring tenants were busy; no steal time
was recorded in those phases.  Wall and CPU times of identical runs therefore
spread by 10-25 %.  A fixed probe, independent of refartin, slows down by
the same factor in the same phases.  Each op's CPU time is divided by the
mean CPU time of the probes run just before and just after it, and
multiplied by the probe's reference time: the result is the op's CPU time at
the speed at which the probe takes its reference time, about the uncontended
speed of that host.  A faster refartin lowers the op's CPU time and leaves
the probe alone, so gains show in full.

Two probes, matched to the work they calibrate (the slope of log op time
against log probe time was 0.97 for the matched probe and 0.62 for the other
on CLI ops): ``probe`` runs pure-Python Fraction arithmetic in the worker
for in-process ops, and ``child_probe`` starts an interpreter that imports
``fractions``, for ops that are CLI children.
"""

from __future__ import annotations

import gc
import resource
import subprocess
import sys
import time
from fractions import Fraction

PROBE_REF_S = 0.006
CHILD_PROBE_REF_S = 0.050


def probe() -> float:
    """CPU seconds of a fixed Fraction and dict workload (about 6 ms).

    It frees everything it allocates and runs with the cyclic collector off,
    so it does not shift when the collector runs inside the ops around it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        acc, table = Fraction(0), {}
        for i in range(1, 1000):
            f = Fraction(i % 17 + 1, i % 13 + 2)
            acc += f * f
            table[i % 101] = table.get(i % 101, Fraction(0)) + f
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def to_reference(cpu_s: float, probe_before: float, probe_after: float, ref_s: float) -> float:
    return cpu_s * 2 * ref_s / (probe_before + probe_after)


def children_cpu() -> float:
    """CPU seconds of all waited-for children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_probe() -> float:
    """CPU seconds of a child interpreter that imports ``fractions``."""
    before = children_cpu()
    subprocess.run([sys.executable, "-c", "import fractions"], check=True)
    return children_cpu() - before
