"""Run the refartin CLI in a child with the benchmark's tracer installed.

Usage: python3 cli_boot.py OP_ID SPAWN_NS ARGS...

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started this
child, so the time from spawn to entering ``refartin.cli.main`` is measured.
Stdout is the CLI's own; the tracer's aggregates and spans follow as one JSON
line at the end of stderr.
"""

import json
import sys

import tracer

CHILD_SPAN_CAP = 5_000


def main() -> int:
    op_id, spawn_ns, argv = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tr = tracer.Tracer()
    tr.install()
    import refartin.cli

    start = tr.begin_op(op_id)
    startup_ns = start - spawn_ns
    try:
        code = refartin.cli.main(argv)
    except SystemExit as ex:  # argparse reports usage errors this way
        code = ex.code if isinstance(ex.code, int) else 1
    tr.end_op(start)
    sys.stdout.flush()
    snap = tr.snapshot()
    snap["startup_ns"] = startup_ns
    snap["spans"] = tr.spans[:CHILD_SPAN_CAP]
    snap["spans_dropped"] += max(0, len(tr.spans) - CHILD_SPAN_CAP)
    snap["spans_kept"] = len(snap["spans"])
    sys.stderr.write("\n" + json.dumps(snap, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
