"""Run one bkcalc CLI command with tracing, as ``python -m bkcalc.cli`` would.

Usage: ``python3 perfbench/clitrace.py TRACE_OUT ARG...``.  Times the import
of ``bkcalc.cli`` and the command, installs tracer.py in between, writes the
timings and the trace to TRACE_OUT as JSON and exits with the command's code.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    trace_out, args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import bkcalc.cli

    t1 = time.perf_counter_ns()
    import tracer as tracing

    tracer = tracing.install()
    tracer.op = 0
    t2 = time.perf_counter_ns()
    try:
        bkcalc.cli.main(args=args, prog_name="bkcalc")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    t3 = time.perf_counter_ns()
    sys.stdout.flush()
    with open(trace_out, "w") as fh:
        json.dump({"import_ns": t1 - t0, "command_ns": t3 - t2, "trace": tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
