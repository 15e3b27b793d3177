"""Run the CLI ops of run.py from a small process, one at a time.

On Linux a child's ``ru_maxrss`` starts from the resident high-water mark of
the process that spawned it, so a child of run.py would report run.py's own
memory whenever that is larger.  This process stays small.

Reads one JSON request per line on stdin, ``{"cmd", "stdout", "stderr"}``,
runs the command with its output sent to the two files, and writes one JSON
line back: latency from spawn to reap, exit code, peak RSS and CPU time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "w") as fo, open(req["stderr"], "w") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=fo, stderr=fe)
            # wait4 reaps the child and gives its own peak RSS and CPU time
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "latency_s": latency,
            "code": proc.returncode,
            "rss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }), flush=True)


if __name__ == "__main__":
    main()
