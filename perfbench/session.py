"""One session of an in-process workload, run in a fresh Python process.

Reads a JSON request on stdin: ``setup`` (what to build before the first
op), ``ops`` (op specs from workloads.py), ``results`` (a file for one JSON
line per op) and ``trace`` (install tracer.py first).  Prints one JSON
object: the set-up time, each op's latency, the wall and CPU time of the op
phase, the peak resident memory after the op phase and, when traced, the
trace.  An op that raises leaves its traceback in the results file, and the
session goes on.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _peak_rss_kb() -> int:
    """This process's own resident high-water mark.

    ``ru_maxrss`` would also count the spawning process's memory, which Linux
    carries across fork and exec; VmHWM belongs to this process's image alone.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _write_tuples(out, tuples, word) -> None:
    """Write witness tuples as a JSON list of word lists, one at a time, so
    that recording an output adds next to nothing to the session's memory."""
    out.write("[")
    for i, t in enumerate(tuples):
        out.write(("," if i else "") + json.dumps([word[w] for w in t]))
    out.write("]")


def main() -> None:
    req = json.load(sys.stdin)
    setup = req["setup"]

    t0 = time.perf_counter()
    import bkcalc

    tracer = None
    if req["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    groups = {}
    for label in setup["groups"]:
        g = bkcalc.weyl_group(bkcalc.GroupType.parse(label))
        if setup["partitions"]:
            bkcalc.enumerate_partition_tuples(g, 3)
        if setup["representatives"]:
            for w in g.elements:
                bkcalc.schubert_representative(g, w)
        groups[label] = g
    setup_s = time.perf_counter() - t0

    # inputs and outputs name elements by their words; lookups keep the
    # decoding out of the traced multiplication counts
    words = {label: {w: bkcalc.format_word(w) for w in g.elements}
             for label, g in groups.items()}
    by_word = {label: {text: w for w, text in ws.items()} for label, ws in words.items()}
    latencies = []
    with open(req["results"], "w") as out:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for index, op in enumerate(req["ops"]):
            g = groups[op["group"]]
            if tracer is not None:
                tracer.op = index
            if op["kind"] == "classify":
                weights = tuple(tuple(w) for w in op["weights"])
                call, args = bkcalc.classify, (g, weights)
                kwargs = {"K": op["K"]}
            else:
                u = by_word[op["group"]][op["u"]]
                v = by_word[op["group"]][op["v"]]
                call, args, kwargs = bkcalc.cup_product, (u, v), {}
            start = time.perf_counter()
            try:
                res = call(*args, **kwargs)
            except Exception:
                latencies.append(time.perf_counter() - start)
                out.write(json.dumps({"error": traceback.format_exc()}) + "\n")
                continue
            latencies.append(time.perf_counter() - start)
            word = words[op["group"]]
            if op["kind"] == "classify":
                rest = json.dumps({
                    "flags": [res.prv, res.cohomological, res.regularly_extremal],
                    "mults": [list(km) for km in res.oracle_mults],
                    "overflow": res.oracle_overflow,
                    "stable": res.stable_mult_one.kind,
                })
                out.write(rest[:-1])
                for key, tuples in (("prv", res.prv_witnesses), ("coh", res.coh_witnesses),
                                    ("reg", res.reg_witnesses)):
                    out.write(f', "{key}": ')
                    _write_tuples(out, tuples, word)
                out.write("}\n")
            else:
                out.write(json.dumps({"terms": {word[x]: c for x, c in res.coeffs.items()}}) + "\n")
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    rss_kb = _peak_rss_kb()

    json.dump({
        "setup_s": setup_s,
        "latencies": latencies,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_kb": rss_kb,
        "trace": tracer.snapshot() if tracer is not None else None,
    }, sys.stdout)


if __name__ == "__main__":
    main()
