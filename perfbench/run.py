"""bkcalc benchmark: one closed-loop client, one op in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the ops run for at least S seconds of op time
and at least 100 ops, in whole rounds, and the end-to-end metrics are
printed.  With ``--trace 1`` round 0 of the seed runs once untraced and once
with tracer.py installed, and the per-layer metrics of the traced pass are
printed.  Every output is checked with checks.py after its op has finished.
The last line of stdout is the JSON result; reference figures (machine-speed
probe, CPU against wall time, tracing overhead) go to stderr and to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # so that ten latencies lie beyond the 90th percentile
MIN_SETUPS = 5
TIME_CAP_S = 140  # stop starting rounds after this much wall time

PER_LAYER = [
    ("rootsys.build_root_system.ms", "ms"),
    ("weyl.enumerate_weyl.ms", "ms"),
    ("bkring.enumerate_partition_tuples.ms", "ms"),
    ("bkring.partition_tuples", "count"),
    ("bkring.from_inversion_set.calls", "count"),
    ("bkring.partition_yield", "ratio"),
    ("classify.prv_witnesses.self_ms", "ms"),
    ("classify.prv.tuples_scanned", "count"),
    ("classify.prv.witnesses", "count"),
    ("classify.cohomological_witnesses.self_ms", "ms"),
    ("classify.coh.candidates", "count"),
    ("classify.coh.witnesses", "count"),
    ("classify.regularly_extremal_witnesses.self_ms", "ms"),
    ("weyl.multiply.calls", "count"),
    ("weyl.inverse.calls", "count"),
    ("tensoracle.stable_mult_probe.ms", "ms"),
    ("tensoracle.invariant_dim.self_ms", "ms"),
    ("tensoracle.decompose.self_ms", "ms"),
    ("tensoracle.decompose.calls", "count"),
    ("tensoracle.decompose.distinct", "count"),
    ("tensoracle.weight_multiplicities.self_ms", "ms"),
    ("tensoracle.weight_multiplicities.calls", "count"),
    ("tensoracle.weight_multiplicities.distinct", "count"),
    ("tensoracle.weight_multiplicities.weights", "count"),
    ("tensoracle.klimyk_terms", "count"),
    ("tensoracle.overflows", "count"),
    ("cupcalc.cup_coefficient.self_ms", "ms"),
    ("cupcalc.cup_coefficient.calls", "count"),
    ("cupcalc.poly_mul.self_ms", "ms"),
    ("cupcalc.poly_mul.calls", "count"),
    ("cupcalc.poly_mul.term_pairs", "count"),
    ("cupcalc.divided_difference.self_ms", "ms"),
    ("cupcalc.divided_difference.calls", "count"),
    ("cupcalc.eval_against_point.self_ms", "ms"),
    ("cupcalc.representative_terms", "count"),
    ("cli.import_ms", "ms"),
    ("cli.command_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("verify.run_suites.ms", "ms"),
    ("bench.traced_ops", "count"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("BKCALC_CONFIG", None)
    return env


def speed_probe() -> float:
    """Seconds for a fixed pure-Python Fraction loop (median of three)."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        x = Fraction(0)
        for i in range(1, 4000):
            x += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Run:
    """Accumulates one run's samples, problems and reference figures."""

    def __init__(self, workload: str, seed: int, tag: str):
        self.workload = workload
        self.seed = seed
        self.tag = tag
        self.latencies: list[float] = []
        self.phase_wall = 0.0
        self.phase_cpu = 0.0
        self.setups: list[float] = []
        self.rss_kb: list[int] = []  # peak of each session, or largest of a CLI cycle
        self.failures: list[str] = []  # ops that raised or exited non-zero
        self.problems: list[str] = []  # outputs that failed a check
        self.pending: list[tuple] = []  # CLI outputs not yet checked
        self.traces: list[dict] = []
        self.cli_parts = [0, 0]  # import ns, command ns (traced CLI ops)
        self.env = child_env()
        self.n_files = 0
        self.spawner = None  # runs the CLI ops
        if workload == "cli-oneshot":
            self.spawner = subprocess.Popen(
                [sys.executable, str(BENCH / "spawn.py")], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
            )

    def tmp(self, suffix: str) -> Path:
        self.n_files += 1
        return OUT / f"tmp-{os.getpid()}-{self.n_files}.{suffix}"

    # -- in-process workloads ---------------------------------------------

    def session(self, ops: list[dict], trace: bool) -> None:
        results = self.tmp("jsonl")
        req = {"setup": workloads.setup_spec(self.workload), "ops": ops,
               "results": str(results), "trace": trace}
        proc = subprocess.run(
            [sys.executable, str(BENCH / "session.py")], input=json.dumps(req),
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"session failed:\n{proc.stderr}")
        rep = json.loads(proc.stdout)
        self.setups.append(rep["setup_s"])
        if not ops:
            results.unlink()
            return
        self.latencies += rep["latencies"]
        self.phase_wall += rep["wall_s"]
        self.phase_cpu += rep["cpu_s"]
        self.rss_kb.append(rep["rss_kb"])
        if rep["trace"] is not None:
            self.traces.append(rep["trace"])
        with open(results) as fh:
            for op, line in zip(ops, fh):
                rec = json.loads(line)
                if "error" in rec:
                    self.failures.append(f"op {op} raised:\n{rec['error']}")
                    continue
                if op["kind"] == "classify":
                    bad = checks.check_classify(op["group"], op["weights"], op["K"], rec)
                else:
                    bad = checks.check_cup(op["group"], op["u"], op["v"], rec)
                self.problems += [f"{op}: {b}" for b in bad]
        results.unlink()

    # -- the CLI workload -----------------------------------------------------

    def cli_op(self, args: list[str], trace: bool) -> tuple[int, str, int]:
        out, err, trace_out = self.tmp("out"), self.tmp("err"), self.tmp("json")
        if trace:
            cmd = [sys.executable, str(BENCH / "clitrace.py"), str(trace_out), *args]
        else:
            cmd = [sys.executable, "-m", "bkcalc.cli", *args]
        self.spawner.stdin.write(json.dumps({"cmd": cmd, "stdout": str(out), "stderr": str(err)}) + "\n")
        self.spawner.stdin.flush()
        rep = json.loads(self.spawner.stdout.readline())
        code = rep["code"]
        self.latencies.append(rep["latency_s"])
        self.phase_cpu += rep["cpu_s"]
        stdout = out.read_text()
        if code != 0:
            self.failures.append(f"{args} exited {code}:\n{err.read_text()}")
        if trace:
            traced = json.loads(trace_out.read_text())
            self.traces.append(traced["trace"])
            self.cli_parts[0] += traced["import_ns"]
            self.cli_parts[1] += traced["command_ns"]
            trace_out.unlink()
        out.unlink()
        err.unlink()
        return code, stdout, rep["rss_kb"]

    def cli_round(self, ops: list[dict], trace: bool) -> None:
        outputs = []
        start = time.perf_counter()
        for op in ops:
            outputs.append((op["args"], *self.cli_op(op["args"], trace)))
        self.phase_wall += time.perf_counter() - start
        self.rss_kb.append(max(rss for *_, rss in outputs))
        self.pending.extend((args, code, stdout) for args, code, stdout, _ in outputs)

    def check_cli(self) -> None:
        for args, code, stdout in self.pending:
            if code == 0:
                self.problems += [f"{args}: {b}" for b in checks.check_cli(args, stdout)]
        self.pending = []

    def cli_setup(self) -> None:
        code = ("import time; t = time.perf_counter(); import bkcalc.cli; "
                "print(time.perf_counter() - t)")
        for _ in range(MIN_SETUPS + 2):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=self.env, cwd=ROOT, timeout=60, check=True)
            self.setups.append(float(proc.stdout))

    # -- driving ------------------------------------------------------------

    def run_round(self, r: int, trace: bool) -> None:
        for ops in workloads.round_sessions(self.workload, self.seed, r):
            if self.workload == "cli-oneshot":
                self.cli_round(ops, trace)
            else:
                self.session(ops, trace)

    def timed_phase(self, seconds: float) -> None:
        started = time.perf_counter()
        r = 0
        while True:
            self.run_round(r, trace=False)
            r += 1
            done = self.phase_wall >= seconds and len(self.latencies) >= MIN_OPS
            if done or time.perf_counter() - started > TIME_CAP_S:
                break
        self.rounds = r

    def close(self) -> None:
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait(timeout=60)

    def warm_up(self) -> None:
        """Import once so that byte code is compiled before anything is timed."""
        subprocess.run([sys.executable, "-c", "import bkcalc.cli"], env=self.env,
                       cwd=ROOT, timeout=120, check=True)


def end_to_end(run: Run) -> dict:
    lat_ms = [x * 1000 for x in run.latencies]
    return {
        "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
        "ops_per_s": {"value": len(run.latencies) / run.phase_wall, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": percentile(lat_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(run.rss_kb) / 1024, "unit": "MB"},
    }


def per_layer(run: Run, traced_ops: int, traced_op_s: float) -> dict:
    """Sum the traces of the traced pass into the per-layer metrics."""
    agg: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for t in run.traces:
        for name, (calls, total, own) in t["agg"].items():
            a = agg.setdefault(name, [0, 0, 0])
            a[0] += calls
            a[1] += total
            a[2] += own
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in t["distinct"].items():
            counts[name + ".distinct"] = counts.get(name + ".distinct", 0) + n

    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        base, _, what = name.rpartition(".")
        a = agg.get(base, [0, 0, 0])
        if what == "calls":
            values[name] = a[0]
        elif what == "ms":
            values[name] = a[1] / 1e6
        elif what == "self_ms":
            values[name] = a[2] / 1e6
        else:
            values[name] = counts.get(name, 0)
    lookups = values["bkring.from_inversion_set.calls"]
    values["bkring.partition_yield"] = (
        values["bkring.partition_tuples"] / lookups if lookups else 0.0
    )
    if run.workload == "cli-oneshot":
        values["cli.import_ms"] = run.cli_parts[0] / 1e6
        values["cli.command_ms"] = run.cli_parts[1] / 1e6
        values["cli.process_ms"] = traced_op_s * 1000 - values["cli.import_ms"] - values["cli.command_ms"]
    values["bench.traced_ops"] = traced_ops
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not (ROOT / "src" / "bkcalc" / "__init__.py").is_file():
        print(f"error: no bkcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(opts.workload, opts.seed, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}")
    probe_before = speed_probe()
    run.warm_up()
    ref: dict = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace}

    if opts.trace:
        # round 0 untraced, then traced: the counts repeat exactly per seed
        traced = Run(opts.workload, opts.seed, run.tag)
        run.run_round(0, trace=False)
        traced.run_round(0, trace=True)
        run.close()
        traced.close()
        run.check_cli()
        traced.check_cli()
        ref["untraced_ops_per_s"] = len(run.latencies) / run.phase_wall
        ref["traced_ops_per_s"] = len(traced.latencies) / traced.phase_wall
        ref["trace_overhead"] = ref["untraced_ops_per_s"] / ref["traced_ops_per_s"] - 1
        ref["traced_op_s"] = sum(traced.latencies)
        metrics = per_layer(traced, len(traced.latencies), sum(traced.latencies))
        attempted = len(run.latencies) + len(traced.latencies)
        failures = run.failures + traced.failures
        problems = run.problems + traced.problems
        spans_file = OUT / f"spans-{run.tag}.jsonl"
        with open(spans_file, "w") as fh:
            for t in traced.traces:
                for span in t["spans"]:
                    fh.write(json.dumps(span) + "\n")
        ref["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        if opts.workload == "cli-oneshot":
            run.cli_setup()
        run.timed_phase(opts.seconds)
        run.close()
        run.check_cli()
        while len(run.setups) < MIN_SETUPS:
            run.session([], trace=False)
        metrics = end_to_end(run)
        attempted, failures, problems = len(run.latencies), run.failures, run.problems
        ref["rounds"] = run.rounds
        ref["latencies_ms"] = [x * 1000 for x in run.latencies]
        ref["rss_mb"] = [x / 1024 for x in run.rss_kb]
        ref["phase_wall_s"] = run.phase_wall
        ref["phase_cpu_s"] = run.phase_cpu

    ref["probe_before_s"] = probe_before
    ref["probe_after_s"] = speed_probe()
    ref["self_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (OUT / f"run-{run.tag}.json").write_text(json.dumps(ref, indent=1) + "\n")
    brief = {k: v for k, v in ref.items() if not isinstance(v, list)}
    print("reference: " + json.dumps(brief), file=sys.stderr)
    for p in (failures + problems)[:20]:
        print("problem: " + p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
