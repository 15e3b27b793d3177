"""The benchmark's checks accept bkcalc's answers and reject corrupted ones.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import checks
import refmath
from refmath import ref_group

import bkcalc

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def classify_record(label, weights, K):
    g = bkcalc.weyl_group(bkcalc.GroupType.parse(label))
    res = bkcalc.classify(g, tuple(tuple(w) for w in weights), K=K)
    words = lambda ts: [[bkcalc.format_word(w) for w in t] for t in ts]  # noqa: E731
    return {
        "flags": [res.prv, res.cohomological, res.regularly_extremal],
        "prv": words(res.prv_witnesses),
        "coh": words(res.coh_witnesses),
        "reg": words(res.reg_witnesses),
        "mults": [list(km) for km in res.oracle_mults],
        "overflow": res.oracle_overflow,
        "stable": res.stable_mult_one.kind,
    }


def cup_record(label, u, v):
    g = bkcalc.weyl_group(bkcalc.GroupType.parse(label))
    p = bkcalc.cup_product(bkcalc.parse_word(g, u), bkcalc.parse_word(g, v))
    return {"terms": {bkcalc.format_word(x): c for x, c in p.coeffs.items()}}


# a cohomological A2 triple, a PRV-only one, and B2 triples
COH_A2 = ("A2", [(1, 0), (0, 1), (0, 0)])
RHO_A2 = ("A2", [(1, 1), (1, 1), (1, 1)])
B2_CASES = [("B2", [(1, 1), (0, 1), (1, 0)]), ("B2", [(2, 1), (1, 2), (2, 2)])]


# -- reference mathematics ---------------------------------------------------


def test_bk_table_digests_match_the_recorded_anchors():
    anchors = {
        "A2": "189de95badd9a15ac68ece18bd4f6da12ac477f01ab0ae129b6931317c9cc659",
        "B2": "c2ca2fbce67ceb34bd9c63ff23a8040339bd1a2a181e96e08da40785b4a6183c",
        "A3": "458a2dc34d5b07ba3a723b617a050e2a90e6a2327b04b2a65f50f879939e2171",
        "B3": "e60349bb3a6e13f7b50e20e755ebce7bd2300ab565932e60e747afc711e475fd",
    }
    for label, digest in anchors.items():
        assert refmath.bk_table_digest(ref_group(label))[2] == digest


def test_reference_tables():
    assert [len(ref_group(x).elements) for x in ("A2", "B2", "B3", "A4", "D4")] == [6, 8, 48, 120, 192]
    assert ref_group("A2").weyl_dim((1, 1)) == 8
    assert ref_group("B3").weyl_dim((0, 0, 1)) == 8
    assert ref_group("D4").weyl_dim((0, 1, 0, 0)) == 28
    # the adjoint of SL3 sits twice in (1,1) x (1,1)
    assert refmath.type_a_invariant_dim([(1, 1), (1, 1), (1, 1)]) == 2
    assert refmath.type_a_invariant_dim([(1, 0), (1, 0), (1, 0)]) == 1
    assert refmath.type_a_invariant_dim([(1, 0), (1, 0), (0, 1)]) == 0
    # the divisor times the fundamental class is the divisor
    g = ref_group("B3")
    for i in range(3):
        assert refmath.chevalley(g, i, g.w0) == {g.w0.times(g.element(str(i + 1))).word: 1}


# -- classify ------------------------------------------------------------------


@pytest.mark.parametrize("label,weights", [COH_A2, RHO_A2, *B2_CASES])
def test_classify_accepts_program_answers(label, weights):
    assert checks.check_classify(label, weights, 3, classify_record(label, weights, 3)) == []


def test_witness_checks_reject_corruption():
    label, weights = RHO_A2
    rec = classify_record(label, weights, 3)
    assert rec["prv"] and not rec["coh"]
    bad = copy.deepcopy(rec)
    bad["prv"][0][0] = "1" if bad["prv"][0][0] != "1" else "2"
    assert any("PRV witness" in p for p in checks.check_classify(label, weights, 3, bad))

    label, weights = COH_A2
    rec = classify_record(label, weights, 3)
    assert rec["coh"]
    bad = copy.deepcopy(rec)
    bad["coh"][0] = ["e", "e", "e"]
    problems = checks.check_classify(label, weights, 3, bad)
    assert any("do not partition" in p for p in problems)
    bad = copy.deepcopy(rec)
    bad["coh"][0] = [bad["coh"][0][i] for i in (0, 2, 1)]
    problems = checks.check_classify(label, weights, 3, bad)
    assert any("sum u_i^-1(lam_i) != 0" in p for p in problems)
    bad = copy.deepcopy(rec)
    bad["reg"] = bad["coh"]
    assert any("times w0" in p for p in checks.check_classify(label, weights, 3, bad))
    bad = copy.deepcopy(rec)
    bad["flags"][1] = False
    assert any("flags" in p for p in checks.check_classify(label, weights, 3, bad))


def test_dimension_checks_reject_corruption():
    label, weights = COH_A2
    rec = classify_record(label, weights, 3)
    bad = copy.deepcopy(rec)
    bad["mults"][1][1] = 2
    problems = checks.check_classify(label, weights, 3, bad)
    assert any("cohomological tuple" in p for p in problems)
    assert any("Littlewood-Richardson" in p for p in problems)

    label, weights = RHO_A2
    rec = classify_record(label, weights, 3)
    bad = copy.deepcopy(rec)
    bad["mults"][0][1] = 0
    assert any("d_1 = 0" in p for p in checks.check_classify(label, weights, 3, bad))
    bad = copy.deepcopy(rec)
    bad["mults"][2][1] = 0
    assert any("d_3 = 0" in p for p in checks.check_classify(label, weights, 3, bad))
    bad = copy.deepcopy(rec)
    bad["stable"] = "unknown"
    assert any("stable status" in p for p in checks.check_classify(label, weights, 3, bad))
    bad = copy.deepcopy(rec)
    bad["overflow"] = True
    bad["mults"] = bad["mults"][:2]
    problems = checks.check_classify(label, weights, 3, bad)
    assert any("overflow" in p for p in problems) and any("probed scalings" in p for p in problems)


def test_spin_triple_is_not_rejected():
    # (0,1)^3 on B2 has d = 0, 1, 0: invariants exist at k = 2 only, which
    # the semigroup check must allow
    rec = classify_record("B2", [(0, 1)] * 3, 3)
    assert [d for _, d in rec["mults"]] == [0, 1, 0]
    assert checks.check_classify("B2", [(0, 1)] * 3, 3, rec) == []


# -- cup products -------------------------------------------------------------


def test_cup_checks_accept_program_answers():
    g = ref_group("B3")
    n = g.w0.length
    by_length = {}
    for w in g.elements:
        by_length.setdefault(w.length, []).append(w.word)
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b >= n:
                u, v = by_length[a][0], by_length[b][-1]
                assert checks.check_cup("B3", u, v, cup_record("B3", u, v)) == []


def test_cup_checks_reject_corruption():
    g = ref_group("B3")
    n = g.w0.length
    w0 = g.w0.word
    # unit
    u = g.elements[5].word
    rec = cup_record("B3", u, w0)
    assert rec == {"terms": {u: 1}}
    assert checks.check_cup("B3", u, w0, {"terms": {u: 2}})
    # Chevalley: drop one term of a divisor product
    div = g.w0.times(g.element("2")).word
    u = next(w.word for w in g.elements if w.length == 5)
    rec = cup_record("B3", u, div)
    assert len(rec["terms"]) > 1
    bad = {"terms": dict(list(rec["terms"].items())[1:])}
    assert any("expected" in p for p in checks.check_cup("B3", u, div, bad))
    # a Levi-movable term with coefficient 2
    full = (1 << g.n_pos) - 1
    for x in g.elements:
        for y in g.elements:
            if (x.inversions | y.inversions) == full and 0 < x.length < n - 1 and 0 < y.length < n - 1:
                w = next((z for z in g.elements if z.inversions == full ^ (x.inversions & y.inversions)), None)
                if w is not None:
                    rec = cup_record("B3", x.word, y.word)
                    bad = copy.deepcopy(rec)
                    bad["terms"][g.w0.times(w).word] = 2
                    assert any("Levi-movable" in p for p in checks.check_cup("B3", x.word, y.word, bad))
                    return
    pytest.fail("no Levi-movable pair found")


def test_cup_degree_and_duality():
    g = ref_group("B3")
    u = g.elements[3]
    dual = g.w0.times(u)
    assert checks.check_cup("B3", u.word, dual.word, {"terms": {"e": 1}}) == []
    assert checks.check_cup("B3", u.word, dual.word, {"terms": {}})
    assert checks.check_cup("B3", u.word, dual.word, {"terms": {"1": 1}})


# -- CLI outputs -----------------------------------------------------------------


def cli(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "bkcalc.cli", *args], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_cli_checks():
    cases = [
        ["bk-table", "--group", "B2", "--format", "json"],
        ["enumerate", "--group", "A3", "--s", "3", "--format", "json"],
        ["decompose", "--group", "B3", "--weights", "1,0,0;0,0,1", "--format", "json"],
        ["verify", "--group", "A2", "--suite", "theorem7"],
        ["classify", "--group", "B2", "--weights", "1,0;0,1;0,1", "--format", "json"],
    ]
    for args in cases:
        out = cli(*args)
        assert checks.check_cli(args, out) == [], args
        if args[0] == "verify":
            corrupt = out.replace("checked=", "checked=1")
        else:
            payload = json.loads(out)
            if args[0] == "bk-table":
                payload["digest"] = payload["digest"][::-1]
            elif args[0] == "enumerate":
                payload["tuples"][1] = payload["tuples"][0]
            elif args[0] == "decompose":
                payload["terms"][0]["multiplicity"] += 1
            else:
                payload["oracle_mults"][0][1] += 1
            corrupt = json.dumps(payload)
        assert checks.check_cli(args, corrupt), args


# -- benchmark definition and tracing -------------------------------------------


def test_benchmark_json_lists_the_run_metrics():
    import run
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_traced_counts_repeat_exactly():
    import workloads

    ops = workloads.round_sessions("cup-product", 3, 0)[0][:4]
    snapshots = []
    for _ in range(2):
        req = {"setup": workloads.setup_spec("cup-product"), "ops": ops,
               "results": os.devnull, "trace": True}
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        out = subprocess.run([sys.executable, os.path.join(BENCH, "session.py")],
                             input=json.dumps(req), capture_output=True, text=True,
                             env=env, check=True).stdout
        trace = json.loads(out)["trace"]
        snapshots.append(({k: v[0] for k, v in trace["agg"].items()}, trace["counts"], trace["distinct"]))
    assert snapshots[0] == snapshots[1]
    calls, counts, _ = snapshots[0]
    assert calls["cupcalc.cup_product"] == 4
    assert counts["cupcalc.poly_mul.term_pairs"] > 0


def test_child_peaks_exclude_the_parents_memory():
    # Linux carries a spawner's resident high-water mark into a child's
    # ru_maxrss; sessions and CLI ops must report their own peak only
    import workloads

    ballast = bytearray(100 * 1024 * 1024)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    req = {"setup": workloads.setup_spec("cup-product"), "ops": [],
           "results": os.devnull, "trace": False}
    out = subprocess.run([sys.executable, os.path.join(BENCH, "session.py")],
                         input=json.dumps(req), capture_output=True, text=True,
                         env=env, check=True).stdout
    assert json.loads(out)["rss_kb"] < 60 * 1024
    spawn = {"cmd": [sys.executable, "-c", "pass"], "stdout": os.devnull, "stderr": os.devnull}
    out = subprocess.run([sys.executable, os.path.join(BENCH, "spawn.py")],
                         input=json.dumps(spawn) + "\n", capture_output=True, text=True,
                         env=env, check=True).stdout
    rep = json.loads(out)
    assert rep["code"] == 0 and rep["rss_kb"] < 60 * 1024
    del ballast


def test_traced_cli_run_reports_every_layer():
    import run

    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cli-oneshot",
                          "--seed", "1", "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, check=True, cwd=ROOT).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 12
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.PER_LAYER
    assert result["metrics"]["cli.import_ms"]["value"] > 0
    assert result["metrics"]["verify.run_suites.ms"]["value"] > 0
