"""Correctness checks of bkcalc outputs against refmath.py.

Each check returns a list of problems; an empty list means the output is
correct.  The checks compare with the benchmark's own computations and with
properties every correct answer has, never with saved program output.
"""

from __future__ import annotations

import json
from functools import lru_cache

import refmath
from refmath import RefGroup, ref_group


def _zero(x) -> bool:
    return not any(x)


def _sum(vectors):
    out = None
    for v in vectors:
        out = list(v) if out is None else [a + b for a, b in zip(out, v)]
    return out


def check_classify(label: str, weights, K: int, rec: dict) -> list[str]:
    """One classification: witnesses, flags and probed invariant dimensions."""
    g = ref_group(label)
    weights = [tuple(w) for w in weights]
    bad = []
    full = (1 << g.n_pos) - 1

    prv = [[g.element(x) for x in t] for t in rec["prv"]]
    coh = [[g.element(x) for x in t] for t in rec["coh"]]
    reg = [[g.element(x) for x in t] for t in rec["reg"]]
    for t in prv:
        if not _zero(_sum(u.act(lam) for u, lam in zip(t, weights))):
            bad.append(f"PRV witness {[u.word for u in t]}: sum u_i(lam_i) != 0")
    for t in coh:
        masks = [u.inversions for u in t]
        union = 0
        for m in masks:
            union |= m
        if union != full or sum(bin(m).count("1") for m in masks) != g.n_pos:
            bad.append(f"cohomological witness {[u.word for u in t]}: inversion sets do not partition Phi+")
        if not _zero(_sum(u.inverse().act(lam) for u, lam in zip(t, weights))):
            bad.append(f"cohomological witness {[u.word for u in t]}: sum u_i^-1(lam_i) != 0")
    coh_w0 = sorted(tuple(u.times(g.w0).key for u in t) for t in coh)
    if sorted(tuple(u.key for u in t) for t in reg) != coh_w0:
        bad.append("regularly extremal witnesses are not the cohomological ones times w0")
    if list(rec["flags"]) != [bool(prv), bool(coh), bool(reg)]:
        bad.append(f"flags {rec['flags']} do not match the witness lists")

    if rec["overflow"]:
        bad.append("oracle overflow")
    mults = [tuple(km) for km in rec["mults"]]
    if [k for k, _ in mults] != list(range(1, K + 1)):
        bad.append(f"probed scalings {[k for k, _ in mults]} != 1..{K}")
        return bad
    d = {k: dim for k, dim in mults}
    if any(dim < 0 for dim in d.values()):
        bad.append("negative invariant dimension")
    if prv and d[1] < 1:
        bad.append("PRV tuple with d_1 = 0")
    # invariants multiply: d_a >= 1 and d_b >= 1 give d_{a+b} >= 1
    for a in d:
        for b in d:
            if a + b in d and d[a] >= 1 and d[b] >= 1 and d[a + b] < 1:
                bad.append(f"d_{a} >= 1 and d_{b} >= 1 but d_{a + b} = 0")
    if coh and any(dim != 1 for dim in d.values()):
        bad.append(f"cohomological tuple with dimensions {d}")
    if label.startswith("A"):
        for k, dim in d.items():
            lr = refmath.type_a_invariant_dim([tuple(k * c for c in w) for w in weights])
            if dim != lr:
                bad.append(f"d_{k} = {dim}, Littlewood-Richardson count {lr}")
    expected = (
        "proven_true" if coh
        else "refuted" if any(dim != 1 for dim in d.values())
        else "unknown"
    )
    if rec["stable"] != expected:
        bad.append(f"stable status {rec['stable']!r}, expected {expected!r}")
    return bad


@lru_cache(maxsize=None)
def _by_inversions(label: str) -> dict:
    return {w.inversions: w for w in ref_group(label).elements}


def _divisor_index(g: RefGroup, v) -> int | None:
    """i with v = w0 s_i, if v is a divisor class."""
    if v.length != g.w0.length - 1:
        return None
    s = g.w0.times(v)  # w0 w0 s_i = s_i
    return s.letters[0]


def check_cup(label: str, u_word: str, v_word: str, rec: dict) -> list[str]:
    """sigma_u . sigma_v in dimension-indexed Schubert classes."""
    g = ref_group(label)
    n = g.w0.length
    u, v = g.from_key(g.element(u_word).key), g.from_key(g.element(v_word).key)
    terms = rec["terms"]
    bad = []
    for x, c in terms.items():
        if g.element(x).length != u.length + v.length - n or not (isinstance(c, int) and c > 0):
            bad.append(f"term {c}*s[{x}] has the wrong degree or coefficient")
    canon = {g.from_key(g.element(x).key).word: c for x, c in terms.items()}
    expected = None
    if v.key == g.w0.key:
        expected = {u.word: 1}
    elif u.key == g.w0.key:
        expected = {v.word: 1}
    elif u.length + v.length == n:
        expected = {"e": 1} if v.key == g.w0.times(u).key else {}
    else:
        for a, b in ((u, v), (v, u)):
            i = _divisor_index(g, b)
            if i is not None:
                expected = refmath.chevalley(g, i, a)
                break
    if expected is not None and canon != expected:
        bad.append(f"product {canon} != expected {expected}")
    # Levi-movable: Phi_u and Phi_v cover Phi+ and the complement of their
    # intersection is an inversion set
    full = (1 << g.n_pos) - 1
    if u.inversions | v.inversions == full:
        w = _by_inversions(label).get(full ^ (u.inversions & v.inversions))
        if w is not None and canon.get(g.w0.times(w).word) != 1:
            bad.append(f"Levi-movable term s[{g.w0.times(w).word}] has coefficient != 1")
    return bad


# -- CLI outputs -------------------------------------------------------------


@lru_cache(maxsize=None)
def _bk_table(label):
    return refmath.bk_table_digest(ref_group(label))


@lru_cache(maxsize=None)
def _partition_count(label, s):
    return refmath.partition_tuple_count(ref_group(label), s)


@lru_cache(maxsize=None)
def _theorem7(label):
    return refmath.theorem7_checked(ref_group(label))


def _opt(args, name):
    return args[args.index(name) + 1]


def _weights(text):
    return [tuple(int(c) for c in part.split(",")) for part in text.split(";")]


def check_cli(args: list[str], stdout: str) -> list[str]:
    cmd = args[0]
    label = _opt(args, "--group")
    if cmd == "verify":
        lines = stdout.splitlines()
        suite = _opt(args, "--suite")
        want = f"[pass] {suite}: checked={_theorem7(label)} "
        return [] if len(lines) == 1 and lines[0].startswith(want) else [f"verify printed {stdout!r}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"{cmd}: output is not JSON"]
    if cmd == "classify":
        w = payload["witnesses"]
        rec = {
            "flags": [payload["prv"], payload["cohomological"], payload["regularly_extremal"]],
            "prv": w["prv"], "coh": w["cohomological"], "reg": w["regularly_extremal"],
            "mults": payload["oracle_mults"], "overflow": payload["oracle_overflow"],
            "stable": payload["stable_mult_one"]["status"],
        }
        return check_classify(label, _weights(_opt(args, "--weights")), 3, rec)
    if cmd == "bk-table":
        rows, nonzero, digest = _bk_table(label)
        got = (payload["row_count"], payload["nonzero_count"], payload["digest"])
        return [] if got == (rows, nonzero, digest) else [f"bk-table {got} != {(rows, nonzero, digest)}"]
    if cmd == "enumerate":
        g = ref_group(label)
        s = int(_opt(args, "--s"))
        full = (1 << g.n_pos) - 1
        bad = []
        if payload["count"] != _partition_count(label, s) or len(payload["tuples"]) != payload["count"]:
            bad.append(f"enumerate count {payload['count']} != {_partition_count(label, s)}")
        seen = set()
        for t in payload["tuples"]:
            masks = [g.element(x).inversions for x in t]
            union = 0
            for m in masks:
                union |= m
            keys = tuple(g.element(x).key for x in t)
            if union != full or sum(bin(m).count("1") for m in masks) != g.n_pos or keys in seen:
                bad.append(f"tuple {t} is not a new partition of Phi+")
                break
            seen.add(keys)
        return bad
    if cmd == "decompose":
        g = ref_group(label)
        lam, mu = _weights(_opt(args, "--weights"))
        terms = payload["terms"]
        total = sum(t["multiplicity"] * g.weyl_dim(tuple(t["weight"])) for t in terms)
        if any(t["multiplicity"] <= 0 for t in terms) or total != g.weyl_dim(lam) * g.weyl_dim(mu):
            return [f"decompose {lam} x {mu}: sum m*dim = {total}"]
        return []
    return [f"unknown command {cmd}"]
