"""Seeded inputs for the four workloads.

Every workload is a sequence of rounds.  Round r of seed s is drawn from
``random.Random(f"{workload}:{s}:{r}")``, so a seed always yields the same
inputs.  A round is a list of sessions and a session a list of ops; the
in-process workloads run each session in a fresh Python process, which
starts from empty program caches.  Each round is built so that its cost does
not depend on the seed: the seed picks inputs within fixed strata.
"""

from __future__ import annotations

import itertools
import random

from refmath import ref_group

WORKLOADS = ("classify-oracle", "classify-witness", "cup-product", "cli-oneshot")

# classify-oracle: weights lie in the box [0, hi]^rank.  The smaller tensor
# factor runs once per round over a fixed set of strata, so every round builds
# the same multiplicity tables whatever the seed.  The strata are the box
# [0, small]^rank plus a few cheap weights, 45 in all: the 90th percentile of
# 3 or more rounds then falls inside the cluster of A2 (3,4), (4,3) and B2
# (4,0) ops rather than at the gap below the four costliest strata.
ORACLE_BOXES = {"A2": 5, "B2": 4}
ORACLE_SMALL = {
    "A2": (4, [(5, 0), (0, 5), (5, 1), (1, 5)]),
    "B2": (3, [(4, 0), (0, 4)]),
}
ORACLE_K = 3
ORACLE_SESSION_OPS = 10

WITNESS_GROUP = "A4"
WITNESS_ROUND_OPS = 20

CUP_GROUP = "B3"


def _box(rank: int, hi: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(hi + 1), repeat=rank))


def _oracle_round(rng: random.Random) -> list[list[dict]]:
    ops = []
    for label, hi in ORACLE_BOXES.items():
        g = ref_group(label)
        box = _box(g.rank, hi)
        dims = {(k, w): g.weyl_dim(tuple(k * c for c in w))
                for w in box for k in range(1, ORACLE_K + 1)}
        small_hi, extra = ORACLE_SMALL[label]
        for small in _box(g.rank, small_hi)[1:] + extra:
            # the oracle tabulates the factor of smaller dimension (the first
            # on a tie), so at no scaling is the partner smaller than `small`
            partner = rng.choice([
                w for w in box
                if all(dims[k, w] >= dims[k, small] for k in range(1, ORACLE_K + 1))
            ])
            third = rng.choice(box)
            ops.append({
                "kind": "classify", "group": label, "K": ORACLE_K,
                "weights": [list(small), list(partner), list(third)],
            })
    rng.shuffle(ops)
    # pack ops into sessions so that no two ops of a session probe the same
    # scaled weight: every probe then builds new multiplicity tables
    sessions: list[tuple[list[dict], set]] = []
    for op in ops:
        small = op["weights"][0]
        keys = {(op["group"], tuple(k * c for c in small)) for k in range(1, ORACLE_K + 1)}
        for sess, used in sessions:
            if len(sess) < ORACLE_SESSION_OPS and not keys & used:
                sess.append(op)
                used |= keys
                break
        else:
            sessions.append(([op], set(keys)))
    return [sess for sess, _ in sessions]


def _witness_round(rng: random.Random) -> list[list[dict]]:
    box = _box(ref_group(WITNESS_GROUP).rank, 1)
    triples = rng.sample(list(itertools.product(range(len(box)), repeat=3)), WITNESS_ROUND_OPS)
    return [[
        {"kind": "classify", "group": WITNESS_GROUP, "K": 1,
         "weights": [list(box[i]) for i in t]}
        for t in triples
    ]]


def _cup_round(rng: random.Random) -> list[list[dict]]:
    g = ref_group(CUP_GROUP)
    n = g.w0.length
    by_length: dict[int, list[str]] = {}
    for w in g.elements:
        by_length.setdefault(w.length, []).append(w.word)
    # one pair per length stratum l(u) + l(v) >= l(w0); the strata with a
    # factor of length l(w0) - 1 are the divisor products w0 s_i
    ops = [
        {"kind": "cup", "group": CUP_GROUP,
         "u": rng.choice(by_length[a]), "v": rng.choice(by_length[b])}
        for a in range(n + 1) for b in range(n + 1) if a + b >= n
    ]
    rng.shuffle(ops)
    return [ops]


def _weights_arg(ws) -> str:
    return ";".join(",".join(map(str, w)) for w in ws)


def _cli_round(rng: random.Random) -> list[list[dict]]:
    b2 = _box(2, 1)
    # zero or a fundamental weight: keeps the cold oracle work small, so the
    # op time is mostly process start, import and table set-up
    a3 = [w for w in _box(3, 1) if sum(w) <= 1]
    b3 = [w for w in _box(3, 1) if sum(w) <= 1]
    cls_b2 = [rng.choice(b2) for _ in range(3)]
    cls_a3 = [rng.choice(a3) for _ in range(3)]
    dec_b3 = [rng.choice(b3) for _ in range(2)]
    cycle = [
        ["classify", "--group", "B2", "--weights", _weights_arg(cls_b2), "--format", "json"],
        ["classify", "--group", "A3", "--weights", _weights_arg(cls_a3), "--format", "json"],
        ["bk-table", "--group", "B3", "--format", "json"],
        ["enumerate", "--group", "D4", "--s", "3", "--format", "json"],
        ["decompose", "--group", "B3", "--weights", _weights_arg(dec_b3), "--format", "json"],
        ["verify", "--group", "A2", "--suite", "theorem7"],
    ]
    return [[{"kind": "cli", "args": args} for args in cycle]]


_ROUNDS = {
    "classify-oracle": _oracle_round,
    "classify-witness": _witness_round,
    "cup-product": _cup_round,
    "cli-oneshot": _cli_round,
}


def round_sessions(workload: str, seed: int, r: int) -> list[list[dict]]:
    """The sessions of round r, each a list of op specs."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}:{r}"))


def setup_spec(workload: str) -> dict:
    """What a session builds before its first op."""
    if workload == "classify-oracle":
        return {"groups": sorted(ORACLE_BOXES), "partitions": True, "representatives": False}
    if workload == "classify-witness":
        return {"groups": [WITNESS_GROUP], "partitions": True, "representatives": False}
    if workload == "cup-product":
        return {"groups": [CUP_GROUP], "partitions": False, "representatives": True}
    raise ValueError(workload)
