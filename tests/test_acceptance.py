"""End-to-end acceptance checks.

Each test covers one numbered criterion and records a single pass/fail
verdict line; conftest.py replays the lines in the terminal summary so they
are visible in any pytest run.
"""

import random

from bkcalc import (
    GroupType,
    cohomological_witnesses,
    invariant_dim,
    prv_witnesses,
    weyl_group,
)
from bkcalc.verify import (
    suite_equivalence,
    suite_oracle,
    suite_partitions,
    suite_prv_bound,
    suite_ring_axioms,
    suite_theorem7,
)

from conftest import record_verdict


def _report(ok, label):
    verdict = "pass" if ok else "FAIL"
    record_verdict(f"[{verdict}] {label}")
    assert ok, label


def _group(label):
    return weyl_group(GroupType.parse(label))


def _all_pass(suite, labels, **params):
    return all(suite(_group(label), **params).passed for label in labels)


def test_criterion_1_degenerate_coefficient_vs_cup():
    ok = _all_pass(suite_theorem7, ("A2", "B2", "G2", "A3", "B3", "A4", "D4"))
    _report(ok, "criterion 1: Levi-movable iff cup=1, otherwise "
                "degenerate coefficient=0 (A2,B2,G2,A3,B3,A4,D4 exhaustive)")


def test_criterion_2_cohomological_equals_prv_with_unit_dims():
    ok = True
    for label in ("A2", "B2"):
        r = suite_equivalence(_group(label), weight_bound=2, K=3)
        # the exact detail line also rules out an inconclusive (overflowed)
        # tuple, so every probed dimension was computed
        ok = ok and r.passed and r.detail == (
            "desk-scale equivalence holds on the bound-2 box at K=3")
    _report(ok, "criterion 2: cohomological = prv + unit scaled dims "
                "(A2,B2 boxes {0,1,2}, K=3)")


def test_criterion_3_partition_counts_against_brute_force():
    ok = True
    expected = {"A1": 3, "A2": 15}
    for label in ("A1", "A2", "A3", "B2", "G2"):
        r = suite_partitions(_group(label), s=3)
        ok = ok and r.passed
        if label in expected:
            ok = ok and r.checked == expected[label]
    _report(ok, "criterion 3: inversion-set partition counts match brute "
                "force (A1=3, A2=15; A3,B2,G2 oracle-equal)")


def test_criterion_4_prv_triples_lie_in_the_cone():
    ok = _all_pass(suite_prv_bound, ("A2", "B2"), weight_bound=2)
    ok = ok and _all_pass(suite_prv_bound, ("A3", "B3", "C3"), weight_bound=1)
    _report(ok, "criterion 4: every triple with a length-additive orbit "
                "witness has invariant dimension >= 1")


def test_criterion_5_ring_axioms():
    ok = _all_pass(suite_ring_axioms, ("A2", "B2", "G2"))
    _report(ok, "criterion 5: product is commutative, associative, and "
                "satisfies Poincare duality (A2,B2,G2 exhaustive)")


def test_criterion_6_tensor_oracle_self_consistency():
    ok = True
    for label in ("A2", "B2", "G2", "A3"):
        r = suite_oracle(_group(label), samples=100)
        # the exact detail line rules out an inconclusive (overflowed) pair
        ok = ok and r.passed and r.detail == (
            "100 random pairs pass all oracle identities")
    _report(ok, "criterion 6: tensor oracle dimension identity, symmetry, "
                "and permutation invariance (100 random pairs per group)")


def test_criterion_7_distinguishing_witnesses():
    g = _group("A2")
    rho = (1, 1)
    ok = bool(prv_witnesses(g, (rho, rho, rho)))
    ok = ok and invariant_dim(g.rs, (rho, rho, rho)) == 2
    ok = ok and cohomological_witnesses(g, (rho, rho, rho)) == []
    rng = random.Random("acceptance-witness")
    for _ in range(20):
        lam = tuple(rng.randint(0, 4) for _ in range(2))
        mu = tuple(rng.randint(0, 4) for _ in range(2))
        nu = g.rs.star(tuple(a + b for a, b in zip(lam, mu)))
        wits = cohomological_witnesses(g, (lam, mu, nu))
        ok = ok and (g.identity, g.identity, g.w0) in wits
    _report(ok, "criterion 7: (rho,rho,rho) is orbit-witnessed but not "
                "cohomological; Cartan components carry witness (e,e,w0)")
