import functools
from types import SimpleNamespace

import pytest

from bkcalc import (
    CohomClass,
    Decomposition,
    GroupType,
    OracleBudget,
    classify,
    cup_coefficient,
    weyl_dim,
    weyl_group,
)
from bkcalc import bkring, verify


@pytest.fixture(scope="module")
def a2():
    return weyl_group(GroupType.parse("A2"))


def test_equivalence_counts_overflow_as_inconclusive(a2, monkeypatch):
    tight = functools.partial(classify, budget=OracleBudget(dim_cap=30))
    monkeypatch.setattr(verify, "classify", tight)
    r = verify.suite_equivalence(a2, weight_bound=1, K=3)
    assert r.passed and r.checked == 64
    assert "inconclusive (oracle budget)" in r.detail


def test_equivalence_detail_unchanged_without_overflow(a2):
    r = verify.suite_equivalence(a2, weight_bound=1, K=2)
    assert r.passed
    assert r.detail == "desk-scale equivalence holds on the bound-1 box at K=2"


def test_equivalence_overflow_still_checks_computed_dims(a2, monkeypatch):
    fake = SimpleNamespace(
        prv=True, cohomological=True, regularly_extremal=True,
        oracle_mults=[(1, 2)], oracle_overflow=True,
    )
    monkeypatch.setattr(verify, "classify", lambda *a, **kw: fake)
    r = verify.suite_equivalence(a2, weight_bound=0, K=3)
    assert not r.passed
    assert r.counterexample["dims"] == [2]


def test_g2_overflowed_tuple_is_cohomological_with_unit_dims():
    g2 = weyl_group(GroupType.parse("G2"))
    c = classify(g2, ((2, 2), (2, 2), (0, 0)), K=3)
    assert c.oracle_overflow and c.cohomological
    assert [d for _, d in c.oracle_mults] == [1, 1]


def test_oracle_counts_overflow_as_inconclusive(a2, monkeypatch):
    tight = functools.partial(verify.decompose, budget=OracleBudget(dim_cap=30))
    monkeypatch.setattr(verify, "decompose", tight)
    r = verify.suite_oracle(a2, samples=20)
    assert r.passed and r.checked == 20
    passed, _, rest = r.detail.partition(" random pairs pass all oracle identities; ")
    inconclusive = int(rest.removesuffix(" inconclusive (oracle budget)"))
    assert 0 < inconclusive < 20 and int(passed) + inconclusive == 20


def test_oracle_detail_unchanged_without_overflow(a2):
    r = verify.suite_oracle(a2, samples=20)
    assert r.passed and r.detail == "20 random pairs pass all oracle identities"


# Each suite must be able to fail: plant one defect and expect its verdict.


def test_theorem7_catches_the_support_of_the_cup_product(a2, monkeypatch):
    monkeypatch.setattr(bkring, "is_levi_movable",
                        lambda ws: cup_coefficient(*ws) != 0)
    r = verify.suite_theorem7(a2)
    assert not r.passed and r.counterexample["kind"] == "mismatch"


def test_partitions_catches_a_dropped_tuple(a2, monkeypatch):
    """Of two dropped tuples, the first in W^s product order is reported."""
    tuples = verify.enumerate_partition_tuples(a2, 3)
    kept = tuples[:3] + tuples[4:-1]  # drop the fourth and the last tuple
    monkeypatch.setattr(verify, "enumerate_partition_tuples", lambda g, s: kept)
    r = verify.suite_partitions(a2)
    assert not r.passed and r.counterexample["tuple"] == verify._words(tuples[3])


def test_ring_axioms_catch_a_non_commutative_product(a2, monkeypatch):
    monkeypatch.setattr(verify, "bk_product", lambda u, v: CohomClass.basis(u))
    r = verify.suite_ring_axioms(a2)
    assert not r.passed and r.counterexample["axiom"] == "commutativity"


def test_oracle_catches_an_asymmetric_decompose(a2, monkeypatch):
    real = verify.decompose

    def lopsided(rs, lam, mu):
        if lam <= mu:
            return real(rs, lam, mu)
        # right total dimension, all of it in the trivial module
        dim = weyl_dim(rs, lam) * weyl_dim(rs, mu)
        return Decomposition((((0,) * rs.rank, dim),))

    monkeypatch.setattr(verify, "decompose", lopsided)
    r = verify.suite_oracle(a2)
    assert not r.passed and r.counterexample["axiom"] == "symmetry"
