import functools
from types import SimpleNamespace

import pytest

from bkcalc import GroupType, OracleBudget, classify, weyl_group
from bkcalc import verify


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
    c = classify(g2, ((2, 2), (0, 0), (2, 2)), K=3)
    assert c.oracle_overflow and c.cohomological
    assert [d for _, d in c.oracle_mults] == [1, 1]
