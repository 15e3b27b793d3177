import itertools

import pytest

from bkcalc import (
    CohomClass,
    GroupTooLarge,
    GroupType,
    MixedRootSystems,
    bk_coefficient,
    enumerate_levi_movable_tuples,
    is_levi_movable,
    multiply,
    schubert_calculus,
    weyl_group,
)
from bkcalc import cupcalc
from bkcalc.cupcalc import SchubertCalculus, poly_degree, poly_mul


@pytest.fixture(scope="module")
def a2():
    return weyl_group(GroupType.parse("A2"))


@pytest.fixture(scope="module")
def calc(a2):
    return schubert_calculus(a2)


def test_divided_difference_basics(calc):
    assert calc.divided_difference(0, {(0, 0): 3}) == {}
    # d_i applied to alpha_i gives the constant 2
    assert calc.divided_difference(0, calc.variable(0)) == {(0, 0): 2}


def test_divided_difference_squares_to_zero(calc):
    p = calc.representative(calc.group.simple[0])
    assert calc.divided_difference(0, calc.divided_difference(0, p)) == {}
    q = poly_mul(calc.variable(0), calc.variable(0))
    assert calc.divided_difference(0, calc.divided_difference(0, q)) == {}


def test_representative_degrees(a2, calc):
    n = a2.w0.length
    for w in a2.elements:
        assert poly_degree(calc.representative(w)) == n - w.length
    # every representative is |W| times the true class, whose R_{w0} is 1
    assert calc.representative(a2.w0) == {(0, 0): a2.order()}


def test_point_class_is_root_product(a2, calc):
    # a1 * a2 * (a1 + a2) expanded, with no 1/|W| factor
    assert calc.point_class() == {(2, 1): 1, (1, 2): 1}
    assert calc.representative(a2.identity) == calc.point_class()


def test_braid_independence(a2, calc):
    """The representative is the same along both reduced words of w0."""
    p = calc.point_class()
    via_121 = p
    for i in (0, 1, 0):
        via_121 = calc.divided_difference(i, via_121)
    via_212 = p
    for i in (1, 0, 1):
        via_212 = calc.divided_difference(i, via_212)
    assert via_121 == via_212 == calc.representative(a2.w0)


def test_cup_coefficient_examples(a2, calc):
    s1, s2 = a2.simple
    w0 = a2.w0
    s12, s21 = multiply(s1, s2), multiply(s2, s1)
    for u in a2.elements:
        assert calc.cup_coefficient(w0, u, multiply(w0, u)) == 1
    assert calc.cup_coefficient(s1, s12, w0) == 1
    assert calc.cup_coefficient(s1, s21, w0) == 0
    # off-degree triples vanish
    assert calc.cup_coefficient(s1, s2, w0) == 0


def test_cup_coefficient_rejects_foreign_elements(calc):
    b2 = weyl_group(GroupType.parse("B2"))
    with pytest.raises(MixedRootSystems):
        calc.cup_coefficient(b2.identity, b2.w0, b2.simple[0])


def test_cup_product_rejects_foreign_elements(calc):
    b2 = weyl_group(GroupType.parse("B2"))
    with pytest.raises(MixedRootSystems):
        calc.cup_product(*b2.simple)


def test_cup_coefficient_symmetry(a2, calc):
    s1, s2 = a2.simple
    triple = (s1, multiply(s1, s2), a2.w0)
    values = {
        calc.cup_coefficient(*perm) for perm in itertools.permutations(triple)
    }
    assert values == {1}


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_poincare_orthonormality(label):
    """cup(u, v, w0) = 1 exactly for dual pairs of complementary length."""
    g = weyl_group(GroupType.parse(label))
    calc = schubert_calculus(g)
    for u, v in itertools.product(g.elements, repeat=2):
        if u.length + v.length != g.w0.length:
            continue
        expected = 1 if v is multiply(g.w0, u) else 0
        assert calc.cup_coefficient(u, v, g.w0) == expected


def test_cup_product_examples(a2, calc):
    s1, s2 = a2.simple
    s21 = multiply(s2, s1)
    for v in a2.elements:
        assert calc.cup_product(a2.w0, v) == CohomClass.basis(v)
    assert calc.cup_product(s1, s2).is_zero()
    prod = calc.cup_product(s2, s21)
    assert prod.coeffs.get(a2.identity) == 1


def test_cup_exceeds_bk_off_levi_locus(a2, calc):
    """The degenerated coefficient can vanish where the cup does not."""
    s12 = multiply(*a2.simple)
    s21 = multiply(*reversed(a2.simple))
    assert calc.cup_coefficient(s12, s12, s21) == 1
    assert bk_coefficient(s12, s12, s21) == 0


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_levi_movable_triples_have_cup_one(label):
    g = weyl_group(GroupType.parse(label))
    calc = schubert_calculus(g)
    for tup in enumerate_levi_movable_tuples(g, 3):
        assert is_levi_movable(tup)
        assert calc.cup_coefficient(*tup) == 1


def test_length_cap(monkeypatch):
    monkeypatch.setattr(cupcalc, "DEFAULT_LENGTH_CAP", 8)
    g = weyl_group(GroupType.parse("B3"))  # l(w0) = 9
    with pytest.raises(GroupTooLarge, match=r"l\(w0\) = 9 exceeds oracle cap 8"):
        SchubertCalculus(g)


def test_length_cap_applies_on_cache_hit(monkeypatch):
    # a refused calculus never enters the cache, so every call is refused
    monkeypatch.setattr(cupcalc, "DEFAULT_LENGTH_CAP", 8)
    monkeypatch.setattr(cupcalc, "_calc_cache", {})
    g = weyl_group(GroupType.parse("B3"))
    for _ in range(2):
        with pytest.raises(GroupTooLarge):
            schubert_calculus(g)
    assert cupcalc._calc_cache == {}


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_cup_product_matches_cup_coefficients(label):
    g = weyl_group(GroupType.parse(label))
    calc = schubert_calculus(g)
    n = g.w0.length
    for u, v in itertools.product(g.elements, repeat=2):
        expected = CohomClass.zero(g)
        for w in g.by_length(2 * n - u.length - v.length):
            expected.add_term(multiply(g.w0, w), calc.cup_coefficient(u, v, w))
        assert calc.cup_product(u, v) == expected


@pytest.mark.parametrize("bad", [{(0, 0): 3}, {(0, 0): -6}])
def test_invalid_intersection_number_raises(a2, monkeypatch, bad):
    """A planted R_{w0} of |W|/2 or -|W| makes a pairing 1/2 or -1."""
    calc = SchubertCalculus(a2)
    real = calc.representative
    monkeypatch.setattr(calc, "representative",
                        lambda w: bad if w is a2.w0 else real(w))
    s12 = multiply(*a2.simple)
    with pytest.raises(ArithmeticError):
        calc.cup_coefficient(a2.simple[0], s12, a2.w0)
    with pytest.raises(ArithmeticError):
        calc.cup_product(a2.w0, s12)


def _full_string_coefficient(calc, u, v, w):
    """Reference pairing: the constant term of d_{w0}(R_u R_v R_w) along
    the whole w0 string, over |W|^3."""
    p = poly_mul(poly_mul(calc.representative(u), calc.representative(v)),
                 calc.representative(w))
    for i in reversed(calc.group.w0.word):
        p = calc.divided_difference(i, p)
    assert poly_degree(p) == 0
    c, r = divmod(p.get((0,) * calc.rank, 0), calc.group.order() ** 3)
    assert r == 0 and c >= 0
    return c


@pytest.mark.parametrize("label,triples", [
    ("A2", 35), ("B2", 63), ("G2", 143), ("A3", 1115),
])
def test_short_chain_matches_full_string(label, triples):
    g = weyl_group(GroupType.parse(label))
    calc = schubert_calculus(g)
    n = g.w0.length
    checked = 0
    for u, v in itertools.product(g.elements, repeat=2):
        for w in g.by_length(2 * n - u.length - v.length):
            checked += 1
            assert calc.cup_coefficient(u, v, w) == \
                _full_string_coefficient(calc, u, v, w), (u, v, w)
    assert checked == triples
