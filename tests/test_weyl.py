import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkcalc import (
    GroupTooLarge,
    GroupType,
    MixedRootSystems,
    RankMismatch,
    borel_weil_bott,
    build_root_system,
    format_word,
    multiply,
    parse_word,
    weyl_group,
)
from bkcalc.weyl import WeylGroup, _group_cache, weyl_order

ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12, "D4": 192,
    "D5": 1920, "F4": 1152, "E6": 51840,
}


@pytest.fixture(scope="module")
def a2():
    return weyl_group(GroupType.parse("A2"))


@pytest.mark.parametrize("label,order", sorted(ORDERS.items()))
def test_group_orders(label, order):
    g = weyl_group(GroupType.parse(label))
    assert g.order() == order
    assert weyl_order(g.rs) == order  # the height formula, before enumeration


def test_identity_first_and_w0_last(a2):
    assert a2.elements[0] is a2.identity
    assert a2.identity.length == 0
    assert a2.w0.inversions == a2.full_mask
    assert a2.w0.length == 3


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_length_equals_inversion_count(label):
    g = weyl_group(GroupType.parse(label))
    for w in g.elements:
        assert w.inversions.bit_count() == w.length
        assert len(w.word) == w.length


def _matrix(w):
    """Test-only: the matrix of w on fundamental-weight coordinates, read
    column by column from ``w.act`` on the unit vectors."""
    n = w.group.rs.rank
    cols = [w.act(tuple(int(i == j) for i in range(n))) for j in range(n)]
    return tuple(tuple(col[k] for col in cols) for k in range(n))


def _matmul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
        for row in a
    )


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_determinant_sign(label):
    g = weyl_group(GroupType.parse(label))
    for w in g.elements:
        assert _det(_matrix(w)) == (-1) ** w.length


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "D4"])
def test_cayley_graph_agrees_with_matrices(label):
    """Products and inverses walked along the right Cayley graph agree with
    the matrices of the action, and the matrices tell the elements apart."""
    g = weyl_group(GroupType.parse(label))
    mat = {w: _matrix(w) for w in g.elements}
    ident = _matrix(g.identity)
    assert ident == tuple(tuple(int(i == j) for j in range(g.rs.rank))
                          for i in range(g.rs.rank))
    assert len(set(mat.values())) == g.order()
    for u in g.elements:
        assert _matmul(mat[u], mat[g.inverse(u)]) == ident
        for v in g.elements:
            assert mat[multiply(u, v)] == _matmul(mat[u], mat[v])


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_action_permutes_signed_roots(label):
    g = weyl_group(GroupType.parse(label))
    rs = g.rs
    signed = set(rs.positive_roots_fw) | {
        tuple(-c for c in fw) for fw in rs.positive_roots_fw
    }
    for w in g.elements:
        assert {w.act(fw) for fw in signed} == signed


def test_inversion_examples(a2):
    s1, s2 = a2.simple
    assert a2.identity.inversions == 0
    s12 = multiply(s1, s2)
    # s1 s2 inverts alpha_2 and alpha_1 + alpha_2 (indices 1 and 2)
    assert s12.inversions == 0b110
    assert s12.length == 2


def test_multiply_and_inverse(a2):
    s1, s2 = a2.simple
    assert multiply(a2.w0, a2.w0) is a2.identity
    assert a2.inverse(multiply(s1, s2)) is multiply(s2, s1)
    assert format_word(a2.w0) == "1.2.1"


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "D4"])
def test_inverse_reverses_the_word(label):
    """The inverse table built during enumeration agrees with the product
    of the simple reflections of the reversed word."""
    g = weyl_group(GroupType.parse(label))
    for w in g.elements:
        expected = g.identity
        for i in reversed(w.word):
            expected = multiply(expected, g.simple[i])
        assert g.inverse(w) is expected
        assert multiply(w, g.inverse(w)) is g.identity


def test_mixed_root_systems_rejected(a2):
    b2 = weyl_group(GroupType.parse("B2"))
    with pytest.raises(MixedRootSystems):
        multiply(a2.simple[0], b2.simple[0])


def test_inverse_rejects_foreign_elements(a2):
    g2 = weyl_group(GroupType.parse("G2"))
    with pytest.raises(MixedRootSystems):
        a2.inverse(g2.w0)
    with pytest.raises(MixedRootSystems):
        a2.inverse(WeylGroup(a2.rs).w0)


def test_act_examples(a2):
    s1 = a2.simple[0]
    assert a2.identity.act((5, -2)) == (5, -2)
    assert s1.act((1, 0)) == (-1, 1)
    assert a2.w0.act((1, 0)) == (0, -1)
    with pytest.raises(RankMismatch):
        s1.act((1, 0, 0))


def test_dot_examples(a2):
    s1 = a2.simple[0]
    assert a2.identity.dot((1, 0)) == (1, 0)
    assert s1.dot((1, 0)) == (-3, 2)
    assert a2.w0.dot((0, 0)) == (-2, -2)


def test_weight_star(a2):
    assert a2.rs.star((1, 0)) == (0, 1)
    assert a2.rs.star((0, 0)) == (0, 0)
    b2 = weyl_group(GroupType.parse("B2"))
    assert b2.rs.star((3, 5)) == (3, 5)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_weight_star_involutive_and_dominant(label):
    g = weyl_group(GroupType.parse(label))
    for lam in itertools.product(range(3), repeat=g.rs.rank):
        star = g.rs.star(lam)
        assert all(c >= 0 for c in star)
        assert g.rs.star(star) == lam


def test_borel_weil_bott_examples(a2):
    rs = a2.rs
    assert borel_weil_bott(rs, (2, 5)) == (0, (2, 5))
    assert borel_weil_bott(rs, (-3, 2)) == (1, (1, 0))
    assert borel_weil_bott(rs, (-1, 1)) is None


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_borel_weil_bott_inverts_dot(label):
    g = weyl_group(GroupType.parse(label))
    for w in g.elements:
        for lam in itertools.product(range(3), repeat=g.rs.rank):
            assert borel_weil_bott(g.rs, w.dot(lam)) == (w.length, lam)


def _minus_w0_mask(g, mask):
    """Test-only oracle: the image of a root subset under the permutation
    -w0 of the positive roots."""
    rs = g.rs
    out = 0
    for i, fw in enumerate(rs.positive_roots_fw):
        if mask >> i & 1:
            out |= 1 << rs.fw_index[tuple(-c for c in g.w0.act(fw))]
    return out


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_complement_identities(label):
    """Phi_{w0 w} is the complement of Phi_w; Phi_{w w0} its -w0 image."""
    g = weyl_group(GroupType.parse(label))
    for w in g.elements:
        comp = g.full_mask ^ w.inversions
        assert multiply(g.w0, w).inversions == comp
        assert multiply(w, g.w0).inversions == _minus_w0_mask(g, comp)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_cocycle_identity(label):
    """Phi_{uv} = Phi_v | v^-1 Phi_u when lengths add."""
    g = weyl_group(GroupType.parse(label))
    rs = g.rs
    for u in g.elements:
        for v in g.elements:
            uv = multiply(u, v)
            if uv.length != u.length + v.length:
                continue
            vinv = g.inverse(v)
            translated = 0
            mask = u.inversions
            while mask:
                low = mask & -mask
                idx = low.bit_length() - 1
                img = vinv.act(rs.positive_roots_fw[idx])
                translated |= 1 << rs.fw_index[img]
                mask ^= low
            assert uv.inversions == v.inversions | translated
            assert v.inversions & translated == 0


@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(0, 5),
    st.integers(0, 5),
)
@settings(max_examples=100, deadline=None)
def test_dot_action_composes(lam, i, j):
    g = weyl_group(GroupType.parse("A2"))
    u, v = g.elements[i], g.elements[j]
    assert u.dot(v.dot(lam)) == multiply(u, v).dot(lam)


def _is_biconvex(rs, mask):
    """Test-only oracle: mask and its complement are both closed under root
    addition."""
    index = {r: i for i, r in enumerate(rs.positive_roots)}
    comp = ((1 << rs.n_pos) - 1) ^ mask
    for (i, a), (j, b) in itertools.combinations(enumerate(rs.positive_roots), 2):
        k = index.get(tuple(x + y for x, y in zip(a, b)))
        if k is None:
            continue
        for m in (mask, comp):
            if m >> i & 1 and m >> j & 1 and not m >> k & 1:
                return False
    return True


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_biconvex_iff_inversion_set(label):
    g = weyl_group(GroupType.parse(label))
    rs = g.rs
    inversion_masks = {w.inversions for w in g.elements}
    for mask in range(1 << rs.n_pos):
        assert _is_biconvex(rs, mask) == (mask in inversion_masks)
        assert (g.from_inversion_set(mask) is not None) == (
            mask in inversion_masks
        )


def test_from_inversion_set_examples(a2):
    s1, s2 = a2.simple
    assert a2.from_inversion_set(0) is a2.identity
    assert a2.from_inversion_set(0b110) is multiply(s1, s2)
    # the highest root alone: complement {a1, a2} not closed under addition
    assert a2.from_inversion_set(0b100) is None


def test_group_too_large_cap():
    rs = build_root_system(GroupType.parse("A9"))  # |W| = 10! > 10**6
    assert weyl_order(rs) == 3628800
    with pytest.raises(GroupTooLarge,
                       match="exceeds enumeration cap 1000000 for A9"):
        WeylGroup(rs)


def test_group_cap_applies_on_cache_hit(monkeypatch):
    # refused before enumeration, and never cached, so each call raises
    def no_enumeration(self):
        raise AssertionError("W was enumerated before the group cap")

    monkeypatch.setattr(WeylGroup, "_enumerate", no_enumeration)
    for _ in range(2):
        with pytest.raises(GroupTooLarge):
            weyl_group(GroupType.parse("A9"))
    assert GroupType.parse("A9") not in _group_cache


def test_word_format_round_trip(a2):
    for w in a2.elements:
        assert parse_word(a2, format_word(w)) is w
    assert format_word(a2.identity) == "e"
    assert parse_word(a2, "1.1") is a2.identity  # non-reduced input allowed


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "D4"])
def test_word_ranks_order_w_by_word(label):
    """The rank table numbers W from 0 in lex order of reduced words, and
    is built once per group."""
    g = weyl_group(GroupType.parse(label))
    ranks = g.word_ranks()
    assert sorted(ranks.values()) == list(range(g.order()))
    by_rank = sorted(g.elements, key=ranks.__getitem__)
    assert by_rank == sorted(g.elements, key=lambda w: w.word)
    assert g.word_ranks() is ranks


def test_reduced_words_are_lex_minimal(a2):
    # w0 admits both 1.2.1 and 2.1.2; the stored word is the smaller
    assert a2.w0.word == (0, 1, 0)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_weight_star_is_minus_w0_on_dominant(label):
    g = weyl_group(GroupType.parse(label))
    for lam in itertools.product(range(3), repeat=g.rs.rank):
        assert g.rs.star(lam) == tuple(-c for c in g.w0.act(lam))
