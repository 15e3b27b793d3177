import pytest

from bkcalc import (
    GroupType,
    IndexOutOfRange,
    UnsupportedType,
    build_root_system,
    weight_multiplicities,
)

ALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "E6"]

EXPECTED_N_POS = {
    "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9,
    "D4": 12, "G2": 6, "F4": 24, "E6": 36,
}


def rs_of(label):
    return build_root_system(GroupType.parse(label))


@pytest.mark.parametrize("label,bad", [
    ("E7", True), ("E8", True), ("E5", True), ("A0", True),
    ("B1", True), ("D2", True), ("F3", True), ("G3", True), ("H3", True),
])
def test_rejected_types(label, bad):
    with pytest.raises(UnsupportedType):
        GroupType.parse(label)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_positive_root_count(label):
    assert rs_of(label).n_pos == EXPECTED_N_POS[label]


@pytest.mark.parametrize("label", ALL_TYPES)
def test_simple_roots_first(label):
    rs = rs_of(label)
    for i in range(rs.rank):
        assert rs.positive_roots[i] == tuple(
            int(i == j) for j in range(rs.rank)
        )
        assert rs.positive_coroots[i] == rs.positive_roots[i]


@pytest.mark.parametrize("label", ALL_TYPES)
def test_fw_coordinates_agree_with_cartan(label):
    rs = rs_of(label)
    for sr, fw in zip(rs.positive_roots, rs.positive_roots_fw):
        expected = tuple(
            sum(rs.cartan[k][j] * sr[j] for j in range(rs.rank))
            for k in range(rs.rank)
        )
        assert fw == expected


@pytest.mark.parametrize("label", ALL_TYPES)
def test_root_addition_closure(label):
    """Whenever a + b is a positive root, the fundamental-weight lookup
    finds it at the sum of the two fundamental-weight coordinates."""
    rs = rs_of(label)
    index = {r: i for i, r in enumerate(rs.positive_roots)}
    sums = 0
    for a, fa in zip(rs.positive_roots, rs.positive_roots_fw):
        for b, fb in zip(rs.positive_roots, rs.positive_roots_fw):
            k = index.get(tuple(x + y for x, y in zip(a, b)))
            if k is not None:
                sums += 1
                assert rs.fw_index[tuple(x + y for x, y in zip(fa, fb))] == k
    # every non-simple positive root is a sum of a positive root and a
    # simple root
    assert sums >= 2 * (rs.n_pos - rs.rank)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_rho_pairs_to_one_with_simple_coroots(label):
    rs = rs_of(label)
    for i in range(rs.rank):
        assert rs.pairing(rs.rho, i) == 1


def test_a1_roots():
    rs = rs_of("A1")
    assert rs.positive_roots == ((1,),)
    assert rs.positive_roots_fw == ((2,),)


def test_a2_simple_root_in_fw_coords():
    rs = rs_of("A2")
    assert rs.positive_roots_fw[0] == (2, -1)
    assert rs.positive_roots_fw[1] == (-1, 2)


def test_pairing_examples():
    rs = rs_of("A2")
    assert rs.pairing((1, 1), 0) == 1
    # highest root: its coroot is the sum of the two simple coroots
    assert rs.pairing((1, 0), 2) == 1
    assert rs.pairing((0, 0), 2) == 0


def test_pairing_index_out_of_range():
    rs = rs_of("A2")
    with pytest.raises(IndexOutOfRange):
        rs.pairing((1, 0), 3)


def test_parse_round_trip():
    t = GroupType.parse("B3")
    assert (t.series, t.rank) == ("B", 3)
    assert str(t) == "B3"


@pytest.mark.parametrize("label", ALL_TYPES)
def test_symmetrizers_symmetrize_the_cartan_matrix(label):
    rs = rs_of(label)
    d, a = rs.symmetrizers, rs.cartan
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert d[i] * a[i][j] == d[j] * a[j][i]


@pytest.mark.parametrize("label", ALL_TYPES)
def test_adjoint_module_weights(label):
    """V_theta for the highest root theta is the adjoint module: each root
    once, the zero weight rank times, nothing else."""
    rs = rs_of(label)
    theta = rs.positive_roots_fw[-1]
    expected = {(0,) * rs.rank: rs.rank}
    for alpha in rs.positive_roots_fw:
        expected[alpha] = 1
        expected[tuple(-x for x in alpha)] = 1
    assert weight_multiplicities(rs, theta) == expected
