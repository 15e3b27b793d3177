import itertools
import random
from fractions import Fraction

import pytest

from bkcalc import (
    GroupType,
    InvalidWitness,
    NonDominantInput,
    OracleBudget,
    classify,
    cohomological_witnesses,
    cup_coefficient,
    enumerate_partition_tuples,
    face_sample,
    invariant_dim,
    is_levi_movable,
    multiply,
    parse_word,
    prv_witnesses,
    regularly_extremal_witnesses,
    weyl_group,
)
from bkcalc.classify import _packed_images


@pytest.fixture(scope="module")
def a2():
    return weyl_group(GroupType.parse("A2"))


def test_prv_witness_examples(a2):
    wits = prv_witnesses(a2, ((1, 0), (0, 1), (0, 0)))
    assert (a2.w0, a2.identity, a2.identity) in wits
    rho = (1, 1)
    s12 = multiply(*a2.simple)
    s21 = multiply(*reversed(a2.simple))
    assert (a2.identity, s12, s21) in prv_witnesses(a2, (rho, rho, rho))


def test_prv_witnesses_satisfy_zero_sum(a2):
    weights = ((2, 1), (1, 1), (1, 2))
    for tup in prv_witnesses(a2, weights):
        total = (0, 0)
        for u, lam in zip(tup, weights):
            total = tuple(a + b for a, b in zip(total, u.act(lam)))
        assert total == (0, 0)


def test_prv_rejects_non_dominant(a2):
    with pytest.raises(NonDominantInput):
        prv_witnesses(a2, ((1, -1), (0, 0), (0, 0)))


def test_cohomological_witness_examples(a2):
    # Cartan component: (lam, mu, (lam+mu)*) always carries (e, e, w0)
    wits = cohomological_witnesses(a2, ((1, 0), (0, 1), (1, 1)))
    assert (a2.identity, a2.identity, a2.w0) in wits
    wits2 = cohomological_witnesses(a2, ((1, 0), (0, 1), (0, 0)))
    assert (a2.w0, a2.identity, a2.identity) in wits2
    assert cohomological_witnesses(a2, ((1, 1), (1, 1), (1, 1))) == []


def test_cohomological_witnesses_partition_and_zero_sum(a2):
    weights = ((1, 0), (0, 1), (1, 1))
    for tup in cohomological_witnesses(a2, weights):
        union = 0
        total_len = 0
        for w in tup:
            union |= w.inversions
            total_len += w.length
        assert union == a2.full_mask and total_len == a2.rs.n_pos
        total = (0, 0)
        for u, lam in zip(tup, weights):
            total = tuple(
                a + b for a, b in zip(total, a2.inverse(u).act(lam))
            )
        assert total == (0, 0)


def test_regularly_extremal_examples(a2):
    wits = regularly_extremal_witnesses(a2, ((1, 0), (0, 1), (1, 1)))
    assert (a2.w0, a2.w0, a2.identity) in wits
    wits2 = regularly_extremal_witnesses(a2, ((1, 0), (0, 1), (0, 0)))
    assert (a2.identity, a2.w0, a2.w0) in wits2
    assert all(cup_coefficient(*t) == 1 for t in wits2)
    assert regularly_extremal_witnesses(a2, ((1, 1), (1, 1), (1, 1))) == []


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_cohomological_extremal_bijection(label):
    """Regularly extremal witnesses are, by definition, the Levi-movable
    triples in W^3 with sum v_i^-1 lambda_i = 0, in witness order."""
    g = weyl_group(GroupType.parse(label))
    movable = [t for t in itertools.product(g.elements, repeat=3)
               if is_levi_movable(t)]
    zero = (0,) * g.rs.rank

    def translated_sum(t, weights):
        images = [g.inverse(v).act(lam) for v, lam in zip(t, weights)]
        return tuple(map(sum, zip(*images)))

    box = list(itertools.product(range(2), repeat=g.rs.rank))
    for weights in itertools.product(box, repeat=3):
        expected = sorted(
            (t for t in movable if translated_sum(t, weights) == zero),
            key=lambda t: (sum(w.length for w in t), tuple(w.word for w in t)),
        )
        assert regularly_extremal_witnesses(g, weights) == expected


def _witness_order(t):
    return (sum(w.length for w in t), tuple(w.word for w in t))


def _prv_reference(g, weights):
    """Test-only brute force over W^(s-1): the last slot is the first
    element of W carrying the last weight onto minus the sum of the others.

    Each image weight is coded as one integer sum c_i B^i.  With
    B > 2 s max|c_i| the coordinates of a sum of s images stay below B/2,
    so two sums share a code only when they are equal, and a sum is one
    add and one lookup."""
    images = [[u.act(lam) for u in g.elements] for lam in weights]
    base = 2 * len(weights) * max(abs(c) for im in images for x in im
                                  for c in x) + 1
    codes = [[sum(c * base**i for i, c in enumerate(x)) for x in im]
             for im in images]
    first = {}
    for w, c in zip(g.elements, codes[-1]):
        first.setdefault(-c, w)
    *outer, inner = [list(zip(g.elements, c)) for c in codes[:-1]]
    out = []
    for head in itertools.product(*outer):
        prefix = tuple(u for u, _ in head)
        total = sum(c for _, c in head)
        for u, c in inner:
            w_last = first.get(total + c)
            if w_last is not None:
                out.append(prefix + (u, w_last))
    return sorted(out, key=_witness_order)


def _coh_reference(g, weights, acted):
    """Test-only per-tuple loop: u^-1 lambda acted on every partition tuple.
    ``acted`` memoizes each action per (u, lambda) across calls."""
    out = []
    for tup in enumerate_partition_tuples(g, len(weights)):
        images = []
        for u, lam in zip(tup, weights):
            if (u, lam) not in acted:
                acted[u, lam] = g.inverse(u).act(lam)
            images.append(acted[u, lam])
        if all(c == 0 for c in map(sum, zip(*images))):
            out.append(tup)
    return sorted(out, key=_witness_order)


def _assert_searches_match(g, cases):
    acted = {}
    for weights in cases:
        assert prv_witnesses(g, weights) == _prv_reference(g, weights), weights
        assert (cohomological_witnesses(g, weights)
                == _coh_reference(g, weights, acted)), weights


@pytest.mark.parametrize("label,s", [
    ("A2", 3), ("B2", 3), ("G2", 3), ("A3", 3),
    ("A2", 2), ("B2", 2), ("A2", 4), ("B2", 4),
])
def test_searches_match_brute_force_on_boxes(label, s):
    """Both witness lists equal the brute-force ones, order included, on
    every s-tuple of {0,1}^r weights."""
    g = weyl_group(GroupType.parse(label))
    box = list(itertools.product(range(2), repeat=g.rs.rank))
    _assert_searches_match(g, itertools.product(box, repeat=s))


def test_searches_match_brute_force_on_a4_witness_rounds():
    """The 60 A4 triples of rounds 0-2 of the benchmark's classify-witness
    workload at seed 1 (perfbench/workloads.py draws them the same way)."""
    g = weyl_group(GroupType.parse("A4"))
    box = list(itertools.product(range(2), repeat=4))
    cases = []
    for r in range(3):
        rng = random.Random(f"classify-witness:1:{r}")
        picks = rng.sample(list(itertools.product(range(len(box)), repeat=3)), 20)
        cases.extend(tuple(box[i] for i in t) for t in picks)
    assert len(cases) == 60
    _assert_searches_match(g, cases)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C3", "C4", "D4", "G2", "F4", "E6"])
def test_orbit_bound_is_the_largest_orbit_coordinate(label):
    """The orbit bound read from the root tables equals the largest
    |coordinate| in the table u -> u^-1 lam, on a dominant box ({0,1,2}^r
    in rank 2, {0,1}^r above) and on E6 at two fundamental weights."""
    g = weyl_group(GroupType.parse(label))
    rank = g.rs.rank
    if label == "E6":
        box = [tuple(int(i == j) for j in range(rank)) for i in (0, 1)]
    else:
        box = itertools.product(range(3 if rank <= 2 else 2), repeat=rank)
    for lam in box:
        images = g.inverse_images(lam).values()
        largest = max(abs(c) for x in images for c in x)
        assert g.rs.orbit_bound(lam) == largest, lam


@pytest.mark.parametrize("label,s", [
    ("A2", 2), ("A2", 3), ("B2", 2), ("B2", 3), ("G2", 2), ("G2", 3),
    ("A3", 2), ("B3", 2), ("C3", 2),
])
def test_packed_sums_share_a_code_only_when_equal(label, s):
    """Over every s-tuple of orbit points of {0,1}^r weights, two sums of
    packed images have one code iff they are one weight, and a sum codes
    to 0 iff it is zero.  At a base of s M, sums would merge in every case
    here but B2's; at 2 s M, one below the base, C3's (2,-1,0) and (-2,0,0)
    at s = 2 would."""
    g = weyl_group(GroupType.parse(label))
    box = list(itertools.product(range(2), repeat=g.rs.rank))
    for weights in itertools.combinations_with_replacement(box, s):
        packed = _packed_images(g, weights)
        points = [{packed[lam][u]: x for u, x in g.inverse_images(lam).items()}
                  for lam in weights]
        sums = {}
        for codes in itertools.product(*points):
            total = tuple(map(sum, zip(*(p[c] for p, c in zip(points, codes)))))
            assert sums.setdefault(sum(codes), total) == total, weights
            assert (sum(codes) == 0) == (not any(total)), weights


@pytest.mark.parametrize("label,s", [("A2", 3), ("B2", 3), ("G2", 3), ("A2", 4)])
def test_classify_lists_equal_the_separate_searches(label, s):
    """classify hands one packed table per weight to both searches; its
    lists equal those of separate calls, order included."""
    g = weyl_group(GroupType.parse(label))
    box = list(itertools.product(range(2), repeat=g.rs.rank))
    for weights in itertools.combinations_with_replacement(box, s):
        c = classify(g, weights, K=1)
        assert c.prv_witnesses == prv_witnesses(g, weights), weights
        assert c.coh_witnesses == cohomological_witnesses(g, weights), weights
        assert (c.reg_witnesses
                == regularly_extremal_witnesses(g, weights)), weights


def test_classify_cartan_component(a2):
    c = classify(a2, ((1, 0), (0, 1), (1, 1)), K=3)
    assert c.prv and c.cohomological and c.regularly_extremal
    assert c.stable_mult_one.kind == "proven_true"
    assert c.oracle_mults == [(1, 1), (2, 1), (3, 1)]


def test_classify_rho_cubed(a2):
    c = classify(a2, ((1, 1), (1, 1), (1, 1)), K=1)
    assert c.prv and not c.cohomological and not c.regularly_extremal
    assert c.stable_mult_one.kind == "refuted"
    assert (c.stable_mult_one.refuted_k, c.stable_mult_one.refuted_dim) == (1, 2)


def test_classify_zero_triple(a2):
    c = classify(a2, ((0, 0), (0, 0), (0, 0)), K=2)
    assert c.prv and c.cohomological
    assert c.stable_mult_one.kind == "proven_true"
    assert all(d == 1 for _, d in c.oracle_mults)


def test_classify_two_factor_duality(a2):
    c = classify(a2, ((2, 1), (1, 2)), K=2)
    assert c.cohomological and c.stable_mult_one.kind == "proven_true"
    c2 = classify(a2, ((2, 1), (2, 1)), K=1)
    assert not c2.cohomological
    # (2,1) tensor (2,1) has no invariant vector at any scaling
    assert c2.oracle_mults == [(1, 0)]


def test_classify_overflow_still_returns(a2):
    c = classify(a2, ((1, 1), (1, 1), (1, 1)), K=3,
                 budget=OracleBudget(dim_cap=4))
    assert c.oracle_overflow
    assert c.oracle_mults == []
    assert c.prv  # combinatorial flags unaffected


def test_face_sample_cartan_witness(a2):
    fs = face_sample(a2, (a2.identity, a2.identity, a2.w0), 1)
    assert ((1, 0), (0, 1), (1, 1)) in fs.triples
    assert fs.lattice_rank == 4  # 2r for rank 2
    for lam, mu, nu in fs.triples:
        assert nu == a2.rs.star(tuple(
            a + b for a, b in zip(lam, mu)
        ))


def test_face_sample_translated_witness(a2):
    fs = face_sample(a2, (a2.w0, a2.identity, a2.identity), 1)
    assert ((1, 1), (1, 0), (0, 1)) in fs.triples
    assert fs.lattice_rank == 4


def test_face_sample_triples_lie_in_the_cone(a2):
    fs = face_sample(a2, (a2.identity, a2.identity, a2.w0), 2)
    for triple in fs.triples:
        assert invariant_dim(a2.rs, triple) >= 1


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_face_sample_on_every_partition_witness(label):
    """Every face triple sums to zero under the witness's inverted elements,
    acted here one reflection at a time; face_sample's own check, through
    a matrix of w^-1, raises on none of them."""
    g = weyl_group(GroupType.parse(label))
    for witness in enumerate_partition_tuples(g, 3):
        for triple in face_sample(g, witness, 1).triples:
            images = [g.inverse(u).act(lam) for u, lam in zip(witness, triple)]
            assert not any(map(sum, zip(*images))), (witness, triple)


def test_face_sample_rank_deficient():
    """The 11 samples of this G2 face span only rank 3 < 2r, and elimination
    over them meets pivots that are not units."""
    g2 = weyl_group(GroupType.parse("G2"))
    witness = tuple(parse_word(g2, x) for x in ("2.1", "1.2.1.2", "e"))
    fs = face_sample(g2, witness, 2)
    assert len(fs.triples) == 11
    assert fs.lattice_rank == 3


def _rank_reference(rows):
    """Rank by Gauss-Jordan elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("label,bound,ranks", [
    ("A2", 2, {4}), ("B2", 1, {3, 4}), ("G2", 1, {2, 3, 4}),
    ("G2", 2, {3, 4}),
])
def test_face_lattice_rank_matches_rational_elimination(label, bound, ranks):
    """Every partition witness of the group: full-rank faces (rank 2r) and
    rank-deficient ones alike."""
    g = weyl_group(GroupType.parse(label))
    seen = set()
    for witness in enumerate_partition_tuples(g, 3):
        fs = face_sample(g, witness, bound)
        rows = [[c for w in t for c in w] for t in fs.triples]
        assert fs.lattice_rank == _rank_reference(rows)
        seen.add(fs.lattice_rank)
    assert seen == ranks


def test_lattice_rank_of_integer_matrices():
    """Rows of rank k in 6 columns, products of random integer factors, with
    no early stop before all 6 columns."""
    from bkcalc.classify import _lattice_rank

    rng = random.Random(7)
    for k in range(7):
        for _ in range(20):
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(9)]
            right = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(k)]
            rows = [[sum(a * right[j][c] for j, a in enumerate(r))
                     for c in range(6)] for r in left]
            triples = [((r[0], r[1]), (r[2], r[3]), (r[4], r[5])) for r in rows]
            assert _lattice_rank(triples, 6) == _rank_reference(rows)


def test_face_sample_invalid_witness(a2):
    s1 = a2.simple[0]
    with pytest.raises(InvalidWitness):
        face_sample(a2, (s1, s1, a2.w0), 1)


def test_classify_s4_extended_flag(a2):
    c = classify(a2, ((1, 0), (0, 1), (1, 0), (0, 1)), K=1)
    assert c.extended
    # (omega1 + omega2 pairing twice) contains an invariant vector
    assert c.oracle_mults[0][1] >= 1
