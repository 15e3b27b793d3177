import itertools
import random

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
    weight_star,
    weyl_group,
)


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
    element of W carrying the last weight onto minus the sum of the others."""
    images = [{u: u.act(lam) for u in g.elements} for lam in weights]
    first = {}
    for w in g.elements:
        first.setdefault(images[-1][w], w)
    out = []
    for front in itertools.product(g.elements, repeat=len(weights) - 1):
        total = map(sum, zip(*(im[u] for im, u in zip(images, front))))
        w_last = first.get(tuple(-c for c in total))
        if w_last is not None:
            out.append(front + (w_last,))
    return sorted(out, key=_witness_order)


def _coh_reference(g, weights):
    """Test-only per-tuple loop: u^-1 lambda acted on every partition tuple."""
    out = []
    for tup in enumerate_partition_tuples(g, len(weights)):
        images = [g.inverse(u).act(lam) for u, lam in zip(tup, weights)]
        if all(c == 0 for c in map(sum, zip(*images))):
            out.append(tup)
    return sorted(out, key=_witness_order)


def _assert_searches_match(g, cases):
    for weights in cases:
        assert prv_witnesses(g, weights) == _prv_reference(g, weights), weights
        assert (cohomological_witnesses(g, weights)
                == _coh_reference(g, weights)), weights


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
        assert nu == weight_star(a2, tuple(
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


def test_face_sample_rank_deficient():
    """The 11 samples of this G2 face span only rank 3 < 2r, and elimination
    over them meets pivots that are not units."""
    g2 = weyl_group(GroupType.parse("G2"))
    witness = tuple(parse_word(g2, x) for x in ("2.1", "1.2.1.2", "e"))
    fs = face_sample(g2, witness, 2)
    assert len(fs.triples) == 11
    assert fs.lattice_rank == 3


def test_face_sample_invalid_witness(a2):
    s1 = a2.simple[0]
    with pytest.raises(InvalidWitness):
        face_sample(a2, (s1, s1, a2.w0), 1)


def test_classify_s4_extended_flag(a2):
    c = classify(a2, ((1, 0), (0, 1), (1, 0), (0, 1)), K=1)
    assert c.extended
    # (omega1 + omega2 pairing twice) contains an invariant vector
    assert c.oracle_mults[0][1] >= 1
