import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest

from bkcalc import (
    GroupType,
    NonDominantInput,
    OracleBudget,
    OracleOverflow,
    build_root_system,
    decompose,
    invariant_dim,
    stable_mult_probe,
    weight_multiplicities,
    weyl_dim,
    weyl_group,
)


@pytest.fixture(scope="module")
def a2():
    return build_root_system(GroupType.parse("A2"))


def test_weyl_dim_examples(a2):
    assert weyl_dim(a2, (0, 0)) == 1
    assert weyl_dim(a2, (1, 0)) == 3
    assert weyl_dim(a2, (1, 1)) == 8
    b3 = build_root_system(GroupType.parse("B3"))
    assert weyl_dim(b3, (1, 0, 0)) == 7
    assert weyl_dim(b3, (0, 0, 1)) == 8  # spin module


def test_weyl_dim_rejects_non_dominant(a2):
    with pytest.raises(NonDominantInput):
        weyl_dim(a2, (-1, 0))


def test_weight_multiplicities_examples(a2):
    assert weight_multiplicities(a2, (0, 0)) == {(0, 0): 1}
    fund = weight_multiplicities(a2, (1, 0))
    assert len(fund) == 3 and set(fund.values()) == {1}
    adj = weight_multiplicities(a2, (1, 1))
    assert adj[(0, 0)] == 2
    assert sum(adj.values()) == 8
    assert sorted(adj.values()) == [1, 1, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("label,lam", [
    ("A2", (2, 1)), ("B2", (1, 2)), ("G2", (1, 1)),
])
def test_weight_multiplicities_weyl_invariant(label, lam):
    g = weyl_group(GroupType.parse(label))
    mults = weight_multiplicities(g.rs, lam)
    for mu, m in mults.items():
        for w in g.elements:
            assert mults[w.act(mu)] == m
    assert sum(mults.values()) == weyl_dim(g.rs, lam)


def test_decompose_examples(a2):
    assert decompose(a2, (2, 1), (0, 0)).terms == (((2, 1), 1),)
    assert decompose(a2, (1, 0), (0, 1)).terms == (((0, 0), 1), ((1, 1), 1))
    assert decompose(a2, (1, 1), (1, 1)).terms == (
        ((0, 0), 1), ((0, 3), 1), ((1, 1), 2), ((2, 2), 1), ((3, 0), 1),
    )
    # only the smaller factor is tabulated, and so charged, in either order:
    # dim V_(3,3,3) = 262144 is over the default cap, dim V_(0,0,1) = 8
    b3 = build_root_system(GroupType.parse("B3"))
    d = decompose(b3, (3, 3, 3), (0, 0, 1))
    assert len(d.terms) == 8 and d == decompose(b3, (0, 0, 1), (3, 3, 3))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_decompose_dimension_identity_and_symmetry(label):
    rs = build_root_system(GroupType.parse(label))
    rng = random.Random(label)
    for _ in range(25):
        lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
        mu = tuple(rng.randint(0, 3) for _ in range(rs.rank))
        d = decompose(rs, lam, mu)
        assert sum(m * weyl_dim(rs, w) for w, m in d.terms) == (
            weyl_dim(rs, lam) * weyl_dim(rs, mu)
        )
        assert d == decompose(rs, mu, lam)


def test_invariant_dim_examples(a2):
    assert invariant_dim(a2, ((1, 0), (0, 1), (0, 0))) == 1
    assert invariant_dim(a2, ((1, 1), (1, 1), (1, 1))) == 2
    g = weyl_group(GroupType.parse("A2"))
    from bkcalc import weight_star

    for lam in itertools.product(range(3), repeat=2):
        assert invariant_dim(a2, (lam, weight_star(g, lam), (0, 0))) == 1


def test_invariant_dim_two_factor(a2):
    assert invariant_dim(a2, ((1, 0), (0, 1))) == 1
    assert invariant_dim(a2, ((1, 0), (1, 0))) == 0


def test_invariant_dim_permutation_symmetry(a2):
    triple = ((1, 1), (2, 0), (1, 1))
    dims = {
        invariant_dim(a2, perm) for perm in itertools.permutations(triple)
    }
    assert len(dims) == 1


def test_dual_consistency(a2):
    """Multiplicity of nu in a product equals the invariant dimension
    against nu*."""
    from bkcalc import weight_star

    g = weyl_group(GroupType.parse("A2"))
    d = decompose(a2, (2, 1), (1, 1))
    for nu, m in d.terms:
        assert invariant_dim(a2, ((2, 1), (1, 1), weight_star(g, nu))) == m


def test_stable_mult_probe_examples(a2):
    assert stable_mult_probe(a2, ((1, 0), (0, 1), (1, 1)), 3) == [
        (1, 1), (2, 1), (3, 1),
    ]
    assert stable_mult_probe(a2, ((1, 1), (1, 1), (1, 1)), 1) == [(1, 2)]
    assert stable_mult_probe(a2, ((0, 0), (0, 0), (0, 0)), 2) == [(1, 1), (2, 1)]


def test_oracle_overflow_is_typed(a2):
    tight = OracleBudget(dim_cap=5)
    with pytest.raises(OracleOverflow):
        decompose(a2, (1, 1), (1, 1), tight)
    with pytest.raises(OracleOverflow) as exc:
        stable_mult_probe(a2, ((1, 0), (0, 1), (1, 1)), 3, OracleBudget(dim_cap=4))
    # partial results carried on the error: k = 1 fits in the budget
    assert exc.value.partial == [(1, 1)]


_PLANTED = textwrap.dedent("""
    import dataclasses, sys
    from bkcalc import GroupType, cupcalc, rootsys, tensoracle, weyl_group

    assert sys.flags.optimize and not __debug__

    def expect_arithmetic_error(name, thunk):
        try:
            thunk()
        except ArithmeticError:
            print(name, "raised")
        else:
            print(name, "passed silently")

    b2 = GroupType.parse("B2")
    rs = rootsys.build_root_system(b2)
    real = rootsys._symmetrizers
    rootsys._symmetrizers = lambda t: (1,) * t.rank
    expect_arithmetic_error("cartan symmetry",
                            lambda: rootsys.build_root_system.__wrapped__(b2))
    rootsys._symmetrizers = real
    flat = dataclasses.replace(rs, symmetrizers=(1, 1))
    expect_arithmetic_error("freudenthal quotient",
                            lambda: tensoracle.weight_multiplicities(flat, (1, 0)))
    tensoracle.weyl_dim = lambda rs, lam: 6
    expect_arithmetic_error("multiplicity sum",
                            lambda: tensoracle.weight_multiplicities(rs, (0, 1)))
    a2 = weyl_group(GroupType.parse("A2"))
    calc = cupcalc.SchubertCalculus(a2)
    real = calc.representative
    # R_{w0} = |W|/2 turns the pairing of (s1, s1 s2, w0) into 1/2
    calc.representative = lambda w: {(0, 0): 3} if w is a2.w0 else real(w)
    s1, s2 = a2.simple
    expect_arithmetic_error("cup pairing",
                            lambda: calc.cup_coefficient(s1, s1 * s2, a2.w0))
""")


def test_runtime_checks_survive_python_O():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run([sys.executable, "-O", "-c", _PLANTED], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "cartan symmetry raised",
        "freudenthal quotient raised",
        "multiplicity sum raised",
        "cup pairing raised",
    ]
