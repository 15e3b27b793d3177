"""Exhaustive verification sweeps exposed through the CLI.

Each suite returns a :class:`SuiteResult`; a failure carries a serializable
counterexample.  The sweeps pit the inversion-set product against the
polynomial cup oracle and the classifier against the tensor oracle, so the
two routes of every dual check stay independent.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .bkring import (
    CohomClass,
    bk_coefficient,
    bk_product,
    enumerate_levi_movable_tuples,
    enumerate_partition_tuples,
)
from .classify import (
    DEFAULT_SCALING_DEPTH,
    DEFAULT_WEIGHT_BOUND,
    classify,
    prv_witnesses,
)
from .cupcalc import schubert_calculus
from .errors import GroupTooLarge, OracleOverflow
from .rootsys import add_weights, neg_weight
from .tensoracle import decompose, invariant_dim, weyl_dim
from .weyl import WeylGroup, format_word, multiply

# tuples of W^s the brute-force filter of the partitions suite may scan: D4
# at s = 3 (192^3, about 7.1 M) runs, B4 and C4 (384^3) are refused
PARTITION_SWEEP_CAP = 10**7


class SuiteResult:
    """The verdict of one suite.  ``passed`` is False iff a counterexample
    was found; ``inconclusive`` counts the checked cases that the oracle
    budget left undecided, which are neither a pass nor a counterexample."""

    __slots__ = ("name", "passed", "checked", "detail", "counterexample",
                 "inconclusive")

    def __init__(
        self,
        name: str,
        passed: bool,
        checked: int,
        detail: str = "",
        counterexample: dict | None = None,
        inconclusive: int = 0,
    ):
        self.name = name
        self.passed = passed
        self.checked = checked
        self.detail = detail
        self.counterexample = counterexample
        self.inconclusive = inconclusive

    @property
    def status(self) -> str:
        """The verdict word: FAIL on a counterexample, else inconclusive
        when no case was decided, else pass.  So a suite that checked
        nothing does not pass, and one conclusive case is enough."""
        if not self.passed:
            return "FAIL"
        return "inconclusive" if self.inconclusive == self.checked else "pass"


def _words(tup) -> list[str]:
    return [format_word(w) for w in tup]


def _levi_movable_cups(group: WeylGroup) -> dict:
    """Cup coefficient of every enumerated Levi-movable triple."""
    calc = schubert_calculus(group)
    return {tup: calc.cup_coefficient(*tup)
            for tup in enumerate_levi_movable_tuples(group, 3)}


def suite_theorem3(group: WeylGroup) -> SuiteResult:
    """Every Levi-movable triple has cup coefficient exactly 1."""
    cups = _levi_movable_cups(group)
    for tup, c in cups.items():
        if c != 1:
            return SuiteResult("theorem3", False, len(cups), counterexample={
                "triple": _words(tup), "cup": c})
    return SuiteResult(
        "theorem3", True, len(cups),
        f"{len(cups)} Levi-movable triples, all cup coefficients equal 1",
    )


def suite_theorem7(group: WeylGroup) -> SuiteResult:
    """Inversion-set coefficients agree with the cup oracle on the
    Levi-movable locus and vanish off it.

    Off the enumerated triples the reference is the Belkale-Kumar criterion
    for P = B: the degenerated coefficient of (u, v, w) is the cup
    coefficient times [u^-1 rho + v^-1 rho + w^-1 rho = -rho].
    """
    cups = _levi_movable_cups(group)
    checked = 0
    for tup, c in cups.items():
        checked += 1
        if bk_coefficient(*tup) != 1 or c != 1:
            return SuiteResult("theorem7", False, checked, counterexample={
                "triple": _words(tup), "kind": "levi-movable"})
    cup = schubert_calculus(group).cup_coefficient
    rho = group.rs.rho
    minus_rho = neg_weight(rho)
    shift = group.inverse_images(rho)
    n = group.w0.length
    ones = 0
    for u, v in itertools.product(group.elements, repeat=2):
        for w in group.by_length(2 * n - u.length - v.length):
            checked += 1
            tup = (u, v, w)
            expected = 0
            if add_weights(add_weights(shift[u], shift[v]), shift[w]) == minus_rho:
                expected = cups[tup] if tup in cups else cup(*tup)
            bk = bk_coefficient(*tup)
            ones += bk
            if bk != expected:
                return SuiteResult("theorem7", False, checked, counterexample={
                    "triple": _words(tup), "kind": "mismatch"})
    # every triple with coefficient 1 has total length 2 l(w0), so equal
    # counts make the enumerated triples exactly that locus
    if ones != len(cups):
        return SuiteResult("theorem7", False, checked, counterexample={
            "kind": "locus", "bk_ones": ones, "enumerated": len(cups)})
    return SuiteResult(
        "theorem7", True, checked,
        "degenerated coefficients are 1 on the Levi-movable locus, 0 off it",
    )


def suite_ring_axioms(group: WeylGroup) -> SuiteResult:
    """Commutativity, associativity and Poincare duality of the product."""
    els = group.elements
    w0 = group.w0
    checked = 0
    for u, v in itertools.combinations(els, 2):
        checked += 1
        if bk_product(u, v) != bk_product(v, u):
            return SuiteResult(
                "ring-axioms", False, checked,
                counterexample={"pair": _words((u, v)), "axiom": "commutativity"},
            )
    for u, v, w in itertools.product(els, repeat=3):
        checked += 1
        left = _product_class(bk_product(u, v), w)
        right = _product_class(bk_product(v, w), u)
        if left != right:
            return SuiteResult(
                "ring-axioms", False, checked,
                counterexample={"triple": _words((u, v, w)), "axiom": "associativity"},
            )
    for u, v in itertools.product(els, repeat=2):
        checked += 1
        expected = 1 if v == multiply(w0, u) else 0
        if bk_coefficient(u, v, w0) != expected:
            return SuiteResult(
                "ring-axioms", False, checked,
                counterexample={"pair": _words((u, v)), "axiom": "duality"},
            )
    return SuiteResult("ring-axioms", True, checked,
                       "commutative, associative, Poincare duality holds")


def _product_class(cls, w):
    """Multiply a Schubert-basis class by one more basis element."""
    out = CohomClass.zero(cls.group)
    for x, c in cls.coeffs.items():
        term = bk_product(x, w)
        for y, d in term.coeffs.items():
            out.add_term(y, c * d)
    return out


def suite_partitions(group: WeylGroup, s: int = 3) -> SuiteResult:
    """Pruned partition enumeration equals the brute-force filter over W^s.

    A W^s of more than ``PARTITION_SWEEP_CAP`` tuples is refused before
    either enumeration starts."""
    size = len(group.elements) ** s
    if size > PARTITION_SWEEP_CAP:
        raise GroupTooLarge(f"partitions sweep of {size} tuples exceeds cap "
                            f"{PARTITION_SWEEP_CAP}")
    fast = set(enumerate_partition_tuples(group, s))
    full = group.full_mask
    brute = set()
    for tup in itertools.product(group.elements, repeat=s):
        masks = [w.inversions for w in tup]
        if (
            sum(m.bit_count() for m in masks) == group.rs.n_pos
            and functools.reduce(operator.or_, masks) == full
        ):
            brute.add(tup)
    if fast != brute:
        # the first differing tuple in W^s product order, which is the
        # lexicographic order of (length, word) slot by slot
        sample = min(brute ^ fast,
                     key=lambda t: [(w.length, w.word) for w in t])
        return SuiteResult(
            "partitions", False, len(brute),
            counterexample={"tuple": _words(sample)},
        )
    return SuiteResult(
        "partitions", True, len(brute),
        f"{len(brute)} ordered {s}-part inversion-set partitions",
    )


def _dominant_triples(rank: int, bound: int):
    """Every triple of dominant weights with coordinates at most ``bound``."""
    box = list(itertools.product(range(bound + 1), repeat=rank))
    return itertools.product(box, repeat=3)


def suite_equivalence(
    group: WeylGroup,
    weight_bound: int = DEFAULT_WEIGHT_BOUND,
    K: int = DEFAULT_SCALING_DEPTH,
) -> SuiteResult:
    """Cohomological == (PRV and all probed invariant dimensions are 1).

    A refuted stable multiplicity on a cohomological tuple is a hard
    failure; the sweep is over the full dominant box.
    """
    rank = group.rs.rank
    checked = 0
    inconclusive = 0
    for lam, mu, nu in _dominant_triples(rank, weight_bound):
        checked += 1
        c = classify(group, (lam, mu, nu), K=K)
        dims = [d for _, d in c.oracle_mults]
        unit = all(d == 1 for d in dims)
        if c.oracle_overflow:
            # the budget ran out before depth K: only the computed
            # dims can be checked, and only in one direction
            inconclusive += 1
            ok = unit or not c.cohomological
        else:
            ok = c.cohomological == (c.prv and unit)
        if not ok:
            return SuiteResult(
                "equivalence", False, checked,
                counterexample={
                    "weights": [list(lam), list(mu), list(nu)],
                    "cohomological": c.cohomological,
                    "prv": c.prv,
                    "dims": dims,
                },
            )
    detail = (f"desk-scale equivalence holds on the bound-{weight_bound} box"
              f" at K={K}")
    if inconclusive:
        detail += f"; {inconclusive} inconclusive (oracle budget)"
    return SuiteResult("equivalence", True, checked, detail,
                       inconclusive=inconclusive)


def suite_prv_bound(
    group: WeylGroup, weight_bound: int = DEFAULT_WEIGHT_BOUND
) -> SuiteResult:
    """Any tuple with a PRV witness has at least one invariant vector."""
    rank = group.rs.rank
    rs = group.rs
    checked = 0
    for lam, mu, nu in _dominant_triples(rank, weight_bound):
        if not prv_witnesses(group, (lam, mu, nu)):
            continue
        checked += 1
        if invariant_dim(rs, (lam, mu, nu)) < 1:
            return SuiteResult(
                "prv-bound", False, checked,
                counterexample={"weights": [list(lam), list(mu), list(nu)]},
            )
    return SuiteResult(
        "prv-bound", True, checked,
        f"{checked} PRV tuples all have an invariant vector",
    )


def suite_oracle(group: WeylGroup, samples: int = 100, seed: int = 0) -> SuiteResult:
    """Internal consistency of the tensor oracle on random dominant pairs.

    A pair whose products exceed the oracle budget is inconclusive: it is
    neither a pass nor a counterexample.
    """
    import random

    rng = random.Random(seed)
    rs = group.rs
    rank = rs.rank
    checked = 0
    inconclusive = 0
    for _ in range(samples):
        lam = tuple(rng.randint(0, 3) for _ in range(rank))
        mu = tuple(rng.randint(0, 3) for _ in range(rank))
        checked += 1
        try:
            d = decompose(rs, lam, mu)
            total = sum(m * weyl_dim(rs, w) for w, m in d.terms)
            if total != weyl_dim(rs, lam) * weyl_dim(rs, mu):
                return SuiteResult(
                    "oracle", False, checked,
                    counterexample={"pair": [list(lam), list(mu)],
                                    "axiom": "dimension"},
                )
            if d != decompose(rs, mu, lam):
                return SuiteResult(
                    "oracle", False, checked,
                    counterexample={"pair": [list(lam), list(mu)],
                                    "axiom": "symmetry"},
                )
            nu = d.terms[rng.randrange(len(d.terms))][0]
            dims = {
                invariant_dim(rs, perm)
                for perm in itertools.permutations((lam, mu, nu))
            }
        except OracleOverflow:
            inconclusive += 1
            continue
        if len(dims) != 1:
            return SuiteResult(
                "oracle", False, checked,
                counterexample={
                    "weights": [list(lam), list(mu), list(nu)],
                    "axiom": "permutation symmetry",
                },
            )
    detail = f"{checked - inconclusive} random pairs pass all oracle identities"
    if inconclusive:
        detail += f"; {inconclusive} inconclusive (oracle budget)"
    return SuiteResult("oracle", True, checked, detail,
                       inconclusive=inconclusive)


SUITES = {
    "theorem3": suite_theorem3,
    "theorem7": suite_theorem7,
    "ring-axioms": suite_ring_axioms,
    "partitions": suite_partitions,
    "equivalence": suite_equivalence,
    "prv-bound": suite_prv_bound,
    "oracle": suite_oracle,
}

# heavy sweeps excluded from "all" above rank 2
_RANK2_ONLY = {"equivalence", "prv-bound"}


def run_suites(
    group: WeylGroup,
    names: list[str],
    weight_bound: int = DEFAULT_WEIGHT_BOUND,
    K: int = DEFAULT_SCALING_DEPTH,
) -> list[SuiteResult]:
    """Run the named suites; ``weight_bound`` and ``K`` go to the sweeps
    over dominant weight boxes."""
    if weight_bound < 0:
        raise ValueError("weight bound must be non-negative")
    if K < 1:
        raise ValueError("scaling depth must be at least 1")
    params = {"equivalence": {"weight_bound": weight_bound, "K": K},
              "prv-bound": {"weight_bound": weight_bound}}
    selected = []
    for name in names:
        if name == "all":
            selected += [n for n in SUITES
                         if n not in _RANK2_ONLY or group.rs.rank <= 2]
        elif name in SUITES:
            selected.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{sorted(SUITES)} or 'all'")
    return [SUITES[n](group, **params.get(n, {})) for n in selected]
