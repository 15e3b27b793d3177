"""Brute-force tensor-product oracle: exact and budgeted, never approximate.

Weight multiplicities come from the Freudenthal recursion; tensor products
from the Klimyk sign-regularization over the weights of the smaller factor.
Everything is exact integer arithmetic; exceeding the size budget raises
:class:`OracleOverflow` instead of degrading.

The oracle reads only the root system: weights are checked and regularized
by :mod:`bkcalc.rootsys`, and no Weyl group element or witness enters.
"""

from __future__ import annotations

import math

from .errors import OracleOverflow
from .rootsys import RootSystem, Weight, add_weights, borel_weil_bott


class OracleBudget:
    """Cap on the dimension of each module the oracle tabulates; the oracle
    refuses, before any work, rather than approximates.  A cache key, equal
    by value.  It has no ``__slots__``, since a slot would hide the class
    default ``dim_cap`` that ``RunConfig`` reads."""

    dim_cap = 10**5

    def __init__(self, dim_cap: int = dim_cap):
        self.dim_cap = dim_cap

    def __eq__(self, other):
        if type(other) is not OracleBudget:
            return NotImplemented
        return self.dim_cap == other.dim_cap

    def __hash__(self):
        return hash(self.dim_cap)


DEFAULT_BUDGET = OracleBudget()


class Decomposition:
    """Multiset of highest weights of an (iterated) tensor product."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Weight, int], ...]):
        self.terms = terms  # sorted lexicographically by weight

    def __eq__(self, other):
        if type(other) is not Decomposition:
            return NotImplemented
        return self.terms == other.terms


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the irreducible module, by the Weyl formula."""
    rs.check_dominant(lam)
    # prod over alpha > 0 of (lam + rho, alpha) / (rho, alpha)
    num, den = (
        math.prod(sum(c * x for c, x in zip(cd, nu)) for cd in rs.root_pairings)
        for nu in (add_weights(lam, rs.rho), rs.rho)
    )
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl dimension of {lam} is {num}/{den}")
    return q


_freudenthal_cache: dict = {}


def weight_multiplicities(
    rs: RootSystem, lam: Weight, budget: OracleBudget = DEFAULT_BUDGET
) -> dict[Weight, int]:
    """All weights of the irreducible module with their multiplicities."""
    dim = weyl_dim(rs, lam)  # checks lam
    if dim > budget.dim_cap:
        raise OracleOverflow(
            f"dim V_{lam} = {dim} exceeds budget cap {budget.dim_cap}"
        )
    key = (rs.group_type, lam)
    if key in _freudenthal_cache:
        return _freudenthal_cache[key]

    rank = rs.rank
    # each positive root with its pairing tuple and (alpha, alpha)
    roots = [
        (alpha, cd, sum(x * a for x, a in zip(cd, alpha)))
        for alpha, cd in zip(rs.positive_roots_fw, rs.root_pairings)
    ]
    simple = roots[:rank]

    mults: dict[Weight, int] = {lam: 1}
    # each weight mu of a level carries the pairing tuple of lam - mu
    level = {lam: (0,) * rank}
    while level:
        candidates: dict[Weight, tuple[int, ...]] = {}
        for mu, k in level.items():
            for a, cd, _ in simple:
                nu = tuple(m - x for m, x in zip(mu, a))
                candidates[nu] = add_weights(k, cd)
        level = {}
        for mu in sorted(candidates):
            # |lam + rho|^2 - |mu + rho|^2 = (lam - mu, lam + mu + 2 rho)
            k = candidates[mu]
            denom = sum(ki * (li + mi + 2) for ki, li, mi in zip(k, lam, mu))
            if denom == 0:
                continue
            total = 0
            for alpha, cd, norm in roots:
                pair = sum(x * m for x, m in zip(cd, mu))
                above = mu
                while True:
                    above = tuple(m + a for m, a in zip(above, alpha))
                    m_above = mults.get(above)
                    if m_above is None:
                        # every weight of the module above mu along alpha is
                        # already computed; a miss ends the alpha-string
                        break
                    pair += norm  # (mu + j alpha, alpha) at step j
                    total += m_above * pair
            m, rem = divmod(2 * total, denom)
            if rem or m < 0:
                raise ArithmeticError(
                    f"Freudenthal multiplicity of {mu} in V_{lam} is "
                    f"{2 * total}/{denom}, not a non-negative integer"
                )
            if m > 0:
                mults[mu] = m
                level[mu] = k
    if sum(mults.values()) != dim:
        raise ArithmeticError(
            f"multiplicities of V_{lam} sum to {sum(mults.values())}, not {dim}"
        )
    _freudenthal_cache[key] = mults
    return mults


_decompose_cache: dict = {}


def decompose(
    rs: RootSystem,
    lam: Weight,
    mu: Weight,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Decomposition:
    """Exact decomposition of the tensor product of two irreducibles."""
    rs.check_dominant(lam)
    rs.check_dominant(mu)
    key = (rs.group_type, lam, mu, budget)
    if key in _decompose_cache:
        return _decompose_cache[key]
    # iterate over the weights of the smaller factor, the only module
    # tabulated and so the only one charged to the budget
    dim_lam, dim_mu = weyl_dim(rs, lam), weyl_dim(rs, mu)
    small, big = (lam, mu) if dim_lam <= dim_mu else (mu, lam)
    acc: dict[Weight, int] = {}
    for nu, m in weight_multiplicities(rs, small, budget).items():
        reg = borel_weil_bott(rs, add_weights(big, nu))
        if reg is None:
            continue
        q, top = reg
        new = acc.get(top, 0) + (-1) ** q * m
        if new:
            acc[top] = new
        else:
            acc.pop(top, None)
    if any(m < 0 for m in acc.values()):
        raise ArithmeticError(f"negative multiplicity in V_{lam} x V_{mu}")
    result = Decomposition(tuple(sorted(acc.items())))
    # dimension identity: the decomposition must account for the full space
    total = sum(m * weyl_dim(rs, w) for w, m in result.terms)
    if total != dim_lam * dim_mu:
        raise ArithmeticError(
            f"V_{lam} x V_{mu} decomposes into dimension {total}"
        )
    _decompose_cache[key] = result
    return result


def invariant_dim(
    rs: RootSystem,
    weights: tuple[Weight, ...],
    budget: OracleBudget = DEFAULT_BUDGET,
) -> int:
    """Dimension of the invariant subspace of the s-fold tensor product."""
    if len(weights) < 2:
        raise ValueError("need at least two weights")
    for w in weights:
        rs.check_dominant(w)
    # fold the first s-1 factors, then pair against the last; with two
    # factors the fold is empty and charges no budget
    current: dict[Weight, int] = {weights[0]: 1}
    for nxt in weights[1:-1]:
        acc: dict[Weight, int] = {}
        for term, mult in current.items():
            for w, m in decompose(rs, term, nxt, budget).terms:
                acc[w] = acc.get(w, 0) + mult * m
        current = acc
    target = rs.star(weights[-1])
    return current.get(target, 0)


def stable_mult_probe(
    rs: RootSystem,
    weights: tuple[Weight, ...],
    K: int,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[tuple[int, int]]:
    """Invariant dimensions of the k-scaled triple for k = 1..K.

    Raises OracleOverflow carrying the partial list if the budget runs out.
    """
    if K < 1:
        raise ValueError("scaling depth must be at least 1")
    out: list[tuple[int, int]] = []
    for k in range(1, K + 1):
        scaled = tuple(tuple(k * c for c in w) for w in weights)
        try:
            out.append((k, invariant_dim(rs, scaled, budget)))
        except OracleOverflow as exc:
            raise OracleOverflow(str(exc), partial=out) from None
    return out
