"""Cup-product oracle on H*(G/B) via divided differences.

Schubert classes are represented by exact-rational polynomials in the simple
roots; the class of a point is the product of the positive roots divided by
|W|, and lower-codimension representatives are obtained by applying divided
difference operators along reduced words.  The pairing against the point
class is extracted by the full divided-difference string of the longest
element, which kills the invariant ideal exactly.

This module is the verifier for the inversion-set product in
:mod:`bkcalc.bkring`; the fast path never calls it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import GroupTooLarge
from .weyl import WeylElement, WeylGroup, _same_group, multiply

# polynomial in the simple-root variables: exponent tuple -> coefficient
Poly = dict[tuple[int, ...], Fraction]

DEFAULT_LENGTH_CAP = 24  # l(w0) <= 24, i.e. up to F4


def poly_add(p: Poly, q: Poly, scale: Fraction = Fraction(1)) -> Poly:
    out = dict(p)
    for e, c in q.items():
        new = out.get(e, Fraction(0)) + scale * c
        if new:
            out[e] = new
        else:
            out.pop(e, None)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            new = out.get(e, Fraction(0)) + c1 * c2
            if new:
                out[e] = new
            else:
                out.pop(e, None)
    return out


def poly_degree(p: Poly) -> int:
    return max((sum(e) for e in p), default=0)


def _require_length_cap(group: WeylGroup, length_cap: int) -> None:
    if group.w0.length > length_cap:
        raise GroupTooLarge(
            f"l(w0) = {group.w0.length} exceeds oracle cap {length_cap}"
        )


class SchubertCalculus:
    """Polynomial Schubert-class representatives for one Weyl group."""

    def __init__(self, group: WeylGroup, length_cap: int = DEFAULT_LENGTH_CAP):
        _require_length_cap(group, length_cap)
        self.group = group
        self.rank = group.rs.rank
        self.cartan = group.rs.cartan
        self._reps: dict[WeylElement, Poly] = {}
        self._zero_exp = (0,) * self.rank

    # -- elementary operations --------------------------------------------

    def variable(self, i: int) -> Poly:
        e = tuple(int(j == i) for j in range(self.rank))
        return {e: Fraction(1)}

    def reflect(self, i: int, p: Poly) -> Poly:
        """Substitute s_i: alpha_j -> alpha_j - cartan[i][j] * alpha_i."""
        out: Poly = {}
        for exp, coeff in p.items():
            term: Poly = {self._zero_exp: coeff}
            for j, e in enumerate(exp):
                if e == 0:
                    continue
                if j == i:
                    if e % 2:
                        term = {k: -c for k, c in term.items()}
                    shifted = {}
                    for k, c in term.items():
                        k2 = list(k)
                        k2[i] += e
                        shifted[tuple(k2)] = c
                    term = shifted
                else:
                    # (x_j - a x_i)^e expanded by the binomial theorem
                    a = self.cartan[i][j]
                    lin: Poly = {}
                    for k in range(e + 1):
                        ek = [0] * self.rank
                        ek[j] = e - k
                        ek[i] = k
                        lin[tuple(ek)] = Fraction(math.comb(e, k) * (-a) ** k)
                    term = poly_mul(term, lin)
            out = poly_add(out, term)
        return out

    def divided_difference(self, i: int, p: Poly) -> Poly:
        """(p - s_i p) / alpha_i; exact, degree drops by one."""
        num = poly_add(p, self.reflect(i, p), Fraction(-1))
        out: Poly = {}
        for exp, coeff in num.items():
            if exp[i] < 1:
                raise ArithmeticError("numerator not divisible by the simple root")
            e2 = list(exp)
            e2[i] -= 1
            out[tuple(e2)] = coeff
        return out

    # -- Schubert representatives -----------------------------------------

    def point_class(self) -> Poly:
        """Product of the positive roots over |W|: the class of a point."""
        rs = self.group.rs
        p: Poly = {self._zero_exp: Fraction(1, self.group.order())}
        for root in rs.positive_roots:
            lin = {
                tuple(int(j == k) for j in range(self.rank)): Fraction(c)
                for k, c in enumerate(root)
                if c
            }
            p = poly_mul(p, lin)
        return p

    def representative(self, w: WeylElement) -> Poly:
        """Polynomial representative of the (dimension-indexed) class of w.

        Built by peeling the last letter of the reduced word: the operator
        for letter i maps the representative of w*s_i (one step longer in
        codimension) down from the representative of the identity, which is
        the point class.  Braid invariance makes the result word-independent.
        """
        if w not in self._reps:
            if w.length == 0:
                rep = self.point_class()
            else:
                i = w.word[-1]
                shorter = multiply(w, self.group.simple[i])
                rep = self.divided_difference(i, self.representative(shorter))
            self._reps[w] = rep
        return self._reps[w]

    def eval_against_point(self, p: Poly) -> Fraction:
        """Coefficient of the point class in a top-degree polynomial."""
        for i in reversed(self.group.w0.word):
            p = self.divided_difference(i, p)
        if poly_degree(p) != 0:
            raise ArithmeticError(
                f"pairing with the point class left degree {poly_degree(p)}"
            )
        return p.get(self._zero_exp, Fraction(0))

    # -- cup products ------------------------------------------------------

    def _pairing(self, uv: Poly, w: WeylElement) -> int:
        """Intersection number of a product of two classes with sigma_w."""
        val = self.eval_against_point(poly_mul(uv, self.representative(w)))
        if val.denominator != 1 or val < 0:
            raise ArithmeticError(
                f"intersection number {val} is not a non-negative integer"
            )
        return int(val)

    def cup_coefficient(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """Triple intersection number of the three Schubert classes."""
        _same_group(u, v, w)
        n = self.group.w0.length
        if u.length + v.length + w.length != 2 * n:
            return 0
        return self._pairing(
            poly_mul(self.representative(u), self.representative(v)), w
        )

    def cup_product(self, u: WeylElement, v: WeylElement):
        """sigma_u . sigma_v expanded in the Schubert basis."""
        from .bkring import CohomClass

        group = _same_group(u, v)
        out = CohomClass.zero(group)
        target = 2 * group.w0.length - u.length - v.length
        uv = poly_mul(self.representative(u), self.representative(v))
        for w in group.by_length(target):
            c = self._pairing(uv, w)
            if c:
                out.add_term(multiply(group.w0, w), c)
        return out


_calc_cache: dict = {}


def schubert_calculus(
    group: WeylGroup, length_cap: int = DEFAULT_LENGTH_CAP
) -> SchubertCalculus:
    _require_length_cap(group, length_cap)  # on cache hits too
    key = group.rs.group_type
    if key not in _calc_cache:
        _calc_cache[key] = SchubertCalculus(group, length_cap)
    return _calc_cache[key]


def schubert_representative(group: WeylGroup, w: WeylElement) -> Poly:
    return schubert_calculus(group).representative(w)


def cup_coefficient(u: WeylElement, v: WeylElement, w: WeylElement) -> int:
    return schubert_calculus(u.group).cup_coefficient(u, v, w)


def cup_product(u: WeylElement, v: WeylElement):
    return schubert_calculus(u.group).cup_product(u, v)
