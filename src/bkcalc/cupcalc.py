"""Cup-product oracle on H*(G/B) via divided differences, in integers.

Schubert classes are represented by integer polynomials in the simple
roots.  The point class is taken to be the product of the positive roots,
without the 1/|W| that would make it the true class, so every
representative is |W| times the true one; divided differences map integer
polynomials to integer polynomials, and no fraction ever arises.  Lower
codimension representatives come from divided differences along reduced
words.

A triple intersection number needs only a short chain of operators.  Write
d_w = d_{a1} o ... o d_{ak} for a reduced word a of w.  When
l(u) + l(v) + l(w) = 2 l(w0), c(u, v, w) is the constant term of
d_w(R_u R_v), divided by |W|^2 once: d_y d_x = d_{yx} when lengths add and
0 otherwise, and d is linear over the W-invariants, so their ideal leaves
no constant term (Bernstein-Gelfand-Gelfand 1973).  c is symmetric, so the
shortest element takes the w slot.

This module is the verifier for the inversion-set product in
:mod:`bkcalc.bkring`; it never consults inversion sets, and the fast path
never calls it.
"""

from __future__ import annotations

from .bkring import CohomClass
from .errors import GroupTooLarge, MixedRootSystems
from .weyl import WeylElement, WeylGroup, _same_group, multiply

# polynomial in the simple-root variables: exponent tuple -> coefficient
Poly = dict[tuple[int, ...], int]

DEFAULT_LENGTH_CAP = 24  # l(w0) <= 24, i.e. up to F4


def poly_add(p: Poly, q: Poly, scale: int = 1) -> Poly:
    out = dict(p)
    for e, c in q.items():
        new = out.get(e, 0) + scale * c
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
            new = out.get(e, 0) + c1 * c2
            if new:
                out[e] = new
            else:
                out.pop(e, None)
    return out


def poly_degree(p: Poly) -> int:
    return max((sum(e) for e in p), default=0)


class SchubertCalculus:
    """Polynomial Schubert-class representatives for one Weyl group."""

    def __init__(self, group: WeylGroup):
        if group.w0.length > DEFAULT_LENGTH_CAP:
            raise GroupTooLarge(f"l(w0) = {group.w0.length} exceeds oracle "
                                f"cap {DEFAULT_LENGTH_CAP}")
        self.group = group
        self.rank = group.rs.rank
        self.cartan = group.rs.cartan
        self._zero_exp = (0,) * self.rank
        self._powers: dict[tuple[int, int, int], Poly] = {}
        # d_x R_e keyed by x; the representative of w is d_{w^-1} R_e
        self._reps: dict[WeylElement, Poly] = {group.identity: self.point_class()}
        # a product of two representatives is |W|^2 times the true one
        self._scale = group.order() ** 2

    # -- elementary operations --------------------------------------------

    def variable(self, i: int) -> Poly:
        e = tuple(int(j == i) for j in range(self.rank))
        return {e: 1}

    def _image_power(self, i: int, j: int, e: int) -> Poly:
        """(s_i alpha_j)^e = (alpha_j - cartan[i][j] * alpha_i)^e, memoized."""
        key = (i, j, e)
        if key not in self._powers:
            lin = poly_add(self.variable(j), self.variable(i), -self.cartan[i][j])
            self._powers[key] = lin if e == 1 else poly_mul(
                lin, self._image_power(i, j, e - 1))
        return self._powers[key]

    def divided_difference(self, i: int, p: Poly) -> Poly:
        """(p - s_i p) / alpha_i; exact, degree drops by one."""
        num = dict(p)
        for exp, coeff in p.items():
            term: Poly = {self._zero_exp: -coeff}
            for j, e in enumerate(exp):
                if e:
                    term = poly_mul(term, self._image_power(i, j, e))
            for e, c in term.items():
                num[e] = num.get(e, 0) + c
        out: Poly = {}
        for exp, coeff in num.items():
            if not coeff:
                continue
            if exp[i] < 1:
                raise ArithmeticError("numerator not divisible by the simple root")
            e2 = list(exp)
            e2[i] -= 1
            out[tuple(e2)] = coeff
        return out

    def _descend(self, memo: dict[WeylElement, Poly], x: WeylElement) -> Poly:
        """d_x = d_{a1} o ... o d_{ak}, for a reduced word a of x, applied to
        memo[identity]; every operator suffix is memoized."""
        if x not in memo:
            i = x.word[0]
            rest = self._descend(memo, multiply(self.group.simple[i], x))
            memo[x] = self.divided_difference(i, rest)
        return memo[x]

    # -- Schubert representatives -----------------------------------------

    def point_class(self) -> Poly:
        """Product of the positive roots: |W| times the class of a point."""
        p: Poly = {self._zero_exp: 1}
        for root in self.group.rs.positive_roots:
            lin = {
                tuple(int(j == k) for j in range(self.rank)): c
                for k, c in enumerate(root)
                if c
            }
            p = poly_mul(p, lin)
        return p

    def representative(self, w: WeylElement) -> Poly:
        """|W| times the representative of the (dimension-indexed) class of w.

        R_w = d_{w^-1} R_e has degree l(w0) - l(w), and R_{w0} = |W|.
        Braid invariance makes the result word-independent.
        """
        return self._descend(self._reps, self.group.inverse(w))

    def eval_against_point(self, p: Poly, targets) -> dict[WeylElement, int]:
        """Intersection number with sigma_w of the class that p, a product of
        two representatives, stands for, for each w in ``targets``.

        The chains d_w share their operator suffixes through one memo.
        """
        memo = {self.group.identity: p}
        out = {}
        for w in targets:
            q = self._descend(memo, w)
            if any(e != self._zero_exp for e in q):
                raise ArithmeticError(
                    f"pairing with sigma_w left degree {poly_degree(q)}"
                )
            top = q.get(self._zero_exp, 0)
            c, r = divmod(top, self._scale)
            if r or c < 0:
                raise ArithmeticError(f"intersection number {top}/{self._scale}"
                                      " is not a non-negative integer")
            out[w] = c
        return out

    # -- cup products ------------------------------------------------------

    def _require_own_group(self, *ws: WeylElement) -> None:
        if _same_group(*ws) is not self.group:
            raise MixedRootSystems(
                f"elements do not belong to {self.group.rs.group_type}")

    def cup_coefficient(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """Triple intersection number of the three Schubert classes."""
        self._require_own_group(u, v, w)
        n = self.group.w0.length
        if u.length + v.length + w.length != 2 * n:
            return 0
        # c is symmetric: the shortest element gets the shortest chain
        u, v, w = sorted((u, v, w), key=lambda x: x.length, reverse=True)
        uv = poly_mul(self.representative(u), self.representative(v))
        return self.eval_against_point(uv, [w])[w]

    def cup_product(self, u: WeylElement, v: WeylElement) -> CohomClass:
        """sigma_u . sigma_v expanded in the Schubert basis."""
        self._require_own_group(u, v)
        group = self.group
        out = CohomClass.zero(group)
        target = 2 * group.w0.length - u.length - v.length
        uv = poly_mul(self.representative(u), self.representative(v))
        for w, c in self.eval_against_point(uv, group.by_length(target)).items():
            if c:
                out.add_term(multiply(group.w0, w), c)
        return out


_calc_cache: dict = {}


def schubert_calculus(group: WeylGroup) -> SchubertCalculus:
    """The cached calculus of ``group``; one over the length cap is refused
    when it is built, so it never enters the cache."""
    key = group.rs.group_type
    if key not in _calc_cache:
        _calc_cache[key] = SchubertCalculus(group)
    return _calc_cache[key]


def schubert_representative(group: WeylGroup, w: WeylElement) -> Poly:
    return schubert_calculus(group).representative(w)


def cup_coefficient(u: WeylElement, v: WeylElement, w: WeylElement) -> int:
    return schubert_calculus(u.group).cup_coefficient(u, v, w)


def cup_product(u: WeylElement, v: WeylElement):
    return schubert_calculus(u.group).cup_product(u, v)
