"""Reference mathematics for checking bkcalc outputs, independent of bkcalc.

Nothing here imports the program.  Root systems are built from their
Euclidean models (Bourbaki numbering), the Weyl group acts by Euclidean
reflections, and every answer the benchmark checks is recomputed from these
tables: weight actions, inversion sets, Weyl dimensions, type-A
Littlewood-Richardson numbers, Chevalley's formula and the inversion-set
(Levi-movable) table whose sha256 the ``bk-table`` command prints.

Weights are integer tuples in fundamental-weight coordinates; Weyl elements
are named by reduced words in the program's wire format (``"1.2.1"``, 1-based,
``"e"`` for the identity).
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
from fractions import Fraction
from functools import lru_cache


def _unit(n, i):
    return tuple(Fraction(int(j == i)) for j in range(n))


def _ip(x, y):
    return sum(a * b for a, b in zip(x, y))


def _lin(x, c, y):
    """x + c*y."""
    return tuple(a + c * b for a, b in zip(x, y))


def euclidean_model(label: str):
    """Simple roots, positive roots and fundamental weights of A_n, B_n, D_n."""
    series, rank = label[0], int(label[1:])
    if series == "A":
        dim = rank + 1
        e = [_unit(dim, i) for i in range(dim)]
        simple = [_lin(e[i], -1, e[i + 1]) for i in range(rank)]
        positive = [_lin(e[i], -1, e[j]) for i, j in itertools.combinations(range(dim), 2)]
        fund = []
        for i in range(rank):
            shift = Fraction(i + 1, dim)
            fund.append(tuple(Fraction(int(k <= i)) - shift for k in range(dim)))
    elif series in ("B", "D"):
        dim = rank
        e = [_unit(dim, i) for i in range(dim)]
        simple = [_lin(e[i], -1, e[i + 1]) for i in range(rank - 1)]
        positive = []
        for i, j in itertools.combinations(range(dim), 2):
            positive += [_lin(e[i], -1, e[j]), _lin(e[i], 1, e[j])]
        if series == "B":
            simple.append(e[rank - 1])
            positive += e
            fund = [tuple(Fraction(int(k <= i)) for k in range(dim)) for i in range(rank - 1)]
            fund.append((Fraction(1, 2),) * dim)
        else:
            simple.append(_lin(e[rank - 2], 1, e[rank - 1]))
            fund = [tuple(Fraction(int(k <= i)) for k in range(dim)) for i in range(rank - 2)]
            fund.append((Fraction(1, 2),) * (dim - 1) + (Fraction(-1, 2),))
            fund.append((Fraction(1, 2),) * dim)
    else:
        raise ValueError(f"no reference model for {label}")
    return simple, positive, fund


class RefGroup:
    """Weyl group of one root system, acting on the Euclidean model."""

    def __init__(self, label: str):
        self.label = label
        self.simple, self.positive, self.fund = euclidean_model(label)
        self.rank = len(self.simple)
        self.n_pos = len(self.positive)
        # a regular dominant vector: positive on exactly the positive roots
        self.rho_e = tuple(sum(c) for c in zip(*self.fund))
        for a in self.positive:
            if _ip(a, self.rho_e) <= 0:
                raise AssertionError(f"{label}: root {a} not positive")
        self._elements: dict[str, "RefElement"] = {}

    # -- coordinates ------------------------------------------------------

    def coroot_pairing(self, x, alpha) -> Fraction:
        return 2 * _ip(x, alpha) / _ip(alpha, alpha)

    def to_euclid(self, lam):
        out = (Fraction(0),) * len(self.rho_e)
        for c, f in zip(lam, self.fund):
            out = _lin(out, c, f)
        return out

    def to_fw(self, x) -> tuple[int, ...]:
        coords = [self.coroot_pairing(x, a) for a in self.simple]
        if any(c.denominator != 1 for c in coords):
            raise AssertionError(f"{x} is not integral")
        return tuple(int(c) for c in coords)

    def reflect(self, alpha, x):
        return _lin(x, -self.coroot_pairing(x, alpha), alpha)

    def is_positive(self, x) -> bool:
        return _ip(x, self.rho_e) > 0

    # -- elements -----------------------------------------------------------

    def element(self, word: str) -> "RefElement":
        if word not in self._elements:
            letters = [] if word == "e" else [int(p) - 1 for p in word.split(".")]
            if any(not 0 <= i < self.rank for i in letters):
                raise ValueError(f"bad word {word!r} for {self.label}")
            self._elements[word] = RefElement(self, tuple(letters))
        return self._elements[word]

    def weyl_dim(self, lam) -> int:
        x = self.to_euclid(lam)
        rho = self.rho_e
        num = den = Fraction(1)
        for a in self.positive:
            num *= _ip(_lin(x, 1, rho), a)
            den *= _ip(rho, a)
        q = num / den
        if q.denominator != 1:
            raise AssertionError("non-integral Weyl dimension")
        return int(q)

    @property
    def elements(self) -> list["RefElement"]:
        """All of W, sorted by (length, lex word).

        An element w is found by its key w(rho); s_i w has key s_i(w(rho)),
        and l(s_i w) < l(w) iff (alpha_i, w(rho)) < 0.  Reading off the least
        such i and reflecting, until rho is reached, spells the
        lexicographically least reduced word.
        """
        if not hasattr(self, "_all"):
            seen = {self.rho_e}
            frontier = [self.rho_e]
            while frontier:
                nxt = []
                for key in frontier:
                    for a in self.simple:
                        k2 = self.reflect(a, key)
                        if k2 not in seen:
                            seen.add(k2)
                            nxt.append(k2)
                frontier = nxt
            els = []
            for key in seen:
                letters = []
                x = key
                while x != self.rho_e:
                    i = next(i for i, a in enumerate(self.simple) if _ip(a, x) < 0)
                    letters.append(i)
                    x = self.reflect(self.simple[i], x)
                els.append(self.element(".".join(str(i + 1) for i in letters) or "e"))
            els.sort(key=lambda w: (w.length, w.letters))
            self._all = els
            self.by_key = {w.key: w for w in els}
        return self._all

    @property
    def w0(self) -> "RefElement":
        return self.elements[-1]

    def from_key(self, key) -> "RefElement":
        self.elements
        return self.by_key[key]


class RefElement:
    """A Weyl element given by a word; acts as s_{i1} ... s_{ik}."""

    def __init__(self, group: RefGroup, letters: tuple[int, ...]):
        self.group = group
        self.letters = letters
        self.word = ".".join(str(i + 1) for i in letters) if letters else "e"
        self.key = self.act_euclid(group.rho_e)
        # Phi_w = {alpha > 0 : w(alpha) < 0} = {alpha > 0 : (alpha, w^-1 rho) < 0},
        # as a bitmask over group.positive
        inv_key = group.rho_e
        for i in letters:
            inv_key = group.reflect(group.simple[i], inv_key)
        self.inversions = sum(
            1 << k for k, a in enumerate(group.positive) if _ip(a, inv_key) < 0
        )
        self.length = bin(self.inversions).count("1")
        self._fw: dict = {}

    def act_euclid(self, x):
        for i in reversed(self.letters):
            x = self.group.reflect(self.group.simple[i], x)
        return x

    def act(self, lam) -> tuple[int, ...]:
        """Action on fundamental-weight coordinates (cached per weight)."""
        lam = tuple(lam)
        if lam not in self._fw:
            self._fw[lam] = self.group.to_fw(self.act_euclid(self.group.to_euclid(lam)))
        return self._fw[lam]

    def inverse(self) -> "RefElement":
        return self.group.element(
            ".".join(str(i + 1) for i in reversed(self.letters)) or "e"
        )

    def times(self, other: "RefElement") -> "RefElement":
        """The product self * other, as an element of the enumerated group."""
        return self.group.from_key(self.act_euclid(other.key))


@lru_cache(maxsize=None)
def ref_group(label: str) -> RefGroup:
    return RefGroup(label)


# -- type A: Littlewood-Richardson numbers ----------------------------------


def _partition(lam) -> list[int]:
    """Fundamental-weight coordinates of SL_n -> partition with n parts."""
    parts = [sum(lam[i:]) for i in range(len(lam))]
    return parts + [0]


def lr_coefficient(kappa, lam, mu) -> int:
    """Number of Littlewood-Richardson tableaux of shape kappa/lam, content mu.

    Row r holds x[r][j] letters j (0-based, j <= r), weakly increasing.  The
    tableau is column strict iff lam[r] + sum_{j' <= j} x[r][j'] <=
    lam[r-1] + sum_{j' < j} x[r-1][j'] for every j, and its reverse reading
    word is a lattice word iff, for every j >= 1, the j's in rows up to r do
    not outnumber the (j-1)'s in rows above r.
    """
    n = len(kappa)
    if any(lam[i] > kappa[i] for i in range(n)) or sum(kappa) != sum(lam) + sum(mu):
        return 0

    def row(r, above, used):
        if r == n:
            return int(list(used) == list(mu))
        length = kappa[r] - lam[r]

        def fill(j, placed, counts):
            if j > r or j == n:
                if placed != length:
                    return 0
                return row(r + 1, counts, [u + c for u, c in zip(used, counts)])
            total = 0
            for x in range(length - placed + 1):
                if used[j] + x > mu[j] or (j > 0 and used[j] + x > used[j - 1]):
                    break
                if r > 0 and lam[r] + placed + x > lam[r - 1] + sum(above[:j]):
                    break
                counts[j] = x
                total += fill(j + 1, placed + x, counts)
            counts[j] = 0
            return total

        return fill(0, 0, [0] * n)

    return row(0, [0] * n, [0] * n)


def type_a_invariant_dim(weights) -> int:
    """dim (V_lam (x) V_mu (x) V_nu)^{SL_n} by the Littlewood-Richardson rule."""
    lam, mu, nu = (_partition(w) for w in weights)
    n = len(lam)
    nu_dual = [nu[0] - nu[n - 1 - i] for i in range(n)]
    extra = sum(lam) + sum(mu) - sum(nu_dual)
    if extra < 0 or extra % n:
        return 0
    kappa = [p + extra // n for p in nu_dual]
    return lr_coefficient(kappa, lam, mu)


# -- Schubert calculus: Chevalley's formula ---------------------------------


def chevalley(group: RefGroup, i: int, u: RefElement) -> dict[str, int]:
    """sigma_{w0 s_i} . sigma_u in dimension-indexed Schubert classes.

    sigma_w is the class of the Schubert variety of dimension l(w), so
    sigma_{w0 s_i} is the divisor and the product is
    sum over beta > 0 with l(u s_beta) = l(u) - 1 of <omega_i, beta^vee> sigma_{u s_beta}.
    """
    out: dict[str, int] = {}
    omega = group.fund[i]
    for beta in group.positive:
        x = group.from_key(u.act_euclid(group.reflect(beta, group.rho_e)))
        if x.length == u.length - 1:
            c = group.coroot_pairing(omega, beta)
            if c:
                out[x.word] = out.get(x.word, 0) + int(c)
    return out


# -- the inversion-set product table ----------------------------------------


def levi_movable(group: RefGroup, ws) -> bool:
    """The complements of the inversion sets partition the positive roots."""
    full = (1 << group.n_pos) - 1
    comps = [full ^ w.inversions for w in ws]
    union = 0
    for c in comps:
        union |= c
    return union == full and sum(bin(c).count("1") for c in comps) == group.n_pos


def bk_table_digest(group: RefGroup) -> tuple[int, int, str]:
    """(rows, nonzero rows, sha256) of the CSV multiplication table."""
    els = group.elements
    n = group.w0.length
    by_length: dict[int, list[RefElement]] = {}
    for w in els:
        by_length.setdefault(w.length, []).append(w)
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["u", "v", "w", "coefficient"])
    rows = nonzero = 0
    for u in els:
        for v in els:
            for w in by_length.get(2 * n - u.length - v.length, []):
                c = int(levi_movable(group, (u, v, w)))
                wr.writerow([u.word, v.word, w.word, c])
                rows += 1
                nonzero += c
    return rows, nonzero, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def partition_tuple_count(group: RefGroup, s: int = 3) -> int:
    """Ordered s-tuples of elements whose inversion sets partition Phi+."""
    full = (1 << group.n_pos) - 1
    masks = [w.inversions for w in group.elements]
    inv_sets = set(masks)

    def rec(remaining, slots):
        if slots == 1:
            return int(remaining in inv_sets)
        return sum(rec(remaining ^ m, slots - 1) for m in masks if m & ~remaining == 0)

    return rec(full, s)


def theorem7_checked(group: RefGroup) -> int:
    """Triples the theorem7 sweep visits: Levi-movable ones, then every
    triple of total length 2 l(w0)."""
    n = group.w0.length
    counts: dict[int, int] = {}
    for w in group.elements:
        counts[w.length] = counts.get(w.length, 0) + 1
    admissible = sum(
        counts[a] * counts[b] * counts.get(2 * n - a - b, 0)
        for a in counts for b in counts
    )
    return partition_tuple_count(group, 3) + admissible
