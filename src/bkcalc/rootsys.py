"""Root-system tables for the finite crystallographic types A-G.

Weights are integer tuples in the fundamental-weight basis throughout the
package.  Roots are carried in two coordinate systems at once: simple-root
coordinates (for positivity and addition) and fundamental-weight coordinates
(for the linear Weyl action).  Simple roots follow the Bourbaki numbering.

Weights pair with roots in one way only, through the symmetrized form with
(alpha_i, alpha_i) = 2 d_i: a weight nu pairs with a root alpha = sum c_i
alpha_i as (nu, alpha) = sum c_i d_i nu_i.  ``RootSystem.root_pairings``
holds the tuple (c_i d_i) of every positive root; the Weyl dimension and
the Freudenthal recursion both read it.

Every operation on a weight lives here.  ``RootSystem.check_dominant`` is
the one check of an input weight.  ``RootSystem.to_dominant`` is the one
walk into the dominant chamber: the star map and the Borel-Weil-Bott
regularization of the tensor oracle both call it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import NonDominantInput, RankMismatch, UnsupportedType

# A weight in fundamental-weight coordinates.
Weight = tuple[int, ...]

_SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}

# classical positive-root counts, used as a construction self-check
_N_POS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


class GroupType:
    """A simple group type: series letter plus rank, e.g. B3.  A dict and
    cache key, equal by value."""

    __slots__ = ("series", "rank")

    def __init__(self, series: str, rank: int):
        self.series = series
        self.rank = rank
        if self.series not in _SERIES_MIN_RANK:
            raise UnsupportedType(f"unknown series {self.series!r}")
        if self.series == "E":
            if self.rank in (7, 8):
                raise UnsupportedType(
                    f"E{self.rank} rejected: Weyl group too large for "
                    "exhaustive verification (size guard)"
                )
            if self.rank != 6:
                raise UnsupportedType("series E supports rank 6 only")
        elif self.series == "F":
            if self.rank != 4:
                raise UnsupportedType("series F supports rank 4 only")
        elif self.series == "G":
            if self.rank != 2:
                raise UnsupportedType("series G supports rank 2 only")
        elif self.rank < _SERIES_MIN_RANK[self.series]:
            raise UnsupportedType(
                f"{self.series}{self.rank}: rank must be at least "
                f"{_SERIES_MIN_RANK[self.series]}"
            )

    def __eq__(self, other):
        if type(other) is not GroupType:
            return NotImplemented
        return (self.series, self.rank) == (other.series, other.rank)

    def __hash__(self):
        return hash((self.series, self.rank))

    @classmethod
    def parse(cls, text: str) -> "GroupType":
        """Parse a label like ``"A2"`` or ``"D4"``."""
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise UnsupportedType(f"cannot parse group type {text!r}")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def is_dominant(lam: Weight) -> bool:
    return all(c >= 0 for c in lam)


def add_weights(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def neg_weight(a: Weight) -> Weight:
    return tuple(-x for x in a)


def cartan_matrix(t: GroupType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entry [i][j] = <alpha_j, alpha_i^vee>."""
    r = t.rank
    m = [[2 * (i == j) for j in range(r)] for i in range(r)]

    def link(i, j, a=-1, b=-1):
        m[i][j] = a
        m[j][i] = b

    if t.series in ("A", "B", "C", "G", "F"):
        for i in range(r - 1):
            link(i, i + 1)
        if t.series == "B":
            # alpha_r short: <alpha_{r-1}, alpha_r^vee> = -2
            m[r - 1][r - 2] = -2
        elif t.series == "C":
            m[r - 2][r - 1] = -2
        elif t.series == "G":
            # alpha_1 short: <alpha_2, alpha_1^vee> = -3
            m[0][1] = -3
        elif t.series == "F":
            # alpha_1, alpha_2 long; alpha_3, alpha_4 short
            m[2][1] = -2
    elif t.series == "D":
        for i in range(r - 3):
            link(i, i + 1)
        link(r - 3, r - 2)
        link(r - 3, r - 1)
    elif t.series == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
            link(i, j)
    return tuple(tuple(row) for row in m)


def _symmetrizers(t: GroupType) -> tuple[int, ...]:
    """Integers d_i with d_i * cartan[i][j] symmetric (half root norms)."""
    r = t.rank
    if t.series == "B":
        return (2,) * (r - 1) + (1,)
    if t.series == "C":
        return (1,) * (r - 1) + (2,)
    if t.series == "F":
        return (2, 2, 1, 1)
    if t.series == "G":
        return (1, 3)
    return (1,) * r


class RootSystem:
    """Positive-root table for one group type, not changed once built.

    ``positive_roots`` are in simple-root coordinates with the simple roots
    occupying the first ``rank`` slots in index order; the remaining roots
    are sorted by (height, lexicographic).  ``root_pairings`` holds, in the
    same order, the tuple (c_i d_i) of each root sum c_i alpha_i, so that
    (nu, alpha) is its dot product with nu.  ``fw_index`` maps the
    fundamental-weight coordinates of a positive root to its index.
    """

    __slots__ = ("group_type", "cartan", "positive_roots", "positive_roots_fw",
                 "root_pairings", "fw_index", "rho", "n_pos", "symmetrizers")

    def __init__(
        self,
        group_type: GroupType,
        cartan: tuple[tuple[int, ...], ...],
        positive_roots: tuple[tuple[int, ...], ...],
        positive_roots_fw: tuple[Weight, ...],
        root_pairings: tuple[tuple[int, ...], ...],
        fw_index: dict[Weight, int],
        rho: Weight,
        n_pos: int,
        symmetrizers: tuple[int, ...],
    ):
        self.group_type = group_type
        self.cartan = cartan
        self.positive_roots = positive_roots
        self.positive_roots_fw = positive_roots_fw
        self.root_pairings = root_pairings
        self.fw_index = fw_index
        self.rho = rho
        self.n_pos = n_pos
        self.symmetrizers = symmetrizers

    @property
    def rank(self) -> int:
        return self.group_type.rank

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self.group_type == other.group_type

    def __hash__(self):
        return hash(self.group_type)

    def check_rank(self, lam: Weight) -> None:
        if len(lam) != self.rank:
            raise RankMismatch(
                f"weight of length {len(lam)} for rank {self.rank} group"
            )

    def check_dominant(self, lam: Weight) -> None:
        """The check of an input weight: its rank, then its dominance."""
        self.check_rank(lam)
        if not is_dominant(lam):
            raise NonDominantInput(f"weight {lam} is not dominant")

    def orbit_bound(self, lam: Weight) -> int:
        """The largest |coordinate| on the orbit of a dominant weight.

        The i-th coordinate of w lam is <lam, beta^vee> with beta = w^-1
        alpha_i, and every root is such a beta, so the bound is the largest
        <lam, beta^vee> = 2 (lam, beta) / (beta, beta) over beta > 0; the
        norm (beta, beta) is the pairing of beta with itself.
        """
        best = 0
        for p, fw in zip(self.root_pairings, self.positive_roots_fw):
            norm = sum(x * y for x, y in zip(p, fw))
            best = max(best, 2 * sum(x * y for x, y in zip(p, lam)) // norm)
        return best

    # -- lookups ----------------------------------------------------------

    def simple_reflect(self, i: int, lam: Weight) -> Weight:
        """Apply the simple reflection s_i to fundamental-weight coords."""
        ci = lam[i]
        return tuple(x - self.cartan[k][i] * ci for k, x in enumerate(lam))

    def to_dominant(self, lam: Weight) -> tuple[int, Weight]:
        """Walk ``lam`` into the dominant chamber, reflecting at the first
        negative coordinate; the number of steps and the dominant weight.

        Each step s_i lowers by one the number of positive roots that pair
        negatively with the weight, so the walk ends.  For a regular weight
        the step count is that number, the length of the w with w x = lam.
        """
        self.check_rank(lam)
        x = tuple(lam)
        steps = 0
        while True:
            for i, c in enumerate(x):
                if c < 0:
                    x = self.simple_reflect(i, x)
                    steps += 1
                    break
            else:
                return steps, x

    def star(self, lam: Weight) -> Weight:
        """The dominant element of the orbit of -lam, i.e. -w0(lam) for
        dominant lam."""
        return self.to_dominant(neg_weight(lam))[1]


def borel_weil_bott(rs: RootSystem, chi: Weight):
    """Regularize an arbitrary weight under the dot action.

    Returns None when chi + rho is singular; otherwise the unique pair
    (q, lam) with lam dominant and chi = w . lam for the (unique) w of
    length q.  A weight on a wall stays on one along its orbit, so chi +
    rho is singular exactly when its dominant representative has a zero
    coordinate.
    """
    # rho = (1, ..., 1) in fundamental-weight coordinates
    q, x = rs.to_dominant(tuple(c + 1 for c in chi))
    if 0 in x:
        return None
    return q, tuple(c - 1 for c in x)


@lru_cache(maxsize=None)
def build_root_system(t: GroupType) -> RootSystem:
    """Construct the positive-root table for a valid group type."""
    r = t.rank
    cartan = cartan_matrix(t)
    sym = _symmetrizers(t)
    # weights pair with roots through the symmetrizers (module docstring),
    # so (alpha_i, alpha_j) = sym[i] * cartan[i][j] must be symmetric
    for i, j in itertools.combinations(range(r), 2):
        if sym[i] * cartan[i][j] != sym[j] * cartan[j][i]:
            raise ArithmeticError(f"{t}: symmetrizers do not symmetrize the "
                                  f"Cartan matrix at ({i}, {j})")

    def reflect_root(i, c):
        pair = sum(cartan[i][m] * c[m] for m in range(r))
        out = list(c)
        out[i] -= pair
        return tuple(out)

    # orbit of the simple roots under all simple reflections
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots = set(simple)
    frontier = simple
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(r):
                c2 = reflect_root(i, c)
                if c2 not in roots:
                    roots.add(c2)
                    nxt.append(c2)
        frontier = nxt

    positive = [c for c in roots if all(x >= 0 for x in c)]
    rest = sorted(
        (c for c in positive if sum(c) > 1), key=lambda c: (sum(c), c)
    )
    ordered = simple + rest
    expected = _N_POS[t.series](r)
    if len(ordered) != expected or 2 * len(ordered) != len(roots):
        raise ArithmeticError(f"{t}: {len(ordered)} positive roots of "
                              f"{len(roots)}, expected {expected}")

    fw = tuple(
        tuple(sum(cartan[k][j] * c[j] for j in range(r)) for k in range(r))
        for c in ordered
    )
    return RootSystem(
        group_type=t,
        cartan=cartan,
        positive_roots=tuple(ordered),
        positive_roots_fw=fw,
        root_pairings=tuple(
            tuple(ci * di for ci, di in zip(c, sym)) for c in ordered
        ),
        fw_index={a: k for k, a in enumerate(fw)},
        rho=(1,) * r,
        n_pos=len(ordered),
        symmetrizers=sym,
    )
