"""Root-system tables for the finite crystallographic types A-G.

Weights are integer tuples in the fundamental-weight basis throughout the
package.  Roots are carried in two coordinate systems at once: simple-root
coordinates (for positivity and addition) and fundamental-weight coordinates
(for the linear Weyl action).  Simple roots follow the Bourbaki numbering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import IndexOutOfRange, RankMismatch, UnsupportedType

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


@dataclass(frozen=True)
class GroupType:
    """A simple group type: series letter plus rank, e.g. B3."""

    series: str
    rank: int

    def __post_init__(self):
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


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable positive-root table for one group type.

    ``positive_roots`` are in simple-root coordinates with the simple roots
    occupying the first ``rank`` slots in index order; the remaining roots
    are sorted by (height, lexicographic).  ``positive_coroots`` hold the
    corresponding coroots in simple-coroot coordinates.
    """

    group_type: GroupType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    positive_roots_fw: tuple[Weight, ...]
    positive_coroots: tuple[tuple[int, ...], ...]
    rho: Weight
    n_pos: int
    symmetrizers: tuple[int, ...]
    _caches: dict = field(default_factory=dict, repr=False)

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

    # -- lookups ----------------------------------------------------------

    @property
    def fw_index(self) -> dict[Weight, int]:
        """Map fundamental-weight coordinates of a positive root -> index."""
        if "fw_index" not in self._caches:
            self._caches["fw_index"] = {
                fw: i for i, fw in enumerate(self.positive_roots_fw)
            }
        return self._caches["fw_index"]

    def pairing(self, lam: Weight, coroot_index: int) -> int:
        """<lam, alpha^vee> for the indexed positive coroot."""
        self.check_rank(lam)
        if not 0 <= coroot_index < self.n_pos:
            raise IndexOutOfRange(f"coroot index {coroot_index} not in [0, {self.n_pos})")
        co = self.positive_coroots[coroot_index]
        return sum(c * x for c, x in zip(co, lam))

    def simple_reflect(self, i: int, lam: Weight) -> Weight:
        """Apply the simple reflection s_i to fundamental-weight coords."""
        ci = lam[i]
        return tuple(x - self.cartan[k][i] * ci for k, x in enumerate(lam))

    def dominant_representative(self, lam: Weight) -> Weight:
        """The dominant element of the Weyl orbit of ``lam``."""
        x = tuple(lam)
        while True:
            for i, c in enumerate(x):
                if c < 0:
                    x = self.simple_reflect(i, x)
                    break
            else:
                return x

    def star(self, lam: Weight) -> Weight:
        """The dominant element of the orbit of -lam, i.e. -w0(lam) for
        dominant lam."""
        return self.dominant_representative(neg_weight(lam))


@lru_cache(maxsize=None)
def build_root_system(t: GroupType) -> RootSystem:
    """Construct the positive-root table for a valid group type."""
    r = t.rank
    cartan = cartan_matrix(t)
    sym = _symmetrizers(t)
    # the tensor oracle pairs weights with roots through the symmetrizers,
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

    def reflect_coroot(i, d):
        pair = sum(d[m] * cartan[m][i] for m in range(r))
        out = list(d)
        out[i] -= pair
        return tuple(out)

    # orbit of the simple (co)roots under all simple reflections
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    coroot_of = {simple[i]: simple[i] for i in range(r)}
    frontier = list(simple)
    while frontier:
        nxt = []
        for c in frontier:
            d = coroot_of[c]
            for i in range(r):
                c2 = reflect_root(i, c)
                d2 = reflect_coroot(i, d)
                if c2 not in coroot_of:
                    coroot_of[c2] = d2
                    nxt.append(c2)
                elif coroot_of[c2] != d2:
                    raise ArithmeticError(f"{t}: inconsistent coroot orbit")
        frontier = nxt

    positive = [c for c in coroot_of if all(x >= 0 for x in c)]
    rest = sorted(
        (c for c in positive if sum(c) > 1), key=lambda c: (sum(c), c)
    )
    ordered = simple + rest
    expected = _N_POS[t.series](r)
    if len(ordered) != expected or 2 * len(ordered) != len(coroot_of):
        raise ArithmeticError(f"{t}: {len(ordered)} positive roots of "
                              f"{len(coroot_of)}, expected {expected}")

    fw = tuple(
        tuple(sum(cartan[k][j] * c[j] for j in range(r)) for k in range(r))
        for c in ordered
    )
    return RootSystem(
        group_type=t,
        cartan=cartan,
        positive_roots=tuple(ordered),
        positive_roots_fw=fw,
        positive_coroots=tuple(coroot_of[c] for c in ordered),
        rho=(1,) * r,
        n_pos=len(ordered),
        symmetrizers=sym,
    )
