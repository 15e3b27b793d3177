"""Weyl group enumeration, inversion sets, dot action and regularization.

Elements are identified by their integer action matrix on fundamental-weight
coordinates; the reduced word (lexicographically minimal) and the inversion
bitset are caches computed during enumeration.  The inversion convention is

    Phi_w = { alpha > 0 : w(alpha) < 0 },

i.e. the positive roots sent to negative roots by w acting on the left.
"""

from __future__ import annotations

from .errors import GroupTooLarge, MixedRootSystems, RankMismatch
from .rootsys import (
    GroupType,
    RootSystem,
    Weight,
    add_weights,
    build_root_system,
)

DEFAULT_GROUP_CAP = 10**6


class WeylElement:
    """One Weyl group element with cached word, length and inversions."""

    __slots__ = ("group", "action", "word", "length", "inversions")

    def __init__(self, group, action, word, length, inversions):
        self.group = group
        self.action = action  # rank x rank integer matrix, tuple of row tuples
        self.word = word  # lex-minimal reduced word, 0-based simple indices
        self.length = length
        self.inversions = inversions  # bitmask over positive-root indices

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.group is other.group
            and self.action == other.action
        )

    def __hash__(self):
        return hash(self.action)

    def __repr__(self):
        return f"<WeylElement {format_word(self)} in {self.group.rs.group_type}>"

    def act(self, lam: Weight) -> Weight:
        """Linear action on fundamental-weight coordinates."""
        if len(lam) != len(self.action):
            raise RankMismatch(f"weight {lam} for rank {len(self.action)}")
        return tuple(sum(r * c for r, c in zip(row, lam)) for row in self.action)

    def dot(self, lam: Weight) -> Weight:
        """Affine dot action  w . lam = w(lam + rho) - rho."""
        rho = self.group.rs.rho
        return tuple(x - 1 for x in self.act(add_weights(lam, rho)))

    def inverse(self) -> "WeylElement":
        return self.group.inverse(self)

    def __mul__(self, other):
        return multiply(self, other)


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


class WeylGroup:
    """Full enumeration of W for one root system.

    ``elements`` is sorted by (length, lex word) with the identity first and
    the longest element last.  Immutable after construction; all queries are
    pure lookups.
    """

    def __init__(self, rs: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        self.rs = rs
        rank = rs.rank
        n_pos = rs.n_pos
        self.full_mask = (1 << n_pos) - 1

        # s_i as a matrix on fundamental-weight coordinates
        self._refl = []
        for i in range(rank):
            m = [[int(k == j) for j in range(rank)] for k in range(rank)]
            for k in range(rank):
                m[k][i] -= rs.cartan[k][i]
            self._refl.append(tuple(tuple(row) for row in m))

        # s_i as a permutation of the positive roots other than alpha_i
        self._root_perm = []
        for i in range(rank):
            perm = [0] * n_pos
            for j, fw in enumerate(rs.positive_roots_fw):
                if j == i:
                    perm[j] = j  # sign flip, handled separately
                    continue
                img = tuple(
                    f - rs.cartan[k][i] * fw[i] for k, f in enumerate(fw)
                )
                perm[j] = rs.fw_index[img]
            self._root_perm.append(tuple(perm))

        elements, inverse_actions = self._enumerate(cap)
        self.elements: tuple[WeylElement, ...] = elements
        self._by_action = {w.action: w for w in self.elements}
        self._inverse = {
            w: self._by_action[a] for w, a in zip(elements, inverse_actions)
        }
        self._by_inversions = {w.inversions: w for w in self.elements}
        self._by_length: dict[int, list[WeylElement]] = {}
        for w in self.elements:
            self._by_length.setdefault(w.length, []).append(w)
        self.identity = self.elements[0]
        self.w0 = self.elements[-1]
        if self.w0.inversions != self.full_mask:
            raise ArithmeticError("the longest element does not invert every "
                                  "positive root")
        self.simple = tuple(
            self._by_action[self._refl[i]] for i in range(rank)
        )
        self._partition_cache: dict = {}

    def _enumerate(self, cap):
        """The elements in (length, lex word) order, and the action matrix
        of each element's inverse, from inv(w s_i) = s_i inv(w)."""
        rank = self.rs.rank
        ident_action = tuple(
            tuple(int(i == j) for j in range(rank)) for i in range(rank)
        )
        elements = [WeylElement(self, ident_action, (), 0, 0)]
        inverse_of = {ident_action: ident_action}
        level = {ident_action: elements[0]}
        count = 1
        while level:
            # candidates are generated in lex order of the new word, so the
            # first word seen for an action matrix is the lex-minimal one
            nxt: dict = {}
            for w in sorted(level.values(), key=lambda e: e.word):
                for i in range(rank):
                    if w.inversions >> i & 1:
                        continue  # descent: w(alpha_i) < 0
                    a = _matmul(w.action, self._refl[i])
                    if a in nxt:
                        continue
                    inverse_of[a] = _matmul(self._refl[i], inverse_of[w.action])
                    mask = 1 << i
                    perm = self._root_perm[i]
                    inv = w.inversions
                    while inv:
                        low = inv & -inv
                        mask |= 1 << perm[low.bit_length() - 1]
                        inv ^= low
                    nxt[a] = WeylElement(self, a, w.word + (i,), w.length + 1, mask)
            count += len(nxt)
            if count > cap:
                raise GroupTooLarge(
                    f"|W| exceeds enumeration cap {cap} for {self.rs.group_type}"
                )
            batch = sorted(nxt.values(), key=lambda e: e.word)
            elements.extend(batch)
            level = {w.action: w for w in batch}
        return tuple(elements), tuple(inverse_of[w.action] for w in elements)

    # -- lookups ----------------------------------------------------------

    def by_length(self, length: int) -> list[WeylElement]:
        return self._by_length.get(length, [])

    def from_action(self, action) -> WeylElement:
        return self._by_action[action]

    def from_inversion_set(self, mask: int) -> WeylElement | None:
        """The unique w with Phi_w = mask, or None if mask is not biconvex."""
        return self._by_inversions.get(mask)

    def inverse(self, w: WeylElement) -> WeylElement:
        return self._inverse[w]

    def order(self) -> int:
        return len(self.elements)


_group_cache: dict[GroupType, WeylGroup] = {}


def enumerate_weyl(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> WeylGroup:
    """Build (or fetch the cached) full enumeration of W."""
    key = rs.group_type
    if key not in _group_cache:
        _group_cache[key] = WeylGroup(rs, cap)
    group = _group_cache[key]
    if group.order() > cap:
        raise GroupTooLarge(f"|W| exceeds enumeration cap {cap} for {key}")
    return group


def weyl_group(t: GroupType, cap: int = DEFAULT_GROUP_CAP) -> WeylGroup:
    return enumerate_weyl(build_root_system(t), cap)


def _same_group(*ws: WeylElement) -> WeylGroup:
    g = ws[0].group
    for w in ws[1:]:
        if w.group is not g:
            raise MixedRootSystems("elements belong to different root systems")
    return g


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    g = _same_group(u, v)
    return g.from_action(_matmul(u.action, v.action))


def inverse(w: WeylElement) -> WeylElement:
    return w.group.inverse(w)


def act(w: WeylElement, lam: Weight) -> Weight:
    return w.act(lam)


def dot(w: WeylElement, lam: Weight) -> Weight:
    return w.dot(lam)


def weight_star(group: WeylGroup, lam: Weight) -> Weight:
    """lam* = -w0(lam) for dominant lam; see :meth:`RootSystem.star`."""
    return group.rs.star(lam)


def borel_weil_bott(rs: RootSystem, chi: Weight):
    """Regularize an arbitrary weight under the dot action.

    Returns None when chi + rho is singular; otherwise the unique pair
    (q, lam) with lam dominant and chi = w . lam for the (unique) w of
    length q.
    """
    rs.check_rank(chi)
    x = add_weights(chi, rs.rho)
    q = 0
    while True:
        if any(c == 0 for c in x):
            return None
        for i, c in enumerate(x):
            if c < 0:
                x = rs.simple_reflect(i, x)
                q += 1
                break
        else:
            return q, tuple(c - 1 for c in x)


# -- reduced-word wire format ---------------------------------------------


def format_word(w: WeylElement) -> str:
    """Dot-separated 1-based simple-reflection indices; "e" for identity."""
    if not w.word:
        return "e"
    return ".".join(str(i + 1) for i in w.word)


def parse_word(group: WeylGroup, text: str) -> WeylElement:
    """Inverse of :func:`format_word`; accepts any (not necessarily reduced) word."""
    text = text.strip()
    if text in ("e", ""):
        return group.identity
    w = group.identity
    for part in text.split("."):
        i = int(part) - 1
        if not 0 <= i < group.rs.rank:
            raise ValueError(f"simple reflection index {part} out of range")
        w = multiply(w, group.simple[i])
    return w
