"""Weyl group enumeration, inversion sets, dot action and regularization.

Elements are identified by their inversion set

    Phi_w = { alpha > 0 : w(alpha) < 0 },

i.e. the positive roots sent to negative roots by w acting on the left; w is
determined by Phi_w.  Each element is built once by its group, so equality
is identity.  The reduced word (lexicographically minimal) is recorded
during enumeration, together with the right Cayley graph w -> w s_i, along
which products, inverses and the action on weights are walked.
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


def weyl_order(rs: RootSystem) -> int:
    """|W| = prod over alpha > 0 of (ht alpha + 1) / ht alpha, known before
    any enumeration (Macdonald, Math. Ann. 199, 1972)."""
    num = den = 1
    for c in rs.positive_roots:
        num *= sum(c) + 1
        den *= sum(c)
    return num // den


class WeylElement:
    """One Weyl group element with its word, length, inversions and right
    Cayley edges."""

    __slots__ = ("group", "word", "length", "inversions", "right")

    def __init__(self, group, word, length, inversions):
        self.group = group
        self.word = word  # lex-minimal reduced word, 0-based simple indices
        self.length = length
        self.inversions = inversions  # bitmask over positive-root indices
        self.right = [None] * group.rs.rank  # right[i] is w s_i

    def __repr__(self):
        return f"<WeylElement {format_word(self)} in {self.group.rs.group_type}>"

    def act(self, lam: Weight) -> Weight:
        """Linear action on fundamental-weight coordinates."""
        rs = self.group.rs
        if len(lam) != rs.rank:
            raise RankMismatch(f"weight {lam} for rank {rs.rank}")
        for i in reversed(self.word):
            lam = rs.simple_reflect(i, lam)
        return tuple(lam)

    def dot(self, lam: Weight) -> Weight:
        """Affine dot action  w . lam = w(lam + rho) - rho."""
        rho = self.group.rs.rho
        return tuple(x - 1 for x in self.act(add_weights(lam, rho)))

    def inverse(self) -> "WeylElement":
        return self.group.inverse(self)

    def __mul__(self, other):
        return multiply(self, other)


class WeylGroup:
    """Full enumeration of W for one root system.

    ``elements`` is sorted by (length, lex word) with the identity first and
    the longest element last.  Immutable after construction; all queries are
    lookups or walks along the right Cayley graph.  A group with more than
    ``DEFAULT_GROUP_CAP`` elements is refused before anything is enumerated.
    """

    def __init__(self, rs: RootSystem):
        if weyl_order(rs) > DEFAULT_GROUP_CAP:
            raise GroupTooLarge(f"|W| exceeds enumeration cap "
                                f"{DEFAULT_GROUP_CAP} for {rs.group_type}")
        self.rs = rs
        n_pos = rs.n_pos
        self.full_mask = (1 << n_pos) - 1

        # s_i as a permutation of the positive roots other than alpha_i
        self._root_perm = []
        for i in range(rs.rank):
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

        self._by_inversions: dict[int, WeylElement] = {}
        self.elements: tuple[WeylElement, ...] = self._enumerate()
        self.identity = self.elements[0]
        self.w0 = self.elements[-1]
        if self.w0.inversions != self.full_mask:
            raise ArithmeticError("the longest element does not invert every "
                                  "positive root")
        self.simple = tuple(self.identity.right)
        self._by_length: dict[int, list[WeylElement]] = {}
        self._inverse: dict[WeylElement, WeylElement] = {}
        for w in self.elements:
            w.right = tuple(w.right)
            self._by_length.setdefault(w.length, []).append(w)
            x = self.identity
            for i in reversed(w.word):
                x = x.right[i]
            self._inverse[w] = x
        self._partition_cache: dict = {}

    def _enumerate(self):
        """The elements in (length, lex word) order, keyed by inversion set
        in ``_by_inversions``, with both ends of every right Cayley edge
        linked."""
        rank = self.rs.rank
        level = [WeylElement(self, (), 0, 0)]
        self._by_inversions[0] = level[0]
        elements = list(level)
        while level:
            # candidates come in lex order of the new word, so the first
            # word seen for an inversion set is the lex-minimal one
            nxt = []
            for w in level:
                for i in range(rank):
                    if w.inversions >> i & 1:
                        continue  # descent: w s_i was linked from below
                    # Phi_{w s_i} = {alpha_i} + s_i Phi_w
                    mask = 1 << i
                    perm = self._root_perm[i]
                    inv = w.inversions
                    while inv:
                        low = inv & -inv
                        mask |= 1 << perm[low.bit_length() - 1]
                        inv ^= low
                    x = self._by_inversions.get(mask)
                    if x is None:
                        x = WeylElement(self, w.word + (i,), w.length + 1, mask)
                        self._by_inversions[mask] = x
                        nxt.append(x)
                    w.right[i] = x
                    x.right[i] = w
            elements.extend(nxt)
            level = nxt
        return tuple(elements)

    # -- lookups ----------------------------------------------------------

    def by_length(self, length: int) -> list[WeylElement]:
        return self._by_length.get(length, [])

    def from_inversion_set(self, mask: int) -> WeylElement | None:
        """The unique w with Phi_w = mask, or None if mask is not biconvex."""
        return self._by_inversions.get(mask)

    def inverse(self, w: WeylElement) -> WeylElement:
        if w.group is not self:
            raise MixedRootSystems(
                f"element does not belong to {self.rs.group_type}")
        return self._inverse[w]

    def inverse_images(self, lam: Weight) -> dict[WeylElement, Weight]:
        """u -> u^-1 lam for every u, in ``elements`` order, with one simple
        reflection per element: (w s_i)^-1 lam = s_i (w^-1 lam)."""
        self.rs.check_rank(lam)
        images = {self.identity: tuple(lam)}
        reflect = self.rs.simple_reflect
        for u in self.elements[1:]:
            i = u.word[-1]
            images[u] = reflect(i, images[u.right[i]])
        return images

    def order(self) -> int:
        return len(self.elements)


_group_cache: dict[GroupType, WeylGroup] = {}


def enumerate_weyl(rs: RootSystem) -> WeylGroup:
    """Build (or fetch the cached) full enumeration of W.  A group over the
    cap is refused before it is built, so it never enters the cache."""
    key = rs.group_type
    if key not in _group_cache:
        _group_cache[key] = WeylGroup(rs)
    return _group_cache[key]


def weyl_group(t: GroupType) -> WeylGroup:
    return enumerate_weyl(build_root_system(t))


def _same_group(*ws: WeylElement) -> WeylGroup:
    g = ws[0].group
    for w in ws[1:]:
        if w.group is not g:
            raise MixedRootSystems("elements belong to different root systems")
    return g


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """u v, by walking a reduced word of v from u along the right edges."""
    _same_group(u, v)
    for i in v.word:
        u = u.right[i]
    return u


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
