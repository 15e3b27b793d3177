"""The degenerated (Belkale-Kumar) product on H*(G/B) from inversion sets.

The structure coefficient of a triple is 1 exactly when the complements of
the three inversion sets partition the positive roots (Levi-movability at
the Borel), and 0 otherwise; no cup product is ever computed here.  The
independent polynomial oracle lives in :mod:`bkcalc.cupcalc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GroupTooLarge, MixedRootSystems
from .weyl import WeylElement, WeylGroup, _same_group, multiply

DEFAULT_TUPLE_SIZE_CAP = 6


@dataclass
class CohomClass:
    """Finitely supported integer combination of Schubert classes."""

    group: WeylGroup
    coeffs: dict[WeylElement, int] = field(default_factory=dict)

    @classmethod
    def zero(cls, group: WeylGroup) -> "CohomClass":
        return cls(group, {})

    @classmethod
    def basis(cls, w: WeylElement) -> "CohomClass":
        return cls(w.group, {w: 1})

    def add_term(self, w: WeylElement, c: int) -> None:
        if w.group is not self.group:
            raise MixedRootSystems("class term from a different root system")
        new = self.coeffs.get(w, 0) + c
        if new:
            self.coeffs[w] = new
        else:
            self.coeffs.pop(w, None)

    def __add__(self, other: "CohomClass") -> "CohomClass":
        if other.group is not self.group:
            raise MixedRootSystems("adding classes over different root systems")
        out = CohomClass(self.group, dict(self.coeffs))
        for w, c in other.coeffs.items():
            out.add_term(w, c)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, CohomClass)
            and self.group is other.group
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[WeylElement]:
        return sorted(self.coeffs, key=lambda w: (w.length, w.word))

    def __repr__(self):
        from .weyl import format_word

        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*s[{format_word(w)}]" if c != 1 else f"s[{format_word(w)}]"
            for w in self.support()
            for c in [self.coeffs[w]]
        )


def is_levi_movable(ws: tuple[WeylElement, ...]) -> bool:
    """True iff the complements of the inversion sets partition Phi+."""
    if len(ws) < 2:
        raise ValueError("need at least two elements")
    group = _same_group(*ws)
    full = group.full_mask
    union = 0
    total = 0
    for w in ws:
        comp = full ^ w.inversions
        union |= comp
        total += comp.bit_count()
    return union == full and total == group.rs.n_pos


def bk_coefficient(u: WeylElement, v: WeylElement, w: WeylElement) -> int:
    """Structure coefficient of the degenerated product: 0 or 1."""
    return 1 if is_levi_movable((u, v, w)) else 0


def poincare_dual(w: WeylElement) -> WeylElement:
    return multiply(w.group.w0, w)


def bk_product(u: WeylElement, v: WeylElement) -> CohomClass:
    """sigma_u o sigma_v in the Schubert basis (dimension-indexed classes)."""
    group = _same_group(u, v)
    out = CohomClass.zero(group)
    # only w with l(u) + l(v) + l(w) = 2 l(w0) can carry a coefficient
    target = 2 * group.w0.length - u.length - v.length
    for w in group.by_length(target):
        if bk_coefficient(u, v, w):
            out.add_term(poincare_dual(w), 1)
    return out


def enumerate_partition_tuples(
    group: WeylGroup, s: int
) -> tuple[tuple[WeylElement, ...], ...]:
    """All ordered s-tuples whose inversion sets partition Phi+.

    The last slot is forced: once the first s-1 inversion sets are chosen
    disjointly, the remaining roots must themselves form an inversion set,
    which is a table lookup.  Results are in lexicographic order of the
    element indices and cached per (group, s).
    """
    if s < 2:
        raise ValueError("tuple size must be at least 2")
    if s > DEFAULT_TUPLE_SIZE_CAP:
        raise GroupTooLarge(
            f"tuple size {s} exceeds cap {DEFAULT_TUPLE_SIZE_CAP}")
    key = ("partitions", s)
    if key in group._partition_cache:
        return group._partition_cache[key]

    out: list[tuple[WeylElement, ...]] = []
    elements = group.elements

    def rec(remaining: int, prefix: tuple[WeylElement, ...]) -> None:
        if len(prefix) == s - 1:
            last = group.from_inversion_set(remaining)
            if last is not None:
                out.append(prefix + (last,))
            return
        for w in elements:
            m = w.inversions
            if m & ~remaining:
                continue
            rec(remaining & ~m, prefix + (w,))

    rec(group.full_mask, ())
    result = tuple(out)
    group._partition_cache[key] = result
    return result


def right_w0_translates(
    group: WeylGroup, tuples
) -> tuple[tuple[WeylElement, ...], ...]:
    """Each tuple (w_1, ..., w_s) mapped to (w_1 w0, ..., w_s w0), in order."""
    w0 = group.w0
    return tuple(tuple(multiply(w, w0) for w in tup) for tup in tuples)


def enumerate_levi_movable_tuples(
    group: WeylGroup, s: int = 3
) -> tuple[tuple[WeylElement, ...], ...]:
    """All ordered s-tuples satisfying the complement-partition condition.

    These are exactly the right w0-translates of the partition tuples.
    """
    return right_w0_translates(group, enumerate_partition_tuples(group, s))
