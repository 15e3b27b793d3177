"""Classification of dominant weight tuples against the tensor cone.

A tuple can be a PRV point (some Weyl translates of the weights sum to
zero), a cohomological point (a PRV witness whose inverted elements have
inversion sets partitioning Phi+), or regularly extremal (the w0-translated
form of the same condition).  Stable multiplicity one is proven by a
cohomological witness and otherwise probed at finite depth by the tensor
oracle, never asserted from a finite probe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bkring import enumerate_partition_tuples, right_w0_translates
from .errors import InvalidWitness, NonDominantInput, OracleOverflow
from .rootsys import Weight, add_weights, is_dominant, neg_weight
from .tensoracle import DEFAULT_BUDGET, OracleBudget, stable_mult_probe
from .weyl import WeylElement, WeylGroup

DEFAULT_SCALING_DEPTH = 3


@dataclass(frozen=True)
class StableStatus:
    """Three-valued stable-multiplicity-one verdict with provenance."""

    kind: str  # "proven_true" | "refuted" | "unknown"
    refuted_k: int | None = None
    refuted_dim: int | None = None
    probed_depth: int | None = None
    provenance: str = ""

    @classmethod
    def proven_true(cls) -> "StableStatus":
        return cls("proven_true", provenance="cohomological witness (exact)")

    @classmethod
    def refuted(cls, k: int, dim: int) -> "StableStatus":
        return cls(
            "refuted",
            refuted_k=k,
            refuted_dim=dim,
            provenance=f"oracle dimension {dim} != 1 at scaling {k}",
        )

    @classmethod
    def unknown(cls, depth: int) -> "StableStatus":
        return cls(
            "unknown",
            probed_depth=depth,
            provenance=f"all probed dimensions equal 1 up to scaling {depth}; "
            "finite probing cannot prove stability",
        )


@dataclass
class TripleClassification:
    """Full verdict for one dominant weight tuple."""

    weights: tuple[Weight, ...]
    prv: bool
    prv_witnesses: list[tuple[WeylElement, ...]]
    cohomological: bool
    coh_witnesses: list[tuple[WeylElement, ...]]
    regularly_extremal: bool
    reg_witnesses: list[tuple[WeylElement, ...]]
    stable_mult_one: StableStatus
    oracle_mults: list[tuple[int, int]] = field(default_factory=list)
    oracle_overflow: bool = False
    extended: bool = False  # s > 3 analogue, beyond the three-factor statements


def _require_dominant_tuple(weights) -> None:
    for w in weights:
        if not is_dominant(w):
            raise NonDominantInput(f"weight {w} is not dominant")


def _witness_sort_key(tup):
    return (sum(w.length for w in tup), tuple(w.word for w in tup))


def _orbit_cosets(
    group: WeylGroup, lam: Weight
) -> dict[Weight, list[WeylElement]]:
    """Each point of the orbit W.lam mapped to the elements carrying lam
    there (a coset of the stabilizer), in ``group.elements`` order; w lam is
    read from the table u -> u^-1 lam at u = w^-1."""
    images = group.inverse_images(lam)
    cosets: dict[Weight, list[WeylElement]] = {}
    for w in group.elements:
        cosets.setdefault(images[group.inverse(w)], []).append(w)
    return cosets


def prv_witnesses(
    group: WeylGroup, weights: tuple[Weight, ...]
) -> list[tuple[WeylElement, ...]]:
    """All reduced witness tuples with the translated weights summing to zero.

    The first s-1 slots range over W; the last element is reported as the
    minimal-length element carrying the last weight onto the forced value,
    so each geometric witness appears once.  The search walks the orbit
    points of the first s-1 weights, looks the negated sum up in the last
    orbit, and expands each solution through the stabilizer cosets: it costs
    the product of those orbit sizes plus the size of the output.
    """
    if len(weights) < 2:
        raise ValueError("need at least two weights")
    _require_dominant_tuple(weights)
    for w in weights:
        group.rs.check_rank(w)
    cosets = {lam: _orbit_cosets(group, lam) for lam in set(weights)}
    front = [cosets[lam] for lam in weights[:-1]]
    last = cosets[weights[-1]]

    out = []
    for points in itertools.product(*front):
        target = tuple(-sum(c) for c in zip(*points))
        if target in last:
            choices = [orbit[p] for orbit, p in zip(front, points)]
            choices.append(last[target][:1])
            out.extend(itertools.product(*choices))
    out.sort(key=_witness_sort_key)
    return out


def cohomological_witnesses(
    group: WeylGroup, weights: tuple[Weight, ...]
) -> list[tuple[WeylElement, ...]]:
    """Witness tuples whose inversion sets partition Phi+ and whose
    inverted elements translate the weights to a zero sum."""
    _require_dominant_tuple(weights)
    for w in weights:
        group.rs.check_rank(w)
    partitions = enumerate_partition_tuples(group, len(weights))
    images = {lam: group.inverse_images(lam) for lam in set(weights)}
    columns = [images[lam] for lam in weights]
    out = []
    for tup in partitions:
        translated = (col[u] for col, u in zip(columns, tup))
        if not any(map(sum, zip(*translated))):
            out.append(tup)
    out.sort(key=_witness_sort_key)
    return out


def regularly_extremal_witnesses(
    group: WeylGroup, weights: tuple[Weight, ...]
) -> list[tuple[WeylElement, ...]]:
    """Witnesses for membership in a minimal regular face of the cone."""
    return _regular_from_cohomological(
        group, cohomological_witnesses(group, weights)
    )


def _regular_from_cohomological(group: WeylGroup, coh):
    """The right w0-translates of the cohomological witnesses, as
    sum (u_i w0)^-1 lambda_i = w0 (sum u_i^-1 lambda_i).  Translation
    reverses length order, so the result is sorted again."""
    return sorted(right_w0_translates(group, coh), key=_witness_sort_key)


def classify(
    group: WeylGroup,
    weights: tuple[Weight, ...],
    K: int = DEFAULT_SCALING_DEPTH,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> TripleClassification:
    """Compute every flag, all witnesses, and the oracle evidence."""
    _require_dominant_tuple(weights)
    if K < 1:
        raise ValueError("scaling depth must be at least 1")
    # the partition enumeration enforces the tuple-size cap, so it runs
    # before the PRV search, whose orbit walk grows with s
    coh = cohomological_witnesses(group, weights)
    reg = _regular_from_cohomological(group, coh)
    prv = prv_witnesses(group, weights)

    mults: list[tuple[int, int]] = []
    overflow = False
    try:
        mults = stable_mult_probe(group.rs, weights, K, budget)
    except OracleOverflow as exc:
        mults = list(exc.partial)
        overflow = True

    if coh:
        stable = StableStatus.proven_true()
    else:
        refuted = next(((k, d) for k, d in mults if d != 1), None)
        if refuted:
            stable = StableStatus.refuted(*refuted)
        else:
            stable = StableStatus.unknown(len(mults))

    return TripleClassification(
        weights=tuple(weights),
        prv=bool(prv),
        prv_witnesses=prv,
        cohomological=bool(coh),
        coh_witnesses=coh,
        regularly_extremal=bool(reg),
        reg_witnesses=reg,
        stable_mult_one=stable,
        oracle_mults=mults,
        oracle_overflow=overflow,
        extended=len(weights) > 3,
    )


@dataclass
class FaceSample:
    """Grid sample of a minimal regular face plus its lattice rank."""

    witness: tuple[WeylElement, ...]
    triples: list[tuple[Weight, ...]]
    lattice_rank: int


def face_sample(
    group: WeylGroup,
    witness: tuple[WeylElement, WeylElement, WeylElement],
    bound: int,
) -> FaceSample:
    """All dominant triples on the face of one partition witness.

    The first two weights range over the dominant box with coordinates up
    to ``bound``; the third is forced by the zero-sum condition and kept
    when dominant.  The rank of the lattice spanned by the samples is at
    most twice the group rank, with equality for a large enough bound.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    u, v, w = witness
    group_full = group.full_mask
    if (
        u.inversions | v.inversions | w.inversions != group_full
        or u.length + v.length + w.length != group.rs.n_pos
    ):
        raise InvalidWitness(
            "witness inversion sets do not partition the positive roots"
        )
    rs = group.rs
    u_inv, v_inv, w_inv = group.inverse(u), group.inverse(v), group.inverse(w)
    triples = []
    grid = itertools.product(range(bound + 1), repeat=rs.rank)
    for lam in grid:
        for mu in itertools.product(range(bound + 1), repeat=rs.rank):
            partial = add_weights(u_inv.act(lam), v_inv.act(mu))
            nu = neg_weight(w.act(partial))
            if is_dominant(nu):
                # exact zero-sum identity by construction
                if any(add_weights(partial, w_inv.act(nu))):
                    raise ArithmeticError(
                        f"face triple {(lam, mu, nu)} does not sum to zero"
                    )
                triples.append((lam, mu, nu))
    return FaceSample(witness, triples, _lattice_rank(triples))


def _lattice_rank(triples) -> int:
    """Rank of the sample matrix by fraction-free (Bareiss) elimination.

    Row r becomes (piv[c] * r - r[c] * piv) / prev, where prev is the
    previous pivot; the division is exact, so entries stay integers.
    """
    rows = [[c for w in t for c in w] for t in triples]
    rank, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows.remove(piv)
        rows = [[(piv[c] * x - r[c] * p) // prev for x, p in zip(r, piv)]
                for r in rows]
        rank, prev = rank + 1, piv[c]
    return rank
