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
import math

from .bkring import enumerate_partition_tuples, right_w0_translates
from .errors import GroupTooLarge, InvalidWitness, OracleOverflow
from .rootsys import Weight, add_weights, is_dominant, neg_weight
from .tensoracle import DEFAULT_BUDGET, OracleBudget, stable_mult_probe
from .weyl import WeylElement, WeylGroup

DEFAULT_SCALING_DEPTH = 3
DEFAULT_WEIGHT_BOUND = 2  # coordinate bound of the verify sweeps' weight box
DEFAULT_FACE_PAIR_CAP = 10**5  # weight pairs a face sample may walk


class StableStatus:
    """Three-valued stable-multiplicity-one verdict with provenance."""

    __slots__ = ("kind", "refuted_k", "refuted_dim", "probed_depth",
                 "provenance")

    def __init__(
        self,
        kind: str,  # "proven_true" | "refuted" | "unknown"
        refuted_k: int | None = None,
        refuted_dim: int | None = None,
        probed_depth: int | None = None,
        provenance: str = "",
    ):
        self.kind = kind
        self.refuted_k = refuted_k
        self.refuted_dim = refuted_dim
        self.probed_depth = probed_depth
        self.provenance = provenance

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


class TripleClassification:
    """Full verdict for one dominant weight tuple."""

    __slots__ = ("weights", "prv", "prv_witnesses", "cohomological",
                 "coh_witnesses", "regularly_extremal", "reg_witnesses",
                 "stable_mult_one", "oracle_mults", "oracle_overflow",
                 "extended")

    def __init__(
        self,
        weights: tuple[Weight, ...],
        prv_witnesses: list[tuple[WeylElement, ...]],
        coh_witnesses: list[tuple[WeylElement, ...]],
        reg_witnesses: list[tuple[WeylElement, ...]],
        stable_mult_one: StableStatus,
        oracle_mults: list[tuple[int, int]],
        oracle_overflow: bool,
    ):
        self.weights = weights
        self.prv = bool(prv_witnesses)
        self.prv_witnesses = prv_witnesses
        self.cohomological = bool(coh_witnesses)
        self.coh_witnesses = coh_witnesses
        self.regularly_extremal = bool(reg_witnesses)
        self.reg_witnesses = reg_witnesses
        self.stable_mult_one = stable_mult_one
        self.oracle_mults = oracle_mults
        self.oracle_overflow = oracle_overflow
        # the s > 3 analogue, beyond the three-factor statements
        self.extended = len(weights) > 3


def _sorted_witnesses(group: WeylGroup, tuples):
    """The tuples in order of total length, then slot by slot in lex order
    of reduced words, each keyed by one integer

        sum_i l(u_i) N^s + r(u_i) N^(s-1-i),   N = |W|,

    where r(u) < N is u's place in lex order of words."""
    tuples = list(tuples)
    if tuples:
        s, n = len(tuples[0]), group.order()
        slots = [{w: w.length * n**s + r * n**(s - 1 - i)
                  for w, r in group.word_ranks().items()} for i in range(s)]
        tuples.sort(key=lambda t: sum(map(dict.__getitem__, slots, t)))
    return tuples


def _packed_images(group: WeylGroup, weights: tuple[Weight, ...]):
    """One table per distinct weight: u -> u^-1 lam, each image coded as
    one integer sum_i c_i B^i.

    With M the largest orbit bound of the tuple's weights and B = 2 s M + 1,
    a sum of s images has coordinates in [-sM, sM], so two such sums have
    equal codes iff they are equal, and a sum of s codes is 0 iff the
    weights sum to zero."""
    distinct = set(weights)
    base = 2 * len(weights) * max(map(group.rs.orbit_bound, distinct),
                                  default=0) + 1
    powers = [base**i for i in range(group.rs.rank)]
    packed = {}
    for lam in distinct:
        table = group.inverse_images(lam)
        codes = {x: sum(map(int.__mul__, x, powers))
                 for x in set(table.values())}
        packed[lam] = {u: codes[x] for u, x in table.items()}
    return packed


def _orbit_cosets(group: WeylGroup, codes) -> dict[int, list[WeylElement]]:
    """Each point of the orbit W.lam, by its code, mapped to the elements
    carrying lam there (a coset of the stabilizer), in ``group.elements``
    order; w lam is read from the table u -> u^-1 lam at u = w^-1."""
    cosets: dict[int, list[WeylElement]] = {}
    for w in group.elements:
        cosets.setdefault(codes[group.inverse(w)], []).append(w)
    return cosets


def prv_witnesses(
    group: WeylGroup, weights: tuple[Weight, ...], packed=None
) -> list[tuple[WeylElement, ...]]:
    """All reduced witness tuples with the translated weights summing to zero.

    The first s-1 slots range over W; the last element is reported as the
    minimal-length element carrying the last weight onto the forced value,
    so each geometric witness appears once.  The search walks the orbit
    points of the first s-1 weights, looks the negated sum up in the last
    orbit, and expands each solution through the stabilizer cosets: it costs
    the product of those orbit sizes plus the size of the output.  Orbit
    points are packed integers, so a sum is one add; ``packed``, when
    given, is ``_packed_images(group, weights)``, which :func:`classify`
    builds once for both searches.
    """
    if len(weights) < 2:
        raise ValueError("need at least two weights")
    for w in weights:
        group.rs.check_dominant(w)
    if packed is None:
        packed = _packed_images(group, weights)
    cosets = {lam: _orbit_cosets(group, codes) for lam, codes in packed.items()}
    front = [cosets[lam] for lam in weights[:-1]]
    last = cosets[weights[-1]]

    *outer, inner = front
    out = []
    for head in itertools.product(*outer):
        rest = -sum(head)
        for p in [p for p in inner if rest - p in last]:
            choices = [orbit[q] for orbit, q in zip(outer, head)]
            choices += (inner[p], last[rest - p][:1])
            out.extend(itertools.product(*choices))
    return _sorted_witnesses(group, out)


def cohomological_witnesses(
    group: WeylGroup, weights: tuple[Weight, ...], packed=None
) -> list[tuple[WeylElement, ...]]:
    """Witness tuples whose inversion sets partition Phi+ and whose
    inverted elements translate the weights to a zero sum, tested on
    packed integers; ``packed`` as in :func:`prv_witnesses`."""
    for w in weights:
        group.rs.check_dominant(w)
    partitions = enumerate_partition_tuples(group, len(weights))
    if packed is None:
        packed = _packed_images(group, weights)
    columns = [packed[lam] for lam in weights]
    if len(columns) == 3:  # the three-factor case, unrolled
        a, b, c = columns
        hits = [(u, v, w) for u, v, w in partitions if a[u] + b[v] + c[w] == 0]
    else:
        code = dict.__getitem__
        hits = [t for t in partitions if not sum(map(code, columns, t))]
    return _sorted_witnesses(group, hits)


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
    return _sorted_witnesses(group, right_w0_translates(group, coh))


def classify(
    group: WeylGroup,
    weights: tuple[Weight, ...],
    K: int = DEFAULT_SCALING_DEPTH,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> TripleClassification:
    """Compute every flag, all witnesses, and the oracle evidence."""
    for w in weights:
        group.rs.check_dominant(w)
    if K < 1:
        raise ValueError("scaling depth must be at least 1")
    # the partition enumeration enforces the tuple-size cap, so it runs
    # before the PRV search, whose orbit walk grows with s
    packed = _packed_images(group, weights)
    coh = cohomological_witnesses(group, weights, packed)
    reg = _regular_from_cohomological(group, coh)
    prv = prv_witnesses(group, weights, packed)

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

    return TripleClassification(tuple(weights), prv, coh, reg, stable, mults,
                                overflow)


class FaceSample:
    """Grid sample of a minimal regular face plus its lattice rank."""

    __slots__ = ("witness", "triples", "lattice_rank")

    def __init__(
        self,
        witness: tuple[WeylElement, ...],
        triples: list[tuple[Weight, ...]],
        lattice_rank: int,
    ):
        self.witness = witness
        self.triples = triples
        self.lattice_rank = lattice_rank


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
    A grid of more than ``DEFAULT_FACE_PAIR_CAP`` pairs is refused before
    it is walked.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    pairs = (bound + 1) ** (2 * group.rs.rank)
    if pairs > DEFAULT_FACE_PAIR_CAP:
        raise GroupTooLarge(f"face grid of {pairs} weight pairs exceeds cap "
                            f"{DEFAULT_FACE_PAIR_CAP}")
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
    box = list(itertools.product(range(bound + 1), repeat=rs.rank))
    # each action depends on one weight only, so it is taken once per
    # weight; w is linear, so -w(u^-1 lam + v^-1 mu) is a sum of two images
    u_images = [u_inv.act(lam) for lam in box]
    v_images = [v_inv.act(mu) for mu in box]
    u_far = [neg_weight(w.act(x)) for x in u_images]
    v_far = [neg_weight(w.act(x)) for x in v_images]
    # w^-1 as a matrix, built once: row k holds the k-th coordinates of the
    # images of the fundamental weights
    units = (tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    w_inv_rows = list(zip(*map(w_inv.act, units)))
    for lam, u_lam, u_nu in zip(box, u_images, u_far):
        for mu, v_mu, v_nu in zip(box, v_images, v_far):
            nu = add_weights(u_nu, v_nu)
            if is_dominant(nu):
                # the zero-sum identity, checked through w^-1 instead of w
                if any(x + sum(map(int.__mul__, row, nu)) for x, row
                       in zip(add_weights(u_lam, v_mu), w_inv_rows)):
                    raise ArithmeticError(
                        f"face triple {(lam, mu, nu)} does not sum to zero"
                    )
                triples.append((lam, mu, nu))
    return FaceSample(witness, triples, _lattice_rank(triples, 2 * rs.rank))


def _lattice_rank(triples, most: int) -> int:
    """Rank of the sample matrix, each row reduced, fraction-free, against
    a basis of the rows kept so far.

    Each kept row is zero at the pivot columns of the rows kept before it,
    so reducing by the basis in order clears every pivot column; a row left
    nonzero joins the basis, divided by the gcd of its entries.  The
    samples lie in the kernel of the zero-sum map, of dimension ``most``,
    so a basis of that many rows is complete.
    """
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for t in triples:
        if len(basis) == most:
            break
        row = [c for w in t for c in w]
        for p, b in basis:
            x = row[p]
            if x:
                row = [b[p] * r - x * c for r, c in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is not None:
            g = math.gcd(*row)
            basis.append((pivot, [x // g for x in row]))
    return len(basis)
