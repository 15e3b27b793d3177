"""Exact tensor-cone classification for semisimple groups.

Root systems and Weyl groups in exact integer arithmetic, the degenerated
(inversion-set) product on the cohomology of the full flag variety, PRV /
cohomological / regularly-extremal classification of dominant weight
tuples, and the independent brute-force oracles (tensor decompositions and
divided-difference cup products) that verify the combinatorial fast paths.
"""

__version__ = "0.1.0"

from .bkring import (
    CohomClass,
    bk_coefficient,
    bk_partner,
    bk_product,
    enumerate_levi_movable_tuples,
    enumerate_partition_tuples,
    is_levi_movable,
    poincare_dual,
)
from .classify import (
    FaceSample,
    StableStatus,
    TripleClassification,
    classify,
    cohomological_witnesses,
    face_sample,
    prv_witnesses,
    regularly_extremal_witnesses,
)
from .cupcalc import (
    SchubertCalculus,
    cup_coefficient,
    cup_product,
    schubert_calculus,
    schubert_representative,
)
from .errors import (
    BkcalcError,
    GroupTooLarge,
    InvalidWitness,
    MixedRootSystems,
    NonDominantInput,
    OracleOverflow,
    RankMismatch,
    UnsupportedType,
)
from .rootsys import (
    GroupType,
    RootSystem,
    Weight,
    borel_weil_bott,
    build_root_system,
    is_dominant,
)
from .tensoracle import (
    Decomposition,
    OracleBudget,
    decompose,
    invariant_dim,
    stable_mult_probe,
    weight_multiplicities,
    weyl_dim,
)
from .weyl import (
    WeylElement,
    WeylGroup,
    enumerate_weyl,
    format_word,
    multiply,
    parse_word,
    weyl_group,
)
