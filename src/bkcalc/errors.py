"""Exception types shared across the package."""


class BkcalcError(Exception):
    """Base class for all package errors."""


class UnsupportedType(BkcalcError):
    """Group type outside the supported range (bad rank, or E7/E8)."""


class GroupTooLarge(BkcalcError):
    """Weyl group (or enumeration request) exceeds its size cap."""


class MixedRootSystems(BkcalcError):
    """Operation mixing elements of different root systems."""


class RankMismatch(BkcalcError):
    """Weight length does not match the group rank."""


class NonDominantInput(BkcalcError):
    """A dominant weight was required."""


class InvalidWitness(BkcalcError):
    """Weyl-element tuple does not partition the positive roots."""


class OracleOverflow(BkcalcError):
    """Tensor-oracle size budget exceeded.

    ``partial`` carries whatever exact results were computed before the
    budget ran out (never an approximation).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial if partial is not None else []
