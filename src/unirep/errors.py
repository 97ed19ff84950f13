"""Exception hierarchy shared across the library."""


class UnirepError(Exception):
    """Base class for all library errors."""


class ModulusMismatchError(UnirepError):
    """Residues of different moduli were combined."""


class ConversionError(UnirepError):
    """A rational could not be reduced mod p (p divides the denominator)."""


class ShapeError(UnirepError):
    """A matrix or index argument violated a structural precondition."""


class NotNilpotentError(UnirepError):
    """A matrix failed to be nilpotent within the allowed cap."""


class SeriesTerminationError(UnirepError):
    """An exp/log series would need a denominator divisible by the characteristic."""


class HypothesisError(UnirepError):
    """A theorem hypothesis (such as p >= max(n, 2d)) does not hold."""


class CostBoundError(UnirepError):
    """A requested computation exceeds a fixed cost bound."""


class ParseError(UnirepError):
    """A representation or layer file is malformed."""
