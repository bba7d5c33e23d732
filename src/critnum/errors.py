"""Exception types shared across the package.

Everything derives from CritnumError so callers can catch domain failures
with a single except clause while still letting programming errors
(TypeError and friends) propagate.
"""


class CritnumError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidOrder(CritnumError):
    """A group order (or order bound) is outside its allowed range."""


class InvalidFactor(CritnumError):
    """A group factor list contains an entry that is not an integer >= 2."""


class InvalidElement(CritnumError):
    """An element tuple or index does not belong to the group at hand."""


class InvalidIndex(CritnumError):
    """A requested subgroup index is not a divisor of the group order."""


class InvalidDivisor(CritnumError):
    """A divisor argument does not divide the relevant order."""


class InvalidH(CritnumError):
    """A fold count h is not a positive integer."""


class InvalidS(CritnumError):
    """An interval length s is outside its allowed range."""


class EmptySetError(CritnumError):
    """An operation that needs a nonempty subset received an empty one."""


class SpecMismatch(CritnumError):
    """Two objects that must live in the same group do not."""


class OutsideTheoremDomain(CritnumError):
    """Inputs fall outside the proven range of the formula requested."""


class WrongGroupClass(CritnumError):
    """The group is not in the class the formula applies to."""


class OutsideValidatedDomain(CritnumError):
    """Inputs are in a range that is deliberately not asserted; see docs."""


class BudgetExceeded(CritnumError):
    """A brute-force computation was refused because the group is too big."""


class InvalidWorkers(CritnumError):
    """A worker count is not an integer >= 1."""


class ConstructionInvariantViolated(CritnumError):
    """A built witness failed its own verification; nothing is returned."""


class QuotientUnavailable(CritnumError):
    """The requested quotient type is not realizable in this group."""


class ConditionViolated(CritnumError):
    """A parameter vector fails the hypothesis of the bound it feeds."""
