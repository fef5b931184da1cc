"""Exception types raised by the library."""


class MonoidError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(MonoidError):
    """No generators were supplied."""


class ZeroGenerator(MonoidError):
    """A generator was zero or negative."""


class NonCoprime(MonoidError):
    """The generators have gcd greater than 1."""


class GeneratorTooLarge(MonoidError):
    """A generator exceeds the configured cap."""


class NotInMonoid(MonoidError):
    """The element has no factorization over the generators."""


class EnumerationLimitExceeded(MonoidError):
    """Refusing to enumerate factorizations of an element this large."""


class NoSubcollection(MonoidError):
    """No proper subcollection with the required congruence exists."""


class SOutOfRange(MonoidError):
    """The residue coordinate is outside [0, k)."""


class InvalidTuple(MonoidError):
    """The (c, s, x) triple violates the elasticity-tuple bounds."""


class NotArithmetical(MonoidError):
    """The monoid is not generated by an arithmetic progression."""


class NotApplicable(MonoidError):
    """The construction requires gcd(a, k) >= 2."""


class NonIntegerResult(MonoidError):
    """An exact formula produced a non-integer where an integer was required."""


class IncompatibleParams(MonoidError):
    """The two parameter sets are not related by an integer scale factor."""


class SingleGenerator(MonoidError):
    """The operation is undefined for a single-generator monoid."""


class IndexOutOfRange(MonoidError):
    """Sequence index or step out of range."""


class InternalInconsistency(MonoidError):
    """A result broke an invariant the library relies on (a bug, not bad input)."""
