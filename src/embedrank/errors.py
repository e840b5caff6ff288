"""Exception types shared across the package.

Everything derives from EmbedrankError so callers (and the CLI) can catch one
base class.  Names describe the violated precondition, not the call site.
"""


class EmbedrankError(Exception):
    """Base class for all package-specific errors."""


class NonPrimeModulus(EmbedrankError):
    """A matrix modulus is not prime."""


class NoDefaultIrreducible(EmbedrankError):
    """No built-in irreducible polynomial for the requested field size."""


class NoField(EmbedrankError):
    """The requested order is not a prime power, so no field exists."""


class TooLarge(EmbedrankError):
    """An input exceeds a documented size bound (e.g. p >= 256)."""


class BadDimension(EmbedrankError):
    """Matrix or vector shapes are inconsistent."""


class BadIndex(EmbedrankError):
    """A point or block index is out of range."""


class NonUniformBlockSize(EmbedrankError):
    """An operation requires uniform block size and the input lacks it."""


class WrongParameters(EmbedrankError):
    """Design parameters fall outside an operation's documented family."""


class NotGoodBlock(EmbedrankError):
    """The named block does not induce the required substructure."""


class CapExceeded(TooLarge):
    """An enumeration exceeded its configured cap."""


class NotACodeword(EmbedrankError):
    """A vector claimed to lie in a code does not."""


class NotBent(EmbedrankError):
    """A Boolean function fails the flat-spectrum test."""


class InfeasibleInstance(EmbedrankError):
    """The instance is outside the sizes this search supports."""


class InternalCheckFailed(EmbedrankError):
    """A cross-check that should always pass failed; indicates a bug."""
