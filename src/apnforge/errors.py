"""Exception types shared across the package.

ValidationError subclasses signal bad input (CLI exit code 2), InternalError
subclasses signal a broken internal invariant (CLI exit code 1).
"""


class ApnForgeError(Exception):
    pass


class ValidationError(ApnForgeError):
    pass


class InternalError(ApnForgeError):
    pass


class ReducibleModulus(ValidationError):
    """Supplied modulus factors over GF(2)."""


class DegreeOutOfRange(ValidationError):
    """Field or polynomial degree outside the supported bounds."""


class ContextMismatch(ValidationError):
    """Operands belong to different field contexts."""


class DegreeNotMultipleOfThree(ValidationError):
    """A cubic-extension operation was asked of a field whose degree is not 3k."""


class DegreeMismatch(ValidationError):
    """Embedding requested between fields whose degrees do not divide."""


class TraceNotZero(ValidationError):
    """Parameter must lie in the kernel of the relative trace."""


class FieldTooLarge(ValidationError):
    """Field exceeds the enumeration limit of the requested operation."""


class DegreeTooSmall(ValidationError):
    """Polynomial degree below the operation's minimum."""


class DegreeShapeMismatch(ValidationError):
    """Degree is not of the 4e shape (e odd, e = 3 mod 4) the divisor search needs."""


class SearchSpaceTooLarge(ValidationError):
    """Requested search mode is not exhaustible at this field size."""


class DegreeNot12(ValidationError):
    """The degree-12 classifier only accepts degree-12 input."""


class NotQAffine(ValidationError):
    """Polynomial has a monomial whose exponent is neither 0 nor a power of 2."""


class DivisionByZero(ValidationError, ZeroDivisionError):
    """Division by the zero polynomial."""


class UnknownFamilyKind(ValidationError, ValueError):
    """Degree-12 family kind is neither CUBE_OF_L nor L_OF_CUBE."""


class UnknownSearchMode(ValidationError, ValueError):
    """Divisor search mode is neither FULL nor CONSTRAINED."""


class NotPositive(ValidationError, ValueError):
    """An exponent or extension degree that must be positive is not."""


class PolySyntaxError(ValidationError):
    """Text form could not be parsed; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownCoefficient(ValidationError):
    """Coefficient bit-pattern does not name an element of the field."""


class NoRoot(InternalError):
    """No root of the source modulus in the target field; impossible when the
    source degree divides the target degree, so treated as an internal failure."""


class InternalNonExactDivision(InternalError):
    """The quotient construction produced a nonzero remainder; must never fire."""


class InvariantViolation(InternalError):
    """A result failed its own verification (a witness that does not rebuild
    f, a quartic that is not a permutation, a product that disagrees with its
    closed form). Raised rather than asserted so the check survives python -O."""
