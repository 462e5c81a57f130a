"""Exception types shared across the package.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable error objects.
"""


class IsorbitError(Exception):
    """Base class for all library errors."""

    code = "Error"


class DimensionMismatchError(IsorbitError):
    code = "DimensionMismatch"


class NotAtomicError(IsorbitError):
    code = "NotAtomic"


class InvalidRotationError(IsorbitError):
    code = "InvalidRotation"


class DimensionTooLargeError(IsorbitError):
    code = "DimensionTooLarge"


class IterationCapExceededError(IsorbitError):
    code = "IterationCapExceeded"


class ClosureCapExceededError(IsorbitError):
    code = "ClosureCapExceeded"


class BoxTooLargeError(IsorbitError):
    code = "BoxTooLarge"


class DigitLimitExceededError(IsorbitError):
    """An integer to be written has more decimal digits than Python converts
    to text (sys.get_int_max_str_digits(); the limit guards against
    quadratic int-to-str work)."""

    code = "DigitLimitExceeded"


class InvalidDomainError(IsorbitError):
    code = "InvalidDomain"


class InputError(IsorbitError):
    """Malformed input: bad JSON, missing or ill-typed fields, or a value
    that is not an int where an integer is required."""

    code = "ParseError"
