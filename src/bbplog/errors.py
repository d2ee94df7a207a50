"""Exception types shared across the package."""


class BbpError(Exception):
    """Base class for all package errors."""


class DomainError(BbpError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class PrecisionError(BbpError, ArithmeticError):
    """A result cannot be certified at the requested precision.

    Raised when the tracked error interval of an input is too wide for an
    operation to produce any meaningful bound (e.g. a divisor interval
    containing zero), never for ordinary rounding.
    """


class ValidationError(BbpError, ValueError):
    """A formula object violates one of its structural invariants, or an
    argument is outside the range a function accepts (a window of no
    bits, a negative position, too few fraction bits, a negative error
    bound, a negative count of decimal digits).

    The message names the offending field or argument.
    """


class ParseError(BbpError, ValueError):
    """A formula file is syntactically malformed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedFormulaError(BbpError, ValueError):
    """A structurally valid formula is outside what an algorithm supports."""
