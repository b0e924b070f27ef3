"""Exception types shared across the package."""


class SelSolveError(Exception):
    """Base class for all library errors."""


class NonlinearProductError(SelSolveError):
    """Both factors of a product carry symbolic unknowns."""


class InconsistentSystemError(SelSolveError):
    """A contradiction (nonzero constant = 0) was derived while solving."""

    def __init__(self, message="linear system is inconsistent"):
        super().__init__(message)


class TooLargeError(SelSolveError):
    """Problem exceeds the configured desk-scale guard."""


class ParseError(SelSolveError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BoundsError(ParseError):
    """Row or column index outside the declared matrix shape."""


class SingularSampleError(SelSolveError):
    """Could not draw an invertible random matrix within the retry bound."""
