"""Exception types shared across the package."""


class MassconsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MassconsError, ValueError):
    """A point or radius lies outside the region where an operation is defined."""


class ContractError(MassconsError, ValueError):
    """Arguments violate an interface contract (arity, coverage, consistency)."""


class ConfigurationError(MassconsError, ValueError):
    """Invalid configuration value or configuration file; ``key`` is the config key at fault, if any."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.key = key


class DegenerateDirectionError(MassconsError, ArithmeticError):
    """The search direction has no observed content; no step length exists."""


class SingularSystemError(MassconsError, ArithmeticError):
    """The collocation matrix is identically zero / has no nonzero singular values."""


class NonDescentError(MassconsError, ArithmeticError):
    """The line search ended with a larger objective than it started from."""
