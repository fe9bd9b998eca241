"""Error classes shared across the package.

Configuration and data errors are ``ValueError``s and numeric errors an
``ArithmeticError``, so a caller can catch the package's class or the
built-in one.
"""


class ConfigurationError(ValueError):
    """Invalid shapes, dimensions, or configuration values."""


class DataError(ValueError):
    """Malformed or out-of-contract input data (files, labels, matrices)."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""
