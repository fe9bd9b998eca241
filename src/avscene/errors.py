"""Error classes and the integer rule shared across the package.

Configuration and data errors are ``ValueError``s and numeric errors an
``ArithmeticError``, so a caller can catch the package's class or the
built-in one. ``is_int`` is the package's one test for an integer.
"""

import numbers


class ConfigurationError(ValueError):
    """Invalid shapes, dimensions, or configuration values."""


class DataError(ValueError):
    """Malformed or out-of-contract input data (files, labels, matrices)."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


def is_int(value) -> bool:
    """Whether value is an integer, Python's or numpy's; a bool is none."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
