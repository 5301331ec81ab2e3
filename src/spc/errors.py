"""Exception hierarchy shared across the package.

Each class maps onto one CLI exit code so failures stay diagnosable from
shell scripts: config problems, data problems, and numeric breakdowns are
distinct categories.
"""


class SpcError(Exception):
    """Base class for all package errors."""


class ConfigError(SpcError):
    """Invalid or inconsistent configuration values."""


class DataError(SpcError):
    """Unreadable, malformed, or internally inconsistent input data."""


class NumericError(SpcError):
    """A computation produced non-finite values or otherwise broke down."""
