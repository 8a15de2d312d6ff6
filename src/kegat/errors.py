"""Shared exception types, mapped to CLI exit codes by the harness."""


class DataFormatError(Exception):
    """Malformed input data (exit code 2)."""


class NumericError(Exception):
    """Numeric failure such as NaN/Inf during training (exit code 3)."""
