"""Semantic exceptions shared across the package.

Numerical routines raise these instead of bare ValueError so callers (and
the CLI) can map failure modes to exit codes and structured error records.
"""


class GreyvarError(Exception):
    """Base class for all package errors."""


class DomainError(GreyvarError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NormalizationError(GreyvarError, ArithmeticError):
    """A normalization constant is degenerate (e.g. alpha_f ~ 0)."""


class CoverageError(GreyvarError, ValueError):
    """A sampling window fails to cover the region an estimator needs."""


class TruncationError(GreyvarError, ArithmeticError):
    """A truncated series/sum cannot meet its accuracy target."""


class ConfigError(GreyvarError, ValueError):
    """An experiment configuration is malformed or inconsistent.

    Carries the offending key so the CLI can name it in the error message.
    """

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")
